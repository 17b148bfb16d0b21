"""The package's import cost and its documented library example."""

import os
import subprocess
import sys
from pathlib import Path

import denseseg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(denseseg.__file__)))
README = Path(__file__).resolve().parents[1] / "README.md"


def fresh_stdout(code: str) -> str:
    """Run `code` in a new interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


SCIPY_MODULES = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_import_does_not_load_scipy_spatial():
    """scipy.spatial costs about 0.1 s and 10 MB per fresh interpreter, and
    no module in the package imports it: kernel blocks add squared
    coordinate differences themselves. scipy.ndimage costs about 0.1 s, and
    only the trimap band and the scene blur load it, on first use, as the
    lattice loads scipy.sparse (see the test below)."""
    code = ("import sys, denseseg, denseseg.cli; "
            "print([m in sys.modules for m in ('scipy.spatial', 'scipy.ndimage')])")
    assert fresh_stdout(code) == "[False, False]"


def test_core_import_loads_no_scipy():
    """The package does not import its submodules, so the file formats load
    numpy alone: no scipy module, where a package that re-exported every
    module loaded about 120. The CLI loads none either (see the test below)."""
    code = f"import sys, denseseg.core; print({SCIPY_MODULES})"
    assert fresh_stdout(code) == "[]"


def test_cli_import_loads_no_scipy():
    """Only the lattice uses scipy.sparse, about 0.15 s and 75 scipy modules
    per fresh interpreter, and it loads it when it first builds: `--help`,
    `eval`, `synth` and argument errors start on numpy and the package alone."""
    code = f"import sys, denseseg, denseseg.cli; print({SCIPY_MODULES})"
    assert fresh_stdout(code) == "[]"


def test_lattice_in_a_fresh_interpreter_filters_the_same_bytes():
    """A lattice built where scipy.sparse is not yet loaded filters, and
    slices a row block, to the bytes of one built in this process."""
    code = """
import hashlib
import numpy as np
from denseseg.hdfilter import FeaturePoints, PermutohedralLattice
rng = np.random.default_rng(7)
lat = PermutohedralLattice(FeaturePoints(rng.normal(scale=3.0, size=(500, 5))))
values = rng.random((500, 4)).astype(np.float32)
block = lat.slice_rows(slice(100, 300), lat.splat_blur(values))
print(hashlib.sha256(lat.filter(values).tobytes() + block.tobytes()).hexdigest())
"""
    scope: dict = {}
    exec(code.replace("print(", "digest = ("), scope)
    assert "scipy.sparse" in sys.modules
    assert fresh_stdout(code) == scope["digest"]


def test_bench_loads_scipy_sparse_before_its_clock_starts():
    """`bench` loads the lattice's scipy.sparse before it times inference,
    so `build` times the build and not the import, and the stages still add
    up to the total."""
    code = """
import sys
from denseseg import cli
run = cli.run_inference
def spy(*args, **kwargs):
    print('scipy.sparse' in sys.modules)
    return run(*args, **kwargs)
cli.run_inference = spy
cli.main(['bench', '--height', '96', '--width', '128', '--labels', '4', '--iters', '3'])
"""
    loaded, header, *rows = fresh_stdout(code).splitlines()
    assert loaded == "True"
    assert header == "stage,seconds"
    times = dict(row.split(",") for row in rows)
    total = float(times.pop("total"))
    assert abs(sum(map(float, times.values())) - total) <= 0.05 * total


def test_readme_library_example_runs():
    """The README's library example imports from the defining modules and
    runs as written."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(example, str(README), "exec"), scope)
    assert scope["state"].q.shape == (64, 64, 3)
    assert scope["labels"].labels.shape == (64, 64)
