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


def test_import_does_not_load_scipy_spatial():
    """scipy.spatial costs about 0.1 s and 10 MB per fresh interpreter, and
    no module in the package imports it: kernel blocks add squared
    coordinate differences themselves. scipy.ndimage costs about 0.1 s, and
    only the trimap band and the scene blur load it, on first use."""
    code = ("import sys, denseseg, denseseg.cli; "
            "print([m in sys.modules for m in ('scipy.spatial', 'scipy.ndimage')])")
    assert fresh_stdout(code) == "[False, False]"


def test_core_import_loads_no_scipy():
    """The package does not import its submodules, so the file formats load
    numpy alone: no scipy module, where a package that re-exported every
    module loaded about 120."""
    code = ("import sys, denseseg.core; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert fresh_stdout(code) == "[]"


def test_readme_library_example_runs():
    """The README's library example imports from the defining modules and
    runs as written."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(example, str(README), "exec"), scope)
    assert scope["state"].q.shape == (64, 64, 3)
    assert scope["labels"].labels.shape == (64, 64)
