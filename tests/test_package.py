"""The package's public surface."""

import os
import subprocess
import sys

import denseseg


def test_every_export_resolves_once():
    """A stale name in __all__ still lets `import denseseg` succeed; it fails
    only `from denseseg import *`, which nothing else in the suite runs."""
    assert len(set(denseseg.__all__)) == len(denseseg.__all__)
    assert [name for name in denseseg.__all__ if not hasattr(denseseg, name)] == []


def test_import_does_not_load_scipy_spatial():
    """scipy.spatial costs about 0.1 s and 10 MB per fresh interpreter, and
    no module in the package imports it: kernel blocks add squared
    coordinate differences themselves."""
    code = "import sys, denseseg, denseseg.cli; print('scipy.spatial' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(denseseg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
