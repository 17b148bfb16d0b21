"""The package's public surface."""

import denseseg


def test_every_export_resolves_once():
    """A stale name in __all__ still lets `import denseseg` succeed; it fails
    only `from denseseg import *`, which nothing else in the suite runs."""
    assert len(set(denseseg.__all__)) == len(denseseg.__all__)
    assert [name for name in denseseg.__all__ if not hasattr(denseseg, name)] == []
