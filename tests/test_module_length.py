"""No module of the package grows past 914 lines, the length of the largest
(``groupoid.py``) when the guard was last lowered: it was set at 993, the
length of ``representations.py`` then, and lowered when the transitive
isomorphism check lost its scans, so that the compile headroom they freed
is kept.

Every process that runs the package from source compiles its modules, and
the compile of the largest one sets a floor under the process's peak
memory: when ``orbits.py`` was split out, ``groupoid.py`` grown to 912
lines peaked at 3.5 MB to compile against 2.75 MB, and the import's peak
RSS rose 0.3 MB.  New code goes into the module it belongs to, or a module
of its own, rather than growing the largest.
"""

import pathlib

import pytest

MAX_LINES = 914
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "groupalg"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_is_longer_than_the_limit(path):
    lines = len(path.read_text(encoding="utf-8").splitlines())
    assert lines <= MAX_LINES, f"{path.name} has {lines} lines, over {MAX_LINES}"
