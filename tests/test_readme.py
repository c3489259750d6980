"""README.md names only what the package has.

Every backticked dotted name that starts with `qrr.` or with the name of a
qrr module (`series._rows`, `_kernel_py.conv_terms`) must resolve by import
and getattr.  Other dotted names (`memoryview.cast`, `BENCH_40.json`) are
not the package's and are skipped.
"""

import pkgutil
import re
from functools import reduce
from importlib import import_module
from pathlib import Path

import qrr

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(qrr.__path__)}


def _names() -> list:
    """The package's backticked dotted names, each written from `qrr.`."""
    out = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", README.read_text(encoding="utf-8")):
        head = name.split(".")[0]
        if head == "qrr":
            out.append(name)
        elif head in MODULES:
            out.append("qrr." + name)
    return out


def _resolves(name: str) -> bool:
    """Whether the longest importable prefix of name holds the rest as
    attributes (qrr.replay is the module here, not the function the package
    exports under that name)."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            reduce(getattr, parts[i:], obj)
        except AttributeError:
            return False
        return True
    return False


def test_every_dotted_name_in_the_readme_resolves():
    names = _names()
    assert {"qrr.series._rows", "qrr.zseries._triple_product"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []
