"""Every function and method of the engine has a caller in the engine.

Engine code that only tests call is either moved into the tests or deleted;
the few that stay are listed in ALLOWED with the reason.  oracle.py is the
deliberate reference: its own definitions are not checked, but what it calls
counts as called.
"""

import ast
from collections import Counter
from pathlib import Path

import qrr

SRC = Path(qrr.__file__).parent

ALLOWED = {
    # references that tests compare against
    "invert_unit": "the series inverse that the product-side references divide by; perfbench's series.invert layer wraps it",
    "specialize": "the reference that `rs_at` is checked against",
    "scale_series": "the reference of the embedded product and the per-term Rogers-Szego sum",
    # the value types' public methods
    "truncate": "QSeries' public truncation",
    "valuation": "QSeries' public lowest exponent",
    "same_through": "QSeries' and ZSeries' public comparison through an order",
    "is_real": "GaussianInt's and QSeries' public realness test",
    "one": "QSeries' public constant 1, beside `zero` and `term`",
}


def _references(tree) -> Counter:
    """The names a tree refers to: names, attributes, imported names and the
    strings of `__all__`."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            out.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return out


def _uncalled() -> list:
    """(module, name) of each function or method outside oracle.py that no
    code in the package refers to, its own body left out; dunders exempt."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = sum(map(_references, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        if module == "oracle.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and refs[name] <= _references(node)[name]:
                    out.append((module, name))
    return out


def test_every_engine_function_has_an_engine_caller():
    assert [(m, name) for m, name in _uncalled() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_uncalled():
    assert {name for _, name in _uncalled()} == set(ALLOWED)
