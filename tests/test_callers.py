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
    "embed": "ZSeries' z-free window, which the reference for jtp_check's left side multiplies by",
    # the value types' public methods
    "truncate": "QSeries' public truncation",
    "valuation": "QSeries' public lowest exponent",
    "same_through": "QSeries' and ZSeries' public comparison through an order",
    "is_real": "GaussianInt's and QSeries' public realness test",
    "one": "QSeries' public constant 1, beside `zero` and `term`",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(fn) -> set:
    """The names a function or lambda binds: its parameters and every name
    it stores to, the bodies of the functions nested in it left out."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(tree):
    """(refs, own): the names a tree refers to, and for each function in it
    the names its own body refers to.  A bare name counts where it is read
    and not bound in an enclosing function, so a local variable calls
    nothing; an attribute, an imported name and a string of `__all__` or of
    the package's table of lazily loaded public names (`_LAZY`) always
    count."""
    refs, own = Counter(), {}

    def visit(node, bound, counters):
        if isinstance(node, _SCOPES):
            bound = bound | _bound(node)
            if not isinstance(node, ast.Lambda):
                own[node] = Counter()
                counters = counters + (own[node],)
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,) if isinstance(node.ctx, ast.Load) and node.id not in bound else ()
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.split(".")[-1],)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("__all__", "_LAZY") for t in node.targets):
            names = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        for counter in counters:
            counter.update(names)
        for child in ast.iter_child_nodes(node):
            visit(child, bound, counters)

    visit(tree, frozenset(), (refs,))
    return refs, own


def _package() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _uncalled(trees: dict) -> list:
    """(module, name) of each function or method outside oracle.py that no
    code in `trees` refers to, its own body left out; dunders exempt."""
    scans = {module: _references(tree) for module, tree in trees.items()}
    refs = sum((r for r, _ in scans.values()), Counter())
    out = []
    for module, (_, own) in scans.items():
        if module == "oracle.py":
            continue
        for node, inside in own.items():
            name = node.name
            if not (name.startswith("__") and name.endswith("__")) and refs[name] <= inside[name]:
                out.append((module, name))
    return out


def test_every_engine_function_has_an_engine_caller():
    assert [(m, name) for m, name in _uncalled(_package()) if name not in ALLOWED] == []


def test_every_allowed_name_is_still_defined_and_uncalled():
    assert {name for _, name in _uncalled(_package())} == set(ALLOWED)


SYNTHETIC = """
__all__ = ["engine"]


def step(x):
    return x + 1


def helper():
    return 0


def engine(xs):
    helper = [step(x) for x in xs]
    return helper
"""


def test_a_local_variable_is_no_caller():
    # `engine` reads its local `helper`, which calls nothing: the function
    # helper() is reported, and step(), called from the comprehension, is not
    assert _uncalled({"synthetic.py": ast.parse(SYNTHETIC)}) == [("synthetic.py", "helper")]
