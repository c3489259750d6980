"""`import qrr` loads only `qrr.errors`; each public name loads its module on
first read, and a sum-side job never loads the z-Laurent layer or the
derivation chains.

What a job loads is read from `sys.modules` of a fresh interpreter, so each
such test runs its code in a subprocess.
"""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
import qrr

SRC = str(Path(qrr.__file__).resolve().parent.parent)
Z_LAYER = ("qrr.special", "qrr.zseries", "qrr.replay")

PRELUDE = """
import io, json, sys
sys.path.insert(0, %r)
""" % SRC


def _fresh(code: str):
    """The JSON value that `code`, run in a fresh interpreter, prints last."""
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m == 'qrr' or m.startswith('qrr.'))"


def test_import_qrr_loads_only_errors():
    assert _fresh("import qrr\nprint(json.dumps(%s))" % LOADED) == ["qrr", "qrr.errors"]


@pytest.mark.parametrize(
    "job",
    [
        "from qrr import corpus\nassert qrr.verify(corpus.load('rogers_mod5_1_4'), 60).status == 'match'",
        "from fractions import Fraction as F\n"
        "A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))\n"
        "qrr.nahm_series(qrr.NahmData(a=A3, b=(0, 0, 0), c=F(0)), 20)",
        "from qrr import cli\nassert cli.main(['verify', '--order', '20'], out=io.StringIO()) == 0",
        "from qrr import cli\nassert cli.main(['nahm', '--A', '2', '--order', '20'], out=io.StringIO()) == 0",
        "from qrr import cli\nassert cli.main(['table', '--order', '5'], out=io.StringIO()) == 0",
    ],
    ids=["verify", "nahm_series", "cli-verify", "cli-nahm", "cli-table"],
)
def test_a_sum_side_job_loads_no_z_layer(job):
    loaded = _fresh("import qrr\n%s\nprint(json.dumps(%s))" % (job, LOADED))
    assert "qrr.identity" in loaded
    assert [m for m in Z_LAYER if m in loaded] == []


def test_reading_replay_loads_no_module():
    code = "import qrr\nbefore = %s\nfn = qrr.replay\nprint(json.dumps([before, %s, callable(fn)]))"
    before, after, is_callable = _fresh(code % (LOADED, LOADED))
    assert before == after == ["qrr", "qrr.errors"]
    assert is_callable


@pytest.mark.parametrize(
    "prelude",
    [
        "import qrr.replay",
        "import qrr\nimport qrr.replay",
        "from qrr.replay import REPLAYS",
        "import qrr\nfrom qrr import cli\nassert cli.main(['replay', '1.5', '--order', '20'], out=io.StringIO()) == 0",
    ],
    ids=["import-submodule-first", "import-submodule-after", "from-submodule", "cli-replay"],
)
def test_replay_stays_the_function_in_every_import_order(prelude):
    code = (
        "%s\nimport qrr, types\n"
        "chain_passes = sys.modules['qrr.replay'].chain_passes\n"
        "print(json.dumps([isinstance(qrr.replay, types.FunctionType), chain_passes(qrr.replay('1.7', 20))]))"
    )
    assert _fresh(code % prelude) == [True, True]


def test_the_package_replay_runs_the_modules_chain():
    module = import_module("qrr.replay")
    assert qrr.replay is not module
    assert [s.to_json() for s in qrr.replay("1.5", 12)] == [s.to_json() for s in module.replay("1.5", 12)]
    with pytest.raises(KeyError, match="unknown derivation id '2.1'"):
        qrr.replay("2.1", 12)


def test_every_public_name_is_its_modules_object():
    for name in qrr.__all__:
        home = qrr._HOME.get(name, "errors")
        if name != "replay":
            assert getattr(qrr, name) is getattr(import_module("qrr." + home), name), name


def test_dir_and_star_import_cover_all():
    assert set(qrr.__all__) <= set(dir(qrr))
    assert len(set(qrr.__all__)) == len(qrr.__all__)
    namespace = {}
    exec("from qrr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qrr.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'qrr' has no attribute 'no_such_name'"):
        qrr.no_such_name
