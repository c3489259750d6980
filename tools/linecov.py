"""Print each executable line of src/qrr that no Tier-1 test reaches.

Usage, from the root of a checkout:

    python tools/linecov.py

It runs Tier-1 (pytest over the `tests` directory) in this process
under `sys.settrace` and `threading.settrace`, from before qrr is first
imported, so that module-level lines count too.  A line is executable when
it starts an instruction run of a compiled code object (`dis.findlinestarts`
over every code object of the file); each unreached one is printed as

    src/qrr/FILE:LINE FUNCTION: SOURCE

followed by one count, "N of M executable lines unreached".  The tracer
counts lines, not branches: a line holding `a if c else b` is reached when
either side runs.  Lines run only by a test's child process count as
unreached.  It is not part of Tier-1: it runs about three times slower.
"""

import dis
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qrr"


def executable_lines(path: Path) -> dict:
    """{line: qualified name of the innermost function that holds it} for
    every line that starts an instruction run of a code object in `path`."""
    lines = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        name = getattr(code, "co_qualname", code.co_name)
        for _, line in dis.findlinestarts(code):
            if line is not None:
                lines.setdefault(line, name)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


class Tracer:
    """Records (file, line) for every line run in a file under SRC, the
    file as an absolute path."""

    def __init__(self):
        self.reached = set()
        self.files = {}  # code object -> its absolute file if under SRC, else ""

    def call(self, frame, event, arg):
        code = frame.f_code
        path = self.files.get(code)
        if path is None:
            path = os.path.abspath(code.co_filename)
            path = self.files[code] = path if path.startswith(str(SRC) + os.sep) else ""
        if not path:
            return None
        self.reached.add((path, frame.f_lineno))
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.reached.add((self.files[frame.f_code], frame.f_lineno))
        return self.line


def main() -> int:
    tracer = Tracer()
    # Hypothesis traces its examples only while no tracer is set, so it
    # leaves this one in place
    sys.settrace(tracer.call)
    threading.settrace(tracer.call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unreached = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, name in sorted(executable_lines(path).items()):
            total += 1
            if (str(path), line) not in tracer.reached:
                unreached += 1
                print("%s:%d %s: %s" % (path.relative_to(ROOT), line, name, source[line - 1].strip()))
    print("%d of %d executable lines unreached" % (unreached, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
