"""Print every executable line of ``src/frobkit`` that the test suite never
runs.

Standard library only: the suite runs in this process under ``sys.settrace``,
with a local tracer only in frames whose code lives under ``src/frobkit``,
and the executable lines are the line starts of every code object compiled
from those files.  Usage, from the repository root:

    python tools/untested_lines.py [pytest arguments]

The arguments default to the tier-1 suite (``-q tests``).  Each unexecuted
line prints as ``path:line: source``, followed by a count per file.  Tracing
slows the suite down about fourfold.  Lines that only run in a child
process (``python -m frobkit`` in a subprocess) count as unexecuted.
"""

from __future__ import annotations

import dis
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "frobkit")


def executable_lines(path):
    """The line numbers that start bytecode in the code compiled from path."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import pytest

    prefix = SRC + os.sep
    seen: dict = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # called on each "call" event; the local tracer gets the lines
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        # the first line of a code object (a def, a class or a module)
        # starts it, and may raise no line event of its own
        seen.setdefault(path, set()).add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(args or ["-q", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
    total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        missed = sorted(executable_lines(path) - seen.get(path, set()))
        for line in missed:
            print("%s:%d: %s" % (os.path.relpath(path, ROOT), line,
                                 source[line - 1].strip()))
        total += len(missed)
        print("# %s: %d unexecuted lines" % (name, len(missed)))
    print("# total: %d unexecuted lines (pytest exit status %d)"
          % (total, status))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
