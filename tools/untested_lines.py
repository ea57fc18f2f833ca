"""Print every executable line of ``src/frobkit`` that the test suite never
runs, and check the lines against ``tools/untested_allow.txt``.

Standard library only: the suite runs in this process under ``sys.settrace``,
with a local tracer only in frames whose code lives under ``src/frobkit``,
and the executable lines are the line starts of every code object compiled
from those files.  Usage, from the repository root:

    python tools/untested_lines.py [pytest arguments]

The arguments default to the tier-1 suite (``-q tests``).  Tracing slows
the suite down about fourfold.  Lines that only run in a child process
count as unexecuted.

Each line of the allowlist reads ``path<TAB>stripped source<TAB>reason``
(blank lines and lines starting with ``#`` are skipped), with the path
relative to the repository root.  An entry is keyed by its text, not by
its line number, and covers one unexecuted line with that text in that
file; a text that occurs twice untested needs two entries.  Every
unexecuted line that no entry covers prints as ``path:line: source``, and
every entry left over prints as ``stale: path: source``.  The exit status
is 1 when either kind is printed, else pytest's own.  An entry that names
no file under ``src/frobkit``, gives no reason, or lists a line that its
file does not hold (as often as it is listed) is refused before the suite
runs, with exit status 1; ``tests/test_untested_allow.py`` runs the same
check in the tier-1 suite.
"""

from __future__ import annotations

import dis
import os
import sys
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "frobkit")
ALLOW = os.path.join(ROOT, "tools", "untested_allow.txt")


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


def read_allowlist(path=ALLOW):
    """The entries of the allowlist as (path, source, reason) triples; a
    line without exactly two tabs raises ValueError."""
    entries = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError("%s:%d: need path, source and reason "
                                 "separated by tabs" % (path, number))
            entries.append(tuple(fields))
    return entries


def allowlist_errors(entries, root=ROOT):
    """One message per entry that names no file under src/frobkit, lists
    no source or gives no reason, and per (path, source) listed more often
    than the file holds it as a stripped line."""
    errors = []
    listed: Counter = Counter()
    for path, text, reason in entries:
        full = os.path.join(root, path)
        if not (path.startswith("src/frobkit/") and os.path.isfile(full)):
            errors.append("%s: not a file under src/frobkit" % path)
        elif not text or not reason.strip():
            errors.append("%s: %r: needs a source line and a reason"
                          % (path, text))
        else:
            listed[path, text] += 1
    for (path, text), count in sorted(listed.items()):
        with open(os.path.join(root, path)) as fh:
            held = [line.strip() for line in fh].count(text)
        if held < count:
            errors.append("%s: %r listed %d times, found %d"
                          % (path, text, count, held))
    return errors


def main(args):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import pytest

    entries = read_allowlist()
    errors = allowlist_errors(entries)
    for error in errors:
        print("bad allowlist entry: %s" % error)
    if errors:
        return 1
    allowed = Counter((p, s) for p, s, _ in entries)
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
    total = unlisted = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        rel = os.path.relpath(path, ROOT)
        with open(path) as fh:
            source = fh.read().splitlines()
        missed = sorted(executable_lines(path) - seen.get(path, set()))
        for line in missed:
            text = source[line - 1].strip()
            if allowed[rel, text]:
                allowed[rel, text] -= 1
            else:
                print("%s:%d: %s" % (rel, line, text))
                unlisted += 1
        total += len(missed)
    stale = sum(allowed.values())
    for (rel, text), count in sorted(allowed.items()):
        for _ in range(count):
            print("stale: %s: %s" % (rel, text))
    print("# %d unexecuted lines: %d allowed, %d unlisted; %d stale "
          "allowlist entries (pytest exit status %d)"
          % (total, total - unlisted, unlisted, stale, status))
    return 1 if unlisted or stale else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
