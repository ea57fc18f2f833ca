"""Every entry of ``tools/untested_allow.txt`` names a line that exists.

``tools/untested_lines.py`` runs the suite under a tracer and stays
outside tier-1; its allowlist check needs no tracer and runs here too, so
a change that rewrites or deletes a listed line fails in this suite as
well as in the tool.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "untested_lines", ROOT / "tools" / "untested_lines.py")
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)


def test_allowlist_entries_name_lines_of_the_package():
    entries = untested_lines.read_allowlist()
    assert entries
    assert untested_lines.allowlist_errors(entries) == []
