"""The line budget of src/fdsic (ROADMAP item 6): non-blank lines, counted as
scripts/src_lines.py counts them. A change that needs more raises
SRC_LINE_BUDGET and gives the reason in CHANGES.md."""

import importlib.util
from pathlib import Path

SRC_LINE_BUDGET = 1576

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _SCRIPT)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_src_stays_within_the_line_budget():
    counts = src_lines.count_lines()
    assert sum(counts.values()) <= SRC_LINE_BUDGET, counts

