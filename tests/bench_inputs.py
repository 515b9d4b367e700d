"""The benchmark's seeded inputs (perfbench/inputs.py), read as the package
reads a file."""

import sys
from pathlib import Path

from arrcover.fileformat import parse_file

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402


def braid_decone(L, seed):
    return parse_file(inputs.arrangement_file(f"braid-{L}", inputs.braid_decone(L, seed)))


def generic_lines(n, seed):
    return parse_file(inputs.arrangement_file(f"generic-{n}", inputs.generic_lines(n, seed)))
