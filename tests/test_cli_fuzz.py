"""The command line on argv drawn by hypothesis: every exit is 0, 1 or 2.

Each draw is one of the nine subcommands with its flags, each flag absent,
given once or repeated, and each value valid, empty, not an integer,
negative or of the wrong length.  The input is Selberg's arrangement or an
unknown catalog key.  m and k stay at or below 10^4, so no draw factorises
a large prime.  Whatever the draw, no exception leaves main, exit 1 writes
nothing to stdout, and its stderr is one ``error:`` line or argparse's usage
message.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arrcover.cli import main  # noqa: E402

N = 5  # hyperplanes of Selberg's arrangement

# empty, not an integer, negative, and a CSV of the wrong length
BAD = st.sampled_from(["", "x", "-3", "1,2"])
SMALL = st.integers(0, 12).map(str)
POSITIVE = st.integers(1, 10**4).map(str)
DEGREE = st.integers(-1, 3).map(str)
CSV = st.lists(st.integers(-2, 2), min_size=N, max_size=N).map(
    lambda v: ",".join(map(str, v)))
PAIR = st.tuples(SMALL, SMALL).map("=".join)
TRIPLE = st.tuples(SMALL, SMALL, SMALL).map(lambda t: f"{t[0]}:{t[1]}={t[2]}")


def flag(name, valid):
    """name VALUE, absent, once or repeated; three values in four are valid,
    so that most draws reach a command."""
    values = st.lists(st.one_of(valid, valid, valid, BAD), max_size=2)
    return values.map(lambda vs: [token for v in vs for token in (name, v)])


def switch(name):
    return st.booleans().map(lambda on: [name] if on else [])


COMMANDS = {
    "info": [],
    "lattice": [],
    "os": [switch("--matrices"), flag("--k-vector", CSV)],
    "local-betti": [flag("--k", POSITIVE), flag("--shift", CSV), flag("--assert", PAIR)],
    "cover-betti": [flag("--m", POSITIVE), flag("--assert", TRIPLE)],
    "charpoly": [flag("--m", POSITIVE), flag("--q", DEGREE), flag("--assert", TRIPLE)],
    "periodicity": [flag("--assert", TRIPLE)],
    "zeta": [flag("--q", DEGREE), flag("--assert", TRIPLE)],
}
INPUT = st.sampled_from([["--catalog", "selberg"]] * 3 + [["--catalog", "no-such-key"]])
FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "text"], ["--format", "x"]])
KEY = st.sampled_from([[], ["selberg"], ["no-such-key"]])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["catalog"]))
    if command == "catalog":
        action = draw(st.sampled_from(["list", "show", "x"]))
        return ["catalog", action, *draw(KEY), *draw(FORMAT)]
    parts = [draw(INPUT), *(draw(strategy) for strategy in COMMANDS[command]), draw(FORMAT)]
    return [command, *(token for part in parts for token in part)]


@settings(max_examples=300)
@given(argvs())
def test_every_exit_is_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        one_error_line = err.startswith("error: ") and err.count("\n") == 1
        assert one_error_line or err.startswith("usage: "), (argv, err)
    else:
        assert out and not err, argv
