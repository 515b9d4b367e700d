"""File format parsing and the command-line surface (exit codes, JSON shape)."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import arrcover
from arrcover import catalog
from arrcover.cli import main
from arrcover.fileformat import (
    ArrangementFileError,
    arrangement_to_dict,
    parse_file,
    serialize_arrangement,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# parse_file.
# ---------------------------------------------------------------------------

def test_parse_selberg_file(selberg):
    text = serialize_arrangement(selberg, "selberg")
    parsed = parse_file(text.encode())
    assert parsed.n == 5 and parsed.ell == 2
    assert parsed == selberg


def test_parse_maclane_file(maclane_decone):
    parsed = parse_file(serialize_arrangement(maclane_decone, "maclane-decone"))
    assert parsed.n == 7 and parsed.ell == 2 and parsed.cyc_order == 3


def test_parse_rejects_wrong_arity(selberg):
    data = arrangement_to_dict(selberg, "bad")
    data["hyperplanes"][0]["constant"] = ["0", "0"]  # phi(1) = 1
    with pytest.raises(ArrangementFileError, match="phi"):
        parse_file(json.dumps(data))


def test_parse_rejects_malformed_rational(selberg):
    data = arrangement_to_dict(selberg, "bad")
    data["hyperplanes"][2]["coeffs"][0] = ["1.5"]
    with pytest.raises(ArrangementFileError, match="malformed rational"):
        parse_file(json.dumps(data))


def test_parse_rejects_duplicates(selberg):
    data = arrangement_to_dict(selberg, "bad")
    data["hyperplanes"].append(
        {"constant": ["-2"], "coeffs": [["2"], ["0"]]}  # 2x - 2 = 2(x - 1)
    )
    with pytest.raises(ArrangementFileError, match="duplicate"):
        parse_file(json.dumps(data))


def test_parse_rejects_non_essential():
    data = {
        "name": "thin",
        "ambient_dim": 2,
        "cyclotomic_order": 1,
        "hyperplanes": [
            {"constant": ["0"], "coeffs": [["1"], ["0"]]},
            {"constant": ["-1"], "coeffs": [["1"], ["0"]]},
        ],
    }
    with pytest.raises(ArrangementFileError, match="rank 1"):
        parse_file(json.dumps(data))


def test_parse_rejects_bad_json():
    with pytest.raises(ArrangementFileError, match="line"):
        parse_file(b"{ not json")


def boolean_field_file(field):
    """One point on the line over Q, with field set to the JSON true that
    Python reads as the int 1."""
    data = {
        "ambient_dim": 1,
        "cyclotomic_order": 1,
        "hyperplanes": [{"constant": ["0"], "coeffs": [["1"]]}],
    }
    data[field] = True
    return json.dumps(data)


@pytest.mark.parametrize("field", ["ambient_dim", "cyclotomic_order"])
def test_parse_rejects_boolean_integer_fields(capsys, tmp_path, field):
    text = boolean_field_file(field)
    assert parse_file(text.replace("true", "1")).n == 1
    with pytest.raises(ArrangementFileError, match=f"^{field} must be a positive integer$"):
        parse_file(text)
    path = tmp_path / "bool.json"
    path.write_text(text)
    code, out, err = run(capsys, "info", "--file", str(path))
    assert (code, out) == (1, "")
    assert f"{field} must be a positive integer" in err


def test_huge_cyclotomic_order_is_rejected_at_once(tmp_path):
    # factoring 2^61 - 1 for phi by trial division would take hours
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "ambient_dim": 1,
        "cyclotomic_order": 2**61 - 1,
        "hyperplanes": [{"constant": ["0"], "coeffs": [["1"]]}],
    }))
    env = dict(os.environ, PYTHONPATH=str(Path(arrcover.__file__).parent.parent))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "arrcover", "info", "--file", str(path)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert time.monotonic() - start < 10
    assert (proc.returncode, proc.stdout) == (1, "")
    assert f"expected phi({2**61 - 1}) > 1 rationals" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_small_cyclotomic_order_keeps_the_exact_phi_message(selberg):
    data = arrangement_to_dict(selberg, "bad")
    data["cyclotomic_order"] = 9
    with pytest.raises(ArrangementFileError, match=r"expected phi\(9\) = 6 rationals, got 1"):
        parse_file(json.dumps(data))


def test_serialize_round_trip_bytes(selberg):
    text = serialize_arrangement(selberg, "selberg")
    again = serialize_arrangement(parse_file(text), "selberg")
    assert text == again


def test_fractional_cyclotomic_coefficients_round_trip():
    data = {
        "name": "frac",
        "ambient_dim": 2,
        "cyclotomic_order": 3,
        "hyperplanes": [
            {"constant": ["0", "0"], "coeffs": [["1/2", "0"], ["0", "0"]]},
            {"constant": ["0", "0"], "coeffs": [["0", "0"], ["-2/3", "1"]]},
            {"constant": ["5/7", "-1/3"], "coeffs": [["1", "1"], ["1/2", "0"]]},
        ],
    }
    a = parse_file(json.dumps(data))
    assert a.n == 3 and a.cyc_order == 3
    text = serialize_arrangement(a, "frac")
    assert serialize_arrangement(parse_file(text), "frac") == text


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def test_info_json(capsys):
    payload = run_json(capsys, "info", "--catalog", "selberg")
    assert payload["poincare"] == [1, 5, 6]
    assert payload["beta"] == 2
    assert payload["n"] == 5


def test_cover_betti_maclane(capsys):
    payload = run_json(capsys, "cover-betti", "--catalog", "maclane-decone", "--m", "8")
    assert payload["betti"] == [1, 7, 62]
    assert payload["exact"] is True


def test_zeta_selberg_golden(capsys):
    payload = run_json(capsys, "zeta", "--catalog", "selberg", "--q", "1")
    assert payload["finite_terms"] == [[1, 5], [3, 2]]
    assert payload["tail_beta"] == 0


def test_charpoly_hessian(capsys):
    payload = run_json(
        capsys, "charpoly", "--catalog", "hessian-decone", "--m", "12", "--q", "1"
    )
    assert payload["exponents"] == [[1, 11], [2, 2], [4, 2]]
    assert payload["tk_factors"] == [[1, 9], [4, 2]]
    assert payload["degree"] == 17


def test_local_betti_selberg(capsys):
    payload = run_json(capsys, "local-betti", "--catalog", "selberg", "--k", "3")
    by_degree = {iv["q"]: iv for iv in payload["intervals"]}
    assert by_degree[1]["lower"] == by_degree[1]["upper"] == 1
    assert by_degree[1]["witness_shift"] == [0, 0, -1, 0, 0]


def test_lattice_marks_dense_edges(capsys):
    payload = run_json(capsys, "lattice", "--catalog", "selberg")
    closure_flats = payload["closure"]["flats"]
    dense_mults = sorted(
        f["multiplicity"] for f in closure_flats if f["dense"] and f["codim"] == 2
    )
    assert dense_mults == [3, 3, 3, 3]


def test_os_matrices_selberg(capsys):
    payload = run_json(capsys, "os", "--catalog", "selberg", "--matrices")
    assert payload["nbc_counts"] == [1, 5, 6]
    d0 = payload["differentials"][0]
    assert d0["entries"] == [[r, 0, 1] for r in range(5)]


def test_bad_k_vector_exits_1(capsys):
    code, out, err = run(capsys, "os", "--catalog", "selberg", "--matrices", "--k-vector", "1,x")
    assert code == 1
    assert out == ""
    assert err == "error: bad --k-vector '1,x': expected comma-separated integers\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("k_vector", ["1,1", "1,x", ""])
def test_k_vector_without_matrices_exits_1(capsys, k_vector):
    code, out, err = run(capsys, "os", "--catalog", "selberg", "--k-vector", k_vector)
    assert code == 1
    assert out == ""
    assert err == "error: --k-vector requires --matrices\n"
    assert "Traceback" not in err


def test_empty_k_vector_with_matrices_exits_1(capsys):
    code, out, err = run(capsys, "os", "--catalog", "selberg", "--matrices", "--k-vector", "")
    assert (code, out) == (1, "")
    assert err == "error: bad --k-vector '': expected comma-separated integers\n"


def test_charpoly_above_expansion_bound(capsys):
    argv = ("charpoly", "--catalog", "selberg", "--m", "1000000000", "--q", "2")
    payload = run_json(capsys, *argv)
    assert payload["degree"] == 2000000004
    assert payload["expanded"] is None
    assert payload["tk_factors"] == [[1, 4], [1000000000, 2]]
    assert payload["exponents"][:3] == [[1, 6], [2, 2], [4, 2]]
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "  degree 2000000004",
        "  = (t - 1)^4 (t^1000000000 - 1)^2",
        "  expanded: omitted, degree 2000000004 exceeds 1000000",
    ]


def test_ceva3_unresolved_exits_2(capsys):
    code, out, err = run(capsys, "cover-betti", "--catalog", "ceva3", "--m", "3")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "unresolved-interval"
    degrees = {iv["q"]: iv for iv in payload["intervals"]}
    assert degrees[1]["lower"] <= 1 and degrees[1]["upper"] == 2


def test_degree_zero_of_ceva3_exits_0(capsys):
    # the open intervals of Ceva(3) at k = 3 lie in degrees 1..3 only
    assert run_json(capsys, "zeta", "--catalog", "ceva3", "--q", "0")["finite_terms"] == [[1, 1]]
    assert run(capsys, "zeta", "--catalog", "ceva3", "--q", "1")[0] == 2


def test_local_betti_assert_closes_interval(capsys):
    code, out, err = run(
        capsys,
        "local-betti", "--catalog", "ceva3", "--k", "3",
        "--assert", "1=2", "--assert", "2=13", "--assert", "3=11",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(iv["resolved"] for iv in payload["intervals"])
    values = {iv["q"]: iv["lower"] for iv in payload["intervals"]}
    assert values == {0: 0, 1: 2, 2: 13, 3: 11}


def test_local_betti_unresolved_exits_2(capsys):
    code, out, err = run(capsys, "local-betti", "--catalog", "ceva3", "--k", "3")
    assert code == 2
    payload = json.loads(out)
    assert any(not iv["resolved"] for iv in payload["intervals"])


def test_ceva3_with_assertions_exits_0(capsys):
    code, out, err = run(
        capsys,
        "cover-betti", "--catalog", "ceva3", "--m", "3",
        "--assert", "3:1=2", "--assert", "3:2=13", "--assert", "3:3=11",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["betti"] == [1, 13, 50, 38]


def test_bad_assertion_exits_1(capsys):
    code, out, err = run(
        capsys,
        "cover-betti", "--catalog", "ceva3", "--m", "3",
        "--assert", "3:1=9", "--assert", "3:2=13", "--assert", "3:3=11",
    )
    assert code == 1
    assert "outside" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("local-betti", "--k", "3", "--assert", "1=99"),
         "asserted b_1(L_3) = 99 outside [1..1]"),
        (("periodicity", "--assert", "3:1=99"),
         "asserted b_1(L_3) = 99 outside [1..1]"),
        (("local-betti", "--k", "3", "--assert", "7=1"),
         "asserted b_7(L_3) = 1: degree out of range 0..2"),
        (("cover-betti", "--m", "6", "--assert", "3:9=1"),
         "asserted b_9(L_3) = 1: degree out of range 0..2"),
        # cover-betti and charpoly visit the divisors of m, periodicity and
        # zeta every k <= n
        (("cover-betti", "--m", "6", "--assert", "5:1=3"),
         "asserted b_1(L_5) = 3: k=5 is not one of the visited k (1, 2, 3, 6)"),
        (("cover-betti", "--m", "6", "--assert", "0:1=3"),
         "asserted b_1(L_0) = 3: k=0 is not one of the visited k (1, 2, 3, 6)"),
        (("charpoly", "--m", "6", "--q", "1", "--assert", "4:1=0"),
         "asserted b_1(L_4) = 0: k=4 is not one of the visited k (1, 2, 3, 6)"),
        (("periodicity", "--assert", "9:1=3"),
         "asserted b_1(L_9) = 3: k=9 is not one of the visited k (1, 2, 3, 4, 5)"),
        (("zeta", "--q", "1", "--assert", "7:1=7"),
         "asserted b_1(L_7) = 7: k=7 is not one of the visited k (1, 2, 3, 4, 5)"),
    ],
)
def test_contradicting_assertion_exits_1(capsys, argv, message):
    # the same check for every command: resolved intervals, degrees outside
    # 0..ell and k the command never visits are not exempt
    code, out, err = run(capsys, *argv, "--catalog", "selberg")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cover-betti", "--catalog", "ceva3", "--m", "3", "--assert", "3:1=1",
          "--assert", "3:1=2", "--assert", "3:2=13", "--assert", "3:3=11"),
         "b_1(L_3) is asserted twice: 1 and 2"),
        (("cover-betti", "--catalog", "ceva3", "--m", "3", "--assert", "3:1=2",
          "--assert", "3:1=1", "--assert", "3:2=13", "--assert", "3:3=11"),
         "b_1(L_3) is asserted twice: 2 and 1"),
        (("local-betti", "--catalog", "selberg", "--k", "3", "--assert", "1=1",
          "--assert", "1=2"),
         "b_1(L_3) is asserted twice: 1 and 2"),
        (("local-betti", "--catalog", "selberg", "--k", "3", "--assert", "1=2",
          "--assert", "1=1"),
         "b_1(L_3) is asserted twice: 2 and 1"),
    ],
)
def test_repeated_assertion_exits_1(capsys, argv, message):
    # neither flag wins: the order of the flags never changes the answer
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("cover-betti", "--catalog", "ceva3", "--m", "3",
         "--assert", "3:1=1", "--assert", "3:2=13", "--assert", "3:3=11"),
        ("local-betti", "--catalog", "ceva3", "--k", "3",
         "--assert", "1=1", "--assert", "2=13", "--assert", "3=11"),
    ],
)
def test_assertions_breaking_euler_characteristic_exit_1(capsys, argv):
    # every value lies in its interval, but 0 - 1 + 13 - 11 = 1 != chi = 0
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == ("error: asserted b(L_3) = [0, 1, 13, 11] has Euler characteristic 1, "
                   "but chi(M) = 0\n")


def test_partial_assertion_skips_euler_check(capsys):
    # q = 2 and q = 3 stay open, so there is no full set of values to check
    code, out, err = run(capsys, "cover-betti", "--catalog", "ceva3", "--m", "3",
                         "--assert", "3:1=1")
    assert code == 2
    assert json.loads(out)["error"] == "unresolved-interval"


def test_unvisited_k_assertion_precedes_open_interval(capsys):
    # keys are checked before any interval, so the open k = 3 never exits 2
    code, out, err = run(capsys, "cover-betti", "--catalog", "ceva3", "--m", "3",
                         "--assert", "5:1=1")
    assert code == 1
    assert out == ""
    assert err == "error: asserted b_1(L_5) = 1: k=5 is not one of the visited k (1, 3)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("cover-betti", "--catalog", "selberg"),
        ("cover-betti", "--catalog", "selberg", "--m", "x"),
        ("info", "--catalog", "selberg", "--format", "yaml"),
        ("no-such-command",),
        ("cover-betti", "--catalog", "selberg", "--m", "6", "--assert", "-2:1=3"),
    ],
)
def test_usage_error_exits_1(capsys, argv):
    # exit 2 is reserved for open intervals, so argparse's own 2 is not kept
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--k", "2", "--shift", "1,2"),
    ("--k", "1", "--shift", "1,2"),
    ("--k", "3", "--shift", "0,0,-1,0,0", "--shift", "1,2"),
])
def test_wrong_length_shift_exits_1(capsys, argv):
    code, out, err = run(capsys, "local-betti", "--catalog", "selberg", *argv)
    assert (code, out) == (1, "")
    assert err == "error: shift (1, 2) has length 2, expected 5\n"


def test_deeply_nested_json_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "info", "--file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_file_that_is_not_utf8_exits_1_with_its_path(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "info", "--file", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text at byte 0\n"
    assert "Traceback" not in err


def test_unfactorable_m_exits_1(capsys):
    code, out, err = run(capsys, "cover-betti", "--catalog", "selberg", "--m", "1000036000099")
    assert (code, out) == (1, "")
    assert "cannot factor 1000036000099" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "cover-betti", "--help")
    assert code == 0
    assert out.startswith("usage:")


def test_unknown_catalog_exits_1(capsys):
    code, out, err = run(capsys, "info", "--catalog", "nope")
    assert code == 1
    assert "unknown catalog entry" in err


def test_missing_selection_exits_1(capsys):
    code, out, err = run(capsys, "info")
    assert code == 1


def test_bad_file_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, out, err = run(capsys, "info", "--file", str(path))
    assert code == 1
    assert "missing field" in err


def test_file_workflow(capsys, tmp_path, selberg):
    path = tmp_path / "selberg.json"
    path.write_text(serialize_arrangement(selberg, "selberg"))
    payload = run_json(capsys, "info", "--file", str(path))
    assert payload["poincare"] == [1, 5, 6]


def test_catalog_get_builds_only_the_requested_entry():
    # a fresh process: the catalog cache of this one is already filled.  Every
    # entry's builder calls catalog.build once, so counting those calls
    # counts the arrangements built.
    code = (
        "from arrcover import catalog; built = []; build = catalog.build; "
        "catalog.build = lambda *args: built.append(args) or build(*args); "
        "catalog.get('selberg'); first = len(built); catalog.get('selberg'); "
        "print(first, len(built), built[0][0], len(built[0][2]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(arrcover.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    # one build, of the five lines of Selberg in C^2, and none on the second get
    assert (proc.returncode, proc.stdout.split()) == (0, ["1", "1", "2", "5"])


def test_catalog_show_round_trip(capsys):
    for key, entry in catalog.entries().items():
        code, out, err = run(capsys, "catalog", "show", key)
        assert code == 0
        parsed = parse_file(out)
        assert parsed == entry.arrangement
        assert out == serialize_arrangement(entry.arrangement, key)


def test_catalog_list(capsys):
    payload = run_json(capsys, "catalog", "list")
    keys = {e["key"] for e in payload["entries"]}
    assert keys == {"selberg", "maclane-decone", "hessian-decone", "ceva3"}


@pytest.mark.parametrize("argv, message", [
    ("catalog show", "catalog show requires a key"),
    ("catalog list selberg", "catalog list takes no key, got 'selberg'"),
    ("local-betti --catalog selberg --k 0", "k must be >= 1"),
])
def test_bad_arguments_exit_1_with_one_error_line(capsys, argv, message):
    assert run(capsys, *argv.split()) == (1, "", f"error: {message}\n")


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "zeta", "--catalog", "selberg", "--q", "2")
    _, second, _ = run(capsys, "zeta", "--catalog", "selberg", "--q", "2")
    assert first == second
    _, p1, _ = run(capsys, "periodicity", "--catalog", "selberg")
    _, p2, _ = run(capsys, "periodicity", "--catalog", "selberg")
    assert p1 == p2


# sha256 of the stdout of `lattice`, `os --matrices` and `os --matrices
# --k-vector` with mixed_weights per catalog entry: pins the flat order and the
# matrix bytes, which the value tests leave free.  `local-betti --k k` for
# every k <= n pins the intervals and witness shifts of every divisor.
# `charpoly` at m = 2520 pins a degree-45376 expansion, and at the prime
# m = 10^18 + 3 the (t^d - 1) form and the degree line above the bound.
# `info`, `cover-betti --m 12`, `periodicity`, `zeta --q 1` and `local-betti
# --k 3` (text) per entry, and `catalog list` and `catalog show` (key "" for
# list), pin the rendering of every command, Ceva(3)'s exit-2 report included.
STDOUT_SHA256 = {
    ("lattice", "selberg", "json"): "72bf131d12222b4a55e162ff7ecbc5701e05c1e9620691f76213374f9333a260",
    ("lattice", "selberg", "text"): "5d8fd66dda5e1e0cb85c39b9459b77b95b0818483762394c05884e4995ca1971",
    ("lattice", "maclane-decone", "json"): "f74916b067182f6e43e365c69556eb12138b95ca699ab1cd1fc985a7c715a4ce",
    ("lattice", "maclane-decone", "text"): "0e4d3ca6d79bd59efb0f8f7b031953d5c442ab7a711c5d04e7da42dc10e5e525",
    ("lattice", "hessian-decone", "json"): "b1567c407b4582c84553a670a82332586d370899c888d7c0be86ab285740b59f",
    ("lattice", "hessian-decone", "text"): "c2f1df940cd4fabb3110c8294b91ddba072fb367b9f3e4bf0e78e6cd6b60e952",
    ("lattice", "ceva3", "json"): "87678c691232165f0dc894779c026f5195e818494885656f96823795f1ec16bb",
    ("lattice", "ceva3", "text"): "8a05be3fcdf01ea7612be1cce83c2cd3ca28293c21526257f0312b5a71878f28",
    ("os", "selberg", "json"): "717865b729d902cfd0d99afcbb04b0933b5a16b7220a2623ef5834fddd2e3a4b",
    ("os", "selberg", "text"): "890e9e6f73552680a955550ce43482bd0b1a17cced2d39a095183fc10320c8cd",
    ("os", "maclane-decone", "json"): "13a5fed020ecba034c5653b34252f494d64fc14353481a35d45b9ddedd3c6b8c",
    ("os", "maclane-decone", "text"): "01bec8079f80d8cfa01f59f47ba5e420a9005ff7ffb6feeb34dc42c1013298a8",
    ("os", "hessian-decone", "json"): "517309b42903d44fa71e1dd058530d86a369e1e9e4cd88cd53115c2e95c4fd5d",
    ("os", "hessian-decone", "text"): "a66266e531ce6d1feac0796cf4e0fd9884025188505ec61cdd1249c512267a84",
    ("os", "ceva3", "json"): "92ff513389abcc21ef7ed8304f43cbf4a941553783e51b57ceeca712bda3d39a",
    ("os", "ceva3", "text"): "b04812f596ee34c91e991deb233d033ca4b820e4191a9ac4e74835ceb24d32f9",
    ("os-mixed", "selberg", "json"): "59039403d80876e45a954861b56c89c588fb64974bc3d307f8a86b1d4edc80c1",
    ("os-mixed", "selberg", "text"): "8b7b59cf0295e45a33474c82dd25e5aa1a75826029d94c7110bf72820a297ce4",
    ("os-mixed", "maclane-decone", "json"): "7f391b9206b421f128cda3a340810347cbda9ee527ae1d3b704844ad132d17c1",
    ("os-mixed", "maclane-decone", "text"): "9f599d69bdc34a201ae15b0f01d0d4ed288972967ba5d9a5427f625dbca1fc73",
    ("os-mixed", "hessian-decone", "json"): "8526d2c3a33e2d00b9c357c85a84899062f86af6ed1decc1ea06479d737dc0a3",
    ("os-mixed", "hessian-decone", "text"): "18c1efacdd9db0e16761a1dd1867147bb7ea3c90f7fcc71554662384305e448f",
    ("os-mixed", "ceva3", "json"): "5e02d749fb8aaa44eb95a568704518af793f976dd3fe1b5cc103e167d3694472",
    ("os-mixed", "ceva3", "text"): "dce9df44a8eeba0452a15b51b5f96f12556902b0d71355587c239713f3643c15",
    ("local-betti --k 1", "selberg", "json"): "d228315d45695fbd1137df38ac73f502bac5b3efd9cadecd9adf468e1a39c89a",
    ("local-betti --k 2", "selberg", "json"): "848dc78ba0734ac46604b1bc4146f0618bb74fe118ed4bb4eddf5ce0a4dfc1f6",
    ("local-betti --k 3", "selberg", "json"): "e5ced24da5deaddf0364794c93c9588b390da9cd5564b2a5461b13414490eef0",
    ("local-betti --k 4", "selberg", "json"): "b141dbb01c03d7811f04f124d6b73bcb3c749620dc50f50792d3feafb8204519",
    ("local-betti --k 5", "selberg", "json"): "fe8fb29c22d8ebc3e56f47254ae700591e6e1a74a371e79f7c9a130fd3fd72ec",
    ("local-betti --k 1", "maclane-decone", "json"): "43f08cbfbf9ebb26ab6d7daacc4d572595fb934fdc2ddd8568e763d7443b6a64",
    ("local-betti --k 2", "maclane-decone", "json"): "5de2303606ae20b8592174efd71c741e600154e90731f68d461b31798bade032",
    ("local-betti --k 3", "maclane-decone", "json"): "f361b7a3606b183e0cc7d0aee06c956f178be2ec37b4fc15262a585179b20180",
    ("local-betti --k 4", "maclane-decone", "json"): "f623e149571eeec2b769e4ef6032383689a3026936bd5de7cd5372231b368aa5",
    ("local-betti --k 5", "maclane-decone", "json"): "d5624e12f5b40b7ad38c01e4fcbfb40073e1524b9d15d7e4bb42d1eb517e0631",
    ("local-betti --k 6", "maclane-decone", "json"): "ef8e4d774da3290d126c133ba3c64d166008365fed8a45121d415991a493a168",
    ("local-betti --k 7", "maclane-decone", "json"): "eabda687f8226e40c6c99cd77afa6d819184a7f569d09564b0172c1fa1ae5589",
    ("local-betti --k 1", "hessian-decone", "json"): "d78147a651fd3e14e8ffa1901c78ededb3770639e0ba702bb6e1529c8c87b13b",
    ("local-betti --k 2", "hessian-decone", "json"): "0af35ffd39101b7873a9a02b42a7edf01248f51e9d5d54e623a150a6da3e1467",
    ("local-betti --k 3", "hessian-decone", "json"): "60720cef203c67cfc8babf46203e2254b62445cc7d518b038ad4d2edd3df2251",
    ("local-betti --k 4", "hessian-decone", "json"): "c3d9ce9831277d4bd6e652de49ee867ddeb2ff3838ffd61f4056fd89685f0d4b",
    ("local-betti --k 5", "hessian-decone", "json"): "087dfc251aef46f29e4ab41b5ef54e95c408705ba15b7042cf0e1a7428484033",
    ("local-betti --k 6", "hessian-decone", "json"): "eb4eb722917b092cc50958205e27abb8d746b5bd96d3681c2fc4e3d172ad3056",
    ("local-betti --k 7", "hessian-decone", "json"): "b89364f568e44947515361d77644584c84977ce341931fe033012e3efcaf9b00",
    ("local-betti --k 8", "hessian-decone", "json"): "dd34d6082c08711d500808ac4648eec0d63e1c6e1743e4b71de466b8b8faa142",
    ("local-betti --k 9", "hessian-decone", "json"): "5374ae6ffe2f37629fb5cdbae2cd2ab7cb419c360c77e10ed314fa4d57224ba4",
    ("local-betti --k 10", "hessian-decone", "json"): "ac7abc103846af112fcaf6020f2872c1121facf1530cff2361ce94cf63e9f663",
    ("local-betti --k 11", "hessian-decone", "json"): "57d44faa1d119e48c62e4ed66ace54a9f0bdd892c7b4aa9ad9993c9b38b3b2cb",
    ("local-betti --k 1", "ceva3", "json"): "a95487f6157aebbee151eff180932498622d786d0dd1ed302acb2f174e284220",
    ("local-betti --k 2", "ceva3", "json"): "43f772ea2b2dca232d394c56d630ea96ef28809e57d734a69e474ab1ad91ee1c",
    ("local-betti --k 3", "ceva3", "json"): "b36f9c8cbb945827c4b6c59bc55db658af9d2c9962d13a28f066e4fa7fb2a27d",
    ("local-betti --k 4", "ceva3", "json"): "ef2c57d8dd4ad79771f4d432eacd7c8a0fc2524c3e94d2d8259af5eefb1da18c",
    ("local-betti --k 5", "ceva3", "json"): "999f188efad2f95eaa10820b9c800caead49f4f78c0167ba731d815698c8896c",
    ("local-betti --k 6", "ceva3", "json"): "e0e9844e76525f92c90fda6ad4665107a3b5add0c250001fabb904b01b7b6642",
    ("local-betti --k 7", "ceva3", "json"): "6fd18e47faa059fd9ac5a9f68c74c9c433896f49ab0b10d17100dd4be17a18a3",
    ("local-betti --k 8", "ceva3", "json"): "8f96c35b2d5266e2b0fce9e74801adea41b5c2f288f30fc8d7d9fb9d7fb586a5",
    ("local-betti --k 9", "ceva3", "json"): "fe35b57999a4f265cbb93985416c29625c21ca2b39fef0a7ca50202ebb9c9037",
    ("charpoly --m 2520 --q 2", "hessian-decone", "json"): "bd6cd4aa627ad52b9117686c955f40d6f95d6eb0d28ade7d7f1f20134b5e1a0a",
    ("charpoly --m 2520 --q 2", "hessian-decone", "text"): "b077f385310bd541cb75170018ba4d71b00c3abd7f42c912a88209ac0b388400",
    ("charpoly --m 1000000000000000003 --q 2", "selberg", "json"): "d6e80a80fcab2ff6a5ca9bb5ef7d29efc6064fe09b212c5ea8346978c0d70716",
    ("charpoly --m 1000000000000000003 --q 2", "selberg", "text"): "e5579d92e9eeb78644afebf6d0a9c2c01bd86e4457497a98875f4a0b1db746ef",
    ("info", "selberg", "json"): "4b6b0b4536e18bd419435600ff1a2d1ae8506e491db08826487aad87e15f8e3f",
    ("info", "selberg", "text"): "de3b35a791842d6ff385c583aba381de87455df938e29515d1ca5dfc8cd877bb",
    ("info", "maclane-decone", "json"): "1a0115e9d888bcb875218dc2541d600a2996e1f7063be98bf0ce715b3356f06b",
    ("info", "maclane-decone", "text"): "cfdf488656637ecb7540e639a6618e5983a2cafa94a11738e2dfcf385a3c31d8",
    ("info", "hessian-decone", "json"): "b2e4f54bad6832762c5ffc708a1231d75d8f1cf4c5247394d0c819daa32f0e4f",
    ("info", "hessian-decone", "text"): "f2bbe32eddd0933f34b41b242585172e3f845e2bab7cf9a26cc3a6965f5b0826",
    ("info", "ceva3", "json"): "e14a4f7df5a5059ace60608d1f990aaca4e10e821d548edd0745c6db9004cad4",
    ("info", "ceva3", "text"): "54c9cfc6bc6e2b145725edf974275a895f1a22740e185b6892b7a71cdbb1eec0",
    ("cover-betti --m 12", "selberg", "json"): "2d28c8d830df3b2dfb2390afc413af3b78e7ebb96f03e451c8d15c06bb239ed4",
    ("cover-betti --m 12", "selberg", "text"): "9d9623e1fdab02e6ef3c5273e04d3a35b13388814456e475d5bb84674bde1c41",
    ("cover-betti --m 12", "maclane-decone", "json"): "84d76e329f84d8729656e0fd65a59648b74ae79f3076266980f7021431937c78",
    ("cover-betti --m 12", "maclane-decone", "text"): "75e3d5b06e10a969b35452f01a3a3857d77e78c64c3f32c7cee3feb18213486b",
    ("cover-betti --m 12", "hessian-decone", "json"): "9073694984ea6282b49444c278d743909a6f82511ef1e270855be9407a062b82",
    ("cover-betti --m 12", "hessian-decone", "text"): "95f68bac2c4db11024fba3d68239283ad548014910c8c8b9f549f8a060b748b9",
    ("cover-betti --m 12", "ceva3", "json"): "49053341d7bcca71d9fed72ec4d98555faa1f3ab92476ee5662cbf851dbd4cd9",
    ("cover-betti --m 12", "ceva3", "text"): "b89d04a91d3d31064c0cbb78b5892dce4aad35e47fce5bc1b075f5daed6f151c",
    ("periodicity", "selberg", "json"): "04b5a07b41a64ab0ec2f341f16b13512e5b2006397cbd2739d5eb1d04c3cb5cc",
    ("periodicity", "selberg", "text"): "de5a9496bdc3f0cecdf2dc0b5f796d57fec21d75c733b63071eab013e5c99123",
    ("periodicity", "maclane-decone", "json"): "8bdb607341f96500a0d9b124959f2fa2e655fc7331ee144d3f551d0b06cbc51e",
    ("periodicity", "maclane-decone", "text"): "a37dc9f56e9c39c11b25ac0aaf2278397b1786420a69ccc83f8f81cc5ae249fa",
    ("periodicity", "hessian-decone", "json"): "679b3284cb453b857005d9e3403650c87de9eb5536b7ed8e9b2666cb6ff96735",
    ("periodicity", "hessian-decone", "text"): "725e84952edff1fb91fd3c779ad7b971b69773185802dfb481029fada44a6aac",
    ("periodicity", "ceva3", "json"): "49053341d7bcca71d9fed72ec4d98555faa1f3ab92476ee5662cbf851dbd4cd9",
    ("periodicity", "ceva3", "text"): "b89d04a91d3d31064c0cbb78b5892dce4aad35e47fce5bc1b075f5daed6f151c",
    ("zeta --q 1", "selberg", "json"): "edba87a1fb731aebc229bb81be405afa3949e14719ddccc8577c64c381fe4fd2",
    ("zeta --q 1", "selberg", "text"): "2f9d3b092c672d30a31d81b477a2a0b5cc9503551fbc8552e4dd20ba7a1d9267",
    ("zeta --q 1", "maclane-decone", "json"): "5d69c7bd610535155fafbc56f9d6f317503d9db8a3e63f1c468994d91a321eba",
    ("zeta --q 1", "maclane-decone", "text"): "ffad9eddb1ff0b35977886344bb122b442629ada2419721cf2c72b6010ec3f03",
    ("zeta --q 1", "hessian-decone", "json"): "f094a3ad65bb2e546309cea39cf45e4bf1c526c482fff26dc99a149bc3afbf60",
    ("zeta --q 1", "hessian-decone", "text"): "f4522292464e1e37e67793324b20cc158e09fce058aa1997bc92c49717d73a2d",
    ("zeta --q 1", "ceva3", "json"): "49053341d7bcca71d9fed72ec4d98555faa1f3ab92476ee5662cbf851dbd4cd9",
    ("zeta --q 1", "ceva3", "text"): "b89d04a91d3d31064c0cbb78b5892dce4aad35e47fce5bc1b075f5daed6f151c",
    ("local-betti --k 3", "selberg", "text"): "31b7c020c109a35ef673adfa437d6b4b8e73e00d9d83bc65c1875b199de588ed",
    ("local-betti --k 3", "maclane-decone", "text"): "e940f050a23139e0f98e62850453a6572ba331dabe7383801feb9cdff1178dee",
    ("local-betti --k 3", "hessian-decone", "text"): "0ce783d2fe81926747d0758fdbca140ecbae60000c1af7268165525331470c62",
    ("local-betti --k 3", "ceva3", "text"): "951395c1b5a894b3479e163a90ddb9e86ceb520c740e45c5c978968b863e23e5",
    ("catalog list", "", "json"): "fff7c7f5d89f6ae64135dc86c05fe8c22373a6afffa4b40d43079cbab5dbc19c",
    ("catalog list", "", "text"): "8e66b99f31f9657b7dfd3d487645fb5390ce862e059c94cbff15b7a4436deef4",
    ("catalog show", "selberg", "json"): "ed8dbef05f008218965fa66b40478ec07126b70cfac08ef868316b1b286d6352",
    ("catalog show", "selberg", "text"): "ed8dbef05f008218965fa66b40478ec07126b70cfac08ef868316b1b286d6352",
    ("catalog show", "maclane-decone", "json"): "30adbde61db8cd2ba6c320d5450717371578e4cc34e1bf3ffebe0d6cfc89abcd",
    ("catalog show", "maclane-decone", "text"): "30adbde61db8cd2ba6c320d5450717371578e4cc34e1bf3ffebe0d6cfc89abcd",
    ("catalog show", "hessian-decone", "json"): "76aea53c2157b1560e97efe6de3d3810545d30c3e818f4e49b1e6dd56036e36b",
    ("catalog show", "hessian-decone", "text"): "76aea53c2157b1560e97efe6de3d3810545d30c3e818f4e49b1e6dd56036e36b",
    ("catalog show", "ceva3", "json"): "c3c0a13a35dcd2938126dc31fd5e6173f953d39e299e1b01db6a7e176d66d00b",
    ("catalog show", "ceva3", "text"): "c3c0a13a35dcd2938126dc31fd5e6173f953d39e299e1b01db6a7e176d66d00b",
}
# the commands above that exit with a nonzero code (open intervals)
STDOUT_EXIT = {
    ("local-betti --k 3", "ceva3"): 2,
    ("local-betti --k 9", "ceva3"): 2,
    ("cover-betti --m 12", "ceva3"): 2,
    ("periodicity", "ceva3"): 2,
    ("zeta --q 1", "ceva3"): 2,
}


def mixed_weights(n):
    """w_h = (-1)^h (1 + h mod 3): the generator terms cancel in some entries
    (2 on MacLane, 2 on Hessian, 13 on Ceva(3)), so zeros must be dropped."""
    return ",".join(str((-1) ** h * (1 + h % 3)) for h in range(n))


@pytest.mark.parametrize("command,key,fmt", sorted(STDOUT_SHA256))
def test_stdout_bytes_pinned(capsys, command, key, fmt):
    if command == "os":
        argv = ("os", "--matrices", "--catalog", key)
    elif command == "os-mixed":
        argv = ("os", "--matrices", "--k-vector", mixed_weights(catalog.get(key).arrangement.n),
                "--catalog", key)
    elif command == "catalog list":
        argv = ("catalog", "list")
    elif command == "catalog show":
        argv = ("catalog", "show", key)
    else:
        argv = (*command.split(), "--catalog", key)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == STDOUT_EXIT.get((command, key), 0), err
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[(command, key, fmt)]


def test_selberg_braid_annotation(capsys):
    payload = run_json(capsys, "cover-betti", "--catalog", "selberg", "--m", "6")
    assert "braid" in payload.get("note", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("info",),
        ("lattice",),
        ("os", "--matrices"),
        ("local-betti", "--k", "3"),
        ("cover-betti", "--m", "6"),
        ("charpoly", "--m", "6", "--q", "2"),
        ("periodicity",),
        ("zeta", "--q", "1"),
    ],
)
def test_text_mode_renders(capsys, argv):
    code, out, err = run(capsys, *argv, "--catalog", "selberg", "--format", "text")
    assert code == 0
    assert out.strip()


def test_a_reader_that_leaves_gets_no_traceback(tmp_path):
    # the JSON report is 3.5 MB, more than any pipe buffer holds, so the
    # command always writes into the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(arrcover.__file__).parent.parent))
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "arrcover", "charpoly", "--catalog", "hessian-decone",
             "--m", "27720", "--q", "2"],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        assert proc.stdout.read(10) == b'{\n  "degre'
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert "Traceback" not in (tmp_path / "stderr").read_text()
    assert code == 1
