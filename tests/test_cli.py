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
}
# the commands above that exit with a nonzero code (open intervals)
STDOUT_EXIT = {("local-betti --k 3", "ceva3"): 2, ("local-betti --k 9", "ceva3"): 2}


def mixed_weights(n):
    """w_h = (-1)^h (1 + h mod 3): the generator terms cancel in some entries
    (2 on MacLane, 2 on Hessian, 13 on Ceva(3)), so zeros must be dropped."""
    return ",".join(str((-1) ** h * (1 + h % 3)) for h in range(n))


@pytest.mark.parametrize("command,key,fmt", sorted(STDOUT_SHA256))
def test_stdout_bytes_pinned(capsys, command, key, fmt):
    if command == "lattice":
        argv = ("lattice",)
    elif command == "os":
        argv = ("os", "--matrices")
    elif command == "os-mixed":
        argv = ("os", "--matrices", "--k-vector", mixed_weights(catalog.get(key).arrangement.n))
    else:
        argv = tuple(command.split())
    code, out, err = run(capsys, *argv, "--catalog", key, "--format", fmt)
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
