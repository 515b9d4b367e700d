"""File format parsing and the command-line surface (exit codes, JSON shape)."""

import hashlib
import json

import pytest

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


def test_catalog_show_round_trip(capsys):
    for key, entry in catalog.entries().items():
        code, out, err = run(capsys, "catalog", "show", key)
        assert code == 0
        parsed = parse_file(out)
        assert parsed == entry.arrangement


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
# matrix bytes, which the value tests leave free.
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
}


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
    else:
        argv = ("os", "--matrices", "--k-vector", mixed_weights(catalog.get(key).arrangement.n))
    code, out, err = run(capsys, *argv, "--catalog", key, "--format", fmt)
    assert code == 0, err
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
