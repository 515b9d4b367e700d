"""Arrangement file format: JSON with rational-string coefficients.

Schema::

    {
      "name": "selberg",
      "ambient_dim": 2,
      "cyclotomic_order": 1,
      "hyperplanes": [
        {"constant": ["0"], "coeffs": [["1"], ["0"]]},
        ...
      ]
    }

Every cyclotomic number is an array of phi(d) canonical rational strings
("p" or "p/q" with q > 0, low power first); this module alone reads and
writes them.  A coefficient is written as str(Fraction), which is that
canonical form.  Serialization is deterministic (sorted keys, indent 2,
trailing newline), so canonical files round-trip byte-identically.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .arrangement import Arrangement, Hyperplane, build
from .cyclofield import CycNum, euler_phi

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string "p" or "p/q" (q > 0)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational {text!r}")
    return Fraction(text)


class ArrangementFileError(ValueError):
    """Malformed arrangement file; the message carries field context."""


def _parse_cyc(value, d: int, where: str) -> CycNum:
    if not isinstance(value, list):
        raise ArrangementFileError(f"{where}: expected an array of rational strings")
    # phi(d) >= sqrt(d/2), so no d above 2 L^2 matches L rationals; such a d
    # past 2 * 10^6 is rejected without the sqrt(d) trial divisions of phi
    if d > 2 * max(len(value), 1000) ** 2:
        raise ArrangementFileError(f"{where}: expected phi({d}) > {len(value)} rationals")
    if len(value) != euler_phi(d):
        raise ArrangementFileError(
            f"{where}: expected phi({d}) = {euler_phi(d)} rationals, got {len(value)}"
        )
    coeffs = []
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ArrangementFileError(f"{where}[{i}]: expected a rational string")
        try:
            coeffs.append(parse_rational(item))
        except ValueError as exc:
            raise ArrangementFileError(f"{where}[{i}]: {exc}") from exc
    return CycNum(d, tuple(coeffs))


def _format_cyc(value: CycNum) -> list[str]:
    return list(map(str, value.coeffs))


def parse_file(data) -> Arrangement:
    """Parse and validate an arrangement file (bytes, str, or parsed dict)."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArrangementFileError(f"not UTF-8 text at byte {exc.start}") from exc
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ArrangementFileError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except RecursionError:
            raise ArrangementFileError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ArrangementFileError("top level must be an object")
    for key in ("ambient_dim", "cyclotomic_order", "hyperplanes"):
        if key not in data:
            raise ArrangementFileError(f"missing field {key!r}")
    dim = data["ambient_dim"]
    d = data["cyclotomic_order"]
    # a JSON true or false would pass as an int
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ArrangementFileError("ambient_dim must be a positive integer")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ArrangementFileError("cyclotomic_order must be a positive integer")
    records = data["hyperplanes"]
    if not isinstance(records, list) or not records:
        raise ArrangementFileError("hyperplanes must be a nonempty array")
    hps = []
    for idx, record in enumerate(records):
        where = f"hyperplane {idx}"
        if not isinstance(record, dict) or set(record) != {"constant", "coeffs"}:
            raise ArrangementFileError(f"{where}: expected fields constant, coeffs")
        constant = _parse_cyc(record["constant"], d, f"{where}.constant")
        coeffs = record["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise ArrangementFileError(
                f"{where}.coeffs: expected {dim} coefficients"
            )
        parsed = tuple(
            _parse_cyc(c, d, f"{where}.coeffs[{i}]") for i, c in enumerate(coeffs)
        )
        try:
            hps.append(Hyperplane(constant, parsed))
        except ValueError as exc:
            raise ArrangementFileError(f"{where}: {exc}") from exc
    try:
        return build(dim, d, hps)
    except ValueError as exc:
        raise ArrangementFileError(str(exc)) from exc


def arrangement_to_dict(a: Arrangement, name: str) -> dict:
    return {
        "name": name,
        "ambient_dim": a.ambient_dim,
        "cyclotomic_order": a.cyc_order,
        "hyperplanes": [
            {"constant": _format_cyc(h.constant), "coeffs": [_format_cyc(c) for c in h.coeffs]}
            for h in a.hyperplanes
        ],
    }


def serialize_arrangement(a: Arrangement, name: str) -> str:
    return json.dumps(arrangement_to_dict(a, name), sort_keys=True, indent=2) + "\n"
