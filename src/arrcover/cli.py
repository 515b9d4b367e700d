"""Command-line interface: catalog access, reports, JSON/text rendering.

main is the one place that selects, parses and renders: it loads the
arrangement of --catalog or --file and parses --assert, hands both to the
command, and writes the (code, payload, lines) the command returns: the
payload as JSON, or the text lines under --format text when the command has
them.  Exit codes: 0 success, 1 input or usage error, 2 unresolved Betti
interval.  JSON output (the default) is deterministic: sorted keys,
two-space indent, canonical rational strings.

A cold process pays for every module it imports, so each command imports the
modules it needs itself: only os loads osalgebra, only the commands on local
Betti values load covers (and with it osalgebra and exactlin), and only
--file and catalog show load fileformat.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as catalog_mod
from .arrangement import (
    Arrangement,
    beta,
    dense_edges,
    euler_characteristic,
    intersection_lattice,
    poincare_polynomial,
)
from .cyclofield import format_poly


class CliError(Exception):
    pass


def _load_arrangement(args) -> tuple[Arrangement, str]:
    if args.catalog and args.file:
        raise CliError("use either --catalog or --file, not both")
    if args.catalog:
        try:
            entry = catalog_mod.get(args.catalog)
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from exc
        return entry.arrangement, entry.key
    if args.file:
        from .fileformat import ArrangementFileError, parse_file

        try:
            with open(args.file, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from exc
        try:
            return parse_file(data), args.file
        except ArrangementFileError as exc:
            raise CliError(f"{args.file}: {exc}") from exc
    raise CliError("select an arrangement with --catalog KEY or --file PATH")


def _parse_assertions(items, k_fixed=None) -> dict:
    table = {}
    for item in items or []:
        try:
            left, value = item.split("=", 1)
            if k_fixed is None:
                k_str, q_str = left.split(":", 1)
                key = (int(k_str), int(q_str))
            else:
                key = (k_fixed, int(left))
            value = int(value)
        except ValueError as exc:
            form = "q=v" if k_fixed is not None else "k:q=v"
            raise CliError(f"bad assertion {item!r}: expected {form}") from exc
        if key in table:
            k, q = key
            raise CliError(f"b_{q}(L_{k}) is asserted twice: {table[key]} and {value}")
        table[key] = value
    return table


def _parse_integers(item: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in item.split(","))
    except ValueError as exc:
        raise CliError(f"bad {what} {item!r}: expected comma-separated integers") from exc


def _parse_shifts(items) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_integers(item, "shift") for item in items or [])


def _interval_dict(iv):
    return {
        "q": iv.degree,
        "lower": iv.lower,
        "upper": iv.upper,
        "resolved": iv.resolved,
        "witness_shift": list(iv.witness_shift) if iv.witness_shift else None,
    }


def _interval_text(iv):
    if iv.resolved:
        tail = f" (witness shift {list(iv.witness_shift)})" if iv.witness_shift else ""
        return f"  q={iv.degree}: {iv.lower}{tail}"
    return f"  q={iv.degree}: [{iv.lower}..{iv.upper}] unresolved"


def _report_unresolved(exc):
    payload = {
        "error": "unresolved-interval",
        "k": exc.k,
        "intervals": [_interval_dict(iv) for iv in exc.intervals],
    }
    lines = [f"unresolved local Betti numbers at k={exc.k}:"]
    lines += [_interval_text(iv) for iv in exc.intervals]
    lines.append("supply --assert to close the gaps, or accept the interval")
    return 2, payload, lines


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_info(args, a, name, assertions):
    p = poincare_polynomial(a)
    payload = {
        "name": name,
        "n": a.n,
        "ell": a.ell,
        "cyclotomic_order": a.cyc_order,
        "is_central": a.is_central,
        "poincare": list(p.coeffs),
        "beta": beta(a),
        "chi": euler_characteristic(a),
    }
    lines = [
        f"{name}: {a.n} hyperplanes in C^{a.ell}, cyclotomic order {a.cyc_order}"
        + (" (central)" if a.is_central else ""),
        f"P(A,t) = {format_poly(p)}",
        f"beta = {beta(a)}, chi = {euler_characteristic(a)}",
    ]
    return 0, payload, lines


def _flat_dict(f, with_dense: bool):
    out = {
        "codim": f.codim,
        "support": list(f.support),
        "multiplicity": f.multiplicity,
        "mobius": f.mobius,
    }
    if with_dense:
        out["dense"] = f.dense
    return out


def _cmd_lattice(args, a, name, assertions):
    lattice = intersection_lattice(a)
    closure = dense_edges(a)
    payload = {
        "name": name,
        "rank": lattice.rank,
        "flats": [_flat_dict(f, False) for f in lattice.flats()],
        "closure": {
            "rank": closure.rank,
            "infinity_index": a.n,
            "flats": [_flat_dict(f, True) for f in closure.flats()],
        },
    }
    lines = [f"{name}: intersection lattice, rank {lattice.rank}"]
    for f in lattice.flats():
        lines.append(
            f"  codim {f.codim}: support {list(f.support)} mu={f.mobius} |A_Y|={f.multiplicity}"
        )
    lines.append(f"closure (hyperplane at infinity has index {a.n}):")
    for f in closure.flats():
        flag = "" if f.dense is None else (" dense" if f.dense else " not-dense")
        lines.append(
            f"  codim {f.codim}: support {list(f.support)} mu={f.mobius} "
            f"|A_Y|={f.multiplicity}{flag}"
        )
    return 0, payload, lines


def _cmd_os(args, a, name, assertions):
    if args.k_vector is not None and not args.matrices:
        raise CliError("--k-vector requires --matrices")
    from .osalgebra import aomoto_matrices, nbc_basis

    bases = nbc_basis(a)
    payload = {
        "name": name,
        "nbc_counts": [len(level) for level in bases],
        "bases": [[list(m) for m in level] for level in bases],
    }
    lines = [f"{name}: NBC basis counts {[len(level) for level in bases]}"]
    if args.matrices:
        weights = (_parse_integers(args.k_vector, "--k-vector")
                   if args.k_vector is not None else (1,) * a.n)
        complex_ = aomoto_matrices(a, weights)
        payload["weights"] = list(weights)
        differentials = [
            {
                "rows": len(d),
                "cols": len(bases[q]),
                "entries": [[r, c, v] for r, row in enumerate(d) for c, v in enumerate(row) if v],
            }
            for q, d in enumerate(map(complex_.differential, range(len(bases))))
        ]
        payload["differentials"] = differentials
        lines.append(f"differentials for weights {list(weights)}:")
        for q, d in enumerate(differentials):
            lines.append(f"  D^{q}: {d['rows']}x{d['cols']}, {len(d['entries'])} nonzero entries")
    return 0, payload, lines


def _cmd_local_betti(args, a, name, assertions):
    from .covers import resolve

    _, intervals, _ = next(resolve(a, (args.k,), assertions, _parse_shifts(args.shift)))
    payload = {
        "name": name,
        "k": args.k,
        "intervals": [_interval_dict(iv) for iv in intervals],
    }
    lines = [f"{name}: local system Betti intervals at k={args.k}"]
    lines += [_interval_text(iv) for iv in intervals]
    return (0 if all(iv.resolved for iv in intervals) else 2), payload, lines


def _cmd_cover_betti(args, a, name, assertions):
    from .covers import cover_betti

    report = cover_betti(a, args.m, assertions)
    payload = {
        "name": name,
        "m": args.m,
        "betti": list(report.betti),
        "exact": report.exact,
        "local_betti": {str(k): list(v) for k, v in report.charpoly_exponents},
    }
    note = "" if report.exact else " (uses asserted values)"
    lines = [f"{name}: b(X_{args.m}) = {list(report.betti)}{note}"]
    for k, values in report.charpoly_exponents:
        lines.append(f"  k={k}: b(L_k) = {list(values)}")
    if name == "selberg" and args.m == 6:
        extra = "X_6 is the Milnor fiber of the rank-3 braid arrangement"
        payload["note"] = extra
        lines.append(extra)
    return 0, payload, lines


def _cmd_charpoly(args, a, name, assertions):
    from .covers import MAX_EXPANDED_DEGREE, charpoly_and_degree

    report, degree = charpoly_and_degree(a, args.m, args.q, assertions)
    payload = {
        "name": name,
        "m": args.m,
        "q": args.q,
        "exponents": [list(e) for e in report.exponents],
        "expanded": None if report.expanded is None else list(report.expanded.coeffs),
        "degree": degree,
        "tk_factors": [list(e) for e in report.tk_factors] if report.tk_factors else None,
        "exact": report.exact,
    }
    factored = " ".join(f"Phi_{k}^{e}" for k, e in report.exponents) or "1"
    lines = [
        f"{name}: Delta_{args.q}(t) for X_{args.m}",
        f"  cyclotomic exponents: {factored}",
        f"  degree {degree}",
    ]
    if report.tk_factors:
        pretty = " ".join(f"(t^{j} - 1)^{e}" if j > 1 else f"(t - 1)^{e}"
                          for j, e in report.tk_factors)
        lines.append(f"  = {pretty}")
    lines.append(f"  expanded: omitted, degree {degree} exceeds {MAX_EXPANDED_DEGREE}"
                 if report.expanded is None else f"  expanded: {format_poly(report.expanded)}")
    return 0, payload, lines


def _cmd_periodicity(args, a, name, assertions):
    from .covers import periodicity

    report = periodicity(a, assertions)
    payload = {
        "name": name,
        "period": report.period,
        "ell": report.ell,
        "exact": report.exact,
        "classes": [
            {
                "divisors": list(cls.divisors),
                "constants": list(cls.constants),
                "top": {"slope": cls.top_slope, "constant": cls.top_constant},
            }
            for cls in report.classes
        ],
    }
    lines = [f"{name}: Betti numbers of X_m are polynomial-periodic with period {report.period}"]
    for cls in report.classes:
        consts = ", ".join(
            f"p_{q} = {c}" for q, c in enumerate(cls.constants, start=1)
        )
        top = f"p_{report.ell}(m) = {cls.top_slope}*m + {cls.top_constant}"
        prefix = f"  residues with divisors {list(cls.divisors)}: "
        lines.append(prefix + (f"{consts}, " if consts else "") + top)
    return 0, payload, lines


def _cmd_zeta(args, a, name, assertions):
    from .covers import zeta_coefficients

    report = zeta_coefficients(a, args.q, assertions)
    payload = {
        "name": name,
        "q": args.q,
        "finite_terms": [list(t) for t in report.finite_terms],
        "tail_beta": report.tail_beta,
        "exact": report.exact,
    }
    terms = " + ".join(f"{c}*{k}^(-s)" if k > 1 else str(c) for k, c in report.finite_terms)
    tail = f" + {report.tail_beta}*sum_(k>{a.n}) phi(k) k^(-s)" if report.tail_beta else ""
    lines = [f"{name}: zeta_{args.q}(s) = zeta(s) * [{terms or '0'}{tail}]"]
    return 0, payload, lines


def _cmd_catalog(args):
    if args.action == "list":
        if args.key:
            raise CliError(f"catalog list takes no key, got {args.key!r}")
        table = catalog_mod.entries()
        payload = {
            "entries": [
                {"key": e.key, "n": e.arrangement.n, "ell": e.arrangement.ell,
                 "notes": e.notes}
                for e in table.values()
            ]
        }
        lines = [f"{e.key}: n={e.arrangement.n}, ell={e.arrangement.ell} -- {e.notes}"
                 for e in table.values()]
        return 0, payload, lines
    if not args.key:
        raise CliError("catalog show requires a key")
    from .fileformat import arrangement_to_dict

    try:
        entry = catalog_mod.get(args.key)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None
    # no text form: both formats print the arrangement file
    return 0, arrangement_to_dict(entry.arrangement, entry.key), None


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", metavar="KEY", help="built-in arrangement key")
    common.add_argument("--file", metavar="PATH", help="arrangement file to load")
    common.add_argument("--format", choices=("json", "text"), default="json")
    asserting = argparse.ArgumentParser(add_help=False)
    asserting.add_argument("--assert", action="append", metavar="k:q=v", dest="assert")

    parser = argparse.ArgumentParser(
        prog="arrcover",
        description="Exact invariants of cyclic covers of arrangement complements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common]).set_defaults(func=_cmd_info)
    sub.add_parser("lattice", parents=[common]).set_defaults(func=_cmd_lattice)

    p_os = sub.add_parser("os", parents=[common])
    p_os.add_argument("--matrices", action="store_true", help="include differential matrices")
    p_os.add_argument("--k-vector", metavar="CSV", help="integer weights (default all ones)")
    p_os.set_defaults(func=_cmd_os)

    p_lb = sub.add_parser("local-betti", parents=[common])
    p_lb.add_argument("--k", type=int, required=True)
    p_lb.add_argument("--shift", action="append", metavar="CSV",
                      help="extra shift vector to try (repeatable)")
    p_lb.add_argument("--assert", action="append", metavar="q=v", dest="assert",
                      help="assert an unresolved degree (repeatable)")
    p_lb.set_defaults(func=_cmd_local_betti)

    p_cb = sub.add_parser("cover-betti", parents=[common, asserting])
    p_cb.add_argument("--m", type=int, required=True)
    p_cb.set_defaults(func=_cmd_cover_betti)

    p_cp = sub.add_parser("charpoly", parents=[common, asserting])
    p_cp.add_argument("--m", type=int, required=True)
    p_cp.add_argument("--q", type=int, required=True)
    p_cp.set_defaults(func=_cmd_charpoly)

    sub.add_parser("periodicity", parents=[common, asserting]).set_defaults(func=_cmd_periodicity)

    p_z = sub.add_parser("zeta", parents=[common, asserting])
    p_z.add_argument("--q", type=int, required=True)
    p_z.set_defaults(func=_cmd_zeta)

    p_cat = sub.add_parser("catalog")
    p_cat.add_argument("action", choices=("list", "show"))
    p_cat.add_argument("key", nargs="?")
    p_cat.add_argument("--format", choices=("json", "text"), default="json")
    p_cat.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, but 2 is the
        # code of an open interval
        return 0 if exc.code == 0 else 1
    try:
        try:
            if args.command == "catalog":
                code, payload, lines = args.func(args)
            else:
                a, name = _load_arrangement(args)
                k_fixed = args.k if args.command == "local-betti" else None
                assertions = _parse_assertions(getattr(args, "assert", None), k_fixed)
                code, payload, lines = args.func(args, a, name, assertions)
        except (CliError, ValueError) as exc:  # ArrangementFileError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            # an open interval can only come from covers, so a command that
            # never loaded it cannot raise one
            covers = sys.modules.get(f"{__package__}.covers")
            if covers is None or not isinstance(exc, covers.UnresolvedBettiError):
                raise
            code, payload, lines = _report_unresolved(exc)
        if args.format == "json" or lines is None:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print("\n".join(lines))
        # flushed here, so that a reader gone before the last buffer is seen
        # below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: later writes, the exit flush included, go to
        # devnull instead of raising again (Python signal docs, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
