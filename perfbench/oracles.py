"""Expected values for every benchmark operation.

Each checker takes an operation's result and returns None when it is correct
or a one-line reason when it is not.  The headline values are those of the
README table; the shift-sweep intervals and catalog witness shifts are the
ones the package returned when the benchmark was written (witnesses depend on
hyperplane order, so they are compared for catalog inputs only).
"""

from __future__ import annotations

from math import comb, gcd


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def expect(label, got, want):
    return None if got == want else f"{label}: expected {want!r}, got {got!r}"


# ---------------------------------------------------------------------------
# Command-line operations: (args, expected exit code, check of parsed stdout).
# ---------------------------------------------------------------------------

def _witness_in_cube(n):
    def check(out):
        for iv in out["intervals"]:
            w = iv["witness_shift"]
            if iv["lower"] and (w is None or len(w) != n or set(w) - {-1, 0}):
                return f"q={iv['q']}: witness {w} not in {{-1,0}}^{n}"
        return None
    return check


def _values(out):
    return [iv["lower"] if iv["resolved"] else None for iv in out["intervals"]]


def _selberg_k3(out):
    q1 = out["intervals"][1]
    return (expect("b_1", (q1["lower"], q1["upper"]), (1, 1))
            or expect("witness", q1["witness_shift"], [0, 0, -1, 0, 0]))


def _selberg_periodicity(out):
    if out["period"] != 60:
        return expect("period", out["period"], 60)
    for cls in out["classes"]:
        want = {"slope": 2, "constant": 6 if 3 in cls["divisors"] else 4}
        if cls["top"] != want:
            return expect(f"top of {cls['divisors']}", cls["top"], want)
    return None


def _ceva3_open(out):
    q1 = out["intervals"][0]
    return (expect("error", out.get("error"), "unresolved-interval")
            or expect("q=1 interval", (out["k"], q1["q"], q1["lower"], q1["upper"]),
                       (3, 1, 1, 2)))


HEADLINE = [
    ("info --catalog selberg", 0,
     lambda o: expect("P, beta", (o["poincare"], o["beta"]), ([1, 5, 6], 2))),
    ("local-betti --catalog selberg --k 3", 0, _selberg_k3),
    ("local-betti --catalog hessian-decone --k 4", 0,
     lambda o: expect("values", _values(o), [0, 2, 20]) or _witness_in_cube(11)(o)),
    ("cover-betti --catalog maclane-decone --m 8", 0,
     lambda o: expect("betti", o["betti"], [1, 7, 62])),
    ("cover-betti --catalog selberg --m 6", 0,
     lambda o: expect("betti", o["betti"], [1, 7, 18])),
    ("cover-betti --catalog hessian-decone --m 12", 0,
     lambda o: expect("betti", o["betti"], [1, 17, 232])),
    ("charpoly --catalog hessian-decone --m 12 --q 1", 0,
     lambda o: expect("tk_factors", o["tk_factors"], [[1, 9], [4, 2]])),
    ("charpoly --catalog hessian-decone --m 12 --q 2", 0,
     lambda o: expect("tk_factors", o["tk_factors"], [[1, 8], [4, 2], [12, 18]])),
    ("periodicity --catalog selberg", 0, _selberg_periodicity),
    ("zeta --catalog selberg --q 1", 0,
     lambda o: expect("terms", (o["finite_terms"], o["tail_beta"]), ([[1, 5], [3, 2]], 0))),
    ("zeta --catalog hessian-decone --q 1", 0,
     lambda o: expect("terms", (o["finite_terms"], o["tail_beta"]),
                       ([[1, 11], [2, 2], [4, 4]], 0))),
    ("cover-betti --catalog ceva3 --m 3", 2, _ceva3_open),
]


def braid_info(L, poincare):
    return lambda o: expect("n, ell, P", (o["n"], o["ell"], o["poincare"]),
                             (comb(L, 2) - 1, L - 2, poincare))


def braid_lattice(L, poincare):
    """Flats of the decone are the partitions of L points not merging the
    decone pair; the closure is the braid lattice without its center, and
    its dense edges are the partitions with one block of size 2..L-1."""
    def check(out):
        coeffs = [0] * len(poincare)
        for f in out["flats"]:
            coeffs[f["codim"]] += f["mobius"] * (-1) ** f["codim"]
        closure = out["closure"]["flats"]
        dense = sum(1 for f in closure if f["dense"])
        return (expect("P from Mobius", coeffs, poincare)
                or expect("flats", len(out["flats"]), bell(L) - bell(L - 1))
                or expect("closure flats, dense", (len(closure), dense),
                           (bell(L) - 1, 2 ** L - L - 2)))
    return check


def os_matrices(poincare):
    """NBC counts are the Poincare coefficients, D^0 is the all-ones column,
    and consecutive differentials compose to zero (a wedge a = 0)."""
    def check(out):
        bad = expect("nbc counts", out["nbc_counts"], poincare)
        if bad:
            return bad
        diffs = out["differentials"]
        for q, d in enumerate(diffs):
            rows = poincare[q + 1] if q + 1 < len(poincare) else 0
            if (d["rows"], d["cols"]) != (rows, poincare[q]):
                return f"D^{q} has shape {d['rows']}x{d['cols']}"
        if sorted(map(tuple, diffs[0]["entries"])) != [(h, 0, 1) for h in range(poincare[1])]:
            return "D^0 is not the all-ones column"
        for q in range(len(diffs) - 1):
            inner = {}
            for r, c, v in diffs[q]["entries"]:
                inner.setdefault(r, []).append((c, v))
            prod = {}
            for r, mid, v in diffs[q + 1]["entries"]:
                for c, w in inner.get(mid, ()):
                    prod[(r, c)] = prod.get((r, c), 0) + v * w
            if any(prod.values()):
                return f"D^{q + 1} D^{q} != 0"
        return None
    return check


# ---------------------------------------------------------------------------
# Shift sweep: (lower, upper) per degree and catalog witnesses per degree.
# ---------------------------------------------------------------------------

SWEEP_INTERVALS = {
    ("hessian-decone", 2): ((0, 0), (2, 2), (20, 20)),
    ("hessian-decone", 4): ((0, 0), (2, 2), (20, 20)),
    ("ceva3", 3): ((0, 0), (1, 2), (11, 13), (10, 11)),
    ("ceva3", 9): ((0, 0), (0, 2), (9, 13), (9, 11)),
    ("maclane-decone", 3): ((0, 0), (0, 0), (7, 7)),
    ("braid-a4", 2): ((0, 0), (0, 0), (2, 2), (8, 8)),
    ("braid-a4", 3): ((0, 0), (0, 0), (1, 1), (7, 7)),
    ("braid-a4", 6): ((0, 0), (0, 0), (0, 2), (6, 8)),
}

_H2 = (-1, -1, -1, 0, 0, 0, 0, -1, 0, -1, 0)
_H4 = (-1, -1) + (0,) * 9
_C3 = (-1, -1, -1) + (0,) * 6
_C9 = (-1,) + (0,) * 8

SWEEP_WITNESSES = {
    ("hessian-decone", 2): (None, _H2, _H2),
    ("hessian-decone", 4): (None, _H4, _H4),
    ("ceva3", 3): (None, _C3, _C3, _C3),
    ("ceva3", 9): (None, None, _C9, _C9),
    ("maclane-decone", 3): (None, None, (0,) * 7),
}


def sweep_check(name, k, intervals):
    got = tuple((iv.lower, iv.upper) for iv in intervals)
    bad = expect(f"{name} k={k} intervals", got, SWEEP_INTERVALS[(name, k)])
    if bad or (name, k) not in SWEEP_WITNESSES:
        return bad
    return expect(f"{name} k={k} witnesses",
                   tuple(iv.witness_shift for iv in intervals), SWEEP_WITNESSES[(name, k)])


# ---------------------------------------------------------------------------
# Large m: closed forms read off the README's zeta and periodicity rows.
# b_1(X_m) = sum over k | m of the zeta coefficients; chi(X_m) = m chi(M).
# ---------------------------------------------------------------------------

CHI = {"selberg": 2, "hessian-decone": 18}
ZETA_1 = {"selberg": {1: 5, 3: 2}, "hessian-decone": {1: 11, 2: 2, 4: 4}}


def cover_betti_closed_form(name, m):
    b1 = sum(c for k, c in ZETA_1[name].items() if m % k == 0)
    return (1, b1, CHI[name] * m - 1 + b1)


def phi(k):
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def generic_zeta_top(n):
    """Every k > 1 is nonresonant for generic lines, so b_2(L_k) = beta and
    the top-degree terms are (1, C(n,2)) and (k, phi(k) beta) for 2 <= k <= n."""
    beta = 1 - n + comb(n, 2)
    return ((1, comb(n, 2)),) + tuple((k, phi(k) * beta) for k in range(2, n + 1))
