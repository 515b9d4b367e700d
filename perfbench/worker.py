"""One pass of an in-process workload, in a fresh interpreter.

Usage: worker.py WORKLOAD INPUT_DIR SEED [SPANS_FILE]

A fresh process per pass keeps the package's module-level caches cold for
every timed call.  Set-up (imports, parsing the generated files, warm-up)
runs first, then the timed operations, then the checks of their results.
Prints one JSON line: setup_s, ops (name, seconds, error), checks, rss_mib
and a digest of the results.  With SPANS_FILE the whole process is traced.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from arrcover import arrangement, catalog, covers, fileformat, osalgebra  # noqa: E402

OP_BUDGET_S = {"shift-sweep": 20, "large-m": 40}


class OverBudget(Exception):
    pass


def _alarm(_signum, _frame):
    raise OverBudget


def run_timed(fn, budget):
    """(result, seconds, error); an operation past its budget is stopped."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    result, error = None, None
    start = time.perf_counter()
    try:
        result = fn()
    except OverBudget:
        error = f"over its {budget} s budget"
    except Exception as exc:  # every failure is data for error_rate
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, seconds, error


def _load(inputs: Path, name: str):
    return fileformat.parse_file((inputs / f"{name}.json").read_bytes())


# ---------------------------------------------------------------------------
# Workloads: each returns (ops, checks); an op is (name, thunk, check) and a
# check takes the op's result and returns None or a reason.
# ---------------------------------------------------------------------------

def shift_sweep(inputs: Path, seed: int):
    arrs = {key: catalog.get(key).arrangement
            for key in ("hessian-decone", "ceva3", "maclane-decone")}
    arrs["braid-a4"] = _load(inputs, "braid-a4")
    for a in arrs.values():
        arrangement.intersection_lattice(a)
        arrangement.dense_edges(a)
        osalgebra.nbc_basis(a)
        osalgebra.aomoto_matrices(a, (1,) * a.n)
    resonant = [
        (name, k) for name, a in arrs.items() for k in range(2, a.n + 1)
        if not (covers.fast_nonresonant(a, k)
                or covers.stv_nonresonant(a, covers.WeightSystem.uniform(a.n, k)))
    ]

    def sweep(name, k):
        return (f"local_betti {name} k={k}",
                lambda: covers.local_betti(arrs[name], k),
                lambda ivs: oracles.sweep_check(name, k, ivs))

    ops = [sweep(name, k) for name, k in resonant]
    hessian = arrs["hessian-decone"]
    # After the pass the swept intervals are cached; assembling the README
    # cover values from them checks the sweep end to end.
    checks = [
        ("resonant divisors", lambda: oracles.expect(
            "resonant", set(resonant), set(oracles.SWEEP_INTERVALS))),
        ("hessian cover_betti m=12", lambda: oracles.expect(
            "betti", covers.cover_betti(hessian, 12).betti, (1, 17, 232))),
        ("hessian charpoly m=12 q=2", lambda: oracles.expect(
            "tk_factors", covers.monodromy_charpoly(hessian, 12, 2).tk_factors,
            ((1, 8), (4, 2), (12, 18)))),
        ("hessian periodicity", lambda: hessian_periodicity(hessian)),
    ]
    return ops, checks


def hessian_periodicity(hessian):
    report = covers.periodicity(hessian)
    return oracles.expect("period, betti(12)", (report.period, report.betti(12)),
                          (27720, (1, 17, 232)))


def large_m(inputs: Path, seed: int):
    selberg = catalog.get("selberg").arrangement
    hessian = catalog.get("hessian-decone").arrangement
    generic = _load(inputs, "generic-16")
    for a in (selberg, hessian, generic):
        for k in range(1, a.n + 1):
            covers.local_betti(a, k)
    n = generic.n
    chi = 1 - n + comb(n, 2)

    def closed_form(name, m):
        def check(report):
            want = oracles.cover_betti_closed_form(name, m)
            euler = sum((-1) ** q * b for q, b in enumerate(report.betti))
            return (oracles.expect("betti", report.betti, want)
                    or oracles.expect("chi(X_m)", euler, m * oracles.CHI[name]))
        return check

    def charpoly_check(report):
        b2 = oracles.cover_betti_closed_form("selberg", 5040)[2]
        by_phi = sum(oracles.phi(k) * e for k, e in report.exponents)
        return oracles.expect("degrees", (report.expanded.degree, by_phi), (b2, b2))

    rng = random.Random(f"large-m-{seed}")
    samples = [rng.randrange(1, 10**6) for _ in range(3)] + [360360, 720720]

    def periodicity_check(report):
        bad = oracles.expect("period, classes", (report.period, len(report.classes)),
                              (720720, 240))
        for m in samples:
            cover = covers.cover_betti(generic, m).betti
            bad = (bad or oracles.expect(f"betti({m})", report.betti(m), cover)
                   or oracles.expect(f"b(X_{m})", cover, (1, n, chi * m - 1 + n)))
        return bad

    ops = [
        ("cover_betti selberg m=10^7", lambda: covers.cover_betti(selberg, 10**7),
         closed_form("selberg", 10**7)),
        ("cover_betti hessian-decone m=9699690", lambda: covers.cover_betti(hessian, 9699690),
         closed_form("hessian-decone", 9699690)),
        ("charpoly selberg m=5040 q=2", lambda: covers.monodromy_charpoly(selberg, 5040, 2),
         charpoly_check),
        ("periodicity generic-16", lambda: covers.periodicity(generic), periodicity_check),
        ("zeta generic-16 q=2", lambda: covers.zeta_coefficients(generic, 2),
         lambda z: oracles.expect("terms", (z.finite_terms, z.tail_beta),
                                  (oracles.generic_zeta_top(n), chi))),
    ]
    return ops, []


WORKLOADS = {"shift-sweep": shift_sweep, "large-m": large_m}


def main() -> None:
    workload, inputs, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    tracer = None
    if len(sys.argv) > 4:
        from tracing import Tracer
        tracer = Tracer().install()
    ops, checks = WORKLOADS[workload](inputs, seed)
    setup_s = time.perf_counter() - T0

    budget = OP_BUDGET_S[workload]
    timed = [(name, *run_timed(fn, budget), check) for name, fn, check in ops]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    op_rows = []
    digest = hashlib.sha256()
    for name, result, seconds, error, check in timed:
        if error is None:
            verdict, _, crash = run_timed(lambda: check(result), budget)
            error = crash or verdict
        digest.update(repr((name, result)).encode())
        op_rows.append({"name": name, "seconds": seconds, "error": error})
    check_rows = []
    for name, fn in checks:
        verdict, _, error = run_timed(fn, budget)
        check_rows.append({"name": name, "error": error or verdict})
    if tracer is not None:
        tracer.dump(sys.argv[4])
    print(json.dumps({"setup_s": setup_s, "ops": op_rows, "checks": check_rows,
                      "rss_mib": rss_mib, "digest": digest.hexdigest()}))


if __name__ == "__main__":
    main()
