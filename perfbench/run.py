"""Benchmark of the arrcover package: three workloads, one command.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each single-process, with at most one child process at a time):

* cold-cli: every operation is one cold ``python -m arrcover`` process: the
  README headline invocations, then info/lattice/os --matrices on a seeded
  braid A5 decone and info/cover-betti --m 4 on a seeded braid A4 decone.
  Interpreter start-up and cold geometry dominate.
* shift-sweep: local_betti for every resonant (arrangement, k <= n) of
  hessian-decone, ceva3, maclane-decone and a seeded braid A4 decone, with
  the geometry warmed in set-up.  The lower-bound shift sweep and the mod-k
  upper bound dominate.
* large-m: cover_betti at m = 10^7 and 9699690, a degree-10086 monodromy
  polynomial, and periodicity/zeta of a seeded generic arrangement of 16
  lines, with the local values warmed in set-up.  Only the assembly of
  cover invariants works here.

Set-up writes the seeded input files and checks each through a cold
``arrcover info``; that is the whole set-up of cold-cli, which sets up three
times, then makes at least three passes and reruns its slowest command if
that has fewer than three samples.  The other two check their inputs once,
then make at least three passes (two on large-m), each in a fresh worker
process whose set-up (imports, parsing the files, warm-up) precedes its
timed operations, so no timed call is a hit in the package's module-level
caches.  A run makes passes until --seconds have passed, and starts none
that would end after its deadline.  Times are medians: of the passes for
wall_s, of the set-ups for setup_s, and of the samples of the slowest
operation for slowest_op_s.
Every output is checked against an oracle; a wrong value, wrong exit code,
exception or operation over its budget is a failed operation.

The last line of stdout is the JSON result.  The full record (commit, Python
version, CPU count, seed, the time of every operation) is written to
.perfbench_out/.  With --trace 1 the run checks its inputs, then makes
untraced, traced, traced and untraced passes, in that order so that a steady
drift of the machine's speed cancels out.  It reports the per-layer metrics
of the traced input check plus the median over the traced passes, and the
tracing overhead as the median traced wall time minus the median untraced
one; it writes the spans to .perfbench_out/ and fails any operation whose
traced output differs from the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import inputs
import oracles
from tracing import now_ns

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

DEADLINE_S = 150  # no new work starts after this, so every run ends within 180 s
CLI_BUDGET_S = 30  # per cold command; the slowest takes about 5 s
WORKER_BUDGET_S = 90  # per worker process; the slowest takes about 15 s
CLI_SETUPS = 3
# untraced passes per run; large-m makes two, as each of its passes takes
# about 15 s on a 2-vCPU VM, which keeps its run near half a minute
MIN_PASSES = {"cold-cli": 3, "shift-sweep": 3, "large-m": 2}
TRACE_ORDER = (False, True, True, False)  # traced run: is each pass traced
SLOWEST_SAMPLES = 3  # samples of the slowest operation behind slowest_op_s
WAITED = "not applicable: no layer has queues or retries, so no work waits"

P5, P6 = inputs.braid_poincare(5), inputs.braid_poincare(6)

# input file -> (seeded rows, expected Poincare polynomial)
FILES = {
    "braid-a5": (lambda seed: inputs.braid_decone(6, seed), P6),
    "braid-a4": (lambda seed: inputs.braid_decone(5, seed), P5),
    "generic-16": (lambda seed: inputs.generic_lines(16, seed), inputs.generic_poincare(16)),
}
WORKLOAD_FILES = {
    "cold-cli": ("braid-a5", "braid-a4"),
    "shift-sweep": ("braid-a4",),
    "large-m": ("generic-16",),
}
CLI_OPS = oracles.HEADLINE + [
    ("info --file braid-a5.json", 0, oracles.braid_info(6, P6)),
    ("lattice --file braid-a5.json", 0, oracles.braid_lattice(6, P6)),
    ("os --file braid-a5.json --matrices", 0, oracles.os_matrices(P6)),
    ("info --file braid-a4.json", 0, oracles.braid_info(5, P5)),
    ("cover-betti --file braid-a4.json --m 4", 0,
     lambda o: oracles.expect("betti", o["betti"], [1, 9, 28, 44])),
]


class Run:
    """One benchmark run: scratch directory, deadline, child processes and
    the span dumps of traced children."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.count = 0
        self.dumps: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def remaining(self) -> float:
        return DEADLINE_S - self.elapsed()

    def spans_file(self) -> str:
        self.count += 1
        return str(self.work / f"spans-{self.count}.json")

    def fits(self, p) -> bool:
        """Whether another pass like ``p`` ends before the deadline."""
        return self.remaining() > 1.5 * (pass_wall(p) + p.get("setup_s", 0.0))

    def child(self, argv, budget, spans=None, label=""):
        """Run ``python argv`` to completion: (exit code, or None when killed
        at its budget; seconds; peak RSS in MiB; stdout bytes; stderr)."""
        self.count += 1
        out_path, err_path = self.work / f"{self.count}.out", self.work / f"{self.count}.err"
        budget = max(0.1, min(budget, self.remaining()))
        killed, reaped = [], False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.env["PERFBENCH_SPAWN_NS"] = str(now_ns())
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def on_alarm(_signum, _frame):
                if not reaped:
                    killed.append(True)
                    proc.kill()

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                if not reaped:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if spans and os.path.exists(spans):
            with open(spans) as fh:
                self.dumps.append({"label": label, **json.load(fh)})
        code = None if killed else proc.returncode
        return (code, seconds, usage.ru_maxrss / 1024, out_path.read_bytes(),
                err_path.read_text(errors="replace"))

    def cli(self, cmd, want_code, check, traced=False):
        """One cold command, checked: an operation record."""
        if self.remaining() <= 0:
            return {"name": cmd, "seconds": 0.0, "rss_mib": 0.0, "stdout": b"",
                    "error": "not started: run deadline reached"}
        spans = self.spans_file() if traced else None
        argv = ([str(BENCH / "traced_cli.py"), spans] if traced else ["-m", "arrcover"])
        code, seconds, rss, stdout, stderr = self.child(
            [*argv, *cmd.split()], CLI_BUDGET_S, spans, cmd)
        if code is None:
            error = "over its budget"
        elif code != want_code:
            error = f"exit {code}, expected {want_code}: {stderr.strip()[-300:]}"
        else:
            try:
                error = check(json.loads(stdout))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unexpected output: {type(exc).__name__}: {exc}"
        return {"name": cmd, "seconds": seconds, "rss_mib": rss, "error": error,
                "stdout": stdout}

    def setup_inputs(self, traced=False):
        """Write the seeded inputs and check each with a cold ``info``:
        (seconds, check records)."""
        start = time.perf_counter()
        checks = []
        for name in WORKLOAD_FILES[self.workload]:
            rows, poincare = FILES[name]
            (self.work / f"{name}.json").write_text(inputs.arrangement_file(name, rows(self.seed)))
            op = self.cli(f"info --file {name}.json", 0,
                          lambda o: oracles.expect("P", o["poincare"], poincare), traced)
            checks.append({"name": f"input {name}", "error": op["error"]})
        return time.perf_counter() - start, checks

    def cli_pass(self, traced=False):
        ops = [self.cli(cmd, code, check, traced) for cmd, code, check in CLI_OPS]
        return {"ops": ops, "rss_mib": max(op["rss_mib"] for op in ops), "checks": []}

    def worker_pass(self, traced=False):
        spans = self.spans_file() if traced else None
        argv = [str(BENCH / "worker.py"), self.workload, str(self.work), str(self.seed)]
        code, _, _, stdout, stderr = self.child(
            argv + ([spans] if traced else []), WORKER_BUDGET_S, spans, "worker")
        try:
            report = json.loads(stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            why = "killed at its budget" if code is None else f"exit {code}"
            error = f"worker {why}: {stderr.strip()[-300:]}"
            return {"setup_s": 0.0, "ops": [], "checks": [{"name": "worker", "error": error}],
                    "rss_mib": 0.0, "digest": None}
        return report


def pass_wall(p) -> float:
    return sum(op["seconds"] for op in p["ops"])


def op_samples(ops) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for op in ops:
        samples.setdefault(op["name"], []).append(op["seconds"])
    return samples


def end_to_end(setups, passes, repeats) -> dict:
    samples = op_samples([op for p in passes for op in p["ops"]] + repeats)
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "setup_s": statistics.median(setups),
        "slowest_op_s": max(statistics.median(v) for v in samples.values()),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
    }


def measure(run: Run):
    """Untraced run: (setup seconds, passes, repeated operations)."""
    setups, passes = [], []
    if run.workload == "cold-cli":
        setup_checks = []
        for _ in range(CLI_SETUPS):
            seconds, checks = run.setup_inputs()
            setups.append(seconds)
            setup_checks += checks
        passes.append({**run.cli_pass(), "checks": setup_checks})
        while ((len(passes) < MIN_PASSES[run.workload] or run.elapsed() < run.seconds)
               and run.fits(passes[-1])):
            passes.append(run.cli_pass())
        # A single cold command is noisier than a pass, so the slowest one
        # is repeated until its median rests on SLOWEST_SAMPLES runs.
        samples = op_samples(op for p in passes for op in p["ops"])
        slowest = max(samples, key=lambda name: statistics.median(samples[name]))
        cmd, code, check = next(op for op in CLI_OPS if op[0] == slowest)
        repeats = [run.cli(cmd, code, check)
                   for _ in range(SLOWEST_SAMPLES - len(samples[slowest]))]
        return setups, passes, repeats
    _, checks = run.setup_inputs()
    while not passes or ((len(passes) < MIN_PASSES[run.workload]
                          or run.elapsed() < run.seconds) and run.fits(passes[-1])):
        passes.append(run.worker_pass())
        setups.append(passes[-1]["setup_s"])
    passes[0]["checks"] = checks + passes[0]["checks"]
    return setups, passes, []


def dump_sums(dumps) -> dict[str, float]:
    sums: dict[str, float] = {}
    for dump in dumps:
        for key, value in dump["metrics"].items():
            sums[key] = sums.get(key, 0) + value
    return sums


def traced_passes(run: Run):
    """Untraced and traced passes in TRACE_ORDER; every traced output must
    equal the untraced one.  Returns (passes, per-layer metrics)."""
    _, checks = run.setup_inputs(traced=True)
    setup_dumps, run.dumps = run.dumps, []
    plain, traced, pass_dumps = [], [], []
    one_pass = run.cli_pass if run.workload == "cold-cli" else run.worker_pass
    for is_traced in TRACE_ORDER:
        # the last two passes only sharpen the medians, so they are skipped
        # when they would end after the deadline
        if plain and traced and not run.fits(traced[-1]):
            break
        p = one_pass(traced=is_traced)
        (traced if is_traced else plain).append(p)
        if is_traced:
            pass_dumps.append(run.dumps)
            run.dumps = []
    reference = plain[0]
    for p in traced:
        if run.workload == "cold-cli":
            for a, b in zip(reference["ops"], p["ops"]):
                if a["stdout"] != b["stdout"] and not b["error"]:
                    b["error"] = "traced stdout differs from the untraced stdout"
        elif p["digest"] != reference["digest"]:
            p["checks"].append({"name": "traced results",
                                "error": "traced results differ from the untraced ones"})
    reference["checks"] = checks + reference["checks"]
    run.dumps = setup_dumps + [d for dumps in pass_dumps for d in dumps]

    per_pass = [dump_sums(dumps) for dumps in pass_dumps]
    layers = dump_sums(setup_dumps)
    for key in set().union(*per_pass):
        layers[key] = layers.get(key, 0) + statistics.median(m.get(key, 0) for m in per_pass)
    useful = layers.pop("covers.sweep_useful", 0)
    layers["covers.sweep_useful_ratio"] = (
        useful / layers["covers.sweep_candidates"] if layers["covers.sweep_candidates"] else 0.0)
    layers["trace.overhead_s"] = (statistics.median(pass_wall(p) for p in traced)
                                  - statistics.median(pass_wall(p) for p in plain))
    return plain + traced, layers


def without_stdout(op) -> dict:
    return {k: v for k, v in op.items() if k != "stdout"}


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arrcover" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'arrcover'}", file=sys.stderr)
        return 1

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            passes, values = traced_passes(run)
            setups, repeats, declared = [], [], spec["per_layer"]
        else:
            setups, passes, repeats = measure(run)
            values, declared = end_to_end(setups, passes, repeats), spec["end_to_end"]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]] + repeats
    records = ops + [c for p in passes for c in p["checks"]]
    failed = [r for r in records if r["error"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "setup_s": setups,
        "passes": [{"ops": [without_stdout(op) for op in p["ops"]],
                    "checks": p["checks"], "rss_mib": p["rss_mib"]} for p in passes],
        "repeats": [without_stdout(op) for op in repeats],
        "values": values,
        "failures": [f"{r['name']}: {r['error']}" for r in failed],
        "result": result,
    }
    if args.trace:
        record["time_waited"] = WAITED
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump([{"label": d["label"], "spans": d["spans"]} for d in run.dumps], fh)
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        print(f"time waited: {WAITED}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
