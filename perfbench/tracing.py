"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces selected functions by timing wrappers wherever a
module of the package holds them, so calls made through ``from .x import f``
bindings are seen too; the package source is not touched.  Spans live in
memory as (name, start_ns, end_ns, id, parent_id) and are written once, by
``Tracer.dump``, together with the per-layer sums the benchmark reports.
"""

from __future__ import annotations

import importlib
import json
import time
from itertools import count

PACKAGE = "arrcover"
MODULES = ("cli", "fileformat", "arrangement", "cyclofield", "osalgebra",
           "exactlin", "covers")

# (span name, defining module, attribute, modules whose binding is wrapped);
# None wraps every binding.  reduced_row_echelon is traced where the
# geometry calls it, not inside cyclofield's own helpers.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("fileformat.parse_file", "fileformat", "parse_file", None),
    ("arrangement.intersection_lattice", "arrangement", "intersection_lattice", None),
    ("arrangement.dense_edges", "arrangement", "dense_edges", None),
    ("cyclofield.rref", "cyclofield", "reduced_row_echelon", ("arrangement", "osalgebra")),
    ("osalgebra.nbc_basis", "osalgebra", "nbc_basis", None),
    ("osalgebra.aomoto", "osalgebra", "aomoto_matrices", None),
    ("exactlin.cohomology_Q", "exactlin", "cohomology_Q", None),
    ("exactlin.rank_over_Q", "exactlin", "rank_over_Q", None),
    ("exactlin.modN", "exactlin", "cohomology_modN", None),
    ("covers.local_betti", "covers", "local_betti", None),
    ("covers.cover_betti", "covers", "cover_betti", None),
    ("covers.charpoly", "covers", "monodromy_charpoly", None),
    ("covers.periodicity", "covers", "periodicity", None),
)

# per-layer metric -> (span name, statistic); statistics: total (inclusive
# seconds), self (seconds minus direct child spans), calls.
SPAN_METRICS = {
    "cli.startup_s": ("cli.startup", "total"),
    "cli.main_self_s": ("cli.main", "self"),
    "fileformat.parse_file_s": ("fileformat.parse_file", "total"),
    "arrangement.intersection_lattice_s": ("arrangement.intersection_lattice", "total"),
    "arrangement.dense_edges_self_s": ("arrangement.dense_edges", "self"),
    "cyclofield.rref_calls": ("cyclofield.rref", "calls"),
    "cyclofield.rref_s": ("cyclofield.rref", "total"),
    "osalgebra.nbc_basis_s": ("osalgebra.nbc_basis", "total"),
    "osalgebra.aomoto_calls": ("osalgebra.aomoto", "calls"),
    "osalgebra.aomoto_s": ("osalgebra.aomoto", "total"),
    "exactlin.cohomology_Q_calls": ("exactlin.cohomology_Q", "calls"),
    "exactlin.cohomology_Q_s": ("exactlin.cohomology_Q", "total"),
    "exactlin.rank_over_Q_s": ("exactlin.rank_over_Q", "total"),
    "exactlin.modN_calls": ("exactlin.modN", "calls"),
    "exactlin.modN_s": ("exactlin.modN", "total"),
    "covers.cover_betti_self_s": ("covers.cover_betti", "self"),
    "covers.charpoly_self_s": ("covers.charpoly", "self"),
    "covers.periodicity_self_s": ("covers.periodicity", "self"),
}
# counters kept by the wrappers themselves
COUNTERS = ("arrangement.flats", "covers.sweep_candidates", "covers.sweep_useful")


def now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so a parent's reading can start a
    # child's span.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._ids = count(1)
        self._stack = [0]
        self._sweeps: list[list[int]] = []  # running lower bounds per local_betti
        self._lattice = None

    def add_span(self, name: str, start: int, end: int) -> None:
        self.spans.append((name, start, end, next(self._ids), self._stack[-1]))

    def _wrap(self, name, fn):
        enter, leave = self._hooks().get(name, (None, None))
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            state = enter() if enter else None
            result = None
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now_ns()
                stack.pop()
                spans.append((name, start, end, sid, parent))
                if leave:
                    leave(result, state)

        traced.__wrapped__ = fn
        return traced

    # counters -------------------------------------------------------------

    def _hooks(self):
        return {
            "arrangement.intersection_lattice": (self._lattice_enter, self._lattice_leave),
            "covers.local_betti": (self._sweep_enter, self._sweep_leave),
            "exactlin.cohomology_Q": (None, self._candidate_leave),
        }

    def _lattice_enter(self):
        return self._lattice.cache_info().misses

    def _lattice_leave(self, lattice, misses_before):
        if lattice is not None and self._lattice.cache_info().misses > misses_before:
            self.counters["arrangement.flats"] += sum(len(level) for level in lattice.levels)

    def _sweep_enter(self):
        self._sweeps.append([])

    def _sweep_leave(self, _result, _state):
        self._sweeps.pop()

    def _candidate_leave(self, profile, _state):
        # A candidate is useful when it raises the running lower bound of the
        # enclosing local_betti call in some degree q >= 1.
        if profile is None or not self._sweeps:
            return
        lower = self._sweeps[-1]
        dims = profile.dims
        if not lower:
            lower.extend([0] * len(dims))
        self.counters["covers.sweep_candidates"] += 1
        if any(dims[q] > lower[q] for q in range(1, len(dims))):
            self.counters["covers.sweep_useful"] += 1
            lower[:] = [max(a, b) for a, b in zip(lower, dims)]

    # installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        everyone = [importlib.import_module(PACKAGE), *mods.values()]
        self._lattice = mods["arrangement"].intersection_lattice
        for span, home, attr, where in TARGETS:
            original = getattr(mods[home], attr)
            wrapper = self._wrap(span, original)
            holders = everyone if where is None else [mods[m] for m in where]
            for module in holders:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
        return self

    # output ---------------------------------------------------------------

    def metrics(self) -> dict:
        total: dict[str, int] = {}
        calls: dict[str, int] = {}
        child: dict[int, int] = {}
        for name, start, end, _sid, parent in self.spans:
            total[name] = total.get(name, 0) + end - start
            calls[name] = calls.get(name, 0) + 1
            child[parent] = child.get(parent, 0) + end - start
        own: dict[str, int] = {}
        for name, start, end, sid, _parent in self.spans:
            own[name] = own.get(name, 0) + end - start - child.get(sid, 0)
        out = {}
        for metric, (span, stat) in SPAN_METRICS.items():
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            else:
                out[metric] = (total if stat == "total" else own).get(span, 0) / 1e9
        out.update(self.counters)
        out["arrangement.lattice_builds"] = self._lattice.cache_info().misses
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"metrics": self.metrics(), "spans": self.spans}, fh)
