"""Aim 3's growth contract, checked by counts rather than timings.

What the package keeps grows with the arrangements alive, never with the
arrangements seen: every value derived from an arrangement is held under
that arrangement by one owner (arrangement.derived) and dropped when the
arrangement is collected.  A caller that analyses many inputs one after
another, dropping each, is left with nothing.
"""

import gc
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

from arrcover import arrangement
from arrcover.covers import cover_betti, local_betti
from bench_inputs import braid_decone

SEEDS = range(20)


def test_dropped_arrangements_leave_no_derived_values():
    lattices = arrangement.closure_lattice.cache_info().misses
    refs, ids = [], []
    for seed in SEEDS:
        a = braid_decone(5, seed)
        for k in range(1, a.n + 1):
            local_betti(a, k)
        # the divisors 1, 2 and 4 of braid A4 decones are resolved
        assert cover_betti(a, 4).exact
        refs.append(weakref.ref(a))
        ids.append(id(a))
        del a
    gc.collect()
    assert [seed for seed, ref in zip(SEEDS, refs) if ref() is not None] == []
    # no arrangement created since can hold one of these ids
    assert [i for i in ids if i in arrangement._derived] == []
    # each input built its lattice once, for its nine k and its cover
    assert arrangement.closure_lattice.cache_info().misses == lattices + len(SEEDS)


def test_threads_that_miss_together_share_the_first_value():
    computed = []

    @arrangement.derived
    def probe(a, k):
        computed.append(k)
        time.sleep(0.001)  # let the other threads miss too
        return object()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            a = braid_decone(5, seed)
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(probe, a, i % 2) for i in range(32)]
                got = [future.result(timeout=10) for future in futures]
            assert got[0::2] == [got[0]] * 16 and got[1::2] == [got[1]] * 16
            assert got[0] is not got[1]
            # every call that computed was counted, and a's values go with it
            assert probe.cache_info().misses == len(computed)
            key = id(a)
            del a
            assert key not in arrangement._derived
    finally:
        sys.setswitchinterval(interval)
