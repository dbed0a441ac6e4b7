"""``node_draws``: memoized per-node tape draws for the vector populations.

The contract is that row ``v`` of every returned array is exactly what
``node_tape(seed, v)`` yields for the same calls, whatever the cache
state or the thread interleaving; the memo only decides how often the
tapes are drawn.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

import repro.algorithms.runner as runner
from repro.algorithms.runner import node_draws, node_tape


def tape_rows(seed, n, count, bound=None):
    """The reference: draw every node's tape one call at a time."""
    rows = []
    for v in range(n):
        tape = node_tape(seed, v)
        if bound is None:
            rows.append([tape.random() for _ in range(count)])
        else:
            b = bound if np.isscalar(bound) else int(bound[v])
            rows.append([tape.randrange(b) for _ in range(count)])
    return rows


@pytest.fixture
def memo(monkeypatch):
    """A fresh memo with the production budget, so tests see cold misses."""
    fresh = runner._DrawMemo(runner._DRAWS.budget)
    monkeypatch.setattr(runner, "_DRAWS", fresh)
    return fresh


class TestDraws:
    def test_random_matches_tapes(self, memo):
        draws = node_draws(7, 30, 5)
        assert draws.dtype == np.float64 and draws.shape == (30, 5)
        assert draws.tolist() == tape_rows(7, 30, 5)

    def test_randrange_with_rejections_matches_tapes(self, memo):
        # randrange(2**30) draws 31-bit words and rejects about half.
        draws = node_draws(3, 40, 6, 2**30)
        assert draws.dtype == np.int64
        assert draws.tolist() == tape_rows(3, 40, 6, 2**30)

    def test_per_node_palettes_match_tapes(self, memo):
        palette = np.array([1, 2, 3, 1, 17, 64, 65, 1, 1000, 2], dtype=np.int64)
        draws = node_draws(11, palette.size, 4, palette)
        assert draws.tolist() == tape_rows(11, palette.size, 4, palette)
        assert (draws[palette == 1] == 0).all()

    def test_zero_count(self, memo):
        assert node_draws(0, 5, 0).shape == (5, 0)

    def test_read_only_and_shared(self, memo):
        first = node_draws(5, 20, 3)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.5
        assert node_draws(5, 20, 3) is first

    def test_key_separates_bounds(self, memo):
        a = node_draws(5, 20, 3, np.full(20, 4))
        b = node_draws(5, 20, 3, np.full(20, 5))
        c = node_draws(5, 20, 3, 4)
        assert a is not b and a is not c
        assert a.tolist() == c.tolist()  # same draws, separate entries
        assert len(memo) == 3


class TestBudget:
    ENTRY = 10 * 4 * 8  # node_draws(seed, 10, 4): 320 bytes of float64

    def test_evicts_least_recently_used_first(self, monkeypatch):
        memo = runner._DrawMemo(2 * self.ENTRY + self.ENTRY // 2)
        monkeypatch.setattr(runner, "_DRAWS", memo)
        a = node_draws(1, 10, 4)
        node_draws(2, 10, 4)
        node_draws(3, 10, 4)  # over budget: seed 1 goes
        assert len(memo) == 2 and memo.nbytes == 2 * self.ENTRY
        assert node_draws(1, 10, 4) is not a  # recomputed...
        assert node_draws(1, 10, 4).tolist() == a.tolist()  # ...identically
        # seed 1 just came back in, evicting seed 2; touching seed 3
        # then makes the new seed 4 push out seed 1.
        three = node_draws(3, 10, 4)
        node_draws(4, 10, 4)
        assert memo.get((3, 10, 4, None)) is three
        assert memo.get((1, 10, 4, None)) is None

    def test_oversized_entry_never_kept(self, monkeypatch):
        memo = runner._DrawMemo(self.ENTRY - 1)
        monkeypatch.setattr(runner, "_DRAWS", memo)
        draws = node_draws(1, 10, 4)
        assert draws.tolist() == tape_rows(1, 10, 4)
        assert not draws.flags.writeable
        assert len(memo) == 0 and memo.nbytes == 0

    def test_bound_key_bytes_count(self, monkeypatch):
        palette = np.full(10, 9, dtype=np.int64)
        memo = runner._DrawMemo(self.ENTRY + palette.nbytes)
        monkeypatch.setattr(runner, "_DRAWS", memo)
        node_draws(1, 10, 4, palette)
        assert memo.nbytes == self.ENTRY + palette.nbytes


def test_threads_all_get_reference_arrays(memo):
    keys = [(seed, 24, 3, bound) for seed in range(3) for bound in (None, 2**30, 5)]
    expected = {key: tape_rows(*key) for key in keys}
    threads_n = (os.cpu_count() or 1) + 6  # more threads than cores
    barrier = threading.Barrier(threads_n, timeout=60)
    failures: list[str] = []

    def worker(offset: int) -> None:
        barrier.wait()
        for i in range(4 * len(keys)):
            key = keys[(offset + i) % len(keys)]
            draws = node_draws(*key)
            if draws.flags.writeable or draws.tolist() != expected[key]:
                failures.append(f"thread {offset}: wrong draws for {key}")
            if i % len(keys) == 0:
                memo.clear()  # force fresh misses racing each other

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert memo.nbytes == sum(size for _, size in memo._entries.values())
