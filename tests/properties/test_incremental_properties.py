"""Property: a lazily refreshed drift tracker reads exactly like an eager one.

A refresh point of :class:`~repro.core.incremental.IncrementalSubspaceTracker`
only snapshots the covariance; the eigensolve and Q-limit run on the
first read after it.  Two trackers fed the same stream with the same
chunking — one read after every block, which solves every refresh point
as soon as it is crossed (the eager schedule), and one read only at
random points — must agree bit for bit at every read the second one
makes: threshold, eigenvalues, basis, drift and ``spe_block``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import IncrementalSubspaceTracker

M = 5


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _reads(tracker, reference, probe, first: int = 0) -> list[bytes]:
    """Every model read, starting with reader ``first`` — whichever read
    comes first after a refresh point is the one that runs its solve."""
    readers = [
        lambda: tracker.threshold,
        lambda: tracker.eigenvalues,
        lambda: tracker.normal_basis,
        lambda: tracker.drift_from(reference),
        lambda: tracker.spe_block(probe),
    ]
    return [_bits(read()) for read in readers[first:] + readers[:first]]


@st.composite
def schedules(draw):
    """Tracker settings plus a stream of (rows, op, lazy read) steps.

    ``op`` is a fold-only ``fold_block`` or a scoring ``update_block``
    with or without a forced refresh; zero-row steps are empty windows.
    The lazy read is None (no read) or the reader that goes first.
    Folds of up to 50 rows against intervals of 1 and 36 put several
    refresh crossings between most lazy reads.
    """
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "refresh_interval": draw(st.sampled_from([1, 36, None])),
        "normal_rank": draw(st.integers(1, M - 1)),
        "forgetting": draw(st.sampled_from([1.0 / 1008.0, 1.0 / 36.0, 0.3])),
        "steps": draw(
            st.lists(
                st.tuples(
                    st.integers(0, 50),
                    st.sampled_from(["fold", "update", "update_refresh"]),
                    st.one_of(st.none(), st.integers(0, 4)),
                ),
                min_size=1,
                max_size=12,
            )
        ),
    }


@settings(max_examples=80, deadline=None)
@given(schedules())
def test_lazy_refresh_reads_bitwise_equal_to_eager(schedule):
    rng = np.random.default_rng(schedule["seed"])
    mixing = rng.normal(size=(M, M))
    rows = rng.normal(size=(40 + 50 * len(schedule["steps"]), M)) @ mixing
    rows += 100.0
    reference, _ = np.linalg.qr(rng.normal(size=(M, schedule["normal_rank"])))
    probe = rows[:7]

    def tracker():
        return IncrementalSubspaceTracker(
            normal_rank=schedule["normal_rank"],
            forgetting=schedule["forgetting"],
            refresh_interval=schedule["refresh_interval"],
        ).warm_up(rows[:40])

    eager, lazy = tracker(), tracker()
    eager.threshold  # solve the warm-up refresh at once
    position = 40
    for size, op, first in schedule["steps"]:
        block = rows[position : position + size]
        position += size
        if op == "fold":
            eager.fold_block(block)
            lazy.fold_block(block)
        else:
            refresh = op == "update_refresh"
            spe_e, flags_e = eager.update_block(block, refresh=refresh)
            spe_l, flags_l = lazy.update_block(block, refresh=refresh)
            assert _bits(spe_e) == _bits(spe_l)
            assert np.array_equal(flags_e, flags_l)
        eager.threshold  # the eager schedule: solve every crossing now
        assert eager.since_refresh == lazy.since_refresh
        if first is not None:
            assert _reads(lazy, reference, probe, first) == _reads(
                eager, reference, probe, first
            )
    assert _reads(lazy, reference, probe) == _reads(eager, reference, probe)
    # The lazy tracker never solves more often than the eager one.
    assert lazy.eigensolves <= eager.eigensolves
