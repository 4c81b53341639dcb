"""Property: a tracker solves once per refresh point, and reads that solve.

A refresh point of :class:`~repro.core.incremental.IncrementalSubspaceTracker`
(the warm-up, a forced refresh, or a crossing of ``refresh_interval``)
runs its eigensolve at once.  Over random streams of windows the tracker
must call ``np.linalg.eigh`` exactly once per refresh point and never on
a read, and every read must equal, bit for bit, what
:func:`~repro.core.incremental.covariance_spectrum` and
:func:`~repro.core.qstatistic.q_threshold` give for the covariance at
the last refresh point: threshold, eigenvalues, basis, drift and
``spe_block`` (which centers at the running mean).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import IncrementalSubspaceTracker, principal_angles, q_threshold
from repro.core.incremental import covariance_spectrum
from repro.core.subspace import score_block

M = 5


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _counted(call):
    """``call()`` and the ``np.linalg.eigh`` calls it ran."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        result = call()
    return result, eigh.call_count


def _reads(tracker, reference, probe, first: int = 0) -> list[bytes]:
    """Every model read, starting with reader ``first``."""
    readers = [
        lambda: tracker.threshold,
        lambda: tracker.eigenvalues,
        lambda: tracker.normal_basis,
        lambda: tracker.drift_from(reference),
        lambda: tracker.spe_block(probe),
    ]
    return [_bits(read()) for read in readers[first:] + readers[:first]]


def _expected(covariance, mean, schedule, reference, probe, first: int = 0):
    """The reads of a model solved from ``covariance``, as ``_reads``
    orders them."""
    rank = schedule["normal_rank"]
    eigenvalues, eigenvectors = covariance_spectrum(covariance)
    basis = eigenvectors[:, :rank]
    values = [
        q_threshold(eigenvalues[rank:], confidence=0.999),
        eigenvalues,
        basis,
        principal_angles(basis, reference).max(),
        score_block(probe, mean, basis=basis.T).spe,
    ]
    return [_bits(value) for value in values[first:] + values[:first]]


@st.composite
def schedules(draw):
    """Tracker settings plus a stream of (rows, op, read) steps.

    ``op`` is a scoring ``update_block`` with or without a forced
    refresh; zero-row steps are empty windows.  The read is None (no
    read) or the reader that goes first.  Windows of up to 50 rows
    against intervals of 1 and 36 put several crossings inside most
    windows and between most reads.
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
                    st.sampled_from(["update", "update_refresh"]),
                    st.one_of(st.none(), st.integers(0, 4)),
                ),
                min_size=1,
                max_size=12,
            )
        ),
    }


@settings(max_examples=80, deadline=None)
@given(schedules())
def test_one_eigensolve_per_refresh_point_and_reads_equal_it(schedule):
    rng = np.random.default_rng(schedule["seed"])
    mixing = rng.normal(size=(M, M))
    rows = rng.normal(size=(40 + 50 * len(schedule["steps"]), M)) @ mixing
    rows += 100.0
    reference, _ = np.linalg.qr(rng.normal(size=(M, schedule["normal_rank"])))
    probe = rows[:7]
    interval = schedule["refresh_interval"]

    tracker, solves = _counted(
        lambda: IncrementalSubspaceTracker(
            normal_rank=schedule["normal_rank"],
            forgetting=schedule["forgetting"],
            refresh_interval=interval,
        ).warm_up(rows[:40])
    )
    assert solves == 1  # the warm-up is a refresh point
    solved = tracker._cov.copy()
    since = 0
    position = 40
    for size, op, first in schedule["steps"]:
        block = rows[position : position + size]
        position += size
        refresh = op == "update_refresh"
        _, solves = _counted(
            lambda: tracker.update_block(block, refresh=refresh)
        )
        since += size
        crossed = refresh or (interval is not None and since >= interval)
        if size and crossed:
            since = 0
            solved = tracker._cov.copy()
        assert solves == int(bool(size and crossed))
        assert tracker.since_refresh == since
        if first is not None:
            reads, solves = _counted(
                lambda: _reads(tracker, reference, probe, first)
            )
            assert solves == 0
            assert reads == _expected(
                solved, tracker.mean, schedule, reference, probe, first
            )
    reads, solves = _counted(lambda: _reads(tracker, reference, probe))
    assert solves == 0
    assert reads == _expected(solved, tracker.mean, schedule, reference, probe)
