"""Zero-copy out-of-core datasets (`.npy` memmap round trips).

Three layers of guarantees:

* persistence — :func:`save_traffic_memmap` / :func:`open_traffic_memmap`
  round-trip bitwise and hand back read-only maps whose row slices are
  views, not copies;
* equivalence — passing a memmap to :meth:`TemporalCoordinator.fit`
  and the fused :func:`score_block` kernel is bit-identical to the
  in-memory paths;
* out-of-core — under an address-space budget smaller than the matrix
  (``RLIMIT_DATA``, which counts anonymous memory but not file-backed
  maps), materializing the matrix dies with ``MemoryError`` while the
  fit and scoring of the memmap complete.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.io import (
    open_traffic_memmap,
    save_traffic_memmap,
    traffic_chunks,
)
from repro.exceptions import DatasetError
from repro.pipeline.sharded import TemporalCoordinator


@pytest.fixture(scope="module")
def traffic():
    rng = np.random.default_rng(5150)
    factors = rng.normal(size=(5, 24))
    weights = rng.normal(size=(600, 5)) * [8.0, 5.0, 3.0, 2.0, 1.0]
    return np.ascontiguousarray(
        1e5 + weights @ factors + rng.normal(size=(600, 24))
    )


class TestRoundTrip:
    def test_bitwise_round_trip(self, traffic, tmp_path):
        path = save_traffic_memmap(traffic, tmp_path / "traffic")
        assert path.suffix == ".npy"
        mapped = open_traffic_memmap(path)
        assert isinstance(mapped, np.memmap)
        assert mapped.dtype == np.float64
        assert np.array_equal(np.asarray(mapped), traffic)
        with pytest.raises(ValueError):
            mapped[0, 0] = 1.0  # read-only

    def test_open_rejects_missing_and_malformed(self, traffic, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            open_traffic_memmap(tmp_path / "absent.npy")
        vector = tmp_path / "vector.npy"
        np.save(vector, np.arange(5.0))
        with pytest.raises(DatasetError, match="\\(t, m\\)"):
            open_traffic_memmap(vector)
        f32 = tmp_path / "f32.npy"
        np.save(f32, np.ones((3, 3), dtype=np.float32))
        with pytest.raises(DatasetError, match="float64"):
            open_traffic_memmap(f32)

    def test_chunks_are_zero_copy_views(self, traffic, tmp_path):
        path = save_traffic_memmap(traffic, tmp_path / "traffic")
        mapped = open_traffic_memmap(path)
        chunks = list(traffic_chunks(path, chunk_rows=256)())
        assert sum(c.shape[0] for c in chunks) == traffic.shape[0]
        for chunk in chunks:
            assert isinstance(chunk, np.memmap)
        # In-memory sources slice zero-copy too.
        for chunk in traffic_chunks(traffic, chunk_rows=256)():
            assert np.shares_memory(chunk, traffic)

    def test_chunk_source_is_reiterable(self, traffic, tmp_path):
        path = save_traffic_memmap(traffic, tmp_path / "traffic")
        chunks = traffic_chunks(path, chunk_rows=128)
        first = [c.shape[0] for c in chunks()]
        second = [c.shape[0] for c in chunks()]
        assert first == second and sum(first) == traffic.shape[0]
        with pytest.raises(DatasetError, match="chunk_rows"):
            traffic_chunks(path, chunk_rows=0)


class TestStreamingEquivalence:
    def test_fit_from_memmap_matches_in_memory_fit(self, traffic, tmp_path):
        path = save_traffic_memmap(traffic, tmp_path / "traffic")
        coordinator = TemporalCoordinator(num_shards=4, workers=1)
        in_memory = coordinator.fit(traffic)
        mapped = coordinator.fit(open_traffic_memmap(path))
        ours, theirs = mapped.detector.model, in_memory.detector.model
        assert np.array_equal(ours.pca.mean, theirs.pca.mean)
        assert np.array_equal(ours.pca.components, theirs.pca.components)
        assert np.array_equal(
            ours.separation.max_deviations, theirs.separation.max_deviations
        )
        assert ours.normal_rank == theirs.normal_rank
        assert mapped.detector.threshold == in_memory.detector.threshold

    def test_block_scoring_from_memmap_is_bit_identical(
        self, traffic, tmp_path
    ):
        path = save_traffic_memmap(traffic, tmp_path / "traffic")
        fit = TemporalCoordinator(num_shards=2, workers=1).fit(traffic)
        model = fit.detector.model
        threshold = float(fit.detector.threshold)
        expected = model.score_block(traffic, threshold=threshold)
        mapped = open_traffic_memmap(path)
        scored = model.score_block(mapped, threshold=threshold)
        assert np.array_equal(scored.spe, expected.spe)
        assert np.array_equal(scored.flags, expected.flags)
        # Chunked sweep over memmap slices, merged, matches too
        # (projector-route chunking is bitwise invariant).
        pieces = [
            model.score_block(chunk, threshold=threshold)
            for chunk in traffic_chunks(path, chunk_rows=100)()
        ]
        assert np.array_equal(
            np.concatenate([p.spe for p in pieces]), expected.spe
        )


@pytest.mark.skipif(
    sys.platform != "linux",
    reason="RLIMIT_DATA excludes file-backed maps only on Linux >= 4.7",
)
class TestOutOfCore:
    """The matrix exceeds the address-space budget; the memmap does not.

    ``RLIMIT_DATA`` counts ``brk`` plus anonymous private mappings —
    a full ``np.array`` materialization — but not read-only file-backed
    maps, so it is exactly the right rlimit to prove that a fit of the
    memmap never materializes the matrix.
    """

    ROWS, COLS = 65_536, 64  # 32 MiB of float64

    def _run(self, script: str) -> subprocess.CompletedProcess:
        # One BLAS thread: the thread pool's per-thread work buffers are
        # anonymous memory and would eat the deliberately tight budget.
        env = dict(os.environ)
        env.update(
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    @pytest.fixture(scope="class")
    def big_traffic(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ooc") / "big.npy"
        rng = np.random.default_rng(77)
        rows = np.empty((self.ROWS, self.COLS))
        base = rng.normal(size=(8, self.COLS))
        for start in range(0, self.ROWS, 8192):
            stop = min(start + 8192, self.ROWS)
            w = rng.normal(size=(stop - start, 8))
            rows[start:stop] = 1e6 + w @ base
        save_traffic_memmap(rows, path)
        return path

    def test_materializing_fails_but_streaming_succeeds(self, big_traffic):
        matrix_bytes = self.ROWS * self.COLS * 8
        script = f"""
        import resource, sys
        import numpy as np
        sys.path.insert(0, {str(Path.cwd() / "src")!r})
        from repro.datasets.io import open_traffic_memmap
        from repro.pipeline.sharded import TemporalCoordinator

        # Warm the BLAS work-buffer pool before measuring the baseline:
        # those buffers are anonymous memory allocated on first use, and
        # the budget must sit on top of them, not be eaten by them.
        warm = np.ones((4096, {self.COLS}))
        (warm @ warm.T[:, :8]).sum()

        # Budget: current anonymous footprint + a quarter of the matrix.
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmData:"):
                    vmdata = int(line.split()[1]) * 1024
                    break
        budget = vmdata + {matrix_bytes} // 4
        resource.setrlimit(resource.RLIMIT_DATA, (budget, budget))

        mapped = open_traffic_memmap({str(big_traffic)!r})
        try:
            full = np.array(mapped)  # anonymous copy: over budget
        except MemoryError:
            pass
        else:
            raise SystemExit("FAIL: full materialization fit in budget")

        fit = TemporalCoordinator(num_shards=4, workers=1).fit(mapped)
        spe_head = fit.detector.model.score_block(
            mapped[:4096], threshold=float(fit.detector.threshold)
        ).spe
        pca = fit.detector.model.pca
        print(repr(fit.detector.normal_rank), repr(fit.detector.threshold))
        for array in (pca.mean, pca.components, pca.captured_variance(), spe_head):
            print(array.tobytes().hex())
        """
        result = self._run(script)
        assert result.returncode == 0, result.stderr or result.stdout
        lines = result.stdout.splitlines()

        # Same fit without any rlimit, fully in memory: bit-identical.
        mapped = open_traffic_memmap(big_traffic)
        reference = TemporalCoordinator(num_shards=4, workers=1).fit(
            np.array(mapped)
        )
        pca = reference.detector.model.pca
        expected = reference.detector.model.score_block(
            np.array(mapped[:4096]),
            threshold=float(reference.detector.threshold),
        ).spe
        assert lines[0] == (
            f"{reference.detector.normal_rank!r} "
            f"{reference.detector.threshold!r}"
        )
        for line, array in zip(
            lines[1:],
            (pca.mean, pca.components, pca.captured_variance(), expected),
            strict=True,
        ):
            assert line == array.tobytes().hex()
