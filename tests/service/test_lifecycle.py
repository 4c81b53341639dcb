"""Versioned model lifecycle: exact refits, atomic swaps, checkpoints."""

import gc
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import SufficientStats
from repro.core.suffstats import DEFAULT_TILE_ROWS
from repro.exceptions import ModelError, ServiceError
from repro.pipeline import DetectionPipeline
from repro.service import ModelLifecycleManager


@pytest.fixture
def manager(service_split):
    dataset, warmup = service_split
    lifecycle = ModelLifecycleManager()
    lifecycle.bootstrap(dataset.link_traffic[:warmup])
    return dataset, warmup, lifecycle


class TestBootstrap:
    def test_version_one_matches_offline_fit(self, manager):
        dataset, warmup, lifecycle = manager
        version = lifecycle.current
        assert version.version == 1
        assert version.trained_rows == warmup
        assert version.activated_at_row == warmup
        assert version.summary()["retired_at_row"] is None
        offline = DetectionPipeline(svd_method="gram").fit(
            dataset.link_traffic[:warmup]
        )
        assert version.threshold == offline.threshold
        assert version.normal_rank == offline.normal_rank
        assert np.array_equal(
            version.detector.model.pca.mean, offline.detector.model.pca.mean
        )
        assert np.array_equal(
            version.detector.model.pca.components,
            offline.detector.model.pca.components,
        )

    def test_guards(self, service_split):
        dataset, warmup = service_split
        lifecycle = ModelLifecycleManager()
        with pytest.raises(ServiceError, match="bootstrap"):
            lifecycle.current
        with pytest.raises(ServiceError, match="at least 2"):
            lifecycle.bootstrap(dataset.link_traffic[:1])
        with pytest.raises(ServiceError, match="2-dimensional"):
            lifecycle.bootstrap(dataset.link_traffic[0])
        lifecycle.bootstrap(dataset.link_traffic[:warmup])
        with pytest.raises(ServiceError, match="already bootstrapped"):
            lifecycle.bootstrap(dataset.link_traffic[:warmup])


class TestAppendAndRefit:
    def test_refit_is_bit_identical_to_offline_refit(self, manager):
        dataset, warmup, lifecycle = manager
        for row in dataset.link_traffic[warmup : warmup + 50]:
            lifecycle.append_rows(row[None, :])
        version = lifecycle.refit()
        assert version.version == 2
        assert version.trained_rows == warmup + 50
        assert version.activated_at_row == warmup + 50
        offline = DetectionPipeline(svd_method="gram").fit(
            dataset.link_traffic[: warmup + 50]
        )
        assert version.threshold == offline.threshold
        assert version.normal_rank == offline.normal_rank
        probe = dataset.link_traffic[warmup + 50 : warmup + 80]
        assert np.array_equal(
            version.detector.spe(probe), offline.detector.spe(probe)
        )

    def test_swap_boundary_partitions_the_stream_exactly(self, manager):
        dataset, warmup, lifecycle = manager
        lifecycle.append_rows(dataset.link_traffic[warmup : warmup + 30])
        lifecycle.refit()
        lifecycle.append_rows(dataset.link_traffic[warmup + 30 : warmup + 70])
        lifecycle.refit()
        history = lifecycle.version_summaries()
        assert [v["version"] for v in history] == [1, 2, 3]
        # Each retirement boundary is the successor's activation row: no
        # row scored under two models, none dropped.
        for retiring, incoming in zip(history, history[1:]):
            assert retiring["retired_at_row"] == incoming["activated_at_row"]
        assert history[-1]["retired_at_row"] is None

    def test_retired_detectors_are_released(self, manager):
        """A retired version is kept as its summary only: after four
        refits no retired detector is reachable, and the active one
        is."""
        dataset, warmup, lifecycle = manager
        detectors = [weakref.ref(lifecycle.current.detector)]
        for start in range(warmup, warmup + 40, 10):
            lifecycle.append_rows(dataset.link_traffic[start : start + 10])
            detectors.append(weakref.ref(lifecycle.refit().detector))
        gc.collect()
        assert [ref() is None for ref in detectors] == [True] * 4 + [False]
        assert detectors[-1]() is lifecycle.current.detector
        assert [v["version"] for v in lifecycle.version_summaries()] == [
            1, 2, 3, 4, 5,
        ]

    def test_append_guards(self, manager):
        dataset, _, lifecycle = manager
        with pytest.raises(ServiceError, match="width"):
            lifecycle.append_rows(np.ones((1, 3)))
        with pytest.raises(ServiceError, match="2-dimensional"):
            lifecycle.append_rows(np.ones(4))
        rows_before = lifecycle.rows
        lifecycle.append_rows(
            np.empty((0, dataset.num_links))
        )  # empty append is a no-op
        assert lifecycle.rows == rows_before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_are_rejected(self, manager, bad):
        dataset, warmup, lifecycle = manager
        poisoned = dataset.link_traffic[warmup : warmup + 10].copy()
        poisoned[4, 0] = bad
        with pytest.raises(ModelError, match="non-finite"):
            lifecycle.append_rows(poisoned)
        assert lifecycle.rows == warmup
        # The history is untouched, so a refit still matches the
        # offline fit of the good rows.
        lifecycle.append_rows(dataset.link_traffic[warmup : warmup + 10])
        version = lifecycle.refit()
        offline = DetectionPipeline(svd_method="gram").fit(
            dataset.link_traffic[: warmup + 10]
        )
        assert version.threshold == offline.threshold
        with pytest.raises(ModelError, match="non-finite"):
            ModelLifecycleManager().bootstrap(
                np.where(np.arange(warmup)[:, None] == 3, bad,
                         dataset.link_traffic[:warmup])
            )

    def test_explicit_rank_refits_without_history_pass(self, service_split):
        dataset, warmup = service_split
        lifecycle = ModelLifecycleManager(normal_rank=4)
        lifecycle.bootstrap(dataset.link_traffic[:warmup])
        lifecycle.append_rows(dataset.link_traffic[warmup : warmup + 20])
        version = lifecycle.refit()
        assert version.normal_rank == 4


class TestRefitFailure:
    def test_failed_refit_keeps_the_active_model(self, service_split):
        dataset, warmup = service_split
        boom = {"armed": False}

        def hook():
            if boom["armed"]:
                raise RuntimeError("injected refit failure")

        lifecycle = ModelLifecycleManager(refit_hook=hook)
        lifecycle.bootstrap(dataset.link_traffic[:warmup])
        active = lifecycle.current
        lifecycle.append_rows(dataset.link_traffic[warmup : warmup + 10])
        boom["armed"] = True
        with pytest.raises(RuntimeError, match="injected"):
            lifecycle.refit()
        assert lifecycle.current is active  # swap never started
        assert [v["version"] for v in lifecycle.version_summaries()] == [1]
        boom["armed"] = False
        assert lifecycle.refit().version == 2  # recovery needs no reset


class TestCheckpoint:
    def test_restore_reproduces_the_model_bitwise(self, manager, tmp_path):
        dataset, warmup, lifecycle = manager
        lifecycle.append_rows(dataset.link_traffic[warmup : warmup + 40])
        lifecycle.refit()
        # Rows ingested after the fit belong to the *next* refit.
        lifecycle.append_rows(dataset.link_traffic[warmup + 40 : warmup + 55])
        path = tmp_path / "ckpt" / "state.pkl"
        summary = lifecycle.checkpoint(path)
        assert summary["version"] == 2

        restored = ModelLifecycleManager.restore(path)
        original = lifecycle.current
        assert restored.current.version == original.version
        assert restored.current.trained_rows == original.trained_rows
        assert restored.current.threshold == original.threshold
        assert np.array_equal(
            restored.current.detector.model.pca.mean,
            original.detector.model.pca.mean,
        )
        assert np.array_equal(
            restored.current.detector.model.pca.components,
            original.detector.model.pca.components,
        )
        assert restored.rows == lifecycle.rows

    def test_restored_manager_refits_identically(self, manager, tmp_path):
        dataset, warmup, lifecycle = manager
        lifecycle.append_rows(dataset.link_traffic[warmup : warmup + 25])
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        restored = ModelLifecycleManager.restore(path)
        left = lifecycle.refit()
        right = restored.refit()
        assert left.threshold == right.threshold
        assert left.normal_rank == right.normal_rank

    def test_restores_a_checkpoint_with_one_block_per_request(
        self, manager, tmp_path
    ):
        """Files written before the tile-packed history hold one block
        per request; restore appends them and refits the same bits."""
        dataset, warmup, lifecycle = manager
        requests = [
            dataset.link_traffic[warmup + i : warmup + i + 1]
            for i in range(40)
        ]
        for block in requests:
            lifecycle.append_rows(block)
        lifecycle.refit()
        lifecycle.append_rows(dataset.link_traffic[warmup + 40 : warmup + 45])
        requests.append(dataset.link_traffic[warmup + 40 : warmup + 45])
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        blocks = [dataset.link_traffic[:warmup], *requests]
        stats = SufficientStats.from_block(blocks[0])
        offset = warmup
        for block in requests:
            stats = stats.merge(
                SufficientStats.from_block(block, start_row=offset)
            )
            offset += block.shape[0]
        payload["blocks"], payload["stats"] = blocks, stats
        legacy = tmp_path / "legacy.pkl"
        with legacy.open("wb") as handle:
            pickle.dump(payload, handle)

        restored = ModelLifecycleManager.restore(legacy)
        assert restored.rows == lifecycle.rows

        def assert_same_current():
            left, right = restored.current, lifecycle.current
            ours, theirs = left.detector.model, right.detector.model
            assert left.threshold == right.threshold
            assert ours.pca.mean.tobytes() == theirs.pca.mean.tobytes()
            assert (
                ours.pca.components.tobytes()
                == theirs.pca.components.tobytes()
            )
            assert (
                ours.separation.max_deviations.tobytes()
                == theirs.separation.max_deviations.tobytes()
            )

        assert_same_current()
        for each in (restored, lifecycle):
            each.refit()
        assert_same_current()

    @pytest.mark.parametrize("request_rows", [1, 50, 1000])
    def test_refit_scores_each_tile_once(self, monkeypatch, request_rows):
        """A refit of N history rows makes ceil(N / tile_rows) score-
        moments calls, whatever the request sizes were."""
        import repro.core.detection as detection

        block = np.random.default_rng(5).normal(size=(5000, 6)) + 50.0
        lifecycle = ModelLifecycleManager()
        lifecycle.bootstrap(block[:700])
        for start in range(700, block.shape[0], request_rows):
            lifecycle.append_rows(block[start : start + request_rows])
        calls = []
        kernel = detection.score_moments

        def counted(*args):
            calls.append(args[0].shape[0])
            return kernel(*args)

        monkeypatch.setattr(detection, "score_moments", counted)
        lifecycle.refit()
        assert len(calls) == math.ceil(5000 / DEFAULT_TILE_ROWS)
        assert sum(calls) == 5000

    def test_unbootstrapped_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="bootstrap"):
            ModelLifecycleManager().checkpoint(tmp_path / "x.pkl")

    def test_schema_version_is_enforced(self, manager, tmp_path):
        _, _, lifecycle = manager
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        payload["schema_version"] = 999
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ServiceError, match="unsupported checkpoint"):
            ModelLifecycleManager.restore(path)


class TestAtomicCheckpoint:
    """Regression pins for the torn-write and corrupt-restore contracts."""

    def test_write_is_atomic_under_interruption(self, manager, tmp_path):
        """A crash mid-checkpoint must leave the previous file intact.

        The atomic protocol writes a temp file and renames; interrupting
        the temp-file write (simulated by a full disk on fsync) must not
        touch the destination bytes.
        """
        import os

        _, _, lifecycle = manager
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        before = path.read_bytes()

        real_fsync = os.fsync

        def exploding_fsync(fd):
            raise OSError(28, "No space left on device")

        os.fsync = exploding_fsync
        try:
            with pytest.raises(OSError):
                lifecycle.checkpoint(path)
        finally:
            os.fsync = real_fsync
        assert path.read_bytes() == before  # old checkpoint untouched
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up
        ModelLifecycleManager.restore(path)  # and it still restores

    def test_truncated_file_raises_checkpoint_error(self, manager, tmp_path):
        from repro.exceptions import CheckpointError

        _, _, lifecycle = manager
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            ModelLifecycleManager.restore(path)

    def test_scribbled_file_raises_checkpoint_error(self, manager, tmp_path):
        """A seeded sweep of damaged files: 2000 head scribbles (the
        fault injector's ``scribble`` mode, 64 garbage bytes over the
        head) and 500 whole-file garbage bodies.  Every one must fail
        as a typed CheckpointError, whatever the unpickler raised."""
        from repro.exceptions import CheckpointError

        _, _, lifecycle = manager
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        original = path.read_bytes()
        rng = np.random.default_rng(20041030)
        damaged = [rng.bytes(64) + original[64:] for _ in range(2000)]
        damaged += [rng.bytes(len(original)) for _ in range(500)]
        escaped = []
        for trial, body in enumerate(damaged):
            path.write_bytes(body)
            try:
                ModelLifecycleManager.restore(path)
            except CheckpointError:
                continue
            except Exception as err:  # noqa: BLE001 - recorded, asserted below
                escaped.append((trial, type(err).__name__))
            else:
                escaped.append((trial, "restored"))
        assert escaped == []

    def test_checkpoint_on_other_tiles_is_refused(self, manager, tmp_path):
        """Every fit folds DEFAULT_TILE_ROWS-row tiles; a checkpoint that
        records another tile height cannot restore."""
        from repro.exceptions import CheckpointError

        _, _, lifecycle = manager
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        assert payload["config"]["tile_rows"] == DEFAULT_TILE_ROWS
        payload["config"]["tile_rows"] = 256
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(CheckpointError, match="256-row tiles"):
            ModelLifecycleManager.restore(path)

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        from repro.exceptions import CheckpointError

        with pytest.raises(CheckpointError):
            ModelLifecycleManager.restore(tmp_path / "never-written.pkl")

    def test_extra_state_round_trips(self, manager, tmp_path):
        _, _, lifecycle = manager
        path = tmp_path / "state.pkl"
        lifecycle.checkpoint(path, extra={"stream_rows": 17})
        restored = ModelLifecycleManager.restore(path)
        assert restored.restored_extra == {"stream_rows": 17}


class TestConcurrentSnapshots:
    def test_snapshots_stay_exact_while_ingest_appends(self):
        """Refits snapshot the history while ingest keeps appending: each
        snapshot holds exactly the rows appended before it, and still
        does after the tiles it viewed have filled and frozen."""
        # About 62 tiles of DEFAULT_TILE_ROWS rows freeze while
        # snapshots run.
        block = np.random.default_rng(2).normal(size=(65_536, 4))
        lifecycle = ModelLifecycleManager(normal_rank=1)
        lifecycle.bootstrap(block[:10])
        snapshots = []
        done = threading.Event()
        ready = threading.Barrier(4, timeout=30)

        def ingest():
            ready.wait()
            for start in range(10, block.shape[0], 48):
                lifecycle.append_rows(block[start : start + 48])
                if start % 4800 == 10:  # a mid-tile snapshot, every time
                    snapshots.append(lifecycle.history_snapshot())
            done.set()

        def snapshot():
            ready.wait()
            while not done.is_set():
                snapshots.append(lifecycle.history_snapshot())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ingest)] + [
                threading.Thread(target=snapshot) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lifecycle.rows == block.shape[0]
        assert snapshots
        # Every snapshot is alive, so an id names one tile object; each
        # (tile, first row) pair is compared once.
        compared = set()
        for taken in snapshots:
            start = 0
            for tile in taken.tiles:
                if (id(tile), start) not in compared:
                    assert np.array_equal(tile, block[start : start + len(tile)])
                    compared.add((id(tile), start))
                start += len(tile)
            assert start == taken.stats.count
