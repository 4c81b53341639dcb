"""Multi-tenant fleet: batched parity, fault isolation, restore.

The fleet's three load-bearing guarantees, each pinned bit-for-bit:

* stacked scoring of same-shape tenants equals per-tenant serial
  scoring exactly (deterministic cases plus a hypothesis property over
  random shapes, dtypes, chunkings and per-tenant ranks);
* an injected worker crash that permanently loses one tenant's fit
  leaves every other tenant's model and alarms untouched;
* a fleet restored from tenant-namespaced checkpoints rescores every
  tenant bit-identically — including when a detection service shares
  the same checkpoint directory.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from urllib.parse import unquote

from repro.core.subspace import score_block, score_block_stacked
from repro.exceptions import FleetError, ModelError
from repro.pipeline.faults import FaultPlan, WorkerFault
from repro.pipeline.fleet import (
    FleetManager,
    run_fleet_check,
    synthetic_tenant_traffic,
    tenant_checkpoint_path,
    tenant_checkpoints,
)

LINKS = 12
WARMUP = 160
SCORE = 48


def make_fleet(num_tenants=3, **kwargs):
    kwargs.setdefault("workers", 1)
    fleet = FleetManager(**kwargs)
    for index in range(num_tenants):
        tenant_id = f"acme-{index:02d}"
        fleet.add_tenant(
            tenant_id,
            synthetic_tenant_traffic(tenant_id, WARMUP, links=LINKS),
        )
    return fleet


def score_blocks(fleet, anomalies=2):
    return {
        tenant_id: synthetic_tenant_traffic(
            tenant_id,
            SCORE,
            links=LINKS,
            anomalies=anomalies,
            start_row=WARMUP,
        )
        for tenant_id in fleet.tenants
    }


# ----------------------------------------------------------------------
# Stacked kernel: bit-identity against the serial kernel.


def stacked_bases(rng, ranks, m):
    """Random per-member axes (rows of Pᵀ) and their zero-padded stack.

    Members below ``m`` pad to the largest such rank; a full-rank
    member contributes only its rank, as the fleet's stacks do.
    """
    axes = [rng.normal(size=(rank, m)) for rank in ranks]
    padded = max([rank for rank in ranks if rank < m], default=0)
    bases = np.zeros((len(ranks), padded, m))
    for i, rank in enumerate(ranks):
        if rank < m:
            bases[i, :rank] = axes[i]
    return axes, bases


class TestStackedKernel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_serial_kernel_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        n, t, m = 5, 37, 6
        measurements = rng.normal(size=(n, t, m)) * 40.0 + 300.0
        means = rng.normal(size=(n, m))
        ranks = np.array([0, 2, m, 3, 5])
        axes, bases = stacked_bases(rng, ranks, m)
        thresholds = rng.uniform(1.0, 50.0, size=n)
        stacked = score_block_stacked(
            measurements,
            means,
            bases=bases,
            ranks=ranks,
            thresholds=thresholds,
            dtype=dtype,
        )
        for i in range(n):
            serial = score_block(
                measurements[i],
                means[i],
                basis=axes[i],
                threshold=float(thresholds[i]),
                dtype=dtype,
            )
            assert np.array_equal(stacked.spe[i], serial.spe)
            assert np.array_equal(stacked.flags[i], serial.flags)
        assert not stacked.spe[2].any()  # full rank scores exactly 0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        t=st.integers(1, 48),
        m=st.integers(1, 8),
        chunk_rows=st.integers(1, 64),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identity_property(self, n, t, m, chunk_rows, dtype, seed):
        """Any tenant count, shape, chunking, dtype and per-member rank
        in [0, m]: same bits as serial scoring."""
        rng = np.random.default_rng(seed)
        measurements = rng.normal(size=(n, t, m)) * 100.0
        means = rng.normal(size=(n, m)) * 10.0
        ranks = rng.integers(0, m + 1, size=n)
        axes, bases = stacked_bases(rng, ranks, m)
        thresholds = rng.uniform(0.0, 100.0, size=n)
        stacked = score_block_stacked(
            measurements,
            means,
            bases=bases,
            ranks=ranks,
            thresholds=thresholds,
            dtype=dtype,
            chunk_rows=chunk_rows,
        )
        for i in range(n):
            serial = score_block(
                measurements[i],
                means[i],
                basis=axes[i],
                threshold=float(thresholds[i]),
                dtype=dtype,
                chunk_rows=chunk_rows,
            )
            assert np.array_equal(stacked.spe[i], serial.spe)
            assert np.array_equal(stacked.flags[i], serial.flags)

    def test_rejects_mismatched_shapes(self):
        measurements = np.zeros((2, 4, 3))
        bases = np.zeros((2, 1, 3))
        with pytest.raises(ModelError, match="means"):
            score_block_stacked(
                measurements, np.zeros((3, 3)), bases=bases
            )
        with pytest.raises(ModelError, match="bases"):
            score_block_stacked(
                measurements, np.zeros((2, 3)), bases=np.zeros((2, 3, 1))
            )
        with pytest.raises(ModelError, match="ranks"):
            score_block_stacked(
                measurements, np.zeros((2, 3)), bases=bases,
                ranks=np.array([1, 2]),  # 2 exceeds the padded rank
            )


# ----------------------------------------------------------------------
# Fleet scheduler: batched scoring equals serial scoring.


class TestFleetScoring:
    def test_batched_equals_serial_bitwise(self):
        fleet = make_fleet(4)
        assert fleet.fit(strict=True).clean
        blocks = score_blocks(fleet)
        batched = fleet.score(blocks, batch=True)
        assert fleet.last_score_plan["batched_tenants"] == 4
        serial = fleet.score(blocks, batch=False)
        assert fleet.last_score_plan["serial_tenants"] == 4
        for tenant_id in fleet.tenants:
            assert np.array_equal(
                batched[tenant_id].spe, serial[tenant_id].spe
            )
            assert np.array_equal(
                batched[tenant_id].flags, serial[tenant_id].flags
            )

    def test_stack_cache_serves_identical_bits(self):
        """The cached stacked parameters never change the scores."""
        fleet = make_fleet(3)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        cold = fleet.score(blocks, batch=True)
        assert fleet._stack_cache
        warm = fleet.score(blocks, batch=True)
        for tenant_id in fleet.tenants:
            assert np.array_equal(cold[tenant_id].spe, warm[tenant_id].spe)

    def test_mixed_shapes_split_into_groups(self):
        fleet = make_fleet(3)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        odd = fleet.tenants[0]
        blocks[odd] = blocks[odd][: SCORE // 2]
        alarms = fleet.score(blocks)
        plan = fleet.last_score_plan
        assert plan["batched_tenants"] == 2
        assert plan["serial_tenants"] == 1
        assert set(alarms) == set(fleet.tenants)

    def test_scoring_unfitted_tenant_raises(self):
        fleet = make_fleet(2)
        with pytest.raises(FleetError, match="no fitted model"):
            fleet.score(score_blocks(fleet))

    def test_pooled_fit_matches_in_process_fit(self):
        """Worker-process fits install bit-identical models."""
        serial = make_fleet(3, workers=1)
        serial.fit(strict=True)
        pooled = make_fleet(3, workers=2)
        report = pooled.fit(strict=True)
        assert report.pooled and report.workers == 2
        blocks = score_blocks(serial)
        a = serial.score(blocks)
        b = pooled.score(blocks)
        for tenant_id in serial.tenants:
            assert np.array_equal(a[tenant_id].spe, b[tenant_id].spe)


# ----------------------------------------------------------------------
# Scheduler fast path: precomputed plans and LRU caches.


class TestScorePlan:
    def test_second_call_rides_the_plan_bitwise(self):
        fleet = make_fleet(4)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        cold = fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is False
        warm = fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is True
        serial = fleet.score(blocks, batch=False)
        assert fleet.last_score_plan["planned"] is False
        for tenant_id in fleet.tenants:
            assert np.array_equal(cold[tenant_id].spe, warm[tenant_id].spe)
            assert np.array_equal(warm[tenant_id].spe, serial[tenant_id].spe)
            assert np.array_equal(
                warm[tenant_id].flags, serial[tenant_id].flags
            )
            assert (
                warm[tenant_id].model_version
                == cold[tenant_id].model_version
            )

    def test_plan_covers_mixed_stacked_and_serial_groups(self):
        fleet = make_fleet(3)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        odd = fleet.tenants[0]
        blocks[odd] = blocks[odd][: SCORE // 2]
        fleet.score(blocks)
        planned = fleet.score(blocks)
        account = fleet.last_score_plan
        assert account["planned"] is True
        assert account["batched_tenants"] == 2
        assert account["serial_tenants"] == 1
        direct = fleet.score(blocks, batch=False)
        for tenant_id in fleet.tenants:
            assert np.array_equal(
                planned[tenant_id].spe, direct[tenant_id].spe
            )

    def test_refit_retires_the_plan(self):
        """A model install must never serve stale plan parameters."""
        fleet = make_fleet(3)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        fleet.score(blocks)
        fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is True
        fleet.ingest(
            fleet.tenants[0],
            synthetic_tenant_traffic(
                fleet.tenants[0], 64, links=LINKS, start_row=WARMUP
            ),
        )
        fleet.fit(tenants=[fleet.tenants[0]], strict=True)
        replanned = fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is False
        direct = fleet.score(blocks, batch=False)
        for tenant_id in fleet.tenants:
            assert np.array_equal(
                replanned[tenant_id].spe, direct[tenant_id].spe
            )

    def test_add_tenant_retires_the_plan(self):
        fleet = make_fleet(3)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        fleet.score(blocks)
        fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is True
        fleet.add_tenant(
            "acme-99", synthetic_tenant_traffic("acme-99", WARMUP, links=LINKS)
        )
        fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is False

    def test_invalidate_score_plans_forces_replan(self):
        fleet = make_fleet(2)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        fleet.score(blocks)
        fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is True
        fleet.invalidate_score_plans()
        fleet.score(blocks)
        assert fleet.last_score_plan["planned"] is False

    def test_non_ndarray_blocks_take_the_validating_path(self):
        fleet = make_fleet(2)
        fleet.fit(strict=True)
        arrays = score_blocks(fleet)
        lists = {t: b.tolist() for t, b in arrays.items()}
        from_lists = fleet.score(lists)
        assert fleet.last_score_plan["planned"] is False
        from_lists_again = fleet.score(lists)
        assert fleet.last_score_plan["planned"] is False
        from_arrays = fleet.score(arrays)
        for tenant_id in fleet.tenants:
            assert np.array_equal(
                from_lists[tenant_id].spe, from_arrays[tenant_id].spe
            )
            assert np.array_equal(
                from_lists_again[tenant_id].spe, from_arrays[tenant_id].spe
            )

    def test_stack_cache_evicts_exactly_one_lru_entry(self):
        """Regression: a 33rd group evicts one entry, not the cache."""
        from repro.pipeline.fleet import _STACK_CACHE_ENTRIES

        fleet = make_fleet(2)
        fleet.fit(strict=True)
        sentinel = object()
        for index in range(_STACK_CACHE_ENTRIES):
            fleet._stack_cache[("sentinel", index)] = sentinel
        assert len(fleet._stack_cache) == _STACK_CACHE_ENTRIES
        fleet.score(score_blocks(fleet))  # one real miss -> one insert
        assert len(fleet._stack_cache) == _STACK_CACHE_ENTRIES
        remaining = list(fleet._stack_cache)
        assert ("sentinel", 0) not in remaining  # only the oldest left
        for index in range(1, _STACK_CACHE_ENTRIES):
            assert ("sentinel", index) in remaining

    def test_stack_cache_hit_refreshes_recency(self):
        """A hit moves its entry to the MRU end, protecting it."""
        from repro.pipeline.fleet import _STACK_CACHE_ENTRIES

        fleet = make_fleet(2)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        fleet.score(blocks)  # real entry inserted (and plan built)
        (real_key,) = fleet._stack_cache
        sentinel = object()
        for index in range(_STACK_CACHE_ENTRIES - 1):
            fleet._stack_cache[("sentinel", index)] = sentinel
        assert list(fleet._stack_cache)[0] == real_key  # currently LRU
        fleet.invalidate_score_plans()  # force the stacking path again
        fleet.score(blocks)  # hit: real entry becomes most-recent
        assert list(fleet._stack_cache)[-1] == real_key


# ----------------------------------------------------------------------
# Fault isolation: one tenant's crash never touches another.


class TestFaultIsolation:
    def crash_plan(self, task, attempts):
        return FaultPlan(
            faults=(
                WorkerFault(
                    task=task,
                    action="crash",
                    stage="fleet-fit",
                    attempts=attempts,
                ),
            )
        )

    def test_survivors_bit_identical_under_crash(self):
        baseline = make_fleet(4, workers=2, fault_policy="partial")
        baseline.fit(strict=True)
        blocks = score_blocks(baseline)
        expected = baseline.score(blocks)

        crashed = make_fleet(
            4,
            workers=2,
            fault_policy="partial",
            max_retries=1,
            fault_plan=self.crash_plan(task=1, attempts=2),
        )
        report = crashed.fit()
        victim = crashed.tenants[1]
        assert report.lost == (victim,)
        outcome = {o.tenant: o for o in report.outcomes}[victim]
        assert outcome.status == "lost"
        assert outcome.report.worker_deaths >= 1

        survivors = {t: blocks[t] for t in crashed.tenants if t != victim}
        alarms = crashed.score(survivors)
        for tenant_id in survivors:
            assert np.array_equal(
                alarms[tenant_id].spe, expected[tenant_id].spe
            )
            assert np.array_equal(
                alarms[tenant_id].flags, expected[tenant_id].flags
            )

    def test_crash_with_retry_budget_recovers(self):
        fleet = make_fleet(
            3,
            workers=2,
            max_retries=2,
            fault_policy="retry",
            fault_plan=self.crash_plan(task=0, attempts=1),
        )
        report = fleet.fit(strict=True)
        assert report.clean
        assert report.report.worker_deaths >= 1

    def test_lost_tenant_keeps_previous_version(self):
        fleet = make_fleet(3, workers=1, fault_policy="partial")
        fleet.fit(strict=True)
        victim = fleet.tenants[0]
        before = fleet.lifecycle(victim).current

        fleet.fault_plan = self.crash_plan(task=0, attempts=3)
        fleet.max_retries = 1
        for tenant_id in fleet.tenants:
            fleet.ingest(
                tenant_id,
                synthetic_tenant_traffic(
                    tenant_id, 32, links=LINKS, start_row=WARMUP
                ),
            )
        report = fleet.fit()
        assert report.lost == (victim,)
        assert fleet.lifecycle(victim).current is before
        refreshed = [
            o.tenant for o in report.outcomes if o.status == "fitted"
        ]
        for tenant_id in refreshed:
            assert fleet.lifecycle(tenant_id).current.version == 2

    def test_strict_raises_after_installing_survivors(self):
        fleet = make_fleet(
            3,
            workers=2,
            fault_policy="fail-fast",
            fault_plan=self.crash_plan(task=2, attempts=10),
        )
        with pytest.raises(FleetError, match="lost tenants"):
            fleet.fit(strict=True)
        # The crash was tenant 2's problem alone: the others came up.
        for tenant_id in fleet.tenants[:2]:
            assert fleet.lifecycle(tenant_id).current.version == 1

    def test_partial_policy_never_raises_strict(self):
        fleet = make_fleet(
            3,
            workers=2,
            fault_policy="partial",
            max_retries=0,
            fault_plan=self.crash_plan(task=0, attempts=5),
        )
        report = fleet.fit(strict=True)
        assert len(report.lost) == 1


# ----------------------------------------------------------------------
# Checkpoints: tenant-namespaced paths and bitwise restores.


class TestCheckpointPaths:
    @pytest.mark.parametrize(
        "tenant_id",
        ["plain", "umbrella/eu", "a b c", "..", "ten%ant", "ünïcode"],
    )
    def test_roundtrip_and_containment(self, tmp_path, tenant_id):
        path = tenant_checkpoint_path(tmp_path, tenant_id)
        assert path.parent == tmp_path / "tenants"
        assert unquote(path.name[: -len(".ckpt")]) == tenant_id

    def test_distinct_tenants_never_collide(self, tmp_path):
        ids = ["a/b", "a%2Fb", "a b", "a+b", "a", "b", "a.b", "a..b"]
        paths = {tenant_checkpoint_path(tmp_path, t) for t in ids}
        assert len(paths) == len(ids)

    def test_listing_inverts_the_path(self, tmp_path):
        """Ids with ``/``, ``%`` and non-ASCII characters survive a
        write then a listing; pairs come in file-name order."""
        ids = ["umbrella/eu", "a/b", "a%2Fb", "ten%ant", "ünïcode", "plain"]
        for tenant_id in ids:
            path = tenant_checkpoint_path(tmp_path, tenant_id)
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(tenant_id.encode("utf-8"))
        listed = tenant_checkpoints(tmp_path)
        assert sorted(tenant_id for tenant_id, _ in listed) == sorted(ids)
        for tenant_id, path in listed:
            assert path == tenant_checkpoint_path(tmp_path, tenant_id)
            assert path.read_bytes() == tenant_id.encode("utf-8")
        paths = [path for _, path in listed]
        assert paths == sorted(paths)
        assert tenant_checkpoints(tmp_path / "missing") == []

    def test_rejects_non_string_ids(self, tmp_path):
        with pytest.raises(FleetError):
            tenant_checkpoint_path(tmp_path, "")
        with pytest.raises(FleetError):
            tenant_checkpoint_path(tmp_path, 7)


class TestFleetRestore:
    def test_restore_rescores_bitwise(self, tmp_path):
        fleet = make_fleet(3, checkpoint_dir=tmp_path)
        fleet.fit(strict=True)
        blocks = score_blocks(fleet)
        expected = fleet.score(blocks)
        summaries = fleet.checkpoint()
        assert set(summaries) == set(fleet.tenants)

        restored = FleetManager.restore(tmp_path)
        assert restored.tenants == fleet.tenants
        alarms = restored.score(blocks)
        for tenant_id in fleet.tenants:
            assert np.array_equal(
                alarms[tenant_id].spe, expected[tenant_id].spe
            )
            assert np.array_equal(
                alarms[tenant_id].flags, expected[tenant_id].flags
            )
            assert (
                restored.lifecycle(tenant_id).current.threshold
                == fleet.lifecycle(tenant_id).current.threshold
            )

    def test_restore_keeps_per_tenant_fault_policy(self, tmp_path):
        fleet = make_fleet(2, checkpoint_dir=tmp_path)
        fleet.add_tenant(
            "fragile",
            synthetic_tenant_traffic("fragile", WARMUP, links=LINKS),
            fault_policy="partial",
        )
        fleet.fit(strict=True)
        fleet.checkpoint()
        restored = FleetManager.restore(tmp_path)
        assert restored._state("fragile").fault_policy == "partial"
        assert restored._state(fleet.tenants[0]).fault_policy is None

    def test_restored_fleet_refits_and_scores(self, tmp_path):
        fleet = make_fleet(2, checkpoint_dir=tmp_path)
        fleet.fit(strict=True)
        fleet.checkpoint()
        restored = FleetManager.restore(tmp_path)
        for tenant_id in restored.tenants:
            restored.ingest(
                tenant_id,
                synthetic_tenant_traffic(
                    tenant_id, 64, links=LINKS, start_row=WARMUP
                ),
            )
        report = restored.fit(strict=True)
        assert report.clean
        for tenant_id in restored.tenants:
            assert restored.lifecycle(tenant_id).current.version == 2

    def test_restore_empty_directory_raises(self, tmp_path):
        with pytest.raises(FleetError, match="no fleet checkpoint"):
            FleetManager.restore(tmp_path)


# ----------------------------------------------------------------------
# Guardrails and the end-to-end harness.


class TestGuardrails:
    def test_duplicate_tenant_rejected(self):
        fleet = FleetManager(workers=1)
        fleet.add_tenant("dup")
        with pytest.raises(FleetError, match="already registered"):
            fleet.add_tenant("dup")

    def test_unknown_tenant_rejected(self):
        fleet = FleetManager(workers=1)
        with pytest.raises(FleetError, match="unknown tenant"):
            fleet.ingest("ghost", np.zeros((4, 3)))

    def test_fit_without_tenants_raises(self):
        with pytest.raises(FleetError, match="no tenants"):
            FleetManager(workers=1).fit()

    def test_too_few_warmup_rows_raises(self):
        fleet = FleetManager(workers=1)
        fleet.add_tenant("thin", np.ones((1, 4)))
        with pytest.raises(FleetError, match=">= 2 warmup rows"):
            fleet.fit()

    def test_non_finite_rows_leave_a_fitted_history_unchanged(self):
        fleet = make_fleet(1)
        fleet.fit(strict=True)
        poisoned = np.ones((3, LINKS))
        poisoned[1, 5] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            fleet.ingest("acme-00", poisoned)
        assert fleet.status()[0]["rows"] == WARMUP

    def test_non_finite_rows_never_reach_a_pending_history(self):
        fleet = make_fleet(1)
        poisoned = np.ones((3, LINKS))
        poisoned[2, 0] = np.inf
        with pytest.raises(ModelError, match="non-finite"):
            fleet.ingest("acme-00", poisoned)
        assert fleet.status()[0]["rows"] == WARMUP
        report = fleet.fit(strict=True)
        assert report.outcomes[0].trained_rows == WARMUP

    def test_status_reports_every_tenant(self):
        fleet = make_fleet(2)
        fleet.fit(strict=True)
        fleet.add_tenant("pending-only", np.ones((4, LINKS)))
        rows = {entry["tenant"]: entry for entry in fleet.status()}
        assert rows["acme-00"]["fitted"] is True
        assert rows["pending-only"]["fitted"] is False
        assert rows["pending-only"]["rows"] == 4


class TestRunFleetCheck:
    def test_all_gates_pass(self, tmp_path):
        report = run_fleet_check(
            num_tenants=3,
            warmup_rows=120,
            score_rows=32,
            links=10,
            workers=2,
            checkpoint_dir=tmp_path,
        )
        assert report["ok"]
        assert report["parity_ok"]
        assert report["isolation_ok"]
        assert report["restore_ok"]
        assert report["crash_outcome"]["status"] == "lost"

    def test_rejects_single_tenant(self):
        with pytest.raises(FleetError, match=">= 2 tenants"):
            run_fleet_check(num_tenants=1)
