"""Multi-tenant detector fleet: many versioned models, one scheduler.

The paper fits one network-wide model; the ROADMAP north star is
per-customer/per-zone models at fleet scale.  :class:`FleetManager`
owns ``n`` independent tenants — each a
:class:`~repro.service.lifecycle.ModelLifecycleManager` keyed by tenant
id — behind a single scheduler with three guarantees:

**Shared, isolated fits.**  (Re)fits for every tenant in a round are
dispatched as tasks on one shared
:class:`~repro.pipeline.supervision.SupervisedPool`, so ``n`` tenants
amortize the same worker processes instead of paying ``n`` pools.
Fault accounting is per tenant: each tenant resolves its own
``fault_policy`` and receives its own slice of the
:class:`~repro.pipeline.supervision.FaultReport`, and a tenant whose
fit is lost (worker crash, exhausted retries) simply keeps serving its
previous model version — every other tenant's fit lands untouched.
One tenant's crash never stalls another.

**Batched, bit-identical scoring.**  Tenant blocks that share a
``(t, m)`` shape are stacked and scored through a *single*
:func:`~repro.core.subspace.score_block_stacked` kernel call.  Because
the kernel is the batched form of the row-decomposable rank-``r``
kernel of :func:`~repro.core.subspace.score_block`, and zero-padding a
tenant's axes to its group's rank adds exact zeros, the batched alarms
are bit-identical to scoring each tenant serially — batching is purely
a scheduling decision (the fleet's hypothesis suite and ``repro fleet
run`` pin this).

**Namespaced, atomic checkpoints.**  Every tenant checkpoints its
sufficient statistics under :func:`tenant_checkpoint_path` — a
collision-free per-tenant file inside a shared directory, written via
:func:`~repro._util.atomic_pickle_dump` — so any number of tenants
(and an always-on service) can checkpoint into one directory without
clobbering each other, and :meth:`FleetManager.restore` resumes every
tenant bit-identically after a fleet restart.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from repro._util import ensure_matrix
from repro.core.subspace import DEFAULT_CHUNK_ROWS, score_block_stacked
from repro.core.suffstats import DEFAULT_TILE_ROWS, RowStore
from repro.exceptions import FleetError
from repro.pipeline.supervision import (
    FaultReport,
    SupervisedPool,
    resolve_policy,
)
from repro.service.lifecycle import ModelLifecycleManager, fit_history

__all__ = [
    "FleetFitReport",
    "FleetManager",
    "TenantAlarms",
    "TenantFitOutcome",
    "run_fleet_check",
    "synthetic_tenant_traffic",
    "tenant_checkpoint_path",
    "tenant_checkpoints",
]

#: File suffix of per-tenant checkpoints inside a fleet directory.
_CHECKPOINT_SUFFIX = ".ckpt"

#: LRU capacities of the scheduler caches.  The stack cache holds the
#: stacked model parameters of one tenant group per entry; the plan
#: cache holds one full dispatch plan (group membership + preallocated
#: input buffers) per distinct (tenant set, block shapes) call pattern.
_STACK_CACHE_ENTRIES = 32
_PLAN_CACHE_ENTRIES = 8


def tenant_checkpoint_path(root: str | Path, tenant_id: str) -> Path:
    """Collision-free checkpoint path for ``tenant_id`` under ``root``.

    Tenant ids are arbitrary strings; percent-encoding them (no safe
    characters) maps distinct ids to distinct filenames — ``"a/b"`` and
    ``"a%2Fb"`` cannot collide, and path separators never escape the
    ``tenants/`` namespace.  The encoding is reversible, so a restore
    can recover every tenant id from a directory listing alone.
    """
    tenant_id = _validate_tenant_id(tenant_id)
    encoded = quote(tenant_id, safe="")
    return Path(root) / "tenants" / f"{encoded}{_CHECKPOINT_SUFFIX}"


def tenant_checkpoints(root: str | Path) -> list[tuple[str, Path]]:
    """``(tenant_id, path)`` of every checkpoint under ``root``, in
    file-name order: the inverse of :func:`tenant_checkpoint_path`."""
    paths = sorted((Path(root) / "tenants").glob(f"*{_CHECKPOINT_SUFFIX}"))
    return [(unquote(path.name[: -len(_CHECKPOINT_SUFFIX)]), path) for path in paths]


def _validate_tenant_id(tenant_id) -> str:
    if not isinstance(tenant_id, str) or not tenant_id:
        raise FleetError(
            f"tenant id must be a non-empty string, got {tenant_id!r}"
        )
    return tenant_id


def _fit_tenant_task(payload):
    """Pool task: :func:`~repro.service.lifecycle.fit_history` of one
    tenant's ``(config, snapshot)`` — the fit an in-process refit and a
    restore run, so all three give the same detector bit for bit."""
    return fit_history(*payload)


@dataclass(frozen=True)
class TenantAlarms:
    """One tenant's alarms from one :meth:`FleetManager.score` call."""

    tenant: str
    spe: np.ndarray
    threshold: float
    flags: np.ndarray
    model_version: int

    @property
    def num_alarms(self) -> int:
        return int(np.count_nonzero(self.flags))


@dataclass(frozen=True)
class TenantFitOutcome:
    """How one tenant fared in one fleet fit round.

    ``status`` is ``"fitted"`` (a fresh model version was installed),
    or ``"lost"`` (the fit was permanently lost; the tenant keeps its
    previous version — ``version`` is then that surviving version, or
    ``None`` for a tenant that has never fitted).  ``report`` is this
    tenant's slice of the pool's fault account (reassignments are
    pool-global and not attributed).
    """

    tenant: str
    status: str
    version: int | None
    trained_rows: int
    fault_policy: str
    report: FaultReport
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "tenant": self.tenant,
            "status": self.status,
            "version": self.version,
            "trained_rows": self.trained_rows,
            "fault_policy": self.fault_policy,
            "report": self.report.to_json(),
            "error": self.error,
        }


@dataclass(frozen=True)
class FleetFitReport:
    """Outcome of one :meth:`FleetManager.fit` round."""

    outcomes: tuple[TenantFitOutcome, ...]
    report: FaultReport
    workers: int
    pooled: bool
    seconds: float

    @property
    def clean(self) -> bool:
        return all(o.status == "fitted" for o in self.outcomes)

    @property
    def lost(self) -> tuple[str, ...]:
        return tuple(o.tenant for o in self.outcomes if o.status == "lost")

    def to_json(self) -> dict:
        return {
            "outcomes": [o.to_json() for o in self.outcomes],
            "report": self.report.to_json(),
            "workers": self.workers,
            "pooled": self.pooled,
            "seconds": self.seconds,
        }


class _TenantState:
    """One tenant's model, policy, and history.

    Before the first fit the history lives here; the fit hands it to the
    tenant's lifecycle manager, which owns it from then on.
    """

    __slots__ = ("tenant_id", "fault_policy", "lifecycle", "history",
                 "last_error")

    def __init__(self, tenant_id: str, fault_policy: str | None) -> None:
        self.tenant_id = tenant_id
        self.fault_policy = fault_policy
        self.lifecycle: ModelLifecycleManager | None = None
        self.history: RowStore | None = None
        self.last_error: str | None = None


class _PlanGroup:
    """One stacked dispatch group of a score plan.

    Carries the cached parameter stacks plus a preallocated
    ``(g, t, m)`` input buffer the tenant blocks are copied into (no
    per-call allocation, same C layout ``np.stack`` would produce — so
    the stacked kernel's bits are unchanged).
    """

    __slots__ = ("members", "dtype", "means", "bases", "ranks",
                 "thresholds", "threshold_list", "version_ids", "buffer")

    def __init__(self, *, members, dtype, means, bases, ranks, thresholds,
                 threshold_list, version_ids, buffer) -> None:
        self.members = members
        self.dtype = dtype
        self.means = means
        self.bases = bases
        self.ranks = ranks
        self.thresholds = thresholds
        self.threshold_list = threshold_list
        self.version_ids = version_ids
        self.buffer = buffer


class _ScorePlan:
    """The precomputed dispatch of one score-call shape.

    ``groups`` holds, in dispatch order, a :class:`_PlanGroup` per
    stacked group and a tuple of ``(tenant, model, threshold,
    version)`` entries per group of serially scored tenants.  A cached
    plan is valid while the fleet's model epoch is unchanged — any
    :meth:`FleetManager.fit` install or tenant add bumps the epoch and
    retires every plan, which is exactly the "version change or tenant
    add/remove" invalidation contract.
    """

    __slots__ = ("epoch", "groups")

    def __init__(self, epoch: int, groups: tuple) -> None:
        self.epoch = epoch
        self.groups = groups


class FleetManager:
    """N independent tenant detectors behind one scheduler.

    Parameters
    ----------
    workers:
        Shared pool size for fit rounds (default: up to 4, capped by
        the host's CPU count and the number of tenants in the round).
        A resolved single worker with no fault plan fits in-process —
        the fitted models are bit-identical either way.
    confidence, threshold_sigma, normal_rank, min_normal_rank,
    max_normal_rank, tile_rows, dtype:
        Per-tenant model parameters (see
        :class:`~repro.service.lifecycle.ModelLifecycleManager`);
        applied to tenants as they are added.
    fault_policy:
        Fleet default for how a permanently lost fit is treated:
        ``"fail-fast"`` / ``"retry"`` surface the loss as a tenant
        error (and raise under ``fit(strict=True)``); ``"partial"``
        records it silently.  Overridable per tenant and per round.
        When every tenant in a round resolves to ``"fail-fast"`` the
        pool runs with zero retries, matching the sharded planes.
    task_deadline, max_retries, backoff_base, backoff_max, fault_seed,
    fault_plan:
        Shared-pool supervision knobs
        (:class:`~repro.pipeline.supervision.SupervisedPool`).
    checkpoint_dir:
        Default root for :meth:`checkpoint` / :meth:`restore`.
    chunk_rows:
        Scoring chunk height for both the batched and serial kernels.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        confidence: float = 0.999,
        threshold_sigma: float = 3.0,
        normal_rank: int | None = None,
        min_normal_rank: int = 1,
        max_normal_rank: int | None = None,
        tile_rows: int = DEFAULT_TILE_ROWS,
        dtype: np.dtype | type | str = np.float64,
        fault_policy: str = "fail-fast",
        task_deadline: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        fault_seed: int = 0,
        fault_plan=None,
        checkpoint_dir: str | Path | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        self.workers = workers
        self.confidence = confidence
        self.threshold_sigma = threshold_sigma
        self.normal_rank = normal_rank
        self.min_normal_rank = min_normal_rank
        self.max_normal_rank = max_normal_rank
        self.tile_rows = tile_rows
        self.dtype = np.dtype(dtype)
        self.fault_policy = resolve_policy(fault_policy, "fail-fast")
        self.task_deadline = task_deadline
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.fault_seed = fault_seed
        self.fault_plan = fault_plan
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.chunk_rows = chunk_rows
        self._tenants: dict[str, _TenantState] = {}
        #: Scheduling account of the most recent :meth:`score` call:
        #: how many tenants rode a stacked kernel call vs. scored
        #: serially, and the per-group sizes (benchmarks read this).
        self.last_score_plan: dict = {}
        # Stacked model parameters per tenant group, keyed by member
        # ids + versions; LRU-evicted one entry at a time.
        self._stack_cache: OrderedDict[tuple, tuple] = OrderedDict()
        # Precomputed dispatch plans keyed by (tenant ids, block
        # shapes); valid while _model_epoch is unchanged.
        self._plan_cache: OrderedDict[tuple, _ScorePlan] = OrderedDict()
        # Bumped on any model install or tenant add — the only events
        # that can change what a score plan dispatches.
        self._model_epoch = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tenants)

    @property
    def tenants(self) -> tuple[str, ...]:
        """Registered tenant ids, in registration order."""
        return tuple(self._tenants)

    def _state(self, tenant_id: str) -> _TenantState:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise FleetError(f"unknown tenant {tenant_id!r}") from None

    def lifecycle(self, tenant_id: str) -> ModelLifecycleManager:
        """The tenant's versioned model manager (fitted tenants only)."""
        state = self._state(tenant_id)
        if state.lifecycle is None:
            raise FleetError(f"tenant {tenant_id!r} has no fitted model yet")
        return state.lifecycle

    def add_tenant(
        self,
        tenant_id: str,
        warmup: np.ndarray | None = None,
        *,
        fault_policy: str | None = None,
    ) -> None:
        """Register a tenant, optionally with its warmup history.

        The warmup is appended to the tenant's history; the model fits
        on the next :meth:`fit` round (fits are pooled, never eager).
        """
        tenant_id = _validate_tenant_id(tenant_id)
        if tenant_id in self._tenants:
            raise FleetError(f"tenant {tenant_id!r} is already registered")
        if fault_policy is not None:
            fault_policy = resolve_policy(fault_policy, self.fault_policy)
        state = _TenantState(tenant_id, fault_policy)
        self._tenants[tenant_id] = state
        self._model_epoch += 1
        if warmup is not None:
            self.ingest(tenant_id, warmup)

    def ingest(self, tenant_id: str, block: np.ndarray) -> None:
        """Fold new rows into the tenant's history (pass 1 of a refit)."""
        block = ensure_matrix(
            block, name="rows", error=FleetError, check_finite=False
        )
        state = self._state(tenant_id)
        if state.lifecycle is not None:
            state.lifecycle.append_rows(block)
            return
        if state.history is None:
            state.history = RowStore(block.shape[1], self.tile_rows)
        if block.shape[1] != state.history.num_columns:
            raise FleetError(
                f"tenant {tenant_id!r}: row width {block.shape[1]} != "
                f"pending width {state.history.num_columns}"
            )
        state.history.append(block)

    # ------------------------------------------------------------------
    def _tenant_config(self, state: _TenantState) -> dict:
        """The fit-knob dict a pool worker rebuilds a coordinator from.

        Taken from the tenant's own lifecycle when it has one (so a
        restored fleet refits with the checkpointed configuration, not
        the current fleet defaults), else from the fleet defaults.
        """
        if state.lifecycle is not None:
            return state.lifecycle.fit_config()
        return {
            "confidence": self.confidence,
            "threshold_sigma": self.threshold_sigma,
            "normal_rank": self.normal_rank,
            "min_normal_rank": self.min_normal_rank,
            "max_normal_rank": self.max_normal_rank,
            "tile_rows": self.tile_rows,
            "dtype": self.dtype,
        }

    def _resolve_workers(self, tasks: int) -> int:
        workers = self.workers
        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        return max(1, min(int(workers), tasks))

    def fit(
        self,
        tenants: Sequence[str] | None = None,
        *,
        fault_policy: str | None = None,
        strict: bool = False,
    ) -> FleetFitReport:
        """(Re)fit tenants on the shared pool; install what survives.

        Every selected tenant's history is snapshotted, all fit tasks
        run on one :class:`~repro.pipeline.supervision.SupervisedPool`,
        and each surviving detector is installed atomically
        (bootstrap for first-time tenants, hot-swap
        :meth:`~repro.service.lifecycle.ModelLifecycleManager.activate`
        for refits).  A tenant whose task is permanently lost keeps its
        previous model version and is reported per its resolved fault
        policy; the other tenants are entirely unaffected.  With
        ``strict=True`` a loss under a ``fail-fast``/``retry`` policy
        raises :class:`~repro.exceptions.FleetError` — *after* every
        surviving fit has been installed.
        """
        started = time.perf_counter()
        order = list(tenants) if tenants is not None else list(self._tenants)
        states = [self._state(tenant_id) for tenant_id in order]
        if not states:
            raise FleetError("the fleet has no tenants to fit")

        payloads = []
        snapshots = []
        policies = []
        for state in states:
            if state.lifecycle is not None:
                snapshot = state.lifecycle.history_snapshot()
            else:
                rows = 0 if state.history is None else state.history.rows
                if rows < 2:
                    raise FleetError(
                        f"tenant {state.tenant_id!r} needs >= 2 warmup rows "
                        f"before it can fit, has {rows}"
                    )
                snapshot = state.history.snapshot()
            payloads.append((self._tenant_config(state), snapshot))
            snapshots.append(snapshot)
            policies.append(
                resolve_policy(
                    fault_policy,
                    state.fault_policy
                    if state.fault_policy is not None
                    else self.fault_policy,
                )
            )

        workers = self._resolve_workers(len(payloads))
        # fail-fast means "don't spend retries": when every tenant in
        # the round asks for it, the pool gets a zero-retry budget —
        # the same mapping the sharded coordinators use.
        retries = (
            0 if all(p == "fail-fast" for p in policies) else self.max_retries
        )
        pooled = workers > 1 or self.fault_plan is not None
        if pooled:
            with SupervisedPool(
                workers=workers,
                deadline=self.task_deadline,
                max_retries=retries,
                backoff_base=self.backoff_base,
                backoff_max=self.backoff_max,
                seed=self.fault_seed,
                fault_plan=self.fault_plan,
            ) as pool:
                run = pool.run(_fit_tenant_task, payloads, stage="fleet-fit")
            results, report = run.results, run.report
        else:
            # One worker, no faults to inject: same kernel in-process.
            results = [_fit_tenant_task(payload) for payload in payloads]
            report = FaultReport(tasks=len(payloads), attempts=len(payloads))

        outcomes = []
        for task, (state, policy) in enumerate(zip(states, policies)):
            detector = results[task]
            slice_report = _report_slice(report, task)
            if detector is None:
                state.last_error = (
                    f"fit lost after {slice_report.attempts} attempt(s) "
                    f"under policy {policy!r}"
                )
                outcomes.append(
                    TenantFitOutcome(
                        tenant=state.tenant_id,
                        status="lost",
                        version=(
                            state.lifecycle.current.version
                            if state.lifecycle is not None
                            else None
                        ),
                        trained_rows=(
                            state.lifecycle.current.trained_rows
                            if state.lifecycle is not None
                            else 0
                        ),
                        fault_policy=policy,
                        report=slice_report,
                        error=state.last_error,
                    )
                )
                continue
            rows = snapshots[task].stats.count
            if state.lifecycle is None:
                state.lifecycle = ModelLifecycleManager.from_fitted(
                    detector, state.history, rows,
                    **self._tenant_config(state),
                )
                state.history = None
            else:
                state.lifecycle.activate(detector, rows)
            state.last_error = None
            version = state.lifecycle.current
            outcomes.append(
                TenantFitOutcome(
                    tenant=state.tenant_id,
                    status="fitted",
                    version=version.version,
                    trained_rows=version.trained_rows,
                    fault_policy=policy,
                    report=slice_report,
                )
            )

        # Any install changes what a cached score plan would dispatch.
        self._model_epoch += 1
        fit_report = FleetFitReport(
            outcomes=tuple(outcomes),
            report=report,
            workers=workers,
            pooled=pooled,
            seconds=time.perf_counter() - started,
        )
        if strict:
            fatal = [
                o.tenant
                for o in outcomes
                if o.status == "lost" and o.fault_policy != "partial"
            ]
            if fatal:
                raise FleetError(
                    f"fleet fit lost tenants {fatal} under a "
                    "loss-intolerant fault policy"
                )
        return fit_report

    # ------------------------------------------------------------------
    def score(
        self,
        blocks: Mapping[str, np.ndarray],
        *,
        batch: bool = True,
    ) -> dict[str, TenantAlarms]:
        """Score per-tenant blocks; batch same-shape tenants when allowed.

        With ``batch=True`` (the scheduler's default) tenants whose
        blocks share a ``(t, m)`` shape and scoring dtype are stacked
        into one :func:`~repro.core.subspace.score_block_stacked` call;
        the rest score serially.  ``batch=False`` forces the serial
        kernel for every tenant.  The two paths are bit-identical by
        the stacked kernel's contract, so the returned alarms never
        depend on the batching decision.

        Every call runs a **dispatch plan**: group discovery, per-tenant
        state lookups, and parameter stacks resolved up front, with the
        stacked inputs landing in preallocated buffers.  A call that
        finds no cached plan validates its blocks and builds one;
        batched calls of two or more tenants with ndarray blocks cache
        it under their tenant set and block shapes, so repeated calls
        skip straight to execution.  A cached plan is invalidated only
        by a model install (:meth:`fit`) or a tenant add — mutating a
        tenant's lifecycle behind the manager's back is outside the
        cache's contract (call :meth:`invalidate_score_plans` after
        doing so).
        """
        key = self._plan_key(blocks) if batch else None
        if key is not None:
            plan = self._plan_cache.get(key)
            if plan is not None and plan.epoch == self._model_epoch:
                self._plan_cache.move_to_end(key)
                return self._run_plan(plan, blocks, planned=True)
        blocks, plan = self._build_plan(blocks, batch=batch)
        if key is not None:
            while len(self._plan_cache) >= _PLAN_CACHE_ENTRIES:
                self._plan_cache.popitem(last=False)
            self._plan_cache[key] = plan
        return self._run_plan(plan, blocks, planned=False)

    def invalidate_score_plans(self) -> None:
        """Retire every cached score plan (out-of-band model changes)."""
        self._model_epoch += 1

    def _plan_key(self, blocks: Mapping[str, np.ndarray]):
        """Cache key of a batched call, or None when not cacheable.

        Single-tenant calls are never cached: there is nothing to
        stack, building their plan is already one state lookup, and a
        fleet cycling through tenants one at a time would otherwise
        churn the bounded plan cache with entries that are evicted
        before they can ever be reused.
        """
        if len(blocks) < 2:
            return None
        try:
            shapes = tuple(block.shape for block in blocks.values())
        except AttributeError:
            return None  # non-ndarray payloads are validated every call
        if any(len(shape) != 2 for shape in shapes):
            return None
        return (tuple(blocks), shapes)

    def _build_plan(
        self, blocks: Mapping[str, np.ndarray], *, batch: bool
    ) -> tuple[dict[str, np.ndarray], _ScorePlan]:
        """Validate a call's blocks and plan its dispatch."""
        order = [(_validate_tenant_id(t), b) for t, b in blocks.items()]
        validated: dict[str, np.ndarray] = {}
        groups: dict[tuple, list[tuple]] = {}
        for tenant_id, block in order:
            state = self._state(tenant_id)
            if state.lifecycle is None:
                raise FleetError(
                    f"tenant {tenant_id!r} has no fitted model yet"
                )
            block = ensure_matrix(
                block, name="measurements", error=FleetError,
                check_finite=False,
            )
            version = state.lifecycle.current
            model = version.detector.model
            if block.shape[1] != model.num_links:
                raise FleetError(
                    f"tenant {tenant_id!r}: block has {block.shape[1]} "
                    f"links, model expects {model.num_links}"
                )
            validated[tenant_id] = block
            groups.setdefault((block.shape, model.dtype), []).append(
                (tenant_id, model, float(version.threshold), version.version)
            )
        plan_groups = []
        for (shape, dtype), entries in groups.items():
            if batch and len(entries) > 1:
                means, bases, ranks, thresholds = self._stack_params(
                    entries, shape, dtype
                )
                plan_groups.append(_PlanGroup(
                    members=tuple(entry[0] for entry in entries),
                    dtype=dtype,
                    means=means,
                    bases=bases,
                    ranks=ranks,
                    thresholds=thresholds,
                    threshold_list=tuple(entry[2] for entry in entries),
                    version_ids=tuple(entry[3] for entry in entries),
                    buffer=np.empty((len(entries),) + shape),
                ))
            else:
                plan_groups.append(tuple(entries))
        return validated, _ScorePlan(self._model_epoch, tuple(plan_groups))

    def _stack_params(self, entries: list[tuple], shape, dtype) -> tuple:
        """Stacked means/bases/ranks/thresholds of one tenant group.

        Each member's axes ``Pᵀ`` are zero-padded to the largest rank
        below ``m`` in the group, so tenants of any rank share one
        group per (shape, dtype); a full-rank member keeps only its
        rank, which the kernel scores as exactly 0.  Model parameters
        change only on refit, so the stacks are cached per tenant group
        and invalidated by the member version numbers.  Without the
        cache, re-stacking n bases on every call costs more than the
        per-tenant dispatch the batching is meant to remove.  Eviction
        is LRU, one entry at a time — a fleet with more than
        ``_STACK_CACHE_ENTRIES`` live groups cycles the coldest entry
        instead of thrashing the whole cache.
        """
        cache_key = (
            tuple(entry[0] for entry in entries),
            tuple(entry[3] for entry in entries),
            shape[1],
            dtype,
        )
        cached = self._stack_cache.get(cache_key)
        if cached is None:
            m = shape[1]
            ranks = np.asarray([entry[1].normal_rank for entry in entries])
            padded = int(ranks[ranks < m].max(initial=0))
            bases = np.zeros((len(entries), padded, m))
            for i, entry in enumerate(entries):
                if ranks[i] < m:
                    bases[i, : ranks[i]] = entry[1]._axes
            cached = (
                np.stack([entry[1]._mean for entry in entries]),
                bases,
                ranks,
                np.asarray([entry[2] for entry in entries]),
            )
            while len(self._stack_cache) >= _STACK_CACHE_ENTRIES:
                self._stack_cache.popitem(last=False)
            self._stack_cache[cache_key] = cached
        else:
            self._stack_cache.move_to_end(cache_key)
        return cached

    def _run_plan(
        self,
        plan: _ScorePlan,
        blocks: Mapping[str, np.ndarray],
        *,
        planned: bool,
    ) -> dict[str, TenantAlarms]:
        """Execute a dispatch plan; ``planned`` marks a cache hit.

        Per stacked group: copy the tenant blocks into the plan's
        preallocated C-contiguous stack (the layout ``np.stack`` would
        produce, so the kernel's reduction order — and hence every
        output bit — is unchanged) and run one stacked kernel call.
        Serial entries run the tenant's own kernel.
        """
        alarms: dict[str, TenantAlarms] = {}
        account = {
            "batched_tenants": 0, "serial_tenants": 0, "groups": [],
            "planned": planned,
        }
        for group in plan.groups:
            if isinstance(group, _PlanGroup):
                buffer = group.buffer
                for i, tenant_id in enumerate(group.members):
                    np.copyto(buffer[i], blocks[tenant_id], casting="unsafe")
                result = score_block_stacked(
                    buffer,
                    group.means,
                    bases=group.bases,
                    ranks=group.ranks,
                    thresholds=group.thresholds,
                    dtype=group.dtype,
                    chunk_rows=self.chunk_rows,
                )
                for i, tenant_id in enumerate(group.members):
                    alarms[tenant_id] = TenantAlarms(
                        tenant=tenant_id,
                        spe=result.spe[i],
                        threshold=group.threshold_list[i],
                        flags=result.flags[i],
                        model_version=group.version_ids[i],
                    )
                account["batched_tenants"] += len(group.members)
                account["groups"].append(
                    {"shape": list(buffer.shape[1:]),
                     "tenants": len(group.members), "mode": "stacked"}
                )
                continue
            for tenant_id, model, threshold, version_id in group:
                result = model.score_block(
                    blocks[tenant_id],
                    threshold=threshold,
                    chunk_rows=self.chunk_rows,
                )
                alarms[tenant_id] = TenantAlarms(
                    tenant=tenant_id,
                    spe=result.spe,
                    threshold=threshold,
                    flags=result.flags,
                    model_version=version_id,
                )
            account["serial_tenants"] += len(group)
            account["groups"].append(
                {"shape": list(blocks[group[0][0]].shape),
                 "tenants": len(group), "mode": "serial"}
            )
        self.last_score_plan = account
        return alarms

    # ------------------------------------------------------------------
    def checkpoint(self, root: str | Path | None = None) -> dict[str, dict]:
        """Checkpoint every fitted tenant under namespaced paths.

        Each tenant writes its own atomic file (see
        :func:`tenant_checkpoint_path`), so concurrent checkpoints —
        other tenants, an always-on service sharing the directory —
        never clobber each other.  Returns per-tenant version
        summaries; unfitted tenants are skipped.
        """
        root = self._checkpoint_root(root)
        summaries: dict[str, dict] = {}
        for tenant_id, state in self._tenants.items():
            if state.lifecycle is None:
                continue
            path = tenant_checkpoint_path(root, tenant_id)
            summaries[tenant_id] = state.lifecycle.checkpoint(
                path,
                extra={
                    "tenant": tenant_id,
                    "fault_policy": state.fault_policy,
                },
            )
        return summaries

    def _checkpoint_root(self, root: str | Path | None) -> Path:
        root = self.checkpoint_dir if root is None else Path(root)
        if root is None:
            raise FleetError(
                "no checkpoint directory: pass root= or set checkpoint_dir"
            )
        return root

    @classmethod
    def restore(
        cls, root: str | Path, **kwargs
    ) -> "FleetManager":
        """Rebuild a fleet from a checkpoint directory.

        Every ``tenants/*.ckpt`` file restores one tenant through
        :meth:`~repro.service.lifecycle.ModelLifecycleManager.restore`
        — the detector is refit from the checkpointed rows, so
        each restored tenant scores bit-identically to the fleet that
        wrote the checkpoint.  ``kwargs`` configure the new manager's
        scheduler (workers, fault knobs); per-tenant model
        configuration and fault policies come from the checkpoints.
        """
        root = Path(root)
        tenant_dir = root / "tenants"
        if not tenant_dir.is_dir():
            raise FleetError(f"no fleet checkpoint directory at {tenant_dir}")
        manager = cls(checkpoint_dir=root, **kwargs)
        checkpoints = tenant_checkpoints(root)
        if not checkpoints:
            raise FleetError(f"no tenant checkpoints under {tenant_dir}")
        for tenant_id, path in checkpoints:
            lifecycle = ModelLifecycleManager.restore(path)
            policy = lifecycle.restored_extra.get("fault_policy")
            state = _TenantState(
                tenant_id,
                None if policy is None else resolve_policy(policy, "partial"),
            )
            state.lifecycle = lifecycle
            manager._tenants[tenant_id] = state
        return manager

    # ------------------------------------------------------------------
    def status(self) -> list[dict]:
        """JSON-able per-tenant summary (version, rows, policy, errors)."""
        rows = []
        for tenant_id, state in self._tenants.items():
            entry = {
                "tenant": tenant_id,
                "fault_policy": state.fault_policy or self.fault_policy,
                "fitted": state.lifecycle is not None,
                "last_error": state.last_error,
            }
            if state.lifecycle is not None:
                entry.update(state.lifecycle.current.summary())
                entry["rows"] = state.lifecycle.rows
            else:
                entry["rows"] = 0 if state.history is None else state.history.rows
            rows.append(entry)
        return rows


def _report_slice(report: FaultReport, task: int) -> FaultReport:
    """One task's share of a pool run's fault account.

    Faults and losses are attributed exactly; ``reassignments`` are a
    pool-global statistic and stay out of the slices.
    """
    faults = tuple(f for f in report.faults if f.task == task)
    lost = task in report.lost_tasks
    attempts = len(faults) + (0 if lost else 1)
    return FaultReport(
        tasks=1,
        attempts=attempts,
        timeouts=sum(1 for f in faults if f.kind == "timeout"),
        retries=max(0, attempts - 1),
        worker_deaths=sum(1 for f in faults if f.kind == "worker_death"),
        lost_tasks=(task,) if lost else (),
        faults=faults,
    )


# ----------------------------------------------------------------------
def synthetic_tenant_traffic(
    tenant_id: str,
    rows: int,
    links: int = 24,
    anomalies: int = 0,
    seed: int = 0,
    start_row: int = 0,
) -> np.ndarray:
    """Deterministic per-tenant traffic for harnesses and benchmarks.

    Low-rank diurnal-ish structure plus noise, keyed by a CRC of the
    tenant id (two tenants never share a stream; the same tenant always
    gets the same stream).  ``start_row`` continues the same tenant's
    diurnal phase, so a scoring block generated at
    ``start_row=warmup_rows`` follows the distribution a model fitted
    on the warmup expects; ``anomalies`` rows then receive a large
    additive spike on a few links so detection has something to flag.
    """
    if rows < 1 or links < 1:
        raise FleetError(f"rows and links must be >= 1, got {rows}x{links}")
    mix = zlib.crc32(f"tenant:{tenant_id}".encode()) ^ (seed & 0xFFFFFFFF)
    rng = np.random.default_rng(mix)
    rank = min(3, links)
    loadings = rng.normal(size=(rank, links))
    phases = rng.uniform(0, 2 * np.pi, size=rank)
    t = np.arange(start_row, start_row + rows)[:, None]
    factors = 10.0 * np.sin(
        2 * np.pi * t / 96.0 + phases
    ) + rng.normal(scale=2.0, size=(rows, rank))
    traffic = 500.0 + factors @ loadings
    traffic += rng.normal(scale=1.0, size=(rows, links))
    if anomalies:
        anomalies = min(int(anomalies), rows)
        spiked = rng.choice(rows, size=anomalies, replace=False)
        hit_links = rng.choice(links, size=max(1, links // 8), replace=False)
        traffic[np.ix_(spiked, hit_links)] += 200.0
    return traffic


def run_fleet_check(
    num_tenants: int = 6,
    warmup_rows: int = 240,
    score_rows: int = 96,
    links: int = 24,
    workers: int = 2,
    crash_tenant: int = 0,
    max_retries: int = 2,
    checkpoint_dir: str | Path | None = None,
    seed: int = 0,
) -> dict:
    """End-to-end fleet verification: parity, isolation, restore.

    The harness behind ``repro fleet run`` and the CI smoke step.
    Three gates, each a hard bitwise assertion:

    1. **Batched-vs-serial parity** — batched scoring of every tenant
       equals per-tenant serial scoring bit for bit.
    2. **Fault isolation** — an injected worker crash that permanently
       loses one tenant's fit leaves every *other* tenant's alarms
       bit-identical to the fault-free run.
    3. **Restore parity** — a checkpointed fleet restarts with every
       tenant scoring bit-identically (requires ``checkpoint_dir``).

    Returns a JSON-able report; ``report["ok"]`` is the overall gate.
    """
    from repro.pipeline.faults import FaultPlan, WorkerFault

    if num_tenants < 2:
        raise FleetError(
            f"the fleet check needs >= 2 tenants, got {num_tenants}"
        )
    tenant_ids = [f"tenant-{i:03d}" for i in range(num_tenants)]
    warmups = {
        t: synthetic_tenant_traffic(t, warmup_rows, links, seed=seed)
        for t in tenant_ids
    }
    score_blocks = {
        t: synthetic_tenant_traffic(
            t, score_rows, links, anomalies=4, seed=seed,
            start_row=warmup_rows,
        )
        for t in tenant_ids
    }

    def build(fault_plan=None, retries=max_retries):
        fleet = FleetManager(
            workers=workers,
            fault_policy="partial",
            max_retries=retries,
            fault_plan=fault_plan,
        )
        for tenant_id in tenant_ids:
            fleet.add_tenant(tenant_id, warmups[tenant_id])
        return fleet

    # Gate 1: fault-free fleet; batched vs serial parity.
    fleet = build()
    fit_report = fleet.fit()
    batched = fleet.score(score_blocks, batch=True)
    batched_plan = dict(fleet.last_score_plan)
    serial = fleet.score(score_blocks, batch=False)
    parity_ok = fit_report.clean and all(
        np.array_equal(batched[t].spe, serial[t].spe)
        and np.array_equal(batched[t].flags, serial[t].flags)
        for t in tenant_ids
    )

    # Gate 2: crash one tenant's fit on every attempt; its loss must
    # not move a bit in any other tenant's alarms.
    crash_tenant = int(crash_tenant) % num_tenants
    crashed_id = tenant_ids[crash_tenant]
    plan = FaultPlan(
        faults=(
            WorkerFault(
                task=crash_tenant,
                action="crash",
                stage="fleet-fit",
                attempts=max_retries + 1,
            ),
        )
    )
    faulted = build(fault_plan=plan)
    faulted_report = faulted.fit()
    survivors = [t for t in tenant_ids if t != crashed_id]
    crash_outcome = faulted_report.outcomes[crash_tenant]
    faulted_alarms = faulted.score(
        {t: score_blocks[t] for t in survivors}, batch=True
    )
    isolation_ok = (
        crash_outcome.status == "lost"
        and crash_outcome.report.worker_deaths >= 1
        and all(
            o.status == "fitted"
            for o in faulted_report.outcomes
            if o.tenant != crashed_id
        )
        and all(
            np.array_equal(faulted_alarms[t].spe, batched[t].spe)
            and np.array_equal(faulted_alarms[t].flags, batched[t].flags)
            for t in survivors
        )
    )

    # Gate 3: checkpoint, restore, rescore — every tenant bitwise.
    restore_ok = None
    if checkpoint_dir is not None:
        fleet.checkpoint(checkpoint_dir)
        restored = FleetManager.restore(checkpoint_dir, workers=workers)
        restored_alarms = restored.score(score_blocks, batch=True)
        restore_ok = sorted(restored.tenants) == sorted(tenant_ids) and all(
            np.array_equal(restored_alarms[t].spe, batched[t].spe)
            and np.array_equal(restored_alarms[t].flags, batched[t].flags)
            for t in tenant_ids
        )

    ok = parity_ok and isolation_ok and restore_ok is not False
    return {
        "ok": bool(ok),
        "parity_ok": bool(parity_ok),
        "isolation_ok": bool(isolation_ok),
        "restore_ok": restore_ok,
        "tenants": num_tenants,
        "workers": workers,
        "crashed_tenant": crashed_id,
        "crash_outcome": crash_outcome.to_json(),
        "score_plan": batched_plan,
        "alarms": {
            t: int(batched[t].num_alarms) for t in tenant_ids
        },
        "fit_report": fit_report.to_json(),
    }
