"""Anomaly identification (§5.2 and the §7.2 multi-flow extension).

Given a flagged measurement vector ``y``, identification asks which
candidate anomaly best explains the deviation of ``y`` from the normal
subspace.  For the single-flow case each candidate ``F_i`` is one OD flow
with link signature ``θ_i = A_i/‖A_i‖``; the best estimate of normal
traffic under hypothesis ``F_i`` is (Eq. 1)

    y*_i = (I − θ_i (θ̃_iᵀ θ̃_i)⁻¹ θ̃_iᵀ C̃) y,   θ̃_i = C̃ θ_i

and the chosen hypothesis minimizes ``‖C̃ y*_i‖``.

Because ``C̃`` is an orthogonal projector this minimization has a closed
form: ``‖C̃ y*_i‖² = ‖ỹ‖² − (θ̃_iᵀ ỹ)² / ‖θ̃_i‖²``, so the winner
maximizes the *explained residual energy* ``(θ̃_iᵀ ỹ)² / ‖θ̃_i‖²``.  Both
the literal Eq.-1 implementation and the closed form are provided; tests
verify they agree.

The denominators ``‖θ̃_i‖²`` depend only on the model and the candidate
set, so :class:`IdentificationState` computes them once per model; the
batch pipeline and the service identify every alarm from it, and
:func:`identify_block` is the one-call form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.core.subspace import SubspaceModel
from repro.exceptions import ModelError

__all__ = [
    "BlockIdentification",
    "IdentificationResult",
    "IdentificationState",
    "MultiFlowBlockIdentification",
    "flows_visible",
    "identify_block",
    "identify_from_residuals",
    "identify_single_flow",
    "identify_single_flow_naive",
    "identify_multi_flow",
    "identify_multi_flow_block",
    "residual_scores",
    "residual_signature_energy",
]

#: Candidates whose residual-space signature is shorter than this are
#: undetectable (θ̃_i ≈ 0, §5.4) and excluded from identification.
_MIN_RESIDUAL_SIGNATURE = 1e-12


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of anomaly identification at one timestep.

    Attributes
    ----------
    flow_index:
        Index of the winning hypothesis (column of the candidate matrix).
    magnitude:
        The estimated anomaly magnitude ``f̂`` along the winning
        direction ``θ``; signed (negative = traffic drop).
    residual_spe:
        ``‖C̃ y*‖²`` — residual energy left after removing the hypothesized
        anomaly.
    scores:
        Explained residual energy per candidate (higher = better).
    """

    flow_index: int
    magnitude: float
    residual_spe: float
    scores: np.ndarray


def residual_signature_energy(
    model: SubspaceModel, anomaly_directions: np.ndarray
) -> np.ndarray:
    """``‖C̃ θ_j‖²`` per candidate: how much of each signature the
    residual subspace sees."""
    theta = _check_directions(model, anomaly_directions)
    theta_tilde = model.anomalous_projector @ theta  # (m, n)
    return np.einsum("ij,ij->j", theta_tilde, theta_tilde)


def flows_visible(signature_energy: np.ndarray) -> bool:
    """Whether identification can name any flow at all.

    True when some candidate's residual signature energy ``‖C̃ θ_j‖²``
    clears the detectability cutoff.  This is a property of the model
    and the candidate set, not of any measurement: when it fails, every
    identification under that model raises, so serving callers decide
    it once per model and report its alarms unidentified, as they do
    without a routing matrix.
    """
    return bool(np.any(signature_energy > _MIN_RESIDUAL_SIGNATURE))


def residual_scores(
    model: SubspaceModel,
    anomaly_directions: np.ndarray,
    residual: np.ndarray,
) -> np.ndarray:
    """Explained residual energy ``(θ̃_iᵀ ỹ)² / ‖θ̃_i‖²`` per candidate.

    Parameters
    ----------
    model:
        Fitted subspace model.
    anomaly_directions:
        ``(m, n)`` matrix whose columns are unit-norm candidate signatures
        ``θ_i`` (use ``RoutingMatrix.normalized_columns()``).
    residual:
        The residual vector ``ỹ`` (already projected; ``C̃ ỹ = ỹ``).

    Candidates invisible in the residual subspace score ``-inf``.
    """
    theta = _check_directions(model, anomaly_directions)
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != (model.num_links,):
        raise ModelError(
            f"residual has shape {residual.shape}, expected ({model.num_links},)"
        )
    signature_energy = residual_signature_energy(model, theta)
    # Because the residual already lives in the anomalous subspace,
    # θ̃ᵀ ỹ = θᵀ ỹ; using θ directly avoids a second projection.
    inner = theta.T @ residual
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(
            signature_energy > _MIN_RESIDUAL_SIGNATURE,
            inner**2 / signature_energy,
            -np.inf,
        )
    return scores


def identify_single_flow(
    model: SubspaceModel,
    anomaly_directions: np.ndarray,
    measurement: np.ndarray,
) -> IdentificationResult:
    """Identify the single-flow anomaly best explaining ``measurement``.

    Uses the closed form of Eq. 1 (see module docstring).  Ties break
    toward the lowest flow index, making results deterministic.
    """
    residual = model.residual(measurement)
    scores = residual_scores(model, anomaly_directions, residual)
    if np.all(np.isneginf(scores)):
        raise ModelError(
            "no candidate anomaly is visible in the residual subspace"
        )
    winner = int(np.argmax(scores))
    theta = np.asarray(anomaly_directions, dtype=np.float64)[:, winner]
    theta_tilde = model.anomalous_projector @ theta
    energy = float(theta_tilde @ theta_tilde)
    magnitude = float(theta_tilde @ residual) / energy
    spe = float(residual @ residual)
    return IdentificationResult(
        flow_index=winner,
        magnitude=magnitude,
        residual_spe=spe - float(scores[winner]),
        scores=scores,
    )


@dataclass(frozen=True)
class BlockIdentification:
    """Vectorized identification outcome for a block of timesteps.

    Row ``t`` of every array describes the same quantities
    :class:`IdentificationResult` holds for one timestep; tests verify
    row-for-row agreement with :func:`identify_single_flow`.

    Attributes
    ----------
    flow_indices:
        ``(t,)`` winning hypothesis per timestep.
    magnitudes:
        ``(t,)`` signed anomaly magnitudes ``f̂`` along each winner.
    residual_spe:
        ``(t,)`` residual energy left after removing each winner.
    scores:
        ``(t, n)`` explained residual energy per candidate.
    """

    flow_indices: np.ndarray
    magnitudes: np.ndarray
    residual_spe: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return int(self.flow_indices.shape[0])


@dataclass(frozen=True, eq=False)
class IdentificationState:
    """What single-flow identification under one model needs, computed once.

    The denominators of the closed form, ``‖C̃ θ_j‖²``, depend only on
    the model and the candidate set, not on any measurement.  The
    state holds them with the visibility mask and their inverses, so
    that identifying a block costs one projector residual, one
    ``(t, m) @ (m, n)`` product and the argmax.  Callers keep one state
    per fitted model: the batch pipeline builds it at fit time, the
    service once per model version.  The arrays are read-only.

    Attributes
    ----------
    model:
        The fitted subspace model.
    directions:
        ``(m, n)`` unit-norm candidate signatures ``θ_j``.
    od_pairs:
        ``(origin, destination)`` label of each candidate; empty when
        the state was built without labels.
    energy:
        ``(n,)`` residual signature energies ``‖C̃ θ_j‖²``.
    valid:
        ``(n,)`` candidates whose energy clears the detectability
        cutoff; the others score ``-inf``.
    inv_energy:
        ``(n,)`` ``1 / ‖C̃ θ_j‖²`` where valid, 0 elsewhere.
    visible:
        Whether any candidate is valid (:func:`flows_visible`).  When
        False every identification under the model raises.
    """

    model: SubspaceModel
    directions: np.ndarray
    od_pairs: tuple[tuple[str, str], ...] = ()
    energy: np.ndarray = field(init=False)
    valid: np.ndarray = field(init=False)
    inv_energy: np.ndarray = field(init=False)
    visible: bool = field(init=False)

    def __post_init__(self) -> None:
        theta = _check_directions(self.model, self.directions)
        energy = residual_signature_energy(self.model, theta)
        valid = energy > _MIN_RESIDUAL_SIGNATURE
        computed = {
            "directions": theta,
            "energy": energy,
            "valid": valid,
            "inv_energy": _inverse_energy(energy, valid),
        }
        for name, array in computed.items():
            # A view: the caller's direction matrix stays writeable.
            array = array.view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "od_pairs", tuple(self.od_pairs))
        object.__setattr__(self, "visible", bool(valid.any()))

    def identify(self, measurements: np.ndarray) -> BlockIdentification:
        """Identify the best single-flow hypothesis of every row at once.

        ``measurements`` is a ``(t, m)`` block of raw measurement
        vectors (or one vector).  One projector residual and one
        ``(t, m) @ (m, n)`` product cover the block.  Ties break toward
        the lowest flow index.  Raises :class:`ModelError` on a
        wrong-width block and, when no candidate is visible, on any
        block.
        """
        measurements = self._check(measurements)
        residuals = self.model.residual(measurements)  # (t, m)
        # θ̃ᵀ ỹ = θᵀ ỹ because ỹ already lives in the anomalous subspace.
        return _identify_scored(
            residuals, residuals @ self.directions, self.valid, self.inv_energy
        )

    def identify_each(self, measurements: np.ndarray) -> BlockIdentification:
        """Identify every row as if it arrived alone.

        BLAS products over several rows need not match one-row products
        in the last bit, so each row's residual and candidate product
        run as one-row calls on ``(1, m)`` operands: row ``i`` of the
        result is bit for bit ``identify(measurements[i])``, whatever
        block it came in.  Centering, the scoring and the argmax are
        elementwise per row, so they run once over the block.  The
        service identifies its alarms this way, so an alarm does not
        depend on the request that carried it.
        """
        measurements = self._check(measurements)
        if measurements.shape[0] < 2:  # one row (or none) is row by row
            return self.identify(measurements)
        centered = measurements - self.model.pca.mean
        projector = self.model.anomalous_projector.T
        residuals = np.empty_like(centered)
        inner = np.empty((centered.shape[0], self.directions.shape[1]))
        for row in range(centered.shape[0]):
            residual = centered[row : row + 1] @ projector
            residuals[row] = residual[0]
            inner[row] = (residual @ self.directions)[0]
        return _identify_scored(residuals, inner, self.valid, self.inv_energy)

    def _check(self, measurements: np.ndarray) -> np.ndarray:
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.ndim == 1:
            measurements = measurements[None, :]
        if measurements.ndim != 2 or measurements.shape[1] != self.model.num_links:
            raise ModelError(
                f"measurements must be (t, {self.model.num_links}), got shape "
                f"{measurements.shape}"
            )
        if not self.visible:
            raise ModelError(
                "no candidate anomaly is visible in the residual subspace"
            )
        return measurements


def identify_block(
    model: SubspaceModel,
    anomaly_directions: np.ndarray,
    measurements: np.ndarray,
) -> BlockIdentification:
    """Identify the best single-flow hypothesis at every timestep at once.

    The batched form of :func:`identify_single_flow`: one ``(t, m) @
    (m, n)`` product replaces ``t`` separate matrix-vector passes.  Ties
    break toward the lowest flow index, exactly as in the scalar path.
    A one-call :meth:`IdentificationState.identify`; callers that
    identify under one model more than once keep the state instead.

    Parameters
    ----------
    model:
        Fitted subspace model.
    anomaly_directions:
        ``(m, n)`` matrix of unit-norm candidate signatures ``θ_i``.
    measurements:
        ``(t, m)`` block of raw measurement vectors (typically only the
        flagged timesteps).

    Raises
    ------
    ModelError
        When no candidate is visible in the residual subspace (then no
        timestep can be identified).
    """
    return IdentificationState(model, anomaly_directions).identify(measurements)


def identify_from_residuals(
    residuals: np.ndarray,
    anomaly_directions: np.ndarray,
    signature_energy: np.ndarray,
) -> BlockIdentification:
    """Identification from residuals and energies the caller computed.

    Callers supply already-projected residual vectors ``ỹ`` and the
    per-candidate residual signature energies ``‖C̃ θ_j‖²`` (computed
    however their model representation makes cheapest, as the streaming
    detector does for a basis that moves every window); the
    score/argmax/magnitude algebra is the one
    :class:`IdentificationState` runs, so the tie-break and the
    detectability cutoff live in one place.

    Parameters
    ----------
    residuals:
        ``(t, m)`` residual vectors (``C̃ ỹ = ỹ`` must already hold).
    anomaly_directions:
        ``(m, n)`` unit-norm candidate signatures ``θ_i``.
    signature_energy:
        ``(n,)`` energies ``‖C̃ θ_j‖²``.
    """
    if not flows_visible(signature_energy):
        raise ModelError(
            "no candidate anomaly is visible in the residual subspace"
        )
    valid = signature_energy > _MIN_RESIDUAL_SIGNATURE
    return _identify_scored(
        residuals,
        residuals @ anomaly_directions,
        valid,
        _inverse_energy(signature_energy, valid),
    )


def _inverse_energy(energy: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``1 / ‖C̃ θ_j‖²`` for visible candidates, 0 for the rest."""
    return np.where(valid, 1.0 / np.where(valid, energy, 1.0), 0.0)


def _identify_scored(
    residuals: np.ndarray,
    inner: np.ndarray,
    valid: np.ndarray,
    inv_energy: np.ndarray,
) -> BlockIdentification:
    """Scores, argmax and magnitudes from the products ``inner = ỹ Θ``.

    Every operation is elementwise or per row, so a row's result does
    not depend on the other rows of the block.
    """
    scores = np.where(valid[None, :], inner**2 * inv_energy[None, :], -np.inf)
    winners = np.argmax(scores, axis=1)  # (t,)
    rows = np.arange(residuals.shape[0])
    magnitudes = inner[rows, winners] * inv_energy[winners]
    spe = np.einsum("ij,ij->i", residuals, residuals)
    return BlockIdentification(
        flow_indices=winners,
        magnitudes=magnitudes,
        residual_spe=spe - scores[rows, winners],
        scores=scores,
    )


def identify_single_flow_naive(
    model: SubspaceModel,
    anomaly_directions: np.ndarray,
    measurement: np.ndarray,
) -> IdentificationResult:
    """Literal implementation of the paper's Eq. 1 (reference/oracle).

    Computes ``y*_i`` for every hypothesis and picks
    ``argmin_i ‖C̃ y*_i‖``.  O(n·m²); used to validate the closed form.
    """
    theta = _check_directions(model, anomaly_directions)
    measurement = np.asarray(measurement, dtype=np.float64)
    centered = measurement - model.pca.mean
    c_tilde = model.anomalous_projector
    residual = c_tilde @ centered

    n = theta.shape[1]
    spe_after = np.full(n, np.inf)
    magnitudes = np.zeros(n)
    for i in range(n):
        theta_i = theta[:, i]
        theta_tilde = c_tilde @ theta_i
        energy = float(theta_tilde @ theta_tilde)
        if energy <= _MIN_RESIDUAL_SIGNATURE:
            continue
        f_hat = float(theta_tilde @ residual) / energy
        y_star = centered - theta_i * f_hat
        r_star = c_tilde @ y_star
        spe_after[i] = float(r_star @ r_star)
        magnitudes[i] = f_hat
    if np.all(np.isinf(spe_after)):
        raise ModelError(
            "no candidate anomaly is visible in the residual subspace"
        )
    winner = int(np.argmin(spe_after))
    base_spe = float(residual @ residual)
    return IdentificationResult(
        flow_index=winner,
        magnitude=float(magnitudes[winner]),
        residual_spe=float(spe_after[winner]),
        scores=base_spe - spe_after,
    )


@dataclass(frozen=True)
class MultiFlowIdentification:
    """Outcome of multi-flow identification (§7.2).

    Attributes
    ----------
    hypothesis_index:
        Index of the winning hypothesis in the supplied list.
    magnitudes:
        Per-flow anomaly intensities ``f̂`` for the winning hypothesis.
    residual_spe:
        Residual energy after removing the hypothesized anomaly.
    """

    hypothesis_index: int
    magnitudes: np.ndarray
    residual_spe: float


@dataclass(frozen=True)
class MultiFlowBlockIdentification:
    """Vectorized multi-flow identification over a block of timesteps.

    Row ``t`` describes the same quantities
    :class:`MultiFlowIdentification` holds for one timestep; tests verify
    row-for-row agreement with the per-measurement greedy loop.

    Attributes
    ----------
    hypothesis_indices:
        ``(t,)`` winning hypothesis per timestep.
    magnitudes:
        Per-timestep intensity vectors ``f̂`` of each winner (ragged —
        hypotheses may span different flow counts — hence a tuple).
    residual_spe:
        ``(t,)`` residual energy left after removing each winner.
    spe_after:
        ``(t, h)`` residual energy under every hypothesis.
    """

    hypothesis_indices: np.ndarray
    magnitudes: tuple[np.ndarray, ...]
    residual_spe: np.ndarray
    spe_after: np.ndarray

    def __len__(self) -> int:
        return int(self.hypothesis_indices.shape[0])


#: The greedy hypothesis scan only dethrones the incumbent when the
#: challenger improves residual energy by more than this (absolute).
_SPE_TIEBREAK = 1e-12


def _check_hypotheses(
    hypotheses: Sequence[np.ndarray], num_links: int
) -> list[np.ndarray]:
    """Validate and normalize hypothesis matrices to ``(m, k_i)``."""
    if not hypotheses:
        raise ModelError("at least one hypothesis is required")
    matrices: list[np.ndarray] = []
    for index, theta in enumerate(hypotheses):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim == 1:
            theta = theta[:, None]
        if theta.ndim != 2 or theta.shape[0] != num_links:
            raise ModelError(
                f"hypothesis {index} has shape {theta.shape}, expected "
                f"({num_links}, k)"
            )
        matrices.append(theta)
    return matrices


def _greedy_winner(spe_row: np.ndarray) -> int:
    """The index the sequential greedy scan would pick on these energies.

    A later hypothesis only dethrones the incumbent when it improves by
    more than ``_SPE_TIEBREAK`` — scalar comparisons over precomputed
    energies, so the scan costs O(h) flops, not O(h·m²).  Returns ``-1``
    when no hypothesis produced a finite energy (non-finite values never
    beat the ``inf`` incumbent), mirroring the greedy loop.
    """
    best_index = -1
    best_spe = np.inf
    for index in range(spe_row.shape[0]):
        if spe_row[index] < best_spe - _SPE_TIEBREAK:
            best_index = index
            best_spe = spe_row[index]
    return best_index


def identify_multi_flow_block(
    model: SubspaceModel,
    hypotheses: Sequence[np.ndarray],
    measurements: np.ndarray,
) -> MultiFlowBlockIdentification:
    """Identify the best multi-flow hypothesis at every timestep at once.

    The batched form of :func:`identify_multi_flow`: hypotheses are
    grouped by flow count and each group's projection, least-squares
    solve (batched pseudoinverse — rank-deficient hypotheses degrade
    exactly as ``lstsq`` does) and leftover energy run as stacked BLAS
    calls over all timesteps and hypotheses simultaneously.  Only the
    final greedy scan — scalar comparisons per timestep — stays a loop,
    preserving the sequential tie-break bit for bit.
    """
    matrices = _check_hypotheses(hypotheses, model.num_links)
    measurements = np.asarray(measurements, dtype=np.float64)
    if measurements.ndim == 1:
        measurements = measurements[None, :]
    if measurements.ndim != 2 or measurements.shape[1] != model.num_links:
        raise ModelError(
            f"measurements must be (t, {model.num_links}), got shape "
            f"{measurements.shape}"
        )
    residuals = model.residual(measurements)  # (t, m)
    c_tilde = model.anomalous_projector
    num_steps = residuals.shape[0]
    num_hypotheses = len(matrices)

    groups: dict[int, list[int]] = {}
    for index, theta in enumerate(matrices):
        groups.setdefault(theta.shape[1], []).append(index)

    spe_after = np.empty((num_steps, num_hypotheses))
    intensities: list[np.ndarray | None] = [None] * num_hypotheses
    for width, indices in groups.items():
        stack = np.stack([matrices[i] for i in indices])  # (g, m, k)
        tilde = c_tilde @ stack  # batched (g, m, k)
        # Least-squares intensities via the batched pseudoinverse; pinv
        # handles rank deficiency (e.g. two flows with identical paths).
        pinv = np.linalg.pinv(tilde)  # (g, k, m)
        f_hat = np.einsum("gkm,tm->tgk", pinv, residuals)  # (t, g, k)
        fitted = np.einsum("gmk,tgk->tgm", tilde, f_hat)  # (t, g, m)
        leftover = residuals[:, None, :] - fitted
        spe_after[:, indices] = np.einsum("tgm,tgm->tg", leftover, leftover)
        for position, index in enumerate(indices):
            intensities[index] = f_hat[:, position, :]

    winners = np.fromiter(
        (_greedy_winner(spe_after[t]) for t in range(num_steps)),
        dtype=np.int64,
        count=num_steps,
    )
    if np.any(winners < 0):
        raise ModelError(
            "all hypotheses degenerate in the residual subspace"
        )
    magnitudes = tuple(
        intensities[winner][t] for t, winner in enumerate(winners)
    )
    return MultiFlowBlockIdentification(
        hypothesis_indices=winners,
        magnitudes=magnitudes,
        residual_spe=spe_after[np.arange(num_steps), winners],
        spe_after=spe_after,
    )


def identify_multi_flow(
    model: SubspaceModel,
    hypotheses: Sequence[np.ndarray],
    measurement: np.ndarray,
) -> MultiFlowIdentification:
    """Identify among multi-flow hypotheses (paper §7.2).

    Each hypothesis is an ``(m, k_i)`` matrix ``Θ_i`` whose columns are
    the unit-norm signatures of the flows participating in that anomaly;
    the anomaly intensity becomes a vector ``f_i`` estimated by least
    squares in the residual subspace.  The winner minimizes the remaining
    residual energy, exactly as in the single-flow case.

    The per-hypothesis algebra is batched (see
    :func:`identify_multi_flow_block`); tests pin agreement with the
    literal greedy loop over ``lstsq`` solves.
    """
    measurement = np.asarray(measurement, dtype=np.float64)
    if measurement.ndim != 1:
        raise ModelError(
            f"measurement must be one vector of shape ({model.num_links},), "
            f"got shape {measurement.shape}; use identify_multi_flow_block "
            "for a block of timesteps"
        )
    block = identify_multi_flow_block(model, hypotheses, measurement)
    return MultiFlowIdentification(
        hypothesis_index=int(block.hypothesis_indices[0]),
        magnitudes=np.asarray(block.magnitudes[0]),
        residual_spe=float(block.residual_spe[0]),
    )


def _identify_multi_flow_loop(
    model: SubspaceModel,
    hypotheses: Sequence[np.ndarray],
    measurement: np.ndarray,
) -> MultiFlowIdentification:
    """Reference greedy loop (pre-vectorization implementation).

    One projection and one ``lstsq`` per hypothesis; kept for the
    equivalence regression tests and benchmarks.
    """
    matrices = _check_hypotheses(hypotheses, model.num_links)
    measurement = np.asarray(measurement, dtype=np.float64)
    residual = model.residual(measurement)
    c_tilde = model.anomalous_projector

    best_index = -1
    best_spe = np.inf
    best_f: np.ndarray | None = None
    for index, theta in enumerate(matrices):
        theta_tilde = c_tilde @ theta
        f_hat, *_ = np.linalg.lstsq(theta_tilde, residual, rcond=None)
        leftover = residual - theta_tilde @ f_hat
        spe = float(leftover @ leftover)
        if spe < best_spe - _SPE_TIEBREAK:
            best_index = index
            best_spe = spe
            best_f = f_hat
    if best_index < 0:
        raise ModelError("all hypotheses degenerate in the residual subspace")
    return MultiFlowIdentification(
        hypothesis_index=best_index,
        magnitudes=np.asarray(best_f),
        residual_spe=best_spe,
    )


def _check_directions(model: SubspaceModel, directions: np.ndarray) -> np.ndarray:
    theta = np.asarray(directions, dtype=np.float64)
    if theta.ndim != 2:
        raise ModelError(
            f"anomaly directions must form a matrix, got shape {theta.shape}"
        )
    if theta.shape[0] != model.num_links:
        raise ModelError(
            f"anomaly directions have {theta.shape[0]} rows, expected "
            f"{model.num_links}"
        )
    return theta
