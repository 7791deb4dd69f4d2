"""Analytical least-squares fit of lifted linear reference dynamics.

The one-step map in observable space, g(x(t+1)) ~= K g(x(t)), is fit in
closed form: K = A G+ where A and G accumulate the lifted outer products
g(x(t+1)) g(x(t))^T and g(x(t)) g(x(t))^T over all consecutive pairs, each
trajectory weighted by 1 / (N (T_i - 1)) so trajectory count and length do
not bias the solution.  G+ is a truncated-SVD pseudoinverse.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .lifting import LiftingSpec, ObservableVector, _raw_rows, dimension, lift_matrix, object_slice, robot_slice
from .statespace import CompositeState, DemonstrationSet, StateLayout, require_valid

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitAccumulators:
    """Weighted sums A and G (both p x p) and the number of pairs they saw."""

    A: np.ndarray
    G: np.ndarray
    pair_count: int


@dataclass(frozen=True)
class FitMeta:
    n_demos: int
    n_pairs: int
    wall_time_s: float
    rank: int
    cond: float


@dataclass(frozen=True)
class KoopmanModel:
    """Lifted linear one-step model: g(t+1) = K g(t)."""

    K: np.ndarray
    spec: LiftingSpec
    layout: StateLayout
    fit_meta: FitMeta | None = None

    def __post_init__(self):
        K = np.array(self.K, dtype=np.float64, copy=True)
        p = dimension(self.spec)
        if K.shape != (p, p):
            raise ValueError(f"K must be ({p}, {p}) for this lifting, got {K.shape}")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)
        if self.layout != self.spec.layout:
            raise ValueError("model layout does not match the lifting spec layout")


def default_pinv_tolerance(p: int) -> float:
    """Relative singular-value cutoff: machine epsilon times the lifted dimension."""
    return float(np.finfo(np.float64).eps) * p


def _lifted(demos: DemonstrationSet, spec: LiftingSpec):
    """Validate the set, then yield each trajectory's raw (T, n+m) and lifted (T, p) rows, in order."""
    if demos.layout != spec.layout:
        raise ValueError("demonstration layout does not match the lifting spec layout")
    require_valid(demos)
    for i, traj in enumerate(demos.trajectories):
        raw = np.concatenate([traj.x_r, traj.x_o], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            phi = lift_matrix(spec, raw)
        if not np.isfinite(phi).all():
            raise ValueError(f"lifted values overflow in trajectory {i}")
        yield raw, phi


def accumulate(demos: DemonstrationSet, spec: LiftingSpec) -> FitAccumulators:
    """Build the weighted accumulators A and G over all consecutive pairs.

    Each trajectory's contribution is added as soon as it is computed, in
    trajectory order then time order, so the sums are bit-reproducible.
    """
    p = dimension(spec)
    N = demos.n_demos
    A = np.zeros((p, p))
    G = np.zeros((p, p))
    pair_count = 0
    for _, phi in _lifted(demos, spec):
        pairs = phi.shape[0] - 1
        weight = 1.0 / (N * pairs)
        A += (phi[1:].T @ phi[:-1]) * weight
        G += (phi[:-1].T @ phi[:-1]) * weight
        pair_count += pairs
    return FitAccumulators(A, G, pair_count)


def _svd_pinv(mat: np.ndarray, rel_tolerance: float | None) -> tuple[np.ndarray, int, float]:
    """Truncated-SVD pseudoinverse, its rank and the condition number of the retained part.

    rel_tolerance=None uses default_pinv_tolerance of the matrix size.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    if rel_tolerance is None:
        rel_tolerance = default_pinv_tolerance(mat.shape[0])
    if rel_tolerance < 0:
        raise ValueError(f"rel_tolerance must be >= 0, got {rel_tolerance}")
    U, s, Vt = np.linalg.svd(mat)  # LinAlgError on non-convergence propagates
    cutoff = rel_tolerance * (s[0] if s.size else 0.0)
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (Vt.T * inv_s) @ U.T
    cond = float(s[0] / s[rank - 1]) if rank > 0 else float("inf")
    return pinv, rank, cond


def pseudo_inverse(mat: np.ndarray, rel_tolerance: float) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse with relative singular-value truncation.

    Singular values s_i <= rel_tolerance * s_max are treated as zero.  Returns
    the pseudoinverse and the retained rank.
    """
    pinv, rank, _ = _svd_pinv(mat, rel_tolerance)
    return pinv, rank


def solve_koopman(A: np.ndarray, G: np.ndarray, rel_tolerance: float | None = None) -> tuple[np.ndarray, int]:
    """K = A G+ from accumulators.  rel_tolerance=None uses the default cutoff."""
    pinv, rank, _ = _svd_pinv(G, rel_tolerance)
    return A @ pinv, rank


def fit(demos: DemonstrationSet, spec: LiftingSpec, rel_tolerance: float | None = None) -> KoopmanModel:
    """Fit the lifted linear model analytically: accumulate, then one solve K = A G+."""
    t0 = time.perf_counter()
    acc = accumulate(demos, spec)
    pinv, rank, cond = _svd_pinv(acc.G, rel_tolerance)
    K = acc.A @ pinv
    wall = time.perf_counter() - t0
    meta = FitMeta(
        n_demos=demos.n_demos,
        n_pairs=acc.pair_count,
        wall_time_s=wall,
        rank=rank,
        cond=cond,
    )
    logger.info(
        "fit: pairs=%d p=%d rank=%d cond=%.3e wall=%.4fs",
        acc.pair_count, K.shape[0], rank, cond, wall,
    )
    return KoopmanModel(K=K, spec=spec, layout=spec.layout, fit_meta=meta)


def cost(model: KoopmanModel, demos: DemonstrationSet) -> float:
    """Unweighted imitation cost J(K) = 1/2 sum over pairs of |g(t+1) - K g(t)|^2."""
    J = 0.0
    for _, phi in _lifted(demos, model.spec):
        resid = phi[1:] - phi[:-1] @ model.K.T
        J += 0.5 * float(np.sum(resid * resid))
    return J


def predict_step(model: KoopmanModel, lifted: ObservableVector) -> ObservableVector:
    """One step in observable space: K @ g."""
    p = dimension(model.spec)
    if lifted.values.shape[0] != p:
        raise ValueError(f"lifted vector has length {lifted.values.shape[0]}, model expects {p}")
    return ObservableVector(model.K @ lifted.values, model.spec)


def rollout(
    model: KoopmanModel,
    init: CompositeState,
    horizon: int,
    mode: str = "linear",
) -> np.ndarray:
    """Roll the model forward; return the robot reference, shape (horizon, n).

    mode="linear" propagates purely in observable space (the default: the
    lifted state is never rebuilt from its slices).  mode="relift" extracts
    the raw state after each step and lifts it again, re-imposing the
    polynomial relations between slots.  One reference is a batch of one of
    the lockstep rollout.
    """
    return _rollout(model, [init], horizon, mode)[:, 0]


def _rollout(model: KoopmanModel, inits, horizon: int, mode: str) -> np.ndarray:
    """The references of B initial composite states in lockstep, shape (horizon, B, n).

    Each step multiplies the (B, 1, p) stack of lifted rows by K^T, one
    product per row, so each reference rounds exactly as a rollout of its own;
    for one row that product equals K @ g bit for bit.
    """
    if mode not in ("linear", "relift"):
        raise ValueError(f"unknown rollout mode {mode!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    spec, K_T = model.spec, model.K.T
    rs = robot_slice(spec)
    g = lift_matrix(spec, _raw_rows(spec, inits))
    if mode == "linear":
        G = np.empty((horizon, g.shape[0], 1, g.shape[1]))
        G[0, :, 0] = g
        steps = list(G)
        with np.errstate(all="ignore"):
            for t in range(1, horizon):
                np.matmul(steps[t - 1], K_T, out=steps[t])
        finite = np.isfinite(G.reshape(horizon, -1)[1:]).all(axis=1)
        if not finite.all():
            raise _non_finite_reference(model, int(np.argmin(finite)) + 2, horizon)
        return G[:, :, 0, rs].copy()
    os_ = object_slice(spec)
    out = np.empty((horizon, g.shape[0], model.layout.n))
    out[0] = g[:, rs]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, horizon):
            g = (g[:, None] @ K_T)[:, 0]
            if not np.isfinite(g).all():
                raise _non_finite_reference(model, t + 1, horizon)
            g = lift_matrix(spec, np.concatenate([g[:, rs], g[:, os_]], axis=1))
            out[t] = g[:, rs]
    return out


def _non_finite_reference(model: KoopmanModel, step: int, horizon: int) -> ValueError:
    rho = float(np.max(np.abs(np.linalg.eigvals(model.K))))
    return ValueError(
        f"non-finite reference state at step {step} of {horizon} "
        f"(spectral radius of K {rho:.6g} {'>' if rho > 1 else '<='} 1)"
    )


def prediction_errors(model: KoopmanModel, demos: DemonstrationSet) -> np.ndarray:
    """Per-pair one-step state prediction errors |x_hat(t+1) - x(t+1)|_2.

    Predictions are made in observable space and compared on the raw state
    slots, so errors are comparable across lifting kinds.
    """
    rs = robot_slice(model.spec)
    os_ = object_slice(model.spec)
    errs = []
    for raw, phi in _lifted(demos, model.spec):
        pred = phi[:-1] @ model.K.T
        diff = np.concatenate([pred[:, rs] - raw[1:, : model.layout.n],
                               pred[:, os_] - raw[1:, model.layout.n :]], axis=1)
        errs.append(np.sqrt(np.sum(diff * diff, axis=1)))
    return np.concatenate(errs)
