"""Analytical least-squares fit of lifted linear reference dynamics.

The one-step map in observable space, g(x(t+1)) ~= K g(x(t)), is fit in
closed form: K = A G+ where A and G accumulate the lifted outer products
g(x(t+1)) g(x(t))^T and g(x(t)) g(x(t))^T over all consecutive pairs, each
trajectory weighted by 1 / (N (T_i - 1)) so trajectory count and length do
not bias the solution.  G+ is a truncated-SVD pseudoinverse.

A reference is rolled out by propagating the lifted initial state linearly,
g(t+1) = K g(t), and reading the robot slots of each step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .lifting import LiftingSpec, dimension, lift_matrix, object_slice, robot_slice
from .statespace import (CompositeState, DemonstrationSet, StateLayout, _array, _check_dims, _check_shape, _count,
                         _real, require_valid)

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

    def __post_init__(self):
        for name in ("n_demos", "n_pairs", "rank"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 0))
        object.__setattr__(self, "wall_time_s", _real("wall_time_s", self.wall_time_s))
        # a solve that keeps no singular value has condition number +inf
        object.__setattr__(self, "cond", math.inf if self.cond == math.inf else _real("cond", self.cond))


@dataclass(frozen=True)
class KoopmanModel:
    """Lifted linear one-step model: g(t+1) = K g(t)."""

    K: np.ndarray
    spec: LiftingSpec
    layout: StateLayout
    fit_meta: FitMeta | None = None

    def __post_init__(self):
        p = dimension(self.spec)
        object.__setattr__(self, "K", _array("K", self.K, (p, p)))
        if self.layout != self.spec.layout:
            raise ValueError("model layout does not match the lifting spec layout")


def _check_layout(model: KoopmanModel, layout: StateLayout, source: str, name: str = "the model") -> None:
    """Refuse a model whose state sizes (n, m) are not layout's; the error names source, and the model as name."""
    need = model.layout
    if (layout.n, layout.m) != (need.n, need.m):
        raise ValueError(f"{source} has layout (n={layout.n}, m={layout.m}); {name} needs (n={need.n}, m={need.m})")


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


def _tolerance(name: str, value) -> float:
    """value as a relative singular-value cutoff: a real in [0, 1), the one check of rel_tolerance and pinv_tol."""
    tolerance = _real(name, value, 0)
    if tolerance >= 1:
        # the cutoff tolerance * s[0] would drop every singular value
        raise ValueError(f"{name} must be < 1, got {tolerance}")
    return tolerance


def _svd_pinv(mat: np.ndarray, rel_tolerance: float | None) -> tuple[np.ndarray, int, float]:
    """Truncated-SVD pseudoinverse, its rank and the condition number of the retained part.

    rel_tolerance=None uses default_pinv_tolerance of the matrix size.  mat, the
    accumulator G, must be a finite square matrix.
    """
    mat = _array("G", mat, (None, None))
    _check_shape("G", (len(mat),) * 2, mat.shape)
    if rel_tolerance is None:
        rel_tolerance = default_pinv_tolerance(mat.shape[0])
    rel_tolerance = _tolerance("rel_tolerance", rel_tolerance)
    U, s, Vt = np.linalg.svd(mat)  # LinAlgError on non-convergence propagates
    cutoff = rel_tolerance * (s[0] if s.size else 0.0)
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (Vt.T * inv_s) @ U.T
    cond = float(s[0] / s[rank - 1]) if rank > 0 else float("inf")
    return pinv, rank, cond


def solve_koopman(A: np.ndarray, G: np.ndarray, rel_tolerance: float | None = None) -> tuple[np.ndarray, int]:
    """K = A G+ from finite (p, p) accumulators.  rel_tolerance=None uses the default cutoff."""
    pinv, rank, _ = _svd_pinv(G, rel_tolerance)
    return _array("A", A, pinv.shape) @ pinv, rank


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


def rollout(model: KoopmanModel, init: CompositeState, horizon: int) -> np.ndarray:
    """Roll the model forward; return the robot reference, shape (horizon, n).

    The lifted initial state is propagated purely in observable space,
    g(t+1) = K g(t), and never rebuilt from its slices.  One reference is a
    batch of one of the lockstep rollout.
    """
    _check_dims(model.layout, init)
    return _rollout(model, init.x_r[None], init.x_o[None], horizon)[:, 0]


def _rollout(model: KoopmanModel, x_r: np.ndarray, x_o: np.ndarray, horizon: int) -> np.ndarray:
    """The references from B initial rows x_r (B, n) and x_o (B, m) in lockstep, shape (horizon, B, n).

    Each step multiplies the (B, 1, p) stack of lifted rows by K^T, one
    product per row, so each reference rounds exactly as a rollout of its own;
    for one row that product equals K @ g bit for bit.
    """
    horizon = _count("horizon", horizon, 1)
    spec, K_T = model.spec, model.K.T
    rs = robot_slice(spec)
    g = lift_matrix(spec, np.concatenate([x_r, x_o], axis=1))
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
