"""Imitation error and task success predicates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statespace import Trajectory

CRITERION_KINDS = (
    "terminal-distance",
    "terminal-angle",
    "cumulative-proximity",
    "cumulative-alignment",
)


@dataclass(frozen=True)
class SuccessCriterion:
    """Task success predicate over the object part of a trajectory.

    extractor picks the object-state dims that feed the predicate.  All
    comparisons are strict, so a value exactly at the threshold fails.

    * terminal-distance:     |extracted(T)|_2 < threshold
    * terminal-angle:        extracted(T)[0] > threshold
    * cumulative-proximity:  #steps with |extracted(t)|_2 < threshold  > count_threshold
    * cumulative-alignment:  #steps with extracted(t)[0] > threshold   > count_threshold

    Distance kinds expect the extracted dims to already encode the relative
    quantity (e.g. object position minus goal).  Alignment reads the first
    extracted dim, the convention for frames rotated so the goal is axis 0.
    """

    kind: str
    threshold: float
    count_threshold: int = 1
    extractor: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if len(self.extractor) < 1:
            raise ValueError("extractor needs at least one object dim")
        if self.count_threshold < 0:
            raise ValueError(f"count_threshold must be >= 0, got {self.count_threshold}")


@dataclass(frozen=True)
class SuccessResult:
    success: bool
    rho_sum: int  # satisfied-step count (0 or 1 for terminal kinds)


def imitation_error(reference: np.ndarray, demo: np.ndarray) -> float:
    """Mean per-step L1 distance between two equally long robot trajectories."""
    ref = np.asarray(reference, dtype=np.float64)
    dem = np.asarray(demo, dtype=np.float64)
    if ref.shape != dem.shape or ref.ndim != 2:
        raise ValueError(f"trajectories must share a (T, n) shape, got {ref.shape} vs {dem.shape}")
    return float(np.mean(np.sum(np.abs(ref - dem), axis=1)))


def _extracted(traj: Trajectory, criterion: SuccessCriterion) -> np.ndarray:
    m = traj.x_o.shape[1]
    for d in criterion.extractor:
        if not (0 <= d < m):
            raise ValueError(f"extractor dim {d} out of range for object dimension {m}")
    return traj.x_o[:, list(criterion.extractor)]


def evaluate_success(traj: Trajectory, criterion: SuccessCriterion) -> SuccessResult:
    """Apply a success predicate to one executed trajectory."""
    vals = _extracted(traj, criterion)
    if criterion.kind == "terminal-distance":
        ok = bool(np.linalg.norm(vals[-1]) < criterion.threshold)
        return SuccessResult(ok, int(ok))
    if criterion.kind == "terminal-angle":
        ok = bool(vals[-1, 0] > criterion.threshold)
        return SuccessResult(ok, int(ok))
    if criterion.kind == "cumulative-proximity":
        rho = np.linalg.norm(vals, axis=1) < criterion.threshold
    else:  # cumulative-alignment
        rho = vals[:, 0] > criterion.threshold
    total = int(np.count_nonzero(rho))
    return SuccessResult(total > criterion.count_threshold, total)


def success_rate(trajectories: Sequence[Trajectory], criterion: SuccessCriterion) -> float:
    """Percentage of trajectories that satisfy the criterion."""
    if len(trajectories) == 0:
        raise ValueError("success_rate needs at least one trajectory")
    wins = sum(evaluate_success(t, criterion).success for t in trajectories)
    return 100.0 * wins / len(trajectories)
