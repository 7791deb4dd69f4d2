"""Imitation error and task success predicates."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statespace import Trajectory, _is_int

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
        real = isinstance(self.threshold, numbers.Real) and not isinstance(self.threshold, bool)
        if not (real and math.isfinite(self.threshold)):
            raise ValueError(f"threshold must be a finite real number, got {self.threshold!r}")
        if len(self.extractor) < 1:
            raise ValueError("extractor needs at least one object dim")
        if not all(map(_is_int, self.extractor)):
            raise ValueError(f"extractor dims must be integers, got {self.extractor!r}")
        if not _is_int(self.count_threshold):
            raise ValueError(f"count_threshold must be an integer, got {self.count_threshold!r}")
        if self.count_threshold < 0:
            raise ValueError(f"count_threshold must be >= 0, got {self.count_threshold}")


@dataclass(frozen=True)
class SuccessResult:
    """Outcome of one trajectory under a criterion.

    closest is how near the trajectory came to its threshold at any step:
    the smallest extracted distance, or the largest extracted value for the
    alignment kinds.
    """

    success: bool
    rho_sum: int  # satisfied-step count (0 or 1 for terminal kinds)
    closest: float


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
    if criterion.kind in ("terminal-distance", "cumulative-proximity"):
        score = np.linalg.norm(vals, axis=1)
        closest = float(np.min(score))
    else:  # the alignment kinds read the first extracted dim
        score = vals[:, 0]
        closest = float(np.max(score))
    if criterion.kind == "terminal-distance":
        ok = bool(np.linalg.norm(vals[-1]) < criterion.threshold)
        return SuccessResult(ok, int(ok), closest)
    if criterion.kind == "terminal-angle":
        ok = bool(vals[-1, 0] > criterion.threshold)
        return SuccessResult(ok, int(ok), closest)
    if criterion.kind == "cumulative-proximity":
        rho = score < criterion.threshold
    else:  # cumulative-alignment
        rho = score > criterion.threshold
    total = int(np.count_nonzero(rho))
    return SuccessResult(total > criterion.count_threshold, total, closest)


def outcome_summary(results: Sequence[SuccessResult], criterion: SuccessCriterion) -> str:
    """One line on a batch: the success count and, over the failed runs, the
    range of satisfied steps and of `closest`, each against its threshold."""
    failed = [r for r in results if not r.success]
    text = f"{len(results) - len(failed)}/{len(results)} succeeded"
    if not failed:
        return text
    cumulative = criterion.kind.startswith("cumulative")
    steps = [r.rho_sum for r in failed]
    closest = [r.closest for r in failed]
    need_steps = f"> {criterion.count_threshold}" if cumulative else "1"
    need_close = f"{'<' if criterion.kind.endswith(('distance', 'proximity')) else '>'} {criterion.threshold:g}"
    return (
        f"{text}; failed runs: satisfied steps {min(steps)}..{max(steps)} (need {need_steps}), "
        f"closest {min(closest):.4g}..{max(closest):.4g} (need {need_close})"
    )


def success_rate(trajectories: Sequence[Trajectory], criterion: SuccessCriterion) -> float:
    """Percentage of trajectories that satisfy the criterion."""
    if len(trajectories) == 0:
        raise ValueError("success_rate needs at least one trajectory")
    wins = sum(evaluate_success(t, criterion).success for t in trajectories)
    return 100.0 * wins / len(trajectories)
