"""Imitation error and task success predicates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statespace import Trajectory, _array, _count, _items, _real

CRITERION_KINDS = ("terminal-distance", "cumulative-proximity")


@dataclass(frozen=True)
class SuccessCriterion:
    """Task success predicate over the object part of a trajectory.

    extractor picks the object-state dims that feed the predicate.  All
    comparisons are strict, so a value exactly at the threshold fails.

    * terminal-distance:     |extracted(T)|_2 < threshold
    * cumulative-proximity:  #steps with |extracted(t)|_2 < threshold  > count_threshold

    Both expect the extracted dims to already encode the relative quantity
    (e.g. object position minus goal).
    """

    kind: str
    threshold: float
    count_threshold: int = 1
    extractor: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        object.__setattr__(self, "threshold", _real("threshold", self.threshold, 0, strict=True))
        dims = tuple(_count(f"extractor[{i}]", d, 0) for i, d in enumerate(_items("extractor", self.extractor, 1)))
        object.__setattr__(self, "extractor", dims)
        object.__setattr__(self, "count_threshold", _count("count_threshold", self.count_threshold, 0))


@dataclass(frozen=True)
class SuccessResult:
    """Outcome of one trajectory under a criterion.

    closest is how near the trajectory came to its threshold at any step:
    the smallest extracted distance.
    """

    success: bool
    rho_sum: int  # satisfied-step count (0 or 1 for terminal kinds)
    closest: float


def imitation_error(reference: np.ndarray, demo: np.ndarray) -> float:
    """Mean per-step L1 distance between two (T, n) robot trajectories, T >= 1; non-finite entries are allowed."""
    ref = _array("reference", reference, (None, None), finite=False)
    if len(ref) == 0:
        raise ValueError(f"reference must have at least one step, got shape {ref.shape}")
    dem = _array("demo", demo, ref.shape, finite=False)
    return float(np.mean(np.sum(np.abs(ref - dem), axis=1)))


def _extracted(traj: Trajectory, criterion: SuccessCriterion) -> np.ndarray:
    if traj.horizon == 0:
        raise ValueError("trajectory must have at least one state, got 0")
    m = traj.x_o.shape[1]
    for d in criterion.extractor:
        if d >= m:
            raise ValueError(f"extractor dim {d} out of range for object dimension {m}")
    return traj.x_o[:, list(criterion.extractor)]


def evaluate_success(traj: Trajectory, criterion: SuccessCriterion) -> SuccessResult:
    """Apply a success predicate to one executed trajectory."""
    vals = _extracted(traj, criterion)
    score = np.linalg.norm(vals, axis=1)
    closest = float(np.min(score))
    if criterion.kind == "terminal-distance":
        # the final row's own 1-D norm, which may round apart from its row norm
        ok = bool(np.linalg.norm(vals[-1]) < criterion.threshold)
        return SuccessResult(ok, int(ok), closest)
    total = int(np.count_nonzero(score < criterion.threshold))
    return SuccessResult(total > criterion.count_threshold, total, closest)


def outcome_summary(results: Sequence[SuccessResult], criterion: SuccessCriterion) -> str:
    """One line on a batch: the success count and, over the failed runs, the
    range of satisfied steps and of `closest`, each against its threshold."""
    results = _items("results", results, of=SuccessResult)
    failed = [r for r in results if not r.success]
    text = f"{len(results) - len(failed)}/{len(results)} succeeded"
    if not failed:
        return text
    steps = [r.rho_sum for r in failed]
    closest = [r.closest for r in failed]
    need_steps = f"> {criterion.count_threshold}" if criterion.kind == "cumulative-proximity" else "1"
    return (
        f"{text}; failed runs: satisfied steps {min(steps)}..{max(steps)} (need {need_steps}), "
        f"closest {min(closest):.4g}..{max(closest):.4g} (need < {criterion.threshold:g})"
    )


def success_rate(trajectories: Sequence[Trajectory], criterion: SuccessCriterion) -> float:
    """Percentage of trajectories that satisfy the criterion."""
    trajectories = _items("trajectories", trajectories, 1, Trajectory)
    wins = sum(evaluate_success(t, criterion).success for t in trajectories)
    return 100.0 * wins / len(trajectories)
