"""Composite robot/object states, trajectories, and demonstration sets.

A composite state stacks the robot configuration x_r (length n) and the
task-object configuration x_o (length m).  Torques actuate transitions, so a
trajectory of T states carries T-1 torque vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _vector(values, name: str) -> np.ndarray:
    """Copy into a read-only float64 1-D array."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateLayout:
    """Dimensions of the composite state.

    n: robot dims, m: object dims (0 for unattended systems), a: torque dims.
    Optional names are cosmetic and must match the dimension counts.
    """

    n: int
    m: int
    a: int
    robot_names: tuple[str, ...] | None = None
    object_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"robot dimension n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValueError(f"object dimension m must be >= 0, got {self.m}")
        if self.a < 1:
            raise ValueError(f"actuation dimension a must be >= 1, got {self.a}")
        if self.robot_names is not None and len(self.robot_names) != self.n:
            raise ValueError("robot_names length does not match n")
        if self.object_names is not None and len(self.object_names) != self.m:
            raise ValueError("object_names length does not match m")


@dataclass(frozen=True)
class CompositeState:
    """One time slice: robot part x_r and object part x_o.

    Arrays are copied and frozen.  Finiteness is not enforced here so that
    `validate` can report bad entries instead of refusing to construct them.
    """

    x_r: np.ndarray
    x_o: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_r", _vector(self.x_r, "x_r"))
        object.__setattr__(self, "x_o", _vector(self.x_o, "x_o"))

    @property
    def full(self) -> np.ndarray:
        """Concatenated [x_r | x_o]."""
        return np.concatenate([self.x_r, self.x_o])


@dataclass(frozen=True)
class Trajectory:
    """T composite states plus the T-1 torques that produced the transitions.

    torques[t] actuates the transition states[t] -> states[t+1].  Systems
    recorded without actuation may pass torques=None.
    """

    states: tuple[CompositeState, ...]
    torques: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        states = tuple(self.states)
        if not all(isinstance(s, CompositeState) for s in states):
            raise ValueError("states must contain CompositeState entries")
        object.__setattr__(self, "states", states)
        if self.torques is not None:
            taus = tuple(_vector(tau, "torque") for tau in self.torques)
            object.__setattr__(self, "torques", taus)

    @property
    def horizon(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class DemonstrationSet:
    """N trajectories sharing one layout."""

    layout: StateLayout
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if len(trajs) < 1:
            raise ValueError("a demonstration set needs at least one trajectory")
        object.__setattr__(self, "trajectories", trajs)

    @property
    def n_demos(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class Violation:
    """One invariant breach: trajectory index, time index (None if global), message."""

    traj: int | None
    t: int | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(demos: DemonstrationSet) -> ValidationReport:
    """Check every invariant of a demonstration set; report, never raise.

    Violations carry (trajectory index, time index) so a bad entry can be
    located in saved files.  Time indices are 0-based positions in `states`.
    """
    lay = demos.layout
    found: list[Violation] = []
    for i, traj in enumerate(demos.trajectories):
        T = traj.horizon
        if T < 2:
            found.append(Violation(i, None, f"horizon {T} < 2"))
        for t, s in enumerate(traj.states):
            if s.x_r.shape[0] != lay.n:
                found.append(Violation(i, t, f"x_r length {s.x_r.shape[0]} != n={lay.n}"))
            if s.x_o.shape[0] != lay.m:
                found.append(Violation(i, t, f"x_o length {s.x_o.shape[0]} != m={lay.m}"))
            if not np.isfinite(s.x_r).all() or not np.isfinite(s.x_o).all():
                found.append(Violation(i, t, "non-finite state entry"))
        if traj.torques is not None:
            if len(traj.torques) != T - 1:
                found.append(Violation(i, None, f"{len(traj.torques)} torques for horizon {T}, expected {T - 1}"))
            for t, tau in enumerate(traj.torques):
                if tau.shape[0] != lay.a:
                    found.append(Violation(i, t, f"torque length {tau.shape[0]} != a={lay.a}"))
                if not np.isfinite(tau).all():
                    found.append(Violation(i, t, "non-finite torque entry"))
    return ValidationReport(tuple(found))


def require_valid(demos: DemonstrationSet) -> None:
    """Raise ValueError naming the first violation, located, and the total count."""
    report = validate(demos)
    if not report.ok:
        v = report.violations[0]
        raise ValueError(
            f"invalid demonstrations ({len(report.violations)} violations; "
            f"first: traj {v.traj}, t {v.t}: {v.message})"
        )


def consecutive_pairs(
    demos: DemonstrationSet,
) -> list[tuple[CompositeState, CompositeState, int]]:
    """All (x(t), x(t+1), trajectory index) transition pairs.

    Order is contractual: trajectories in set order, time order within each.
    Pairs never straddle trajectory boundaries.
    """
    require_valid(demos)
    pairs = []
    for i, traj in enumerate(demos.trajectories):
        for t in range(traj.horizon - 1):
            pairs.append((traj.states[t], traj.states[t + 1], i))
    return pairs
