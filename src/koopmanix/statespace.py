"""Composite robot/object states, trajectories, and demonstration sets.

A composite state stacks the robot configuration x_r (length n) and the
task-object configuration x_o (length m).  Torques actuate transitions, so a
trajectory of T states carries T-1 torque vectors.

A trajectory is three read-only arrays, x_r (T, n), x_o (T, m) and torques
(T-1, a) or None, and every module reads those; its `states` tuple of
CompositeStates is a view derived from them on each access.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def _is_int(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool: the one integer check of config and file fields."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _frozen(values, name: str, ndim: int = 1) -> np.ndarray:
    """Copy into a read-only float64 array: a vector (ndim 1) or a (T, width) matrix (ndim 2)."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != ndim:
        shape = "a 1-D vector" if ndim == 1 else "a (T, width) matrix"
        raise ValueError(f"{name} must be {shape}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _stacked(vectors: list[np.ndarray], name: str) -> np.ndarray:
    """(T, width) matrix of T vectors; a width that differs from step 0's is an error naming its step."""
    for t, vec in enumerate(vectors):
        if vec.shape != vectors[0].shape:
            raise ValueError(f"{name} length {vec.shape[0]} at step {t} != length {vectors[0].shape[0]} at step 0")
    return np.stack(vectors) if vectors else np.empty((0, 0))


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
        object.__setattr__(self, "x_r", _frozen(self.x_r, "x_r"))
        object.__setattr__(self, "x_o", _frozen(self.x_o, "x_o"))

    @property
    def full(self) -> np.ndarray:
        """Concatenated [x_r | x_o]."""
        return np.concatenate([self.x_r, self.x_o])


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """T composite states plus the T-1 torques that produced the transitions.

    Trajectory(states, torques) stacks CompositeStates and torque vectors
    into read-only arrays x_r (T, n), x_o (T, m) and torques (T-1, a), or
    None for systems recorded without actuation; `from_arrays` takes the
    arrays directly.  torques[t] actuates the transition from row t to t+1.
    """

    x_r: np.ndarray
    x_o: np.ndarray
    torques: np.ndarray | None = None

    def __init__(self, states, torques=None):
        states = tuple(states)
        if not all(isinstance(s, CompositeState) for s in states):
            raise ValueError("states must contain CompositeState entries")
        if torques is not None:
            torques = _stacked([_frozen(tau, "torque") for tau in torques], "torque")
        self._freeze(_stacked([s.x_r for s in states], "x_r"), _stacked([s.x_o for s in states], "x_o"), torques)

    @classmethod
    def from_arrays(cls, x_r, x_o, torques=None) -> "Trajectory":
        """Build from x_r (T, n), x_o (T, m) and torques (T-1, a) or None; the arrays are copied."""
        traj = cls.__new__(cls)
        traj._freeze(x_r, x_o, torques)
        return traj

    @classmethod
    def _adopt(cls, x_r, x_o, torques) -> "Trajectory":
        """Wrap read-only float64 blocks x_r (T, n), x_o (T, m) and torques (T-1, a) uncopied.

        For arrays the caller built, made read-only and no longer writes.
        """
        traj = cls.__new__(cls)
        object.__setattr__(traj, "x_r", x_r)
        object.__setattr__(traj, "x_o", x_o)
        object.__setattr__(traj, "torques", torques)
        return traj

    def _freeze(self, x_r, x_o, torques) -> None:
        x_r, x_o = _frozen(x_r, "x_r", 2), _frozen(x_o, "x_o", 2)
        if x_r.shape[0] != x_o.shape[0]:
            raise ValueError(f"x_r has {x_r.shape[0]} rows but x_o has {x_o.shape[0]}")
        object.__setattr__(self, "x_r", x_r)
        object.__setattr__(self, "x_o", x_o)
        object.__setattr__(self, "torques", None if torques is None else _frozen(torques, "torques", 2))

    @property
    def horizon(self) -> int:
        return self.x_r.shape[0]

    @property
    def states(self) -> tuple[CompositeState, ...]:
        """One CompositeState per row, built on each access."""
        return tuple(map(CompositeState, self.x_r, self.x_o))


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


def _row_violations(i: int, widths: list[str], finite: np.ndarray, message: str) -> list[Violation]:
    """Per-row violations in time order; on each row the width messages, then the non-finite one."""
    rows = range(finite.shape[0]) if widths else np.flatnonzero(~finite)
    found = []
    for t in rows:
        found += [Violation(i, int(t), w) for w in widths]
        if not finite[t]:
            found.append(Violation(i, int(t), message))
    return found


def validate(demos: DemonstrationSet) -> ValidationReport:
    """Check every invariant of a demonstration set; report, never raise.

    Violations carry (trajectory index, time index) so a bad entry can be
    located in saved files.  Time indices are 0-based row positions.
    """
    lay = demos.layout
    found: list[Violation] = []
    for i, traj in enumerate(demos.trajectories):
        T = traj.horizon
        if T < 2:
            found.append(Violation(i, None, f"horizon {T} < 2"))
        widths = []
        if traj.x_r.shape[1] != lay.n:
            widths.append(f"x_r length {traj.x_r.shape[1]} != n={lay.n}")
        if traj.x_o.shape[1] != lay.m:
            widths.append(f"x_o length {traj.x_o.shape[1]} != m={lay.m}")
        finite = np.isfinite(traj.x_r).all(axis=1) & np.isfinite(traj.x_o).all(axis=1)
        found += _row_violations(i, widths, finite, "non-finite state entry")
        if traj.torques is not None:
            taus = traj.torques
            if taus.shape[0] != T - 1:
                found.append(Violation(i, None, f"{taus.shape[0]} torques for horizon {T}, expected {T - 1}"))
            widths = [f"torque length {taus.shape[1]} != a={lay.a}"] if taus.shape[1] != lay.a else []
            found += _row_violations(i, widths, np.isfinite(taus).all(axis=1), "non-finite torque entry")
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
        states = [CompositeState(x_r, x_o) for x_r, x_o in zip(traj.x_r, traj.x_o)]
        pairs += [(states[t], states[t + 1], i) for t in range(traj.horizon - 1)]
    return pairs
