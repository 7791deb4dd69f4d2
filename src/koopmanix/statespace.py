"""Composite robot/object states, trajectories, and demonstration sets.

A composite state stacks the robot configuration x_r (length n) and the
task-object configuration x_o (length m).  Torques actuate transitions, so a
trajectory of T states carries T-1 torque vectors.

A trajectory is three read-only arrays, x_r (T, n), x_o (T, m) and torques
(T-1, a) or None, and every module reads those; its `states` tuple of
CompositeStates wraps their rows, uncopied, on each access.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


def _is_int(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool: `_count`'s type test."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(name: str, value, low: int) -> int:
    """value as a Python int if it is an integer at or above low: the one rule of every count, size, seed and horizon."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _is_real(value) -> bool:
    """A real number, Python's or numpy's, that is not a bool: `_real`'s type test."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float(value) -> float:
    """float(value), or an infinity of its sign for an integer past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real(name: str, value, low: float = -math.inf, strict: bool = False) -> float:
    """value as a Python float if it is finite and at or above low, or above it if strict: the one rule of every real."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    number = _float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value}")
    if number < low or (strict and number == low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {number}")
    return number


def _object(label: str, block) -> Mapping:
    """block if it is a mapping (a JSON object), else a ValueError naming label."""
    if not isinstance(block, Mapping):
        raise ValueError(f"{label} must be an object, got {block!r}")
    return block


def _keys(label: str, block, names, optional=()) -> Mapping:
    """block if it is a mapping holding every key in names and none outside names and optional.

    The one rule of every keyed block; anything else is a ValueError naming
    label and the first missing key, else the first unknown key.
    """
    _object(label, block)
    accepted = ", ".join([*names, *optional]) or "none"
    for name in names:
        if name not in block:
            raise ValueError(f"{label}: missing key {name!r}; accepted keys: {accepted}")
    for name in block:
        if name not in names and name not in optional:
            raise ValueError(f"{label}: unknown key {name!r}; accepted keys: {accepted}")
    return block


def _check_shape(name: str, shape: tuple, got: tuple) -> None:
    """Raise unless got has the axes of shape, where an axis of None takes any length."""
    if len(got) != len(shape) or any(want not in (None, n) for want, n in zip(shape, got)):
        text = ", ".join("any" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must have shape ({text}), got {got}")


def _nest(label: str, item, lengths: list, axis: int = 0) -> None:
    """Raise for the first fault of item, in index order, as lists nested len(lengths) deep with real entries.

    Every list at one axis must have the length of the first one there,
    which sets lengths[axis].  A row of Python ints and floats, as
    json.loads gives, passes on one test of its type set; _real words the
    first entry of any other row that is not a real number.
    """
    if isinstance(item, np.ndarray):
        item = item.tolist()
    if not isinstance(item, (list, tuple)):  # a number, word or None where a list belongs has shape ()
        _check_shape(label, lengths[axis:], ())
    _check_shape(label, lengths[axis : axis + 1], (len(item),))
    lengths[axis] = len(item)
    if axis + 1 < len(lengths):
        for i, row in enumerate(item):
            _nest(f"{label}[{i}]", row, lengths, axis + 1)
    elif not set(map(type, item)) <= {int, float}:
        for j, entry in enumerate(item):
            if not _is_real(entry):
                _real(f"{label}[{j}]", entry)


def _array(name: str, value, shape: tuple, finite: bool = True) -> np.ndarray:
    """value as a read-only float64 copy if it is a list or array of shape with real entries, finite if finite.

    The one rule of every number array from a caller or a file.  An axis of
    shape that is None takes any length.  Anything else is a ValueError
    naming the expected and actual shape (`weights[0] must have shape
    (16, 8), got (2, 3)`), else the first entry that is not a real number,
    else the first that is not finite, in _real's words (`K[3][4] must be a
    real number, got True`); a ragged list names its first row whose length
    differs from the first row's.  An integer past the float range reads as
    an infinity, as _real reads it.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        arr = value.astype(np.float64)
    else:
        try:
            _nest(name, value, [None] * len(shape))
        except ValueError as fault:
            try:
                got = np.shape(value)
            except ValueError:  # a ragged list, whose first odd row _nest named
                raise fault from None
            _check_shape(name, shape, got)
            raise
        try:
            arr = np.array(value, dtype=np.float64)
        except OverflowError:
            arr = np.frompyfunc(_float, 1, 1)(np.array(value, dtype=object)).astype(np.float64)
    _check_shape(name, shape, arr.shape)
    if finite and not np.isfinite(arr).all():
        index = np.argwhere(~np.isfinite(arr))[0]
        _real(name + "".join(f"[{i}]" for i in index), functools.reduce(operator.getitem, index, value))
    arr.setflags(write=False)
    return arr


def _adopt(cls, **arrays):
    """A cls instance wrapping read-only float64 arrays the package built and no longer writes, uncopied."""
    obj = cls.__new__(cls)
    for name, arr in arrays.items():
        object.__setattr__(obj, name, arr)
    return obj


@dataclass(frozen=True)
class StateLayout:
    """Dimensions of the composite state.

    n: robot dims, m: object dims (0 for unattended systems), a: torque dims.
    Optional names are cosmetic and must match the dimension counts; an
    empty tuple or list of names reads as None, as a file's does.
    """

    n: int
    m: int
    a: int
    robot_names: tuple[str, ...] | None = None
    object_names: tuple[str, ...] | None = None

    def __post_init__(self):
        for name, low in (("n", 1), ("m", 0), ("a", 1)):
            # a Python int, which JSON can write
            object.__setattr__(self, name, _count(f"layout size {name}", getattr(self, name), low))
        for name in ("robot_names", "object_names"):
            names = getattr(self, name)
            if names is not None:
                if not (isinstance(names, (tuple, list)) and all(isinstance(v, str) for v in names)):
                    raise ValueError(f"{name} must be None or a tuple or list of strings, got {names!r}")
                object.__setattr__(self, name, tuple(names) or None)  # hashable, and equal to a loaded copy
        if self.robot_names is not None and len(self.robot_names) != self.n:
            raise ValueError("robot_names length does not match n")
        if self.object_names is not None and len(self.object_names) != self.m:
            raise ValueError("object_names length does not match m")


@dataclass(frozen=True)
class CompositeState:
    """One time slice: robot part x_r and object part x_o.

    Arrays are copied and frozen, with one exception: the states of
    `Trajectory.states` hold read-only row views of the trajectory's arrays.
    Finiteness is not enforced here so that `validate` can report bad
    entries instead of refusing to construct them.
    """

    x_r: np.ndarray
    x_o: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_r", _array("x_r", self.x_r, (None,), finite=False))
        object.__setattr__(self, "x_o", _array("x_o", self.x_o, (None,), finite=False))

    @classmethod
    def _adopt(cls, x_r, x_o) -> "CompositeState":
        """Wrap read-only float64 vectors x_r and x_o uncopied; positional, as `Trajectory.states` calls it per row."""
        state = cls.__new__(cls)
        object.__setattr__(state, "x_r", x_r)
        object.__setattr__(state, "x_o", x_o)
        return state

    @property
    def full(self) -> np.ndarray:
        """Concatenated [x_r | x_o]."""
        return np.concatenate([self.x_r, self.x_o])


def _check_dims(layout: StateLayout, state: CompositeState) -> None:
    """The one layout check of a state object: its x_r and x_o widths must be layout's n and m."""
    dims = (state.x_r.shape[0], state.x_o.shape[0])
    if dims != (layout.n, layout.m):
        raise ValueError(f"state dims {dims} do not match layout ({layout.n}, {layout.m})")


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
        self._freeze([s.x_r for s in states], [s.x_o for s in states], torques)

    @classmethod
    def from_arrays(cls, x_r, x_o, torques=None) -> "Trajectory":
        """Build from x_r (T, n), x_o (T, m) and torques (T-1, a) or None; the arrays are copied."""
        traj = cls.__new__(cls)
        traj._freeze(x_r, x_o, torques)
        return traj

    def _freeze(self, x_r, x_o, torques) -> None:
        x_r, x_o = _array("x_r", x_r, (None, None), finite=False), _array("x_o", x_o, (None, None), finite=False)
        if x_r.shape[0] != x_o.shape[0]:
            raise ValueError(f"x_r has {x_r.shape[0]} rows but x_o has {x_o.shape[0]}")
        object.__setattr__(self, "x_r", x_r)
        object.__setattr__(self, "x_o", x_o)
        if torques is not None:
            torques = _array("torques", torques, (None, None), finite=False)
        object.__setattr__(self, "torques", torques)

    @property
    def horizon(self) -> int:
        return self.x_r.shape[0]

    @property
    def states(self) -> tuple[CompositeState, ...]:
        """One CompositeState per row, built on each access from read-only row views of x_r and x_o."""
        return tuple(map(CompositeState._adopt, self.x_r, self.x_o))


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


def _row_violations(i: int, widths: list[str], arrays: tuple[np.ndarray, ...], message: str) -> list[Violation]:
    """Per-row violations in time order; on each row the width messages, then the non-finite one.

    A row is non-finite if any of the (T, ·) arrays has a non-finite entry
    in it.  Arrays of the right width that are finite throughout are
    cleared by one whole-array check each, with no per-row work.
    """
    if not widths and all([np.isfinite(arr).all() for arr in arrays]):
        return []
    finite = np.logical_and.reduce([np.isfinite(arr).all(axis=1) for arr in arrays])
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
        found += _row_violations(i, widths, (traj.x_r, traj.x_o), "non-finite state entry")
        if traj.torques is not None:
            taus = traj.torques
            if taus.shape[0] != T - 1:
                found.append(Violation(i, None, f"{taus.shape[0]} torques for horizon {T}, expected {T - 1}"))
            widths = [f"torque length {taus.shape[1]} != a={lay.a}"] if taus.shape[1] != lay.a else []
            found += _row_violations(i, widths, (taus,), "non-finite torque entry")
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
