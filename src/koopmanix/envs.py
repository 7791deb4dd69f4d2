"""Synthetic actuated environments, scripted experts, and closed-loop execution.

Four kinds:

* ``linear``               exact discrete map x(t+1) = M x(t) + B tau
* ``pendulum``             1-DoF damped pendulum driven to a sampled target angle
* ``vanderpol``            unforced Van der Pol oscillator (prediction benchmark)
* ``pointmass-relocation`` 2-D point-mass hand that picks up a ball and carries
  it to a sampled target; the ball attaches when the hand comes within the
  attach radius and tracks the hand from then on

Continuous kinds advance with one semi-implicit Euler step per dt: velocity
first, then position with the new velocity.  Object states store positions
relative to the task target so success predicates read distances directly.
Episode difficulty is tuned so the scripted experts are perfect on the
in-distribution samplers; those constants are frozen and tests pin them.
Rollouts, expert and closed loop alike, step B states in lockstep on (B, ...)
arrays; one episode is B = 1.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import koopman
from .controller import ControllerModel, tracking_torque
from .metrics import SuccessCriterion, success_rate
from .statespace import (CompositeState, DemonstrationSet, StateLayout, Trajectory, _adopt, _check_dims, _count,
                         _frozen, _keys, _real)

logger = logging.getLogger(__name__)

Range = tuple[float, float]


class _Kind(NamedTuple):
    """Every fact envs states about one env kind; the per-kind code is `_reset_rows`, `_plant` and `_expert_law`."""

    layout: dict  # StateLayout fields the kind builds; a linear layout's n and a follow its matrix
    params: dict = {}  # every param the plant, expert and reset read, with its default
    sampler: dict = {}  # reset's draws: name -> (in, out) ranges; a linear kind draws init_0 ... init_{n-1}
    inner: int = 0  # EnvState.internal width
    fixed: tuple = ()  # params the factory does not take
    bounds: dict = {}  # params a transition divides by or clips to: name -> (low, strict), the bound each must meet
    gains: dict = {}  # the scripted expert's gains; none for a zero-torque expert
    noise_scale: float = 0.0  # the expert's torque jitter
    criterion: SuccessCriterion | None = None
    takes: tuple = ()  # make_env's keys for a kind without params: linear_env_random's

    @property
    def overrides(self) -> tuple:
        """make_env's keys: takes, else dt and every param the factory takes."""
        return self.takes or ("dt", *(name for name in self.params if name not in self.fixed))


_KINDS = {
    "linear": _Kind({"m": 0}, takes=("dim", "spectral_radius", "seed", "dt")),
    "pendulum": _Kind(
        {"n": 2, "m": 1, "a": 1},
        {"mass": 1.0, "length": 1.0, "gravity": 9.81, "damping": 0.1},
        {"target": ((0.6, 1.4), (1.4, 1.8))},
        inner=1,
        bounds={"mass": (0, True), "length": (0, True)},
        gains={"kp": 16.0, "kd": 8.0},
        criterion=SuccessCriterion("terminal-distance", threshold=0.1, extractor=(0,)),
    ),
    "vanderpol": _Kind(
        {"n": 2, "m": 0, "a": 1},
        {"mu": 0.5},
        # a band around the steady orbit, so demonstrations cover the
        # oscillation rather than the approach transients
        {"x0": ((1.8, 2.2), (2.2, 2.6)), "x1": ((-0.3, 0.3), (-0.3, 0.3))},
    ),
    "pointmass-relocation": _Kind(
        {"n": 4, "m": 4, "a": 2, "robot_names": ("hand_x", "hand_y", "hand_vx", "hand_vy"),
         "object_names": ("ball_rel_x", "ball_rel_y", "ball_vx", "ball_vy")},
        {"hand_mass": 4.0, "ball_mass": 0.18, "damping": 2.0, "attach_radius": 0.2, "tau_limit": 45.0,
         "gravity": 4.0, "hand_start_x": -0.5, "hand_start_y": -0.5, "ball_start_x": 0.0, "ball_start_y": 0.0},
        {"target_x": ((-0.25, 0.25), (-0.25, 0.25)), "target_y": ((0.15, 0.25), (0.25, 0.35))},
        inner=3,
        fixed=("hand_start_x", "hand_start_y", "ball_start_x", "ball_start_y"),
        bounds={"hand_mass": (0, True), "ball_mass": (0, False), "tau_limit": (0, True)},
        # the jitter makes demonstrations cover a band around the nominal
        # flow, so controllers trained on them stay stable when execution
        # wanders off the exact demo states
        gains={"kp_reach": 30.0, "kd_reach": 25.0, "kp_carry": 40.0, "kd_carry": 25.0},
        noise_scale=1.0,
        criterion=SuccessCriterion("cumulative-proximity", threshold=0.10, count_threshold=35, extractor=(0, 1)),
    ),
}
KINDS = tuple(_KINDS)

# pointmass mass variations, as ratios of a varied mass to the reference mass
VARIATIONS = {
    "heavy-object": ("ball_mass", 1.88 / _KINDS["pointmass-relocation"].params["ball_mass"]),
    "light-hand": ("hand_mass", 3.0 / _KINDS["pointmass-relocation"].params["hand_mass"]),
    "heavy-hand": ("hand_mass", 5.0 / _KINDS["pointmass-relocation"].params["hand_mass"]),
}


def _real_rows(name: str, value, what: str, shape: tuple[int, int] | None = None) -> tuple[tuple[float, ...], ...]:
    """value, a matrix or sampler entry as env_spec_to_dict writes it, as rows of Python floats.

    value must be a non-empty list of equal-length lists, of the given shape
    if one is given, or it is a ValueError saying it must be what.  Each
    entry passes _real, named by its indices: `env matrix[0][1]`.
    """
    if not (isinstance(value, (list, tuple)) and len(value) > 0
            and all(isinstance(row, (list, tuple)) and len(row) == len(value[0]) for row in value)
            and shape in (None, (len(value), len(value[0])))):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return tuple(tuple(_real(f"{name}[{i}][{j}]", v) for j, v in enumerate(row)) for i, row in enumerate(value))


def _record(kind) -> _Kind:
    """kind's `_KINDS` record; a kind envs does not build is a ValueError."""
    if kind not in KINDS:
        raise ValueError(f"unknown env kind {kind!r}, expected one of {KINDS}")
    return _KINDS[kind]


@dataclass(frozen=True)
class EnvSpec:
    """Immutable description of one environment instance.

    sampler maps parameter name -> (in-distribution range, out-of-distribution
    range).  A parameter whose two ranges are equal never leaves its range;
    at least one parameter must have disjoint ranges so that distribution
    "out" draws always land outside the in-distribution box.  matrix/input_map
    are used by the linear kind only.
    """

    kind: str
    dt: float
    layout: StateLayout
    params: dict[str, float]
    sampler: dict[str, tuple[Range, Range]]
    matrix: np.ndarray | None = None
    input_map: np.ndarray | None = None

    def __post_init__(self):
        rec = _record(self.kind)
        object.__setattr__(self, "dt", _real(f"{self.kind} dt", self.dt, 0, strict=True))
        params = _keys(f"{self.kind} params", self.params, rec.params)
        for field in ("n", "m", "a"):
            size, got = rec.layout.get(field), getattr(self.layout, field)
            if size is not None and got != size:
                raise ValueError(f"{self.kind} layout needs {field}={size}, got {field}={got}")
        # Python floats, which JSON can write and the plants read as float64
        object.__setattr__(self, "params", {name: _real(f"{self.kind} param {name!r}", value, *rec.bounds.get(name, ()))
                                            for name, value in params.items()})
        sampled = [f"init_{i}" for i in range(self.layout.n)] if self.kind == "linear" else rec.sampler
        sampler, disjoint = {}, 0
        for name, entry in _keys(f"{self.kind} sampler", self.sampler, sampled).items():
            label = f"{self.kind} sampler {name!r}"
            rin, rout = sampler[name] = _real_rows(label, entry, "two [low, high] ranges", (2, 2))
            if not (rin[0] < rin[1] and rout[0] < rout[1]):
                raise ValueError(f"{label} must have low < high in each range, got {entry!r}")
            if rin == rout:
                continue
            if rout[0] < rin[1] and rin[0] < rout[1]:
                raise ValueError(f"in/out ranges for {name!r} overlap")
            disjoint += 1
        if disjoint == 0:
            raise ValueError("at least one sampler parameter needs disjoint in/out ranges")
        object.__setattr__(self, "sampler", sampler)
        if self.kind == "linear":
            if self.matrix is None or self.input_map is None:
                raise ValueError("linear kind needs matrix and input_map")
            M, B = _frozen(self.matrix, "matrix", 2), _frozen(self.input_map, "input_map", 2)
            d = self.layout.n
            if M.shape != (d, d):
                raise ValueError(f"matrix must be ({d}, {d}), got {M.shape}")
            if B.shape != (d, self.layout.a):
                raise ValueError(f"input_map must be ({d}, {self.layout.a}), got {B.shape}")
            if not (np.isfinite(M).all() and np.isfinite(B).all()):
                raise ValueError("matrix and input_map must be finite")
            object.__setattr__(self, "matrix", M)
            object.__setattr__(self, "input_map", B)
        elif self.matrix is not None or self.input_map is not None:
            raise ValueError(f"kind {self.kind!r} does not take matrix/input_map")


@dataclass(frozen=True)
class EnvState:
    """Composite state plus hidden simulator variables.

    internal is kind-specific: () for linear/vanderpol, (theta_target,) for
    pendulum, (target_x, target_y, attached) for the
    pointmass.  t counts completed steps.
    """

    composite: CompositeState
    internal: tuple[float, ...]
    t: int = 0


@dataclass(frozen=True)
class ScriptedExpert:
    """Feedback-law demonstrator.  noise_scale adds seeded torque jitter.

    gains holds exactly the gains the kind's expert reads, as real numbers;
    a zero-torque expert reads none.  noise_scale is a real >= 0.
    """

    kind: str
    gains: dict[str, float]
    noise_scale: float = 0.0

    def __post_init__(self):
        gains = _keys(f"{self.kind} gains", self.gains, _record(self.kind).gains)
        object.__setattr__(self, "gains", {name: _real(f"{self.kind} gain {name!r}", value)
                                           for name, value in gains.items()})
        object.__setattr__(self, "noise_scale", _real(f"{self.kind} noise_scale", self.noise_scale, 0))


# ---------------------------------------------------------------- factories

def linear_env(matrix, input_map=None, dt: float = 1.0) -> EnvSpec:
    """Discrete linear system; dt is nominal (the map itself is the step)."""
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {M.shape}")
    d = M.shape[0]
    B = np.eye(d) if input_map is None else np.asarray(input_map, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"input_map must be 2-D, got shape {B.shape}")
    layout = StateLayout(n=d, m=0, a=B.shape[1])
    sampler = {f"init_{i}": ((-1.0, 1.0), (-1.0, 1.0)) for i in range(d)}
    sampler["init_0"] = ((-1.0, 1.0), (1.0, 1.5))
    return EnvSpec("linear", dt, layout, {}, sampler, matrix=M, input_map=B)


def linear_env_random(dim: int, spectral_radius: float = 0.9, seed: int = 0, dt: float = 1.0) -> EnvSpec:
    """Random stable linear system: a seeded matrix rescaled to the given radius.

    Takes an integer dim >= 1, an integer seed >= 0 and a finite real
    spectral_radius >= 0 (0 gives the zero matrix); anything else is a
    ValueError naming the param, e.g. `linear param 'seed' must be >= 0,
    got -1`.  EnvSpec checks dt.
    """
    dim, seed = _count("linear param 'dim'", dim, 1), _count("linear param 'seed'", seed, 0)
    spectral_radius = _real("linear param 'spectral_radius'", spectral_radius, 0)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    M *= spectral_radius / max(abs(np.linalg.eigvals(M)))
    return linear_env(M, dt=dt)


def _spec(kind: str, /, dt: float = 0.05, **params) -> EnvSpec:
    """kind's spec from its `_KINDS` record, with params in place of the record's defaults."""
    rec = _KINDS[kind]
    _keys(f"{kind} overrides", params, (), rec.overrides)
    return EnvSpec(kind, dt, StateLayout(**rec.layout), rec.params | params, dict(rec.sampler))


def pendulum_env(dt: float = 0.05, **params) -> EnvSpec:
    """Single damped joint; robot state [theta, omega], object state [theta - target].

    Takes mass, length, gravity and damping.
    """
    return _spec("pendulum", dt, **params)


def vanderpol_env(dt: float = 0.05, **params) -> EnvSpec:
    """Van der Pol oscillator with additive forcing on the velocity dim.  Takes mu."""
    return _spec("vanderpol", dt, **params)


def pointmass_env(dt: float = 0.05, **params) -> EnvSpec:
    """2-D relocation: reach the ball, attach, carry it to the sampled target.

    Takes hand_mass, ball_mass, damping, attach_radius, tau_limit and
    gravity.  Robot state [hand_x, hand_y, hand_vx, hand_vy]; object state
    [ball_x - target_x, ball_y - target_y, ball_vx, ball_vy].  The hand and
    ball start at fixed positions; only the target is sampled, and the
    out-of-distribution box shifts target_y past the training range.
    Gravity pulls the hand (plus any carried ball) down the y axis, so
    holding position costs a mass-proportional torque and a controller
    tuned for the wrong mass drifts off the hold instead of parking.  The
    actuator saturates at tau_limit per axis; the free ball rests on the
    table and does not fall.
    """
    return _spec("pointmass-relocation", dt, **params)


def make_env(kind: str, dt: float | None = None, **overrides) -> EnvSpec:
    """Build an environment by kind name (the CLI entry point).

    linear takes dim/spectral_radius/seed (dim 5 by default) and builds a
    seeded stable matrix; other kinds take dt and their factory's params.
    An override the kind does not take is a ValueError here; each value is
    checked by the factory or EnvSpec, whose error names the kind.
    """
    _keys(f"{kind} overrides", overrides, (), _record(kind).overrides)
    args = {"dim": 5} if kind == "linear" else {}
    args.update(overrides)
    if dt is not None:
        args["dt"] = dt
    return linear_env_random(**args) if kind == "linear" else _spec(kind, **args)


# ---------------------------------------------------------------- reset/step

def _reset_rows(spec: EnvSpec, seeds, distribution: str):
    """Start rows x_r (B, n), x_o (B, m), inner (B, k): each seed's draws, in sampler order, read by name."""
    if distribution not in ("in", "out"):
        raise ValueError(f"distribution must be 'in' or 'out', got {distribution!r}")
    ranges = [pair[distribution == "out"] for pair in spec.sampler.values()]
    seeds = [_count("seed", seed, 0) for seed in seeds]
    drawn = np.array([[rng.uniform(lo, hi) for lo, hi in ranges] for rng in map(np.random.default_rng, seeds)])
    d, p, zero = dict(zip(spec.sampler, drawn.T)), spec.params, np.zeros(len(seeds))
    if spec.kind == "linear":
        cols = [d[f"init_{i}"] for i in range(spec.layout.n)], [], []
    elif spec.kind == "vanderpol":
        cols = [d["x0"], d["x1"]], [], []
    elif spec.kind == "pendulum":
        cols = [zero, zero], [0.0 - d["target"]], [d["target"]]
    else:
        tx, ty = d["target_x"], d["target_y"]
        cols = ([np.full_like(zero, p["hand_start_x"]), np.full_like(zero, p["hand_start_y"]), zero, zero],
                [p["ball_start_x"] - tx, p["ball_start_y"] - ty, zero, zero], [tx, ty, zero])
    return tuple(np.reshape(c, (len(c), len(zero))).T for c in cols)  # k columns as (B, k) rows, k = 0 too


def reset(spec: EnvSpec, seed: int, distribution: str = "in") -> EnvState:
    """Sample task parameters and build the initial state: `_reset_rows` of one seed.  Same seed, same state."""
    x_r, x_o, inner = _reset_rows(spec, [seed], distribution)
    return EnvState(CompositeState(x_r[0], x_o[0]), tuple(inner[0].tolist()))


def _rows(spec: EnvSpec, state: EnvState):
    """The start rows x_r (1, n), x_o (1, m) and inner (1, k) of one EnvState, checked against spec."""
    _check_dims(spec.layout, state.composite)
    k = _KINDS[spec.kind].inner
    if len(state.internal) != k:
        raise ValueError(f"{spec.kind} state has internal width {len(state.internal)}; the kind needs {k}")
    return state.composite.x_r[None], state.composite.x_o[None], np.array([state.internal], dtype=np.float64)


def _plant(spec: EnvSpec):
    """spec's transition with its constants bound once: advance(x_r, x_o, inner, tau, next_r, next_o).

    advance steps B states: rows x_r (B, n), x_o (B, m) and tau (B, a) give
    next_r and next_o, and inner (B, k), the rows of EnvState.internal, is
    updated in place.  Only plain ufuncs run: on one row np.clip, np.where and
    norm cost several times more.  The linear map multiplies the (B, 1, n)
    stack of rows, one product per row, so each row rounds as a lone row and
    a batch equals its single episodes bit for bit, as for every other kind.
    """
    dt, p = spec.dt, spec.params
    if spec.kind == "linear":
        M_T, B_T = spec.matrix.T, spec.input_map.T

        def advance(x_r, x_o, inner, tau, next_r, next_o):
            np.matmul(x_r[:, None], M_T, out=next_r[:, None])
            next_r[:, None] += tau[:, None] @ B_T

    elif spec.kind == "pendulum":
        inertia = p["mass"] * p["length"] ** 2
        damping = p["damping"]
        mgl = p["mass"] * p["gravity"] * p["length"]

        def advance(x_r, x_o, inner, tau, next_r, next_o):
            theta, omega = x_r[:, 0], x_r[:, 1]
            alpha = (tau[:, 0] - damping * omega - mgl * np.sin(theta)) / inertia
            omega_new = np.add(omega, dt * alpha, out=next_r[:, 1])
            theta_new = np.add(theta, dt * omega_new, out=next_r[:, 0])
            np.subtract(theta_new, inner[:, 0], out=next_o[:, 0])

    elif spec.kind == "vanderpol":
        mu = p["mu"]

        def advance(x_r, x_o, inner, tau, next_r, next_o):
            x0, x1 = x_r[:, 0], x_r[:, 1]
            x1_new = np.add(x1, dt * (mu * (1.0 - x0**2) * x1 - x0 + tau[:, 0]), out=next_r[:, 1])
            np.add(x0, dt * x1_new, out=next_r[:, 0])

    else:  # pointmass-relocation; inner rows are (target_x, target_y, attached)
        # 0-d constants: a Python float operand costs every ufunc call a conversion
        dt, hand_mass, ball_mass, damping, radius, limit = (np.array(float(v)) for v in (
            dt, p["hand_mass"], p["ball_mass"], p["damping"], p["attach_radius"], p["tau_limit"]))
        neg_limit, zero = -limit, np.array(0.0)
        weight = np.array([0.0, p["gravity"]])

        def advance(x_r, x_o, inner, tau, next_r, next_o):
            hand, vel = x_r[:, :2], x_r[:, 2:]
            target, attached = inner[:, :2], inner[:, 2:]
            ball = np.add(x_o[:, :2], target, out=next_o[:, :2])
            gap = np.subtract(hand, ball)
            near = np.less_equal(np.hypot(gap[:, :1], gap[:, 1:]), radius)
            held = np.greater(np.logical_or(attached, near, out=attached), zero)
            m_eff = np.multiply(attached, ball_mass)
            m_eff += hand_mass
            # acc = (clip(tau) - damping vel - m_eff weight) / m_eff, built in
            # a contiguous temporary (in place on the strided next-row views
            # it runs slower for a large batch); gap is scratch from here on
            acc = np.maximum(tau, neg_limit)
            np.minimum(acc, limit, out=acc)
            acc -= np.multiply(vel, damping, out=gap)
            acc -= np.multiply(m_eff, weight, out=gap)
            acc /= m_eff
            acc *= dt
            vel_new = np.add(vel, acc, out=next_r[:, 2:])
            np.add(hand, np.multiply(vel_new, dt, out=acc), out=next_r[:, :2])
            # a carried ball takes the hand's new row [position | velocity];
            # a free ball stays put with velocity +0.0 (vel * attached would
            # write -0.0 into the demos)
            next_o[:, 2:] = 0.0
            np.copyto(next_o, next_r, where=held)
            ball -= target

    return advance


def _non_finite_torque(source: str, t: int, row: int = 0, rows: int = 1) -> ValueError:
    """The error for a non-finite torque in row `row` of `rows` at 0-based step t.

    Steps count from 1, by the state the torque would produce; the row is
    named only in a batch.
    """
    where = f"step {t + 1}" if rows == 1 else f"step {t + 1}, row {row}"
    return ValueError(f"{source} non-finite torque at {where}")


def step(spec: EnvSpec, state: EnvState, tau) -> EnvState:
    """Advance one step (one dt for the continuous kinds)."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (spec.layout.a,):
        raise ValueError(f"torque must have shape ({spec.layout.a},), got {tau.shape}")
    if not np.isfinite(tau).all():
        raise _non_finite_torque("step was given", state.t)
    x_r, x_o, inner = _rows(spec, state)
    next_r, next_o = np.empty_like(x_r), np.empty_like(x_o)
    _plant(spec)(x_r, x_o, inner, tau[None], next_r, next_o)
    return EnvState(CompositeState(next_r[0], next_o[0]), tuple(inner[0].tolist()), state.t + 1)


# ---------------------------------------------------------------- experts

def default_expert(spec: EnvSpec) -> ScriptedExpert:
    """The kind's frozen tuned gains and torque jitter (a zero-torque expert for the unforced benchmarks)."""
    rec = _KINDS[spec.kind]
    return ScriptedExpert(spec.kind, dict(rec.gains), rec.noise_scale)


def _expert_law(spec: EnvSpec, expert: ScriptedExpert, noise):
    """The expert's feedback law with its gains and params bound once: law(t, x_r, x_o, inner, out).

    law writes step t's torques for B rows into out (B, a), plus noise[t]
    unless noise is None; noise (T-1, B, a) is the jitter, already scaled.
    """
    g, p = expert.gains, spec.params
    limit = None
    if spec.kind in ("linear", "vanderpol"):

        def base(x_r, x_o, inner, out):
            out[:] = 0.0

    elif spec.kind == "pendulum":
        kp, kd, mgl = (np.array(float(v)) for v in (g["kp"], g["kd"], p["mass"] * p["gravity"] * p["length"]))

        def base(x_r, x_o, inner, out):
            theta, omega = x_r[:, 0], x_r[:, 1]
            out[:, 0] = kp * (inner[:, 0] - theta) - kd * omega + mgl * np.sin(theta)

    else:  # pointmass-relocation; 0-d constants, as in `_plant`
        kp_reach, kd_reach, neg_kp_carry, kd_carry, hand_mass, ball_mass, limit = (np.array(float(v)) for v in (
            g["kp_reach"], g["kd_reach"], -g["kp_carry"], g["kd_carry"], p["hand_mass"], p["ball_mass"],
            p["tau_limit"]))
        neg_limit, zero = -limit, np.array(0.0)
        weight = np.array([0.0, p["gravity"]])

        def base(x_r, x_o, inner, out):
            vel, rel, attached = x_r[:, 2:], x_o[:, :2], inner[:, 2:]
            # both laws on every row; the attach flag picks one per row
            law = kp_reach * (rel + inner[:, :2] - x_r[:, :2]) - kd_reach * vel
            np.copyto(law, neg_kp_carry * rel - kd_carry * vel, where=np.greater(attached, zero))
            m_eff = hand_mass + ball_mass * attached
            np.add(law, m_eff * weight, out=out)  # holds the weight

    def law(t, x_r, x_o, inner, out):
        base(x_r, x_o, inner, out)
        if noise is not None:
            out += noise[t]
        if limit is not None:
            np.minimum(np.maximum(out, neg_limit, out=out), limit, out=out)

    return law


def default_criterion(spec: EnvSpec) -> SuccessCriterion | None:
    """Task success predicate for the goal-directed kinds, None otherwise."""
    return _KINDS[spec.kind].criterion


# ---------------------------------------------------------------- rollouts

def _run(spec: EnvSpec, rows, horizon: int, torque, source: str) -> list[Trajectory]:
    """Step B start rows in lockstep into preallocated trajectory-major arrays; callers check horizon >= 2.

    torque(t, x_r, x_o, inner, out) writes step t's torques into out, the
    (B, a) torque rows of step t.  The loop steps past a non-finite torque
    with invalid-value warnings off; the whole (B, T-1, a) torque block is
    then checked once, and an error names source, the earliest bad step and,
    in a batch, the lowest bad row at that step.  Returns the B trajectories,
    each a read-only block of the batch's (B, T, n), (B, T, m) and
    (B, T-1, a) arrays, uncopied.
    """
    lay, B = spec.layout, len(rows[0])
    x_r, x_o = np.empty((B, horizon, lay.n)), np.empty((B, horizon, lay.m))
    torques = np.empty((B, horizon - 1, lay.a))
    x_r[:, 0], x_o[:, 0] = rows[0], rows[1]
    inner = np.array(rows[2], dtype=np.float64)  # a copy, which the plant updates
    advance = _plant(spec)
    # the (B, ...) rows of each step, as views made once
    rows_r, rows_o, rows_tau = (list(arr.swapaxes(0, 1)) for arr in (x_r, x_o, torques))
    with np.errstate(invalid="ignore"):
        for t in range(horizon - 1):
            torque(t, rows_r[t], rows_o[t], inner, rows_tau[t])
            advance(rows_r[t], rows_o[t], inner, rows_tau[t], rows_r[t + 1], rows_o[t + 1])
    _check_torques(torques, source)
    for arr in (x_r, x_o, torques):
        arr.setflags(write=False)
    return [_adopt(Trajectory, x_r=x_r[i], x_o=x_o[i], torques=torques[i]) for i in range(B)]


def _run_expert(spec: EnvSpec, expert: ScriptedExpert, rows, horizon: int, rngs) -> list[Trajectory]:
    """The expert from B start rows in lockstep; rngs holds one noise generator per row, or is None.

    Each generator's T-1 draws of size a are made up front, as (T-1, B, a) noise,
    and scaled once by the expert's noise_scale.
    """
    horizon = _count("horizon", horizon, 2)
    if expert.kind != spec.kind:
        raise ValueError(f"expert kind {expert.kind!r} does not match env kind {spec.kind!r}")
    noise = None
    if rngs is not None and expert.noise_scale > 0.0:
        noise = np.stack([rng.standard_normal((horizon - 1, spec.layout.a)) for rng in rngs], axis=1)
        noise *= expert.noise_scale
    return _run(spec, rows, horizon, _expert_law(spec, expert, noise), "expert produced")


def run_expert(
    spec: EnvSpec,
    expert: ScriptedExpert,
    init: EnvState,
    horizon: int,
    noise_rng: np.random.Generator | None = None,
) -> Trajectory:
    """Roll the scripted expert from an initial state; T states, T-1 torques."""
    return _run_expert(spec, expert, _rows(spec, init), horizon, None if noise_rng is None else [noise_rng])[0]


def generate_demos(
    spec: EnvSpec,
    expert: ScriptedExpert,
    n_demos: int,
    horizon: int,
    seed: int,
    distribution: str = "in",
) -> DemonstrationSet:
    """Collect expert demonstrations from seeded resets, stepped in one lockstep batch.

    Per-trajectory reset and noise seeds derive from one root seed, so the
    whole set is reproducible.  Logs the expert success rate when the kind
    has a success criterion.
    """
    n_demos, seed = _count("n_demos", n_demos, 1), _count("seed", seed, 0)
    reset_seeds, noise_seeds = zip(*np.random.default_rng(seed).integers(2**62, size=(n_demos, 2)).tolist())
    rows = _reset_rows(spec, reset_seeds, distribution)
    trajs = _run_expert(spec, expert, rows, horizon, list(map(np.random.default_rng, noise_seeds)))
    criterion = default_criterion(spec)
    if criterion is not None:
        logger.info(
            "generate_demos: kind=%s n=%d expert success %.1f%%",
            spec.kind, n_demos, success_rate(trajs, criterion),
        )
    return DemonstrationSet(spec.layout, tuple(trajs))


def _check_torques(torques: np.ndarray, source: str) -> None:
    """Raise for the first non-finite torque of a (B, T-1, a) block: its earliest step, then its lowest row."""
    finite = np.isfinite(torques).all(axis=2)
    if finite.all():
        return
    t = int(np.argmin(finite.all(axis=0)))
    raise _non_finite_torque(source, t, int(np.argmin(finite[:, t])), len(torques))


def _callable_policy(act, ref: np.ndarray, layout: StateLayout):
    """A `_run` torque that calls act(x_now, x_next) once per row and checks each torque."""
    a = layout.a

    def torque(t, x_r, x_o, inner, out):
        # act is outside code: stop at its first bad torque rather than call
        # it again on the states that torque would produce
        for i, (x_now, x_next) in enumerate(zip(x_r, ref[t + 1])):
            tau = np.asarray(act(x_now, x_next), dtype=np.float64)
            if not np.isfinite(tau).all():
                raise _non_finite_torque("controller produced", t, i, len(out))
            if tau.shape != (a,):
                raise ValueError(f"torque must have shape ({a},), got {tau.shape}")
            out[i] = tau

    return torque


def _closed_loop(
    model: koopman.KoopmanModel,
    controller,
    spec: EnvSpec,
    rows,
    horizon: int,
) -> list[Trajectory]:
    """B closed-loop episodes in lockstep from start rows, each tracking its own reference.

    The references of all B start rows are rolled out together.  A
    ControllerModel runs once per step on all B rows, through
    `controller.tracking_torque`, which checks it against the layout once;
    its torques are checked once, after the loop (`_run`).
    Any other callable is called once per row, and each torque it returns is
    checked at once, so it never sees a state that a non-finite torque made.
    Either way the error names the earliest bad step and, in a batch, the
    lowest bad row at that step.
    """
    horizon = _count("horizon", horizon, 2)  # _run's bound, checked before the reference rollout's own bound of 1
    if isinstance(controller, ControllerModel):
        policy = tracking_torque
    elif callable(controller):
        policy = _callable_policy
    else:
        raise ValueError("controller must be a ControllerModel or a callable")
    ref = koopman._rollout(model, rows[0], rows[1], horizon)
    return _run(spec, rows, horizon, policy(controller, ref, spec.layout), "controller produced")


def execute_policy(
    model: koopman.KoopmanModel,
    controller,
    spec: EnvSpec,
    init: EnvState,
    horizon: int,
) -> Trajectory:
    """Closed-loop execution: track the model's robot reference with a controller.

    The reference is rolled out once from the initial composite state, by
    linear propagation of its lifted state (`koopman.rollout`); at each step
    the controller maps (current robot state, next reference state) to a
    torque.  controller is a ControllerModel or any callable with that
    signature.  One episode is a batch of one of the lockstep closed loop.
    """
    return _closed_loop(model, controller, spec, _rows(spec, init), horizon)[0]


def perfect_tracker(spec: EnvSpec) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Analytic inverse dynamics for the linear kind: B tau = x_ref - M x."""
    if spec.kind != "linear":
        raise ValueError("perfect_tracker is only defined for the linear kind")
    M, B = spec.matrix, spec.input_map

    def act(x_now, x_next):
        resid = np.asarray(x_next, float) - M @ np.asarray(x_now, float)
        tau, *_ = np.linalg.lstsq(B, resid, rcond=None)
        return tau

    return act


def perturb_params(spec: EnvSpec, variation: str) -> EnvSpec:
    """Scale a mass by the named ratio (applying twice compounds)."""
    if variation not in VARIATIONS:
        raise ValueError(f"unknown variation {variation!r}, expected one of {tuple(VARIATIONS)}")
    if spec.kind != "pointmass-relocation":
        raise ValueError(f"variations target the pointmass kind, not {spec.kind!r}")
    name, ratio = VARIATIONS[variation]
    params = dict(spec.params)
    params[name] = params[name] * ratio
    return replace(spec, params=params)


# ---------------------------------------------------------------- serialization

def env_spec_to_dict(spec: EnvSpec) -> dict:
    """JSON-ready description (inverse of env_spec_from_dict)."""
    out = {
        "kind": spec.kind,
        "dt": spec.dt,
        "params": dict(spec.params),
        "sampler": {k: [list(rin), list(rout)] for k, (rin, rout) in spec.sampler.items()},
    }
    if spec.matrix is not None:
        out["matrix"] = spec.matrix.tolist()
        out["input_map"] = spec.input_map.tolist()
    return out


def env_spec_from_dict(data: dict) -> EnvSpec:
    """Inverse of env_spec_to_dict; params and sampler entries left out take the kind's defaults.

    A key the block or its params or sampler must hold and lacks, or holds
    and must not, or a value of the wrong type, is a ValueError naming the key.
    """
    kind = data.get("kind") if isinstance(data, Mapping) else None
    # a linear block's matrix and input_map
    matrices = ("matrix", "input_map") if kind == "linear" else ()
    _keys("env block", data, ("kind", "dt", *matrices), ("params", "sampler"))
    _record(kind)
    rows = {key: _real_rows(f"env {key}", data[key], "a 2-D list of real numbers") for key in matrices}
    base = linear_env(**rows) if kind == "linear" else _spec(kind)
    merged = {block: defaults | _keys(f"env {block}", data.get(block, {}), (), defaults)
              for block, defaults in (("params", base.params), ("sampler", base.sampler))}
    return replace(base, dt=data["dt"], **merged)  # EnvSpec checks dt, the params and the sampler, and makes each a float
