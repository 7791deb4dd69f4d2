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

import inspect
import logging
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import koopman
from .controller import ControllerModel, _bind, _forward
from .metrics import SuccessCriterion, evaluate_success
from .statespace import CompositeState, DemonstrationSet, StateLayout, Trajectory, _is_int, _is_real

logger = logging.getLogger(__name__)

# mass variations as ratios of the reference masses
VARIATIONS = {
    "heavy-object": ("ball_mass", 1.88 / 0.18),
    "light-hand": ("hand_mass", 3.0 / 4.0),
    "heavy-hand": ("hand_mass", 5.0 / 4.0),
}

# params that a transition divides by or clips to, per kind, with the bound each must meet
_SIGNS = {
    "pendulum": {"mass": "> 0", "length": "> 0"},
    "pointmass-relocation": {"hand_mass": "> 0", "ball_mass": ">= 0", "tau_limit": "> 0"},
}

Range = tuple[float, float]


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown env kind {self.kind!r}, expected one of {KINDS}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} param {name!r} must be finite, got {value}")
            need = _SIGNS.get(self.kind, {}).get(name)
            if need and not (value >= 0 if need == ">= 0" else value > 0):
                raise ValueError(f"{self.kind} param {name!r} must be {need}, got {value}")
        disjoint = 0
        for name, (rin, rout) in self.sampler.items():
            if not (all(map(math.isfinite, rin + rout)) and rin[0] < rin[1] and rout[0] < rout[1]):
                raise ValueError(f"sampler range for {name!r} must be finite with low < high")
            if rin == rout:
                continue
            if rout[0] < rin[1] and rin[0] < rout[1]:
                raise ValueError(f"in/out ranges for {name!r} overlap")
            disjoint += 1
        if self.sampler and disjoint == 0:
            raise ValueError("at least one sampler parameter needs disjoint in/out ranges")
        if self.kind == "linear":
            if self.matrix is None or self.input_map is None:
                raise ValueError("linear kind needs matrix and input_map")
            M = np.array(self.matrix, dtype=np.float64, copy=True)
            B = np.array(self.input_map, dtype=np.float64, copy=True)
            d = self.layout.n
            if M.shape != (d, d):
                raise ValueError(f"matrix must be ({d}, {d}), got {M.shape}")
            if B.shape != (d, self.layout.a):
                raise ValueError(f"input_map must be ({d}, {self.layout.a}), got {B.shape}")
            if not (np.isfinite(M).all() and np.isfinite(B).all()):
                raise ValueError("matrix and input_map must be finite")
            M.setflags(write=False)
            B.setflags(write=False)
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
    """Feedback-law demonstrator.  noise_scale adds seeded torque jitter."""

    kind: str
    gains: dict[str, float]
    noise_scale: float = 0.0


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
    """Random stable linear system: a seeded matrix rescaled to the given radius."""
    if dim < 1:
        raise ValueError(f"linear param 'dim' must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    M *= spectral_radius / max(abs(np.linalg.eigvals(M)))
    return linear_env(M, dt=dt)


def pendulum_env(
    dt: float = 0.05,
    mass: float = 1.0,
    length: float = 1.0,
    gravity: float = 9.81,
    damping: float = 0.1,
) -> EnvSpec:
    """Single damped joint; robot state [theta, omega], object state [theta - target]."""
    layout = StateLayout(n=2, m=1, a=1)
    params = {"mass": mass, "length": length, "gravity": gravity, "damping": damping}
    sampler = {"target": ((0.6, 1.4), (1.4, 1.8))}
    return EnvSpec("pendulum", dt, layout, params, sampler)


def vanderpol_env(dt: float = 0.05, mu: float = 0.5) -> EnvSpec:
    """Van der Pol oscillator with additive forcing on the velocity dim.

    Initial states sample a band around the steady orbit, so demonstrations
    cover the oscillation rather than the approach transients.
    """
    layout = StateLayout(n=2, m=0, a=1)
    sampler = {
        "x0": ((1.8, 2.2), (2.2, 2.6)),
        "x1": ((-0.3, 0.3), (-0.3, 0.3)),
    }
    return EnvSpec("vanderpol", dt, layout, {"mu": mu}, sampler)


def pointmass_env(
    dt: float = 0.05,
    hand_mass: float = 4.0,
    ball_mass: float = 0.18,
    damping: float = 2.0,
    attach_radius: float = 0.2,
    tau_limit: float = 45.0,
    gravity: float = 4.0,
) -> EnvSpec:
    """2-D relocation: reach the ball, attach, carry it to the sampled target.

    Robot state [hand_x, hand_y, hand_vx, hand_vy]; object state
    [ball_x - target_x, ball_y - target_y, ball_vx, ball_vy].  The hand and
    ball start at fixed positions; only the target is sampled, and the
    out-of-distribution box shifts target_y past the training range.
    Gravity pulls the hand (plus any carried ball) down the y axis, so
    holding position costs a mass-proportional torque and a controller
    tuned for the wrong mass drifts off the hold instead of parking.  The
    actuator saturates at tau_limit per axis; the free ball rests on the
    table and does not fall.
    """
    layout = StateLayout(
        n=4,
        m=4,
        a=2,
        robot_names=("hand_x", "hand_y", "hand_vx", "hand_vy"),
        object_names=("ball_rel_x", "ball_rel_y", "ball_vx", "ball_vy"),
    )
    params = {
        "hand_mass": hand_mass,
        "ball_mass": ball_mass,
        "damping": damping,
        "attach_radius": attach_radius,
        "tau_limit": tau_limit,
        "gravity": gravity,
        "hand_start_x": -0.5,
        "hand_start_y": -0.5,
        "ball_start_x": 0.0,
        "ball_start_y": 0.0,
    }
    sampler = {
        "target_x": ((-0.25, 0.25), (-0.25, 0.25)),
        "target_y": ((0.15, 0.25), (0.25, 0.35)),
    }
    return EnvSpec("pointmass-relocation", dt, layout, params, sampler)


_FACTORIES = {
    "linear": linear_env_random,
    "pendulum": pendulum_env,
    "vanderpol": vanderpol_env,
    "pointmass-relocation": pointmass_env,
}
KINDS = tuple(_FACTORIES)


def make_env(kind: str, dt: float | None = None, **overrides) -> EnvSpec:
    """Build an environment by kind name (the CLI entry point).

    linear takes dim/spectral_radius/seed (dim 5 by default) and builds a
    seeded stable matrix; other kinds forward keyword overrides to their
    factory.  An override the factory does not take, or a value that is not
    a real number (an integer for linear's dim and seed), is a ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown env kind {kind!r}")
    factory = _FACTORIES[kind]
    accepted = tuple(inspect.signature(factory).parameters)
    unknown = [key for key in overrides if key not in accepted]
    if unknown:
        raise ValueError(
            f"env kind {kind!r} takes no override {unknown[0]!r}; accepted keys: {', '.join(accepted)}"
        )
    args = {"dim": 5} if kind == "linear" else {}
    args.update(overrides)
    if dt is not None:
        args["dt"] = dt
    integers = ("dim", "seed") if kind == "linear" else ()
    for key, value in args.items():
        accepts, what = (_is_int, "an integer") if key in integers else (_is_real, "a real number")
        if not accepts(value):
            raise ValueError(f"env kind {kind!r}: override {key!r} must be {what}, got {value!r}")
    return factory(**args)


# ---------------------------------------------------------------- reset/step

def _draw(rng: np.random.Generator, spec: EnvSpec, distribution: str) -> dict[str, float]:
    if distribution not in ("in", "out"):
        raise ValueError(f"distribution must be 'in' or 'out', got {distribution!r}")
    draws = {}
    for name, (rin, rout) in spec.sampler.items():
        lo, hi = rout if distribution == "out" else rin
        draws[name] = float(rng.uniform(lo, hi))
    return draws


def reset(spec: EnvSpec, seed: int, distribution: str = "in") -> EnvState:
    """Sample task parameters and build the initial state.  Same seed, same state."""
    rng = np.random.default_rng(seed)
    draws = _draw(rng, spec, distribution)
    if spec.kind == "linear":
        x = np.array([draws[f"init_{i}"] for i in range(spec.layout.n)])
        return EnvState(CompositeState(x, np.empty(0)), ())
    if spec.kind == "pendulum":
        target = draws["target"]
        comp = CompositeState(np.array([0.0, 0.0]), np.array([0.0 - target]))
        return EnvState(comp, (target,))
    if spec.kind == "vanderpol":
        comp = CompositeState(np.array([draws["x0"], draws["x1"]]), np.empty(0))
        return EnvState(comp, ())
    p = spec.params
    target = np.array([draws["target_x"], draws["target_y"]])
    hand = np.array([p["hand_start_x"], p["hand_start_y"]])
    ball = np.array([p["ball_start_x"], p["ball_start_y"]])
    comp = CompositeState(
        np.concatenate([hand, np.zeros(2)]),
        np.concatenate([ball - target, np.zeros(2)]),
    )
    return EnvState(comp, (target[0], target[1], 0.0))


def _plant(spec: EnvSpec):
    """spec's transition with its constants bound once: advance(x_r, x_o, inner, tau, next_r, next_o).

    advance steps B states: rows x_r (B, n), x_o (B, m) and tau (B, a) give
    next_r and next_o, and inner (B, k), the rows of EnvState.internal, is
    updated in place.  Only plain ufuncs run: on one row np.clip, np.where and
    norm cost several times more.
    """
    dt, p = spec.dt, spec.params
    if spec.kind == "linear":
        M_T, B_T = spec.matrix.T, spec.input_map.T

        def advance(x_r, x_o, inner, tau, next_r, next_o):
            np.matmul(x_r, M_T, out=next_r)
            next_r += tau @ B_T

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
    inner = np.array([state.internal], dtype=np.float64)
    next_r, next_o = np.empty((1, spec.layout.n)), np.empty((1, spec.layout.m))
    _plant(spec)(state.composite.x_r[None], state.composite.x_o[None], inner, tau[None], next_r, next_o)
    return EnvState(CompositeState(next_r[0], next_o[0]), tuple(inner[0].tolist()), state.t + 1)


# ---------------------------------------------------------------- experts

def default_expert(spec: EnvSpec) -> ScriptedExpert:
    """Frozen tuned gains per kind (zero-torque for the unforced benchmarks).

    The relocation expert carries torque jitter so demonstrations cover a
    band around the nominal flow; controllers trained on them stay stable
    when execution wanders off the exact demo states.
    """
    if spec.kind == "pendulum":
        return ScriptedExpert("pendulum", {"kp": 16.0, "kd": 8.0})
    if spec.kind == "pointmass-relocation":
        return ScriptedExpert(
            "pointmass-relocation",
            {"kp_reach": 30.0, "kd_reach": 25.0, "kp_carry": 40.0, "kd_carry": 25.0},
            noise_scale=1.0,
        )
    return ScriptedExpert(spec.kind, {})


def _expert_law(spec: EnvSpec, expert: ScriptedExpert, noise, t, x_r, x_o, inner, out) -> None:
    """The expert's torques at step t for B rows into out (B, a), jittered by noise[t] unless noise is None."""
    g, p = expert.gains, spec.params
    if spec.kind in ("linear", "vanderpol"):
        out[:] = 0.0
    elif spec.kind == "pendulum":
        theta, omega = x_r[:, 0], x_r[:, 1]
        grav = p["mass"] * p["gravity"] * p["length"] * np.sin(theta)
        out[:, 0] = g["kp"] * (inner[:, 0] - theta) - g["kd"] * omega + grav
    else:
        vel, rel, attached = x_r[:, 2:], x_o[:, :2], inner[:, 2:]
        # both laws on every row; the attach flag picks one per row
        law = g["kp_reach"] * (rel + inner[:, :2] - x_r[:, :2]) - g["kd_reach"] * vel
        np.copyto(law, -g["kp_carry"] * rel - g["kd_carry"] * vel, where=attached > 0.0)
        m_eff = p["hand_mass"] + p["ball_mass"] * attached
        np.add(law, m_eff * (0.0, p["gravity"]), out=out)  # holds the weight
    if noise is not None:
        out += expert.noise_scale * noise[t]
    if spec.kind == "pointmass-relocation":
        np.minimum(np.maximum(out, -p["tau_limit"], out=out), p["tau_limit"], out=out)


def default_criterion(spec: EnvSpec) -> SuccessCriterion | None:
    """Task success predicate for the goal-directed kinds, None otherwise."""
    if spec.kind == "pendulum":
        return SuccessCriterion("terminal-distance", threshold=0.1, extractor=(0,))
    if spec.kind == "pointmass-relocation":
        return SuccessCriterion(
            "cumulative-proximity", threshold=0.10, count_threshold=35, extractor=(0, 1)
        )
    return None


# ---------------------------------------------------------------- rollouts

def _run(spec: EnvSpec, inits, horizon: int, torque, source: str) -> list[Trajectory]:
    """Step B initial states in lockstep into preallocated trajectory-major arrays.

    torque(t, x_r, x_o, inner, out) writes step t's torques into out, the
    (B, a) torque rows of step t.  The loop steps past a non-finite torque
    with invalid-value warnings off; the whole (B, T-1, a) torque block is
    then checked once, and an error names source, the earliest bad step and,
    in a batch, the lowest bad row at that step.  Returns the B trajectories,
    each a read-only block of the batch's (B, T, n), (B, T, m) and
    (B, T-1, a) arrays, uncopied.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    lay, B = spec.layout, len(inits)
    x_r, x_o = np.empty((B, horizon, lay.n)), np.empty((B, horizon, lay.m))
    torques = np.empty((B, horizon - 1, lay.a))
    x_r[:, 0] = [s.composite.x_r for s in inits]
    x_o[:, 0] = [s.composite.x_o for s in inits]
    inner = np.array([s.internal for s in inits], dtype=np.float64)
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
    return [Trajectory._adopt(x_r[i], x_o[i], torques[i]) for i in range(B)]


def _run_expert(spec: EnvSpec, expert: ScriptedExpert, inits, horizon: int, rngs) -> list[Trajectory]:
    """The expert from B states in lockstep; rngs holds one noise generator per state, or is None.

    Each generator's T-1 draws of size a are made up front, as (T-1, B, a) noise.
    """
    if expert.kind != spec.kind:
        raise ValueError(f"expert kind {expert.kind!r} does not match env kind {spec.kind!r}")
    noise = None
    if rngs is not None and expert.noise_scale > 0.0 and horizon >= 2:  # a shorter horizon is _run's error
        noise = np.stack([rng.standard_normal((horizon - 1, spec.layout.a)) for rng in rngs], axis=1)
    return _run(spec, inits, horizon, partial(_expert_law, spec, expert, noise), "expert produced")


def run_expert(
    spec: EnvSpec,
    expert: ScriptedExpert,
    init: EnvState,
    horizon: int,
    noise_rng: np.random.Generator | None = None,
) -> Trajectory:
    """Roll the scripted expert from an initial state; T states, T-1 torques."""
    return _run_expert(spec, expert, [init], horizon, None if noise_rng is None else [noise_rng])[0]


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
    if n_demos < 1:
        raise ValueError(f"n_demos must be >= 1, got {n_demos}")
    seeds = np.random.default_rng(seed).integers(2**62, size=(n_demos, 2)).tolist()
    inits = [reset(spec, reset_seed, distribution) for reset_seed, _ in seeds]
    trajs = _run_expert(spec, expert, inits, horizon, [np.random.default_rng(s) for _, s in seeds])
    criterion = default_criterion(spec)
    if criterion is not None:
        wins = sum(evaluate_success(t, criterion).success for t in trajs)
        logger.info(
            "generate_demos: kind=%s n=%d expert success %.1f%%",
            spec.kind, n_demos, 100.0 * wins / n_demos,
        )
    return DemonstrationSet(spec.layout, tuple(trajs))


def _check_torques(torques: np.ndarray, source: str) -> None:
    """Raise for the first non-finite torque of a (B, T-1, a) block: its earliest step, then its lowest row."""
    finite = np.isfinite(torques).all(axis=2)
    if finite.all():
        return
    t = int(np.argmin(finite.all(axis=0)))
    raise _non_finite_torque(source, t, int(np.argmin(finite[:, t])), len(torques))


def _network_policy(model: ControllerModel, ref: np.ndarray, layout: StateLayout):
    """A `_run` torque that runs the network once per step on the B rows [x_r(t) | ref(t+1)].

    ref (T, B, n) holds the references.  The reference half of every step's
    input is standardized up front, and the layers are bound once, hidden
    outputs to buffers of their own; a step standardizes x_r(t) into its
    half and the output layer writes straight into the step's torque rows.
    The rows go through the network as a (B, 1, 2n) stack, one product per
    row, so each row rounds exactly as an episode of its own.  Torques are
    not checked here: `_run` checks them all after the loop.
    """
    n, B = layout.n, ref.shape[1]
    mean, std = model.input_mean, model.input_std
    Z = np.empty((ref.shape[0] - 1, B, 1, 2 * n))
    np.divide(np.subtract(ref[1:, :, None], mean[n:], out=Z[..., n:]), std[n:], out=Z[..., n:])
    inputs = list(Z)
    nows = [z[:, 0, :n] for z in inputs]
    # constants shaped like one row: for B = 1 a ufunc then skips broadcasting
    mean_r, std_r = mean[None, :n], std[None, :n]
    hidden = [np.empty((B, 1, k)) for k in model.layer_sizes[1:-1]]
    layers = _bind(model.weights, [b[None, None] for b in model.biases], hidden + [None])

    def torque(t, x_r, x_o, inner, out):
        now = nows[t]
        np.divide(np.subtract(x_r, mean_r, out=now), std_r, out=now)
        _forward(layers, inputs[t], out[:, None])

    return torque


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
    inits,
    horizon: int,
) -> list[Trajectory]:
    """B closed-loop episodes in lockstep, each tracking its own reference.

    The references of all B initial states are rolled out together.  A
    ControllerModel, checked against the layout once, runs once per step on
    all B rows, and its torques are checked once, after the loop (`_run`).
    Any other callable is called once per row, and each torque it returns is
    checked at once, so it never sees a state that a non-finite torque made.
    Either way the error names the earliest bad step and, in a batch, the
    lowest bad row at that step.
    """
    lay = spec.layout
    if isinstance(controller, ControllerModel):
        sizes = controller.layer_sizes
        if (sizes[0], sizes[-1]) != (2 * lay.n, lay.a):
            raise ValueError(
                f"controller maps {sizes[0]} inputs to {sizes[-1]} torques; "
                f"the layout needs {2 * lay.n} to {lay.a}"
            )
        policy = _network_policy
    elif callable(controller):
        policy = _callable_policy
    else:
        raise ValueError("controller must be a ControllerModel or a callable")
    ref = koopman._rollout(model, [s.composite for s in inits], horizon)
    return _run(spec, inits, horizon, policy(controller, ref, lay), "controller produced")


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
    return _closed_loop(model, controller, spec, [init], horizon)[0]


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


def _is_real_matrix(value) -> bool:
    """A non-empty list of equal-length lists of real numbers: a matrix as env_spec_to_dict writes it."""
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(
        isinstance(row, (list, tuple)) and len(row) == len(value[0]) and all(map(_is_real, row)) for row in value)


def _is_range_pair(value) -> bool:
    """Two [low, high] ranges of real numbers: a sampler entry as env_spec_to_dict writes it."""
    return _is_real_matrix(value) and len(value) == 2 and len(value[0]) == 2


def env_spec_from_dict(data: dict) -> EnvSpec:
    """Inverse of env_spec_to_dict; params and sampler entries left out take the kind's defaults.

    A missing or unknown key, a params or sampler key the kind lacks, or a
    value of the wrong type is a ValueError that names the key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"env block must be an object, got {data!r}")
    kind = data.get("kind")
    required = ("kind", "dt") + (("matrix", "input_map") if kind == "linear" else ())
    for key in required:
        if key not in data:
            raise ValueError(f"env block has no {key!r} key")
    if kind not in KINDS:
        raise ValueError(f"unknown env kind {kind!r}")
    known = required + ("params", "sampler")
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"env block: unknown key {unknown[0]!r}; accepted keys: {', '.join(known)}")
    if not _is_real(data["dt"]):
        raise ValueError(f"env dt must be a real number, got {data['dt']!r}")
    for key in required[2:]:  # a linear block's matrix and input_map
        if not _is_real_matrix(data[key]):
            raise ValueError(f"env {key} must be a 2-D list of real numbers, got {data[key]!r}")
    base = linear_env(data["matrix"], data["input_map"]) if kind == "linear" else _FACTORIES[kind]()
    merged = {"params": dict(base.params), "sampler": dict(base.sampler)}
    for block, accepts, what in (("params", _is_real, "a real number"),
                                 ("sampler", _is_range_pair, "two [low, high] ranges")):
        given = data.get(block, {})
        if not isinstance(given, dict):
            raise ValueError(f"env {block} must be an object, got {given!r}")
        for key, value in given.items():
            if key not in merged[block]:
                known = ", ".join(merged[block]) or "none"
                raise ValueError(f"env {block}: unknown key {key!r} for kind {kind!r}; accepted keys: {known}")
            if not accepts(value):
                raise ValueError(f"env {block} {key!r} must be {what}, got {value!r}")
        merged[block].update(given)
    params = {k: float(v) for k, v in merged["params"].items()}
    sampler = {k: tuple((float(lo), float(hi)) for lo, hi in v) for k, v in merged["sampler"].items()}
    return replace(base, dt=float(data["dt"]), params=params, sampler=sampler)
