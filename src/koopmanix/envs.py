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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import koopman
from .controller import ControllerModel, forward as controller_forward
from .metrics import SuccessCriterion, evaluate_success
from .statespace import CompositeState, DemonstrationSet, StateLayout, Trajectory

logger = logging.getLogger(__name__)

KINDS = ("linear", "pendulum", "vanderpol", "pointmass-relocation")

# mass variations as ratios of the reference masses
VARIATIONS = {
    "heavy-object": ("ball_mass", 1.88 / 0.18),
    "light-hand": ("hand_mass", 3.0 / 4.0),
    "heavy-hand": ("hand_mass", 5.0 / 4.0),
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
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        disjoint = 0
        for name, (rin, rout) in self.sampler.items():
            if rin[0] >= rin[1] or rout[0] >= rout[1]:
                raise ValueError(f"sampler range for {name!r} must have low < high")
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
    d = M.shape[0]
    B = np.eye(d) if input_map is None else np.asarray(input_map, dtype=np.float64)
    layout = StateLayout(n=d, m=0, a=B.shape[1])
    sampler = {f"init_{i}": ((-1.0, 1.0), (-1.0, 1.0)) for i in range(d)}
    sampler["init_0"] = ((-1.0, 1.0), (1.0, 1.5))
    return EnvSpec("linear", dt, layout, {}, sampler, matrix=M, input_map=B)


def linear_env_random(dim: int, spectral_radius: float = 0.9, seed: int = 0, dt: float = 1.0) -> EnvSpec:
    """Random stable linear system: a seeded matrix rescaled to the given radius."""
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


def make_env(kind: str, dt: float | None = None, **overrides) -> EnvSpec:
    """Build an environment by kind name (the CLI entry point).

    linear takes dim/spectral_radius/seed and builds a seeded stable matrix;
    other kinds forward keyword overrides to their factory.
    """
    if kind == "linear":
        args = {"dim": 5, "spectral_radius": 0.9, "seed": 0}
        args.update(overrides)
        if dt is not None:
            args["dt"] = dt
        return linear_env_random(**args)
    factories = {
        "pendulum": pendulum_env,
        "vanderpol": vanderpol_env,
        "pointmass-relocation": pointmass_env,
    }
    if kind not in factories:
        raise ValueError(f"unknown env kind {kind!r}")
    if dt is not None:
        overrides = {**overrides, "dt": dt}
    return factories[kind](**overrides)


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


def step(spec: EnvSpec, state: EnvState, tau) -> EnvState:
    """Advance one step (one dt for the continuous kinds)."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (spec.layout.a,):
        raise ValueError(f"torque must have shape ({spec.layout.a},), got {tau.shape}")
    if not np.isfinite(tau).all():
        raise ValueError(f"non-finite torque at step {state.t}")
    dt = spec.dt
    if spec.kind == "linear":
        x = spec.matrix @ state.composite.x_r + spec.input_map @ tau
        return EnvState(CompositeState(x, np.empty(0)), (), state.t + 1)
    if spec.kind == "pendulum":
        p = spec.params
        theta, omega = state.composite.x_r
        (target,) = state.internal
        inertia = p["mass"] * p["length"] ** 2
        alpha = (
            tau[0]
            - p["damping"] * omega
            - p["mass"] * p["gravity"] * p["length"] * np.sin(theta)
        ) / inertia
        omega_new = omega + dt * alpha
        theta_new = theta + dt * omega_new
        comp = CompositeState(np.array([theta_new, omega_new]), np.array([theta_new - target]))
        return EnvState(comp, state.internal, state.t + 1)
    if spec.kind == "vanderpol":
        mu = spec.params["mu"]
        x0, x1 = state.composite.x_r
        x1_new = x1 + dt * (mu * (1.0 - x0**2) * x1 - x0 + tau[0])
        x0_new = x0 + dt * x1_new
        return EnvState(CompositeState(np.array([x0_new, x1_new]), np.empty(0)), (), state.t + 1)
    # pointmass-relocation
    p = spec.params
    hand = state.composite.x_r[:2]
    vel = state.composite.x_r[2:]
    tx, ty, attached = state.internal
    target = np.array([tx, ty])
    ball = state.composite.x_o[:2] + target
    if not attached and np.linalg.norm(hand - ball) <= p["attach_radius"]:
        attached = 1.0
    tau = np.clip(tau, -p["tau_limit"], p["tau_limit"])
    m_eff = p["hand_mass"] + (p["ball_mass"] if attached else 0.0)
    weight = np.array([0.0, m_eff * p["gravity"]])
    acc = (tau - p["damping"] * vel - weight) / m_eff
    vel_new = vel + dt * acc
    hand_new = hand + dt * vel_new
    if attached:
        ball_new = hand_new
        ball_vel = vel_new
    else:
        ball_new = ball
        ball_vel = np.zeros(2)
    comp = CompositeState(
        np.concatenate([hand_new, vel_new]),
        np.concatenate([ball_new - target, ball_vel]),
    )
    return EnvState(comp, (tx, ty, attached), state.t + 1)


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


def expert_torque(
    spec: EnvSpec,
    expert: ScriptedExpert,
    state: EnvState,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Scripted feedback torque (experts may read the hidden internal state)."""
    if expert.kind != spec.kind:
        raise ValueError(f"expert kind {expert.kind!r} does not match env kind {spec.kind!r}")
    g = expert.gains
    if spec.kind in ("linear", "vanderpol"):
        tau = np.zeros(spec.layout.a)
    elif spec.kind == "pendulum":
        p = spec.params
        theta, omega = state.composite.x_r
        (target,) = state.internal
        grav = p["mass"] * p["gravity"] * p["length"] * np.sin(theta)
        tau = np.array([g["kp"] * (target - theta) - g["kd"] * omega + grav])
    else:
        hand = state.composite.x_r[:2]
        vel = state.composite.x_r[2:]
        tx, ty, attached = state.internal
        rel = state.composite.x_o[:2]
        p = spec.params
        m_eff = p["hand_mass"] + (p["ball_mass"] if attached else 0.0)
        comp = np.array([0.0, m_eff * p["gravity"]])
        if attached:
            tau = -g["kp_carry"] * rel - g["kd_carry"] * vel + comp
        else:
            ball = rel + np.array([tx, ty])
            tau = g["kp_reach"] * (ball - hand) - g["kd_reach"] * vel + comp
    if expert.noise_scale > 0.0 and rng is not None:
        tau = tau + expert.noise_scale * rng.standard_normal(spec.layout.a)
    if spec.kind == "pointmass-relocation":
        tau = np.clip(tau, -spec.params["tau_limit"], spec.params["tau_limit"])
    return tau


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

def _run(spec: EnvSpec, init: EnvState, horizon: int, torque) -> Trajectory:
    """Step from init with torque(t, state), filling preallocated state and torque arrays."""
    lay = spec.layout
    x_r, x_o = np.empty((horizon, lay.n)), np.empty((horizon, lay.m))
    torques = np.empty((horizon - 1, lay.a))
    x_r[0], x_o[0] = init.composite.x_r, init.composite.x_o
    state = init
    for t in range(horizon - 1):
        tau = torque(t, state)
        state = step(spec, state, tau)
        torques[t] = tau
        x_r[t + 1], x_o[t + 1] = state.composite.x_r, state.composite.x_o
    return Trajectory.from_arrays(x_r, x_o, torques)


def run_expert(
    spec: EnvSpec,
    expert: ScriptedExpert,
    init: EnvState,
    horizon: int,
    noise_rng: np.random.Generator | None = None,
) -> Trajectory:
    """Roll the scripted expert from an initial state; T states, T-1 torques."""
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    return _run(spec, init, horizon, lambda t, state: expert_torque(spec, expert, state, noise_rng))


def generate_demos(
    spec: EnvSpec,
    expert: ScriptedExpert,
    n_demos: int,
    horizon: int,
    seed: int,
    distribution: str = "in",
) -> DemonstrationSet:
    """Collect expert demonstrations from seeded resets.

    Per-trajectory reset and noise seeds derive from one root seed, so the
    whole set is reproducible.  Logs the expert success rate when the kind
    has a success criterion.
    """
    if n_demos < 1:
        raise ValueError(f"n_demos must be >= 1, got {n_demos}")
    root = np.random.default_rng(seed)
    trajs = []
    for _ in range(n_demos):
        reset_seed = int(root.integers(2**62))
        noise_seed = int(root.integers(2**62))
        init = reset(spec, reset_seed, distribution)
        noise_rng = np.random.default_rng(noise_seed)
        trajs.append(run_expert(spec, expert, init, horizon, noise_rng))
    demos = DemonstrationSet(spec.layout, tuple(trajs))
    criterion = default_criterion(spec)
    if criterion is not None:
        wins = sum(evaluate_success(t, criterion).success for t in trajs)
        logger.info(
            "generate_demos: kind=%s n=%d expert success %.1f%%",
            spec.kind, n_demos, 100.0 * wins / n_demos,
        )
    return demos


def execute_policy(
    model: koopman.KoopmanModel,
    controller,
    spec: EnvSpec,
    init: EnvState,
    horizon: int,
    mode: str = "linear",
) -> Trajectory:
    """Closed-loop execution: track the model's robot reference with a controller.

    The reference is rolled out once from the initial composite state; at each
    step the controller maps (current robot state, next reference state) to a
    torque.  controller is a ControllerModel or any callable with that
    signature.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    ref = koopman.rollout(model, init.composite, horizon, mode=mode)
    if isinstance(controller, ControllerModel):
        act = lambda x_now, x_next: controller_forward(controller, x_now, x_next)
    elif callable(controller):
        act = controller
    else:
        raise ValueError("controller must be a ControllerModel or a callable")

    def torque(t, state):
        tau = np.asarray(act(state.composite.x_r, ref[t + 1]), dtype=np.float64)
        if not np.isfinite(tau).all():
            raise ValueError(f"controller produced non-finite torque at step {t + 1}")
        return tau

    return _run(spec, init, horizon, torque)


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
    kind = data["kind"]
    params = {k: float(v) for k, v in data.get("params", {}).items()}
    sampler = {
        k: ((float(v[0][0]), float(v[0][1])), (float(v[1][0]), float(v[1][1])))
        for k, v in data.get("sampler", {}).items()
    }
    if kind == "linear":
        M = np.asarray(data["matrix"], dtype=np.float64)
        B = np.asarray(data["input_map"], dtype=np.float64)
        layout = StateLayout(n=M.shape[0], m=0, a=B.shape[1])
        return EnvSpec(kind, float(data["dt"]), layout, params, sampler, matrix=M, input_map=B)
    layouts = {
        "pendulum": StateLayout(n=2, m=1, a=1),
        "vanderpol": StateLayout(n=2, m=0, a=1),
        "pointmass-relocation": pointmass_env().layout,
    }
    if kind not in layouts:
        raise ValueError(f"unknown env kind {kind!r}")
    return EnvSpec(kind, float(data["dt"]), layouts[kind], params, sampler)
