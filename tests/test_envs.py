"""Environment dynamics, samplers, scripted experts, closed-loop execution."""

import json
import re
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    ControllerModel,
    EnvSpec,
    KoopmanModel,
    LiftingSpec,
    ScriptedExpert,
    StateLayout,
    TrainConfig,
    execute_policy,
    fit,
    generate_demos,
    make_env,
    perturb_params,
    rollout,
    train,
)
from koopmanix.envs import (
    KINDS,
    EnvState,
    _check_torques,
    _closed_loop,
    _plant,
    _reset_rows,
    _rows,
    _run_expert,
    default_criterion,
    default_expert,
    env_spec_from_dict,
    env_spec_to_dict,
    linear_env,
    linear_env_random,
    pendulum_env,
    perfect_tracker,
    pointmass_env,
    reset,
    run_expert,
    step,
    vanderpol_env,
)
from koopmanix.controller import forward, init as controller_init
from koopmanix.lifting import lift, robot_slice
from koopmanix.metrics import evaluate_success


def _start_rows(spec, states):
    """The stacked start rows of several EnvStates, each through the checked one-state helper."""
    return tuple(np.concatenate(rows) for rows in zip(*(_rows(spec, state) for state in states)))


# ---- spec validation ----


def test_spec_rejects_bad_configuration():
    layout = StateLayout(n=2, m=0, a=1)
    sampler = vanderpol_env().sampler
    with pytest.raises(ValueError, match="unknown env kind"):
        EnvSpec("maze", 0.1, layout, {}, sampler)
    with pytest.raises(ValueError, match="dt"):
        EnvSpec("vanderpol", 0.0, layout, {"mu": 1.0}, sampler)
    with pytest.raises(ValueError, match="low < high"):
        EnvSpec("vanderpol", 0.1, layout, {"mu": 1.0}, sampler | {"x0": ((1.0, 0.0), (1.0, 2.0))})
    with pytest.raises(ValueError, match="overlap"):
        EnvSpec("vanderpol", 0.1, layout, {"mu": 1.0}, sampler | {"x0": ((0.0, 1.0), (0.5, 2.0))})
    with pytest.raises(ValueError, match="disjoint"):
        EnvSpec("vanderpol", 0.1, layout, {"mu": 1.0}, sampler | {"x0": ((0.0, 1.0), (0.0, 1.0))})
    with pytest.raises(ValueError, match="matrix"):
        EnvSpec("linear", 1.0, layout, {}, linear_env(np.eye(2)).sampler)
    with pytest.raises(ValueError, match="does not take"):
        EnvSpec("vanderpol", 0.1, layout, {"mu": 1.0}, sampler, matrix=np.eye(2), input_map=np.eye(2))
    with pytest.raises(ValueError, match="vanderpol dt must be finite, got nan"):
        EnvSpec("vanderpol", float("nan"), layout, {"mu": 1.0}, sampler)
    with pytest.raises(ValueError, match="vanderpol param 'mu' must be finite, got inf"):
        EnvSpec("vanderpol", 0.1, layout, {"mu": float("inf")}, sampler)
    with pytest.raises(ValueError, match=r"^vanderpol sampler 'x0'\[1\]\[1\] must be finite, got nan$"):
        EnvSpec("vanderpol", 0.1, layout, {"mu": 1.0}, sampler | {"x0": ((0.0, 1.0), (1.0, float("nan")))})
    # each raised TypeError, or was accepted as a number
    for entry, message in (((("a", 1.0), (1.5, 2.0)), "'x0'[0][0] must be a real number, got 'a'"),
                           ((0.6, 1.4), "'x0' must have shape (2, 2), got (2,)"),
                           (((False, 1.0), (1.5, 2.0)), "'x0'[0][0] must be a real number, got False"),
                           (((0.0, 1.0),), "'x0' must have shape (2, 2), got (1, 2)"),
                           ("x", "'x0' must have shape (2, 2), got ()")):
        with pytest.raises(ValueError, match=f"^vanderpol sampler {re.escape(message)}$"):
            EnvSpec("vanderpol", 0.1, layout, {"mu": 1.0}, sampler | {"x0": entry})
    with pytest.raises(ValueError, match=re.escape("env matrix[0][0] must be finite, got nan")):
        linear_env(np.array([[np.nan, 0.0], [0.0, 0.5]]))
    pend = pendulum_env()
    with pytest.raises(ValueError, match=r"^pendulum dt must be a real number, got '0.05'$"):
        EnvSpec("pendulum", "0.05", pend.layout, pend.params, pend.sampler)
    with pytest.raises(ValueError, match=r"^pendulum param 'mass' must be a real number, got '1'$"):
        EnvSpec("pendulum", 0.05, pend.layout, pend.params | {"mass": "1"}, pend.sampler)
    # numbers are stored as the Python floats they equal
    spec = EnvSpec("pendulum", 1, pend.layout, pend.params | {"mass": np.int64(2)},
                   {"target": [[np.float32(0.5), 1], [1, 2]]})
    assert (spec.dt, spec.params["mass"], spec.sampler) == (1.0, 2.0, {"target": ((0.5, 1.0), (1.0, 2.0))})
    assert {type(v) for v in (spec.dt, *spec.params.values(), *sum(spec.sampler["target"], ()))} == {float}



def test_spec_checks_params_keys_and_layout_per_kind():
    sampler = {"target": ((0.6, 1.4), (1.4, 1.8))}
    with pytest.raises(ValueError, match="^pendulum params: missing key 'mass'; accepted keys: mass, length, gravity, "):
        EnvSpec("pendulum", 0.05, StateLayout(n=2, m=1, a=1), {}, sampler)
    params = dict(pointmass_env().params)
    del params["hand_start_y"]
    with pytest.raises(ValueError, match="pointmass-relocation params: missing key 'hand_start_y'"):
        replace(pointmass_env(), params=params)
    with pytest.raises(ValueError, match="pendulum layout needs n=2, got n=3"):
        EnvSpec("pendulum", 0.05, StateLayout(n=3, m=1, a=1), pendulum_env().params, sampler)
    with pytest.raises(ValueError, match="vanderpol layout needs a=1, got a=2"):
        replace(vanderpol_env(), layout=StateLayout(n=2, m=0, a=2))
    with pytest.raises(ValueError, match="pointmass-relocation layout needs m=4, got m=2"):
        replace(pointmass_env(), layout=StateLayout(n=4, m=2, a=2))
    with pytest.raises(ValueError, match="linear layout needs m=0, got m=1"):
        replace(linear_env(np.eye(2)), layout=StateLayout(n=2, m=1, a=2))
    # every factory- and config-built spec carries what its kind reads
    for kind in KINDS:
        env_spec_from_dict(env_spec_to_dict(make_env(kind)))


@pytest.mark.parametrize("spec, drop, message", [
    (pendulum_env(), "target", "pendulum sampler: missing key 'target'; accepted keys: target"),
    (vanderpol_env(), "x0", "vanderpol sampler: missing key 'x0'; accepted keys: x0, x1"),
    (pointmass_env(), "target_x",
     "pointmass-relocation sampler: missing key 'target_x'; accepted keys: target_x, target_y"),
    (linear_env(np.eye(2)), "init_0", "linear sampler: missing key 'init_0'; accepted keys: init_0, init_1"),
], ids=["pendulum", "vanderpol", "pointmass", "linear"])
def test_spec_checks_the_sampler_keys_reset_reads(spec, drop, message):
    # reset would stop with a bare KeyError on the missing key; an empty sampler lacks the first
    misspelt = {(name + "_" if name == drop else name): ranges for name, ranges in spec.sampler.items()}
    for sampler in (misspelt, {}):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(spec, sampler=sampler)


def test_make_env_kinds_and_overrides():
    assert make_env("linear").layout.n == 5
    assert make_env("pendulum", dt=0.01).dt == 0.01
    assert make_env("vanderpol", mu=1.5).params["mu"] == 1.5
    assert make_env("pointmass-relocation").kind == "pointmass-relocation"
    with pytest.raises(ValueError, match=r"^unknown env kind 'cartpole', expected one of \('linear', "):
        make_env("cartpole")
    assert make_env("linear", dim=3, seed=4).layout.n == 3
    with pytest.raises(ValueError, match="^pendulum overrides: unknown key 'bogus'; accepted keys: dt, mass"):
        make_env("pendulum", bogus=1)
    with pytest.raises(ValueError, match="^linear overrides: unknown key 'mu'; accepted keys: dim, spectral_radius, "):
        make_env("linear", mu=1.0)
    with pytest.raises(ValueError, match="pendulum param 'mass' must be a real number, got 'heavy'"):
        make_env("pendulum", mass="heavy")
    with pytest.raises(ValueError, match="vanderpol dt must be a real number, got True"):
        make_env("vanderpol", dt=True)
    with pytest.raises(ValueError, match="linear param 'dim' must be an integer, got 2.5"):
        make_env("linear", dim=2.5)
    with pytest.raises(ValueError, match="linear param 'seed' must be an integer, got False"):
        make_env("linear", seed=False)
    assert make_env("linear", dim=np.int64(2), spectral_radius=1).layout.n == 2
    with pytest.raises(ValueError, match="pendulum param 'mass' must be finite, got nan"):
        make_env("pendulum", mass=float("nan"))
    with pytest.raises(ValueError, match="linear param 'spectral_radius' must be finite, got inf"):
        make_env("linear", spectral_radius=float("inf"))


@pytest.mark.parametrize("kind, keys", [
    ("pendulum", "dt, mass, length, gravity, damping"),
    ("vanderpol", "dt, mu"),
    ("pointmass-relocation", "dt, hand_mass, ball_mass, damping, attach_radius, tau_limit, gravity"),
    ("linear", "dim, spectral_radius, seed, dt"),
])
def test_make_env_takes_exactly_the_factory_keys(kind, keys):
    for key in keys.split(", "):
        make_env(kind, **{key: 2 if key in ("dim", "seed") else 0.5})
    refused = ["bogus"] + (["hand_start_x", "hand_start_y", "ball_start_x", "ball_start_y"]
                           if kind == "pointmass-relocation" else [])
    for key in refused:
        with pytest.raises(ValueError, match=f"^{kind} overrides: unknown key '{key}'; accepted keys: {keys}$"):
            make_env(kind, **{key: 0.5})


@pytest.mark.parametrize("factory, kind, key", [
    (pendulum_env, "pendulum", "bogus"),
    (vanderpol_env, "vanderpol", "bogus"),
    (pointmass_env, "pointmass-relocation", "hand_start_x"),
    (pointmass_env, "pointmass-relocation", "kind"),
])
def test_factory_refuses_an_unknown_keyword_as_make_env_does(factory, kind, key):
    with pytest.raises(ValueError, match=f"^{kind} overrides: unknown key '{key}'; accepted keys: dt, "):
        factory(**{key: 1})


def test_spec_refuses_params_the_kind_does_not_read():
    # the plant would silently keep its own hand_mass and ignore the misspelt key
    env = pointmass_env()
    reads = ", ".join(env.params)
    message = f"pointmass-relocation params: unknown key 'hand_mas'; accepted keys: {reads}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(env, params={**env.params, "hand_mas": 5.0})
    with pytest.raises(ValueError, match="^linear params: unknown key 'mu'; accepted keys: none$"):
        replace(linear_env(np.eye(2)), params={"mu": 1.0})
    # a block read from a manifest still names its own unknown key first
    with pytest.raises(ValueError, match="^env params: unknown key 'hand_mas'; accepted keys: hand_mass, "):
        env_spec_from_dict(env_spec_to_dict(env) | {"params": {"hand_mas": 5.0}})


def test_spec_refuses_sampler_names_the_kind_does_not_draw():
    # reset draws every sampler entry in order, so an extra one would shift every draw after it
    env = pendulum_env()
    message = "pendulum sampler: unknown key 'bogus'; accepted keys: target"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(env, sampler={"bogus": ((0.0, 1.0), (1.0, 2.0)), **env.sampler})
    message = "linear sampler: unknown key 'init_2'; accepted keys: init_0, init_1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(linear_env(np.eye(2)), sampler={**linear_env(np.eye(2)).sampler, "init_2": ((0.0, 1.0), (1.0, 2.0))})
    # a block read from a manifest still names its own unknown key first
    with pytest.raises(ValueError, match="^env sampler: unknown key 'bogus'; accepted keys: target$"):
        env_spec_from_dict(env_spec_to_dict(env) | {"sampler": {"bogus": [[0.0, 1.0], [1.0, 2.0]]}})


def test_env_spec_dict_round_trip():
    for spec in (pointmass_env(), pendulum_env(), linear_env_random(3, seed=4)):
        back = env_spec_from_dict(env_spec_to_dict(spec))
        assert back.kind == spec.kind
        assert back.dt == spec.dt
        assert back.params == spec.params
        assert back.sampler == spec.sampler
        if spec.matrix is not None:
            assert np.array_equal(back.matrix, spec.matrix)
            assert np.array_equal(back.input_map, spec.input_map)
    assert env_spec_from_dict(env_spec_to_dict(pointmass_env())).layout == pointmass_env().layout
    # a float32 mass rounded the pendulum's mgl to float32, and JSON could not write the spec
    f32 = pendulum_env(mass=np.float32(1.0))
    assert json.dumps(env_spec_to_dict(f32)) == json.dumps(env_spec_to_dict(pendulum_env()))
    ours, theirs = (generate_demos(s, default_expert(s), 3, 20, seed=0) for s in (f32, pendulum_env()))
    for a, b in zip(ours.trajectories, theirs.trajectories):
        for name in ("x_r", "x_o", "torques"):
            assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name)))
    for block, key in (({"dt": 0.05}, "'kind'"), ({"kind": "vanderpol"}, "'dt'"),
                       ({"kind": "linear", "dt": 1.0, "input_map": [[1.0]]}, "'matrix'")):
        with pytest.raises(ValueError, match=f"^env block: missing key {key}; accepted keys: kind, dt, "):
            env_spec_from_dict(block)
    with pytest.raises(ValueError, match=r"^unknown env kind 'maze', expected one of \('linear', "):
        env_spec_from_dict({"kind": "maze", "dt": 0.1})
    with pytest.raises(ValueError, match="env block must be an object"):
        env_spec_from_dict(["pendulum"])
    partial = env_spec_from_dict({"kind": "pendulum", "dt": 0.01, "params": {"mass": 2}})
    assert partial.params == {**pendulum_env().params, "mass": 2.0}
    assert partial.sampler == pendulum_env().sampler
    with pytest.raises(ValueError, match=r"^env input_map must have shape \(1, any\), got \(1,\)$"):
        env_spec_from_dict({"kind": "linear", "dt": 1.0, "matrix": [[0.5]], "input_map": [1.0]})
    with pytest.raises(ValueError, match=r"^env params: unknown key 'mu'; accepted keys: none$"):
        env_spec_from_dict({"kind": "linear", "dt": 1.0, "matrix": [[0.5]], "input_map": [[1.0]], "params": {"mu": 1}})


# ---- reset and samplers ----


def test_reset_is_seeded():
    for spec in (pointmass_env(), pendulum_env(), vanderpol_env(), linear_env_random(3)):
        a = reset(spec, seed=77)
        b = reset(spec, seed=77)
        c = reset(spec, seed=78)
        assert np.array_equal(a.composite.full, b.composite.full)
        assert a.internal == b.internal
        assert not np.array_equal(a.composite.full, c.composite.full) or a.internal != c.internal
        # row i of one batch of resets is reset(seeds[i]), bit for bit
        seeds = [77, 78, 2**62 - 1, 0]
        for distribution in ("in", "out"):
            x_r, x_o, inner = _reset_rows(spec, seeds, distribution)
            for i, seed in enumerate(seeds):
                one = reset(spec, seed, distribution)
                assert np.array_equal(_bits(x_r[i]), _bits(one.composite.x_r))
                assert np.array_equal(_bits(x_o[i]), _bits(one.composite.x_o))
                assert np.array_equal(_bits(inner[i]), _bits(np.array(one.internal, dtype=np.float64)))
    for seed, message in ((-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reset(pointmass_env(), seed)


def test_sampler_distributions_are_disjoint():
    spec = pointmass_env()
    rng = np.random.default_rng(0)
    ty_in = np.array([reset(spec, int(s), "in").internal[1] for s in rng.integers(2**32, size=200)])
    ty_out = np.array([reset(spec, int(s), "out").internal[1] for s in rng.integers(2**32, size=200)])
    lo_in, hi_in = spec.sampler["target_y"][0]
    lo_out, hi_out = spec.sampler["target_y"][1]
    assert (ty_in >= lo_in).all() and (ty_in < hi_in).all()
    assert (ty_out >= lo_out).all() and (ty_out < hi_out).all()
    assert ty_out.min() >= hi_in  # no out draw lands inside the training range
    with pytest.raises(ValueError, match="distribution"):
        reset(spec, seed=0, distribution="shifted")


def test_pointmass_reset_layout():
    spec = pointmass_env()
    st = reset(spec, seed=5)
    assert np.array_equal(st.composite.x_r, [-0.5, -0.5, 0.0, 0.0])
    target = np.array(st.internal[:2])
    # ball starts at the origin, stored relative to the target; not attached
    assert np.allclose(st.composite.x_o[:2] + target, [0.0, 0.0])
    assert np.array_equal(st.composite.x_o[2:], [0.0, 0.0])
    assert st.internal[2] == 0.0
    assert st.t == 0


# ---- single-step dynamics ----


def test_linear_step_is_exact():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    spec = linear_env(M, B)
    x = rng.normal(size=3)
    tau = rng.normal(size=2)
    out = step(spec, EnvState(CompositeState(x, []), ()), tau)
    assert np.array_equal(out.composite.x_r, M @ x + B @ tau)
    assert out.t == 1


def test_vanderpol_step_is_exact():
    spec = vanderpol_env(dt=0.05, mu=0.5)
    st = EnvState(CompositeState([2.0, 0.1], []), ())
    out = step(spec, st, np.array([0.3]))
    v = 0.1 + 0.05 * (0.5 * (1.0 - 4.0) * 0.1 - 2.0 + 0.3)
    assert out.composite.x_r[1] == pytest.approx(v, rel=1e-15)
    assert out.composite.x_r[0] == pytest.approx(2.0 + 0.05 * v, rel=1e-15)


def test_pendulum_step_is_exact():
    spec = pendulum_env(dt=0.01, mass=2.0, length=0.5, gravity=10.0, damping=0.3)
    st = EnvState(CompositeState([0.7, -0.2], [0.7 - 1.0]), (1.0,))
    out = step(spec, st, np.array([0.4]))
    alpha = (0.4 - 0.3 * -0.2 - 2.0 * 10.0 * 0.5 * np.sin(0.7)) / (2.0 * 0.5**2)
    omega = -0.2 + 0.01 * alpha
    theta = 0.7 + 0.01 * omega
    assert out.composite.x_r == pytest.approx([theta, omega], rel=1e-15)
    assert out.composite.x_o[0] == pytest.approx(theta - 1.0, rel=1e-12)


def test_fixed_points_stay_fixed():
    pend = pendulum_env()
    st = EnvState(CompositeState([0.0, 0.0], [-1.0]), (1.0,))
    out = step(pend, st, np.zeros(1))
    assert np.array_equal(out.composite.x_r, [0.0, 0.0])

    vdp = vanderpol_env()
    st = EnvState(CompositeState([0.0, 0.0], []), ())
    out = step(vdp, st, np.zeros(1))
    assert np.array_equal(out.composite.x_r, [0.0, 0.0])


def test_step_rejects_bad_torque():
    spec = pendulum_env()
    st = reset(spec, seed=0)
    with pytest.raises(ValueError, match="shape"):
        step(spec, st, np.zeros(2))
    with pytest.raises(ValueError, match="non-finite torque"):
        step(spec, st, np.array([np.nan]))
    # a state that does not fit the spec, stepped and rolled out by the expert
    wide = EnvState(CompositeState([0.1, 0.0, 7.0], [0.0]), (1.0,))
    no_target = EnvState(CompositeState([0.1, 0.0], [0.0]), ())
    for state, message in ((wide, r"state dims \(3, 1\) do not match layout \(2, 1\)"),
                           (no_target, "pendulum state has internal width 0; the kind needs 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            step(spec, state, [0.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_expert(spec, default_expert(spec), state, 5)
    pm = pointmass_env()
    st = reset(pm, seed=0)
    with pytest.raises(ValueError, match=r"^pointmass-relocation state has internal width 2; the kind needs 3$"):
        step(pm, EnvState(st.composite, st.internal[:2]), [0.0, 0.0])


def test_pendulum_energy_drift_without_damping():
    # symplectic integration keeps total energy in a narrow band
    spec = pendulum_env(dt=0.01, damping=0.0, length=9.81)
    p = spec.params
    st = EnvState(CompositeState([1.0, 0.0], [0.0]), (1.0,))

    def energy(s):
        theta, omega = s.composite.x_r
        kinetic = 0.5 * p["mass"] * p["length"] ** 2 * omega**2
        potential = p["mass"] * p["gravity"] * p["length"] * (1.0 - np.cos(theta))
        return kinetic + potential

    e0 = energy(st)
    worst = 0.0
    for _ in range(2000):
        st = step(spec, st, np.zeros(1))
        worst = max(worst, abs(energy(st) - e0) / e0)
    assert worst < 0.01


# ---- pointmass mechanics ----


def test_pointmass_gravity_pulls_and_hold_torque_cancels():
    spec = pointmass_env()
    p = spec.params
    st = reset(spec, seed=11)
    dropped = step(spec, st, np.zeros(2))
    vy = -spec.dt * p["gravity"]
    assert dropped.composite.x_r[3] == pytest.approx(vy, rel=1e-15)
    assert dropped.composite.x_r[1] == pytest.approx(-0.5 + spec.dt * vy, rel=1e-14)

    held = step(spec, st, np.array([0.0, p["hand_mass"] * p["gravity"]]))
    assert np.array_equal(held.composite.x_r, st.composite.x_r)


def test_pointmass_free_ball_rests():
    spec = pointmass_env()
    st = reset(spec, seed=11)
    rel0 = st.composite.x_o[:2].copy()
    for _ in range(5):
        st = step(spec, st, np.zeros(2))
    assert st.internal[2] == 0.0
    assert np.array_equal(st.composite.x_o[:2], rel0)
    assert np.array_equal(st.composite.x_o[2:], [0.0, 0.0])


def test_pointmass_free_ball_velocity_has_no_sign_bit():
    # the hand moves in -x/-y, away from the ball, so the ball stays free and
    # its velocity must be written as +0.0 (the demo CSVs would show -0.0)
    spec = pointmass_env()
    st = reset(spec, seed=11)
    st = EnvState(CompositeState([-0.5, -0.5, -1.0, -1.0], st.composite.x_o), st.internal)
    for _ in range(3):
        st = step(spec, st, np.array([-5.0, -5.0]))
    assert st.internal[2] == 0.0
    assert np.array_equal(st.composite.x_o[2:], [0.0, 0.0])
    assert not np.signbit(st.composite.x_o[2:]).any()


def test_pointmass_attaches_and_ball_tracks_hand():
    spec = pointmass_env()
    expert = default_expert(spec)
    st = reset(spec, seed=123)
    rng = np.random.default_rng(9)
    target = np.array(st.internal[:2])
    attach_t = None
    for _ in range(99):
        hand = st.composite.x_r[:2]
        ball = st.composite.x_o[:2] + target
        was_close = np.linalg.norm(hand - ball) <= spec.params["attach_radius"]
        st = step(spec, st, run_expert(spec, expert, st, 2, rng).torques[0])
        if was_close:
            # attachment is decided from the pre-step positions
            assert st.internal[2] == 1.0
        if st.internal[2]:
            if attach_t is None:
                attach_t = st.t
            # positions are stored target-relative, so adding the target back
            # reintroduces one rounding; velocities are stored directly
            assert np.allclose(st.composite.x_o[:2] + target, st.composite.x_r[:2], atol=1e-12)
            assert np.array_equal(st.composite.x_o[2:], st.composite.x_r[2:])
    assert attach_t is not None


def test_pointmass_torque_saturates():
    spec = pointmass_env()
    lim = spec.params["tau_limit"]
    st = reset(spec, seed=2)
    huge = step(spec, st, np.array([1e6, 1e6]))
    capped = step(spec, st, np.array([lim, lim]))
    assert np.array_equal(huge.composite.x_r, capped.composite.x_r)


def _pointmass_row(spec, x_r, x_o, inner, tau):
    """One pointmass transition written out on one row, in the plant's operand order."""
    p, dt = spec.params, spec.dt
    hand, vel, target = x_r[:2], x_r[2:], inner[:2]
    ball = x_o[:2] + target
    gap = hand - ball
    attached = 1.0 if inner[2] or np.hypot(gap[0], gap[1]) <= p["attach_radius"] else 0.0
    m_eff = p["hand_mass"] + p["ball_mass"] * attached
    acc = np.minimum(np.maximum(tau, -p["tau_limit"]), p["tau_limit"])
    acc = (acc - p["damping"] * vel - m_eff * np.array([0.0, p["gravity"]])) / m_eff
    vel_new = vel + dt * acc
    hand_new = hand + dt * vel_new
    ball_vel = vel_new if attached else np.zeros(2)
    if attached:
        ball = hand_new
    return np.concatenate([hand_new, vel_new]), np.concatenate([ball - target, ball_vel]), attached


def test_batched_pointmass_plant_matches_step_on_edge_rows():
    spec = pointmass_env()
    lim = spec.params["tau_limit"]
    target = (0.125, 0.25)  # binary fractions: x_o = -target puts the ball exactly at the origin
    rows = [  # (x_r, x_o, attached, tau)
        # free and far, torques past the limit on both axes, either sign
        ([-0.5, -0.5, 0.3, -0.2], [-0.125, -0.25, 0.0, 0.0], 0.0, [3 * lim, -3 * lim]),
        ([-0.5, -0.5, 0.0, 0.0], [-0.125, -0.25, 0.0, 0.0], 0.0, [-1e6, 1e6]),
        # attached before the step, torques at and past the limit
        ([0.4, 0.3, 0.5, -0.7], [0.3, 0.1, 0.5, -0.7], 1.0, [lim, -2 * lim]),
        ([0.4, 0.3, -0.5, 0.7], [0.3, 0.1, -0.5, 0.7], 1.0, [-lim, 10.0]),
        # attaches during the step: within the radius, and exactly on it
        ([0.1, 0.05, -0.2, 0.1], [-0.125, -0.25, 0.0, 0.0], 0.0, [5.0, 50.0]),
        ([0.2, 0.0, 0.0, 0.0], [-0.125, -0.25, 0.0, 0.0], 0.0, [0.0, 0.0]),
        # one ulp outside the radius stays free
        ([np.nextafter(0.2, 1.0), 0.0, 0.0, 0.0], [-0.125, -0.25, 0.0, 0.0], 0.0, [0.0, 0.0]),
        # free, the hand moving off in -x/-y: the ball's velocity is written
        # as +0.0 even where the input row held -0.0
        ([-0.5, -0.5, -1.0, -1.0], [-0.125, -0.25, -0.0, -0.0], 0.0, [-5.0, -5.0]),
        ([-0.6, -0.4, -2.0, 0.0], [-0.125, -0.25, 0.0, -0.0], 0.0, [-2 * lim, -2 * lim]),
    ]
    B = len(rows)
    # strided rows, as `_run` hands them over: step 0 and step 1 of (B, 2, ...) arrays
    X, O, tau = np.zeros((B, 2, 4)), np.zeros((B, 2, 4)), np.zeros((B, 1, 2))
    inner = np.empty((B, 3))
    for i, (x_r, x_o, attached, torque) in enumerate(rows):
        X[i, 0], O[i, 0], inner[i], tau[i, 0] = x_r, x_o, (*target, attached), torque
    before = inner.copy()
    _plant(spec)(X[:, 0], O[:, 0], inner, tau[:, 0], X[:, 1], O[:, 1])
    assert inner[:, 2].tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    for i, (x_r, x_o, attached, torque) in enumerate(rows):
        one = step(spec, EnvState(CompositeState(x_r, x_o), tuple(before[i])), np.array(torque))
        assert np.array_equal(_bits(X[i, 1]), _bits(one.composite.x_r))
        assert np.array_equal(_bits(O[i, 1]), _bits(one.composite.x_o))
        assert inner[i].tolist() == list(one.internal)
        want_r, want_o, want_attached = _pointmass_row(spec, X[i, 0], O[i, 0], before[i], tau[i, 0])
        assert np.array_equal(_bits(X[i, 1]), _bits(want_r))
        assert np.array_equal(_bits(O[i, 1]), _bits(want_o))
        assert inner[i, 2] == want_attached
    free = inner[:, 2] == 0.0
    assert not np.signbit(O[free, 1, 2:]).any()
    # the clip: each axis past the limit moves as one at the limit
    capped = np.clip(tau[:2, 0], -lim, lim)
    again = X.copy()
    _plant(spec)(X[:2, 0], O[:2, 0], before[:2].copy(), capped, again[:2, 1], O[:2, 1].copy())
    assert np.array_equal(_bits(again[:2, 1]), _bits(X[:2, 1]))


def test_perturb_params_ratios():
    spec = pointmass_env()
    assert perturb_params(spec, "heavy-object").params["ball_mass"] == pytest.approx(1.88)
    assert perturb_params(spec, "light-hand").params["hand_mass"] == 3.0
    assert perturb_params(spec, "heavy-hand").params["hand_mass"] == 5.0
    # everything else untouched
    heavy = perturb_params(spec, "heavy-hand")
    same = {k: v for k, v in heavy.params.items() if k != "hand_mass"}
    assert same == {k: v for k, v in spec.params.items() if k != "hand_mass"}
    with pytest.raises(ValueError, match="unknown variation"):
        perturb_params(spec, "slippery")
    with pytest.raises(ValueError, match="pointmass"):
        perturb_params(pendulum_env(), "heavy-hand")


# ---- experts and demonstrations ----


def test_expert_kind_must_match():
    with pytest.raises(ValueError, match="does not match"):
        run_expert(pendulum_env(), ScriptedExpert("vanderpol", {}), reset(pendulum_env(), 0), 2)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "maze"}, "unknown env kind 'maze', expected one of ('linear', 'pendulum', 'vanderpol', "
                       "'pointmass-relocation')"),
    ({"gains": {"kp": 16.0}}, "pendulum gains: missing key 'kd'; accepted keys: kp, kd"),
    ({"gains": {"kp": 16.0, "kd": 8.0, "ki": 1.0}}, "pendulum gains: unknown key 'ki'; accepted keys: kp, kd"),
    ({"gains": {"kp": "16", "kd": 8.0}}, "pendulum gain 'kp' must be a real number, got '16'"),
    ({"gains": {"kp": 16.0, "kd": float("inf")}}, "pendulum gain 'kd' must be finite, got inf"),
    ({"noise_scale": float("nan")}, "pendulum noise_scale must be finite, got nan"),
    ({"noise_scale": -1.0}, "pendulum noise_scale must be >= 0, got -1.0"),
    ({"noise_scale": True}, "pendulum noise_scale must be a real number, got True"),
], ids=["kind", "gain-missing", "gain-extra", "gain-string", "gain-inf", "noise-nan", "noise-negative", "noise-bool"])
def test_expert_checks_its_fields(fields, message):
    # a NaN or negative noise_scale used to drop the jitter silently, and a missing gain raised a bare KeyError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScriptedExpert(**({"kind": "pendulum", "gains": {"kp": 16.0, "kd": 8.0}} | fields))


@pytest.mark.parametrize("build, message", [
    (lambda: ScriptedExpert("pendulum", None), "pendulum gains must be an object, got None"),
    (lambda: replace(pendulum_env(), params=None), "pendulum params must be an object, got None"),
    (lambda: replace(pendulum_env(), sampler=None), "pendulum sampler must be an object, got None"),
], ids=["expert-gains", "spec-params", "spec-sampler"])
def test_keyed_fields_must_be_objects(build, message):
    # each raised a TypeError or AttributeError, naming no field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_keyed_fields_take_any_mapping():
    # a read-only mapping is an object too, and is stored as a plain dict
    expert = ScriptedExpert("pendulum", MappingProxyType({"kp": 16, "kd": 8}))
    spec = pendulum_env()
    spec = replace(spec, params=MappingProxyType(spec.params), sampler=MappingProxyType(spec.sampler))
    assert expert.gains == {"kp": 16.0, "kd": 8.0} and spec == pendulum_env()
    assert {type(expert.gains), type(spec.params), type(spec.sampler)} == {dict}


def test_expert_stores_its_numbers_as_floats():
    expert = ScriptedExpert("pendulum", {"kp": np.int64(16), "kd": 8}, np.float64(0.5))
    assert expert.gains == {"kp": 16.0, "kd": 8.0} and expert.noise_scale == 0.5
    assert {type(v) for v in (*expert.gains.values(), expert.noise_scale)} == {float}
    assert ScriptedExpert("vanderpol", {}).gains == {}


def test_expert_noise_requires_rng():
    spec = pointmass_env()
    expert = default_expert(spec)
    st = reset(spec, seed=4)
    quiet = run_expert(spec, expert, st, 2, None).torques[0]
    assert np.array_equal(quiet, run_expert(spec, expert, st, 2, None).torques[0])
    noisy = run_expert(spec, expert, st, 2, np.random.default_rng(0)).torques[0]
    assert not np.array_equal(quiet, noisy)
    assert (np.abs(noisy) <= spec.params["tau_limit"]).all()


def test_pendulum_expert_reaches_target():
    spec = pendulum_env()
    expert = default_expert(spec)
    criterion = default_criterion(spec)
    demos = generate_demos(spec, expert, 20, 100, seed=42)
    for traj in demos.trajectories:
        assert evaluate_success(traj, criterion).success
        assert abs(traj.states[-1].x_o[0]) < 0.01


def test_pointmass_expert_succeeds_in_distribution():
    spec = pointmass_env()
    expert = default_expert(spec)
    criterion = default_criterion(spec)
    demos = generate_demos(spec, expert, 20, 100, seed=42)
    wins = sum(evaluate_success(t, criterion).success for t in demos.trajectories)
    assert wins == 20


def test_generate_demos_is_seeded():
    spec = pointmass_env()
    expert = default_expert(spec)
    a = generate_demos(spec, expert, 3, 20, seed=6)
    b = generate_demos(spec, expert, 3, 20, seed=6)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.states[-1].full, tb.states[-1].full)
        assert np.array_equal(np.stack(ta.torques), np.stack(tb.torques))
    c = generate_demos(spec, expert, 3, 20, seed=7)
    assert not np.array_equal(a.trajectories[0].states[-1].full, c.trajectories[0].states[-1].full)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


@pytest.mark.parametrize("kind", ["pendulum", "vanderpol", "pointmass-relocation", "linear"])
def test_lockstep_demos_equal_single_rollouts(kind):
    # generate_demos steps every trajectory in one batch; each must equal the
    # one-row rollout from its re-derived reset and noise seeds
    spec = make_env(kind, dim=3, seed=2) if kind == "linear" else make_env(kind)
    expert = default_expert(spec)
    demos = generate_demos(spec, expert, 7, 40, seed=13, distribution="out")
    root = np.random.default_rng(13)
    for traj in demos.trajectories:
        reset_seed, noise_seed = int(root.integers(2**62)), int(root.integers(2**62))
        one = run_expert(spec, expert, reset(spec, reset_seed, "out"), 40, np.random.default_rng(noise_seed))
        for got, want in ((traj.x_r, one.x_r), (traj.x_o, one.x_o), (traj.torques, one.torques)):
            assert np.array_equal(_bits(got), _bits(want))


def test_run_expert_shapes():
    spec = pendulum_env()
    traj = run_expert(spec, default_expert(spec), reset(spec, 1), horizon=30)
    assert traj.horizon == 30
    assert len(traj.torques) == 29
    with pytest.raises(ValueError, match="horizon"):
        run_expert(spec, default_expert(spec), reset(spec, 1), horizon=1)
    with pytest.raises(ValueError, match=r"^horizon must be an integer, got 4\.0$"):
        run_expert(spec, default_expert(spec), reset(spec, 1), horizon=4.0)
    # the noisy pointmass expert draws no noise for a horizon it cannot run
    with pytest.raises(ValueError, match=r"^horizon must be >= 2, got 0$"):
        generate_demos(pointmass_env(), default_expert(pointmass_env()), 2, 0, seed=0)
    far = EnvState(CompositeState([1e308, 0.0], [1e308]), (1.0,))
    with pytest.raises(ValueError, match="non-finite torque at step 1$"), np.errstate(over="ignore"):
        run_expert(spec, default_expert(spec), far, horizon=5)


@pytest.mark.filterwarnings("error")
def test_torque_errors_number_the_first_transition_step_1():
    # the plant, the expert and the closed loop count a torque's step by the
    # state it would produce, and name the row only in a batch
    spec = pendulum_env()
    init = reset(spec, 0)
    with pytest.raises(ValueError, match=r"^step was given non-finite torque at step 1$"):
        step(spec, init, np.array([np.nan]))
    later = step(spec, step(spec, init, np.zeros(1)), np.zeros(1))
    with pytest.raises(ValueError, match=r"^step was given non-finite torque at step 3$"):
        step(spec, later, np.array([np.inf]))
    far = EnvState(CompositeState([1e308, 0.0], [1e308]), (1.0,))
    # the expert steps past its non-finite torque under _run's own invalid-value suppression
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^expert produced non-finite torque at step 1$"):
            run_expert(spec, default_expert(spec), far, horizon=5)
        with pytest.raises(ValueError, match=r"^expert produced non-finite torque at step 1, row 1$"):
            _run_expert(spec, default_expert(spec), _start_rows(spec, [init, far, far]), 5, None)
    model = fit(generate_demos(spec, default_expert(spec), 3, 10, seed=0), LiftingSpec("identity", spec.layout))
    with pytest.raises(ValueError, match=r"^controller produced non-finite torque at step 1$"):
        execute_policy(model, lambda x_now, x_next: np.array([np.nan]), spec, init, horizon=5)


@pytest.mark.parametrize("block, message", [
    ({"dt": "0.05"}, "pendulum dt must be a real number, got '0.05'"),
    ({"params": [1]}, "env params must be an object, got [1]"),
    ({"params": {"mass": "abc"}}, "pendulum param 'mass' must be a real number, got 'abc'"),
    ({"params": {"mass": True}}, "pendulum param 'mass' must be a real number, got True"),
    ({"params": {"bogus": 1.0}},
     "env params: unknown key 'bogus'; accepted keys: mass, length, gravity, damping"),
    ({"sampler": {"target": [[0.6, 1.4]]}}, "pendulum sampler 'target' must have shape (2, 2), got (1, 2)"),
    ({"sampler": {"target": [[0.6, 1.4], [1.4, "x"]]}}, "pendulum sampler 'target'[1][1] must be a real number, got 'x'"),
    ({"sampler": {"goal": [[0.6, 1.4], [1.4, 1.8]]}},
     "env sampler: unknown key 'goal'; accepted keys: target"),
    ({"parms": {"mass": 9.0}}, "env block: unknown key 'parms'; accepted keys: kind, dt, params, sampler"),
    ({"matrix": [[0.5]]}, "env block: unknown key 'matrix'; accepted keys: kind, dt, params, sampler"),
], ids=["dt-string", "params-list", "param-string", "param-bool", "param-unknown", "sampler-one-range",
        "sampler-string-bound", "sampler-unknown", "block-unknown", "block-matrix-on-pendulum"])
def test_env_spec_from_dict_names_the_bad_key(block, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        env_spec_from_dict({"kind": "pendulum", "dt": 0.05} | block)


@pytest.mark.parametrize("block, message", [
    ({"matrix": [["a"]]}, "env matrix[0][0] must be a real number, got 'a'"),
    ({"matrix": [[0.5, 0.0], [0.0]]}, "env matrix[1] must have shape (2,), got (1,)"),
    ({"matrix": [[True]]}, "env matrix[0][0] must be a real number, got True"),
    ({"matrix": []}, "env matrix must have shape (any, any), got (0,)"),
    ({"matrix": "eye"}, "env matrix must have shape (any, any), got ()"),
    ({"input_map": [[None]]}, "env input_map[0][0] must be a real number, got None"),
    ({"input_map": [[1.0], [1.0, 2.0]]}, "env input_map[1] must have shape (1,), got (2,)"),
], ids=["matrix-string", "matrix-ragged", "matrix-bool", "matrix-empty", "matrix-not-a-list",
        "input-map-null", "input-map-ragged"])
def test_env_spec_from_dict_names_the_bad_linear_block_key(block, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        env_spec_from_dict({"kind": "linear", "dt": 1.0, "matrix": [[0.5]], "input_map": [[1.0]]} | block)


@pytest.mark.parametrize("kind, key, value, message", [
    ("pendulum", "mass", 0.0, "pendulum param 'mass' must be > 0, got 0.0"),
    ("pendulum", "length", -1.0, "pendulum param 'length' must be > 0, got -1.0"),
    ("pointmass-relocation", "hand_mass", 0.0, "pointmass-relocation param 'hand_mass' must be > 0, got 0.0"),
    ("pointmass-relocation", "ball_mass", -0.1, "pointmass-relocation param 'ball_mass' must be >= 0, got -0.1"),
    ("pointmass-relocation", "tau_limit", -1.0, "pointmass-relocation param 'tau_limit' must be > 0, got -1.0"),
    ("pointmass-relocation", "tau_limit", 0.0, "pointmass-relocation param 'tau_limit' must be > 0, got 0.0"),
    ("linear", "dim", 0, "linear param 'dim' must be >= 1, got 0"),
    ("linear", "dim", 2.5, "linear param 'dim' must be an integer, got 2.5"),
    ("linear", "dim", True, "linear param 'dim' must be an integer, got True"),
    ("linear", "seed", 1.5, "linear param 'seed' must be an integer, got 1.5"),
    ("linear", "spectral_radius", "0.9", "linear param 'spectral_radius' must be a real number, got '0.9'"),
    ("linear", "spectral_radius", float("inf"), "linear param 'spectral_radius' must be finite, got inf"),
    ("linear", "spectral_radius", float("nan"), "linear param 'spectral_radius' must be finite, got nan"),
    ("linear", "spectral_radius", -0.5, "linear param 'spectral_radius' must be >= 0, got -0.5"),
], ids=["pendulum-mass", "pendulum-length", "hand-mass", "ball-mass", "tau-limit-negative", "tau-limit-zero",
        "linear-dim", "linear-dim-float", "linear-dim-bool", "linear-seed-float", "linear-radius-string",
        "linear-radius-inf", "linear-radius-nan", "linear-radius-negative"])
def test_physical_params_are_bounded_at_the_spec(kind, key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_env(kind, **{key: value})
    if kind != "linear":  # a manifest env block reaches the same check
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            env_spec_from_dict({"kind": kind, "dt": 0.05, "params": {key: value}})
    else:  # and so does a direct call of the linear factory
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linear_env_random(**{"dim": 2, key: value})


def test_physical_params_at_their_bounds_and_perturbed_stay_valid():
    assert make_env("pointmass-relocation", ball_mass=0.0).params["ball_mass"] == 0.0
    assert make_env("linear", dim=1).layout.n == 1
    spec = pointmass_env()
    for variation in ("heavy-object", "light-hand", "heavy-hand", "light-hand"):
        spec = perturb_params(spec, variation)
    assert spec.params["hand_mass"] > 0 and spec.params["ball_mass"] > 0


def test_default_criterion_kinds():
    assert default_criterion(vanderpol_env()) is None
    assert default_criterion(linear_env_random(2)) is None
    assert default_criterion(pendulum_env()).kind == "terminal-distance"
    assert default_criterion(pointmass_env()).kind == "cumulative-proximity"


# ---- closed-loop execution ----


def test_execute_policy_with_perfect_tracker():
    spec = linear_env_random(3, seed=8)
    demos = generate_demos(spec, default_expert(spec), 10, 30, seed=0)
    model = fit(demos, LiftingSpec("identity", spec.layout))
    init = reset(spec, seed=99)
    executed = execute_policy(model, perfect_tracker(spec), spec, init, horizon=25)
    ref = rollout(model, init.composite, 25)
    got = np.stack([s.x_r for s in executed.states])
    assert np.allclose(got, ref, atol=1e-10)


@pytest.mark.parametrize("horizon, message", [
    (0, "horizon must be >= 2, got 0"),
    (1, "horizon must be >= 2, got 1"),
    (-3, "horizon must be >= 2, got -3"),
    (3.0, "horizon must be an integer, got 3.0"),
], ids=["0", "1", "-3", "3.0"])
def test_execute_policy_refuses_a_short_horizon_before_the_reference(horizon, message):
    # the reference rollout's own bound is 1, so the closed loop's bound is checked first
    spec = linear_env_random(2, seed=0)
    model = fit(generate_demos(spec, default_expert(spec), 5, 10, seed=0), LiftingSpec("identity", spec.layout))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        execute_policy(model, perfect_tracker(spec), spec, reset(spec, seed=1), horizon)


@pytest.mark.parametrize("fields, message", [
    ({"n_demos": 2.5}, "n_demos must be an integer, got 2.5"),
    ({"n_demos": True}, "n_demos must be an integer, got True"),
    ({"n_demos": 0}, "n_demos must be >= 1, got 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"horizon": 2.5}, "horizon must be an integer, got 2.5"),
], ids=["n-demos-float", "n-demos-bool", "n-demos-zero", "seed-negative", "seed-float", "horizon-float"])
def test_generate_demos_names_the_argument_at_fault(fields, message):
    spec = pointmass_env()
    args = {"n_demos": 2, "horizon": 5, "seed": 0} | fields
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_demos(spec, default_expert(spec), **args)


def test_execute_policy_validation():
    spec = linear_env_random(2, seed=0)
    demos = generate_demos(spec, default_expert(spec), 5, 10, seed=0)
    model = fit(demos, LiftingSpec("identity", spec.layout))
    init = reset(spec, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        execute_policy(model, perfect_tracker(spec), spec, init, horizon=1)
    with pytest.raises(ValueError, match="controller"):
        execute_policy(model, "not-a-controller", spec, init, horizon=5)
    bad = lambda x_now, x_next: np.full(spec.layout.a, np.nan)
    with pytest.raises(ValueError, match="non-finite torque at step 1"):
        execute_policy(model, bad, spec, init, horizon=5)
    wide = lambda x_now, x_next: np.zeros(spec.layout.a + 1)
    with pytest.raises(ValueError, match=r"torque must have shape \(2,\), got \(3,\)"):
        execute_policy(model, wide, spec, init, horizon=5)
    wide_nan = lambda x_now, x_next: np.full(spec.layout.a + 1, np.nan)
    with pytest.raises(ValueError, match=r"torque must have shape \(2,\), got \(3,\)"):
        execute_policy(model, wide_nan, spec, init, horizon=5)
    # a start state that does not fit the spec
    wide = EnvState(CompositeState([0.1, 0.0, 7.0], []), ())
    for state, message in ((wide, r"state dims \(3, 0\) do not match layout \(2, 0\)"),
                           (EnvState(init.composite, (1.0,)), "linear state has internal width 1; the kind needs 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            execute_policy(model, perfect_tracker(spec), spec, state, horizon=5)


def test_closed_loop_names_a_model_for_another_layout():
    # the reference rollout used to fail on a raw block's shape, naming neither layout
    pendulum, vanderpol = pendulum_env(), vanderpol_env()
    model = KoopmanModel(np.eye(3), LiftingSpec("identity", pendulum.layout), pendulum.layout)
    want = "env vanderpol has layout (n=2, m=0); the model needs (n=2, m=1)"
    for controller in (controller_init(vanderpol.layout, seed=0), lambda x_now, x_next: np.zeros(1)):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            execute_policy(model, controller, vanderpol, reset(vanderpol, 0), 10)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            _closed_loop(model, controller, vanderpol, _reset_rows(vanderpol, [0, 1], "in"), 10)


START = CompositeState([0.0, 0.0], [-1.0])


@pytest.mark.parametrize("fields, message", [
    ((START, ("a",)), "internal[0] must be a real number, got 'a'"),
    ((START, (np.nan,)), "internal[0] must be finite, got nan"),
    ((START, (1.0,), 1.5), "t must be an integer, got 1.5"),
    ((START, (1.0,), -1), "t must be >= 0, got -1"),
    (([0.0, 0.0, -1.0], (1.0,)), "composite must be a CompositeState, got [0.0, 0.0, -1.0]"),
], ids=["internal-word", "internal-nan", "t-fraction", "t-negative", "composite-list"])
def test_env_state_checks_its_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EnvState(*fields)


def test_env_state_stores_python_numbers():
    state = EnvState(START, np.array([0.25]), np.int64(2))
    assert state.internal == (0.25,) and type(state.internal[0]) is float and type(state.t) is int


def test_execute_policy_rejects_controller_for_another_layout():
    spec = linear_env_random(2, seed=0)
    demos = generate_demos(spec, default_expert(spec), 5, 10, seed=0)
    model = fit(demos, LiftingSpec("identity", spec.layout))
    init = reset(spec, seed=1)
    for layout in (StateLayout(n=3, m=0, a=2), StateLayout(n=2, m=0, a=1)):
        other = controller_init(layout, seed=0)
        want = f"controller maps {2 * layout.n} inputs to {layout.a} torques; the layout needs 4 to 2"
        with pytest.raises(ValueError, match=want):
            execute_policy(model, other, spec, init, horizon=5)


def test_perfect_tracker_linear_only():
    with pytest.raises(ValueError, match="linear"):
        perfect_tracker(pendulum_env())


# ---- the lockstep closed loop against the per-step loop it replaced ----


def _oracle_reference(model, init, horizon):
    """The one-reference loop `rollout` ran before the lockstep rollout: K @ g per step."""
    rs = robot_slice(model.spec)
    g = lift(model.spec, init)
    out = np.empty((horizon, model.layout.n))
    out[0] = g[rs]
    for t in range(1, horizon):
        g = np.dot(model.K, g)
        out[t] = g[rs]
    return out


def _oracle_episode(model, controller, spec, init, horizon):
    """The per-step loop `execute_policy` ran before the lockstep closed loop,
    kept as an oracle: one reference row, one checked `forward` call and one
    `step` per time step."""
    ref = _oracle_reference(model, init.composite, horizon)
    state, x_r, x_o, taus = init, [init.composite.x_r], [init.composite.x_o], []
    for t in range(horizon - 1):
        tau = forward(controller, state.composite.x_r, ref[t + 1])
        state = step(spec, state, tau)
        x_r.append(state.composite.x_r)
        x_o.append(state.composite.x_o)
        taus.append(tau)
    return np.stack(x_r), np.stack(x_o), np.stack(taus)


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.int64)


_KIND_ENVS = {
    "linear": lambda: linear_env_random(3, seed=8),
    "pendulum": pendulum_env,
    "vanderpol": vanderpol_env,
    "pointmass-relocation": pointmass_env,
}


@pytest.fixture(scope="module")
def kind_pipelines():
    """Per kind: env, kodex model and a briefly trained controller."""
    out = {}
    for kind, make in _KIND_ENVS.items():
        env = make()
        demos = generate_demos(env, default_expert(env), 30, 60, seed=4)
        model = fit(demos, LiftingSpec("kodex-polynomial", env.layout))
        controller, _ = train(demos, TrainConfig(learning_rate=1e-3, iterations=80, batch=256, seed=7))
        out[kind] = (env, model, controller)
    return out


@pytest.mark.parametrize("kind", list(_KIND_ENVS))
def test_execute_policy_matches_per_step_oracle_bit_for_bit(kind_pipelines, kind):
    env, model, controller = kind_pipelines[kind]
    horizon = 50
    for seed in range(3):
        init = reset(env, seed)
        got = execute_policy(model, controller, env, init, horizon)
        want = _oracle_episode(model, controller, env, init, horizon)
        for have, exp in zip((got.x_r, got.x_o, got.torques), want):
            assert np.array_equal(_bits(have), _bits(exp))


def test_oracle_episodes_reach_the_carry_branch(kind_pipelines):
    # the pointmass case above only covers the plant if some episode carries the ball
    env, model, controller = kind_pipelines["pointmass-relocation"]
    carried = [
        np.any(execute_policy(model, controller, env, reset(env, seed), 50).x_o[:, 2:] != 0.0)
        for seed in range(3)
    ]
    assert any(carried)


@pytest.mark.parametrize("kind", list(_KIND_ENVS))
def test_batch_matches_single_episodes(kind_pipelines, kind):
    env, model, controller = kind_pipelines[kind]
    inits = [reset(env, seed, distribution) for seed in range(6) for distribution in ("in", "out")]
    batch = _closed_loop(model, controller, env, _start_rows(env, inits), 50)
    assert len(batch) == len(inits)
    for init, got in zip(inits, batch):
        one = execute_policy(model, controller, env, init, 50)
        for have, exp in ((got.x_r, one.x_r), (got.x_o, one.x_o), (got.torques, one.torques)):
            assert np.array_equal(_bits(have), _bits(exp))


def test_batch_trajectories_are_read_only_blocks():
    spec = pendulum_env()
    ctrl = controller_init(spec.layout, seed=0)
    model = fit(generate_demos(spec, default_expert(spec), 5, 20, seed=0), LiftingSpec("identity", spec.layout))
    trajs = _closed_loop(model, ctrl, spec, _reset_rows(spec, range(3), "in"), 10)
    # each trajectory is a block of the batch's arrays, not a copy of it
    assert all(traj.x_r.base is trajs[0].x_r.base is not None for traj in trajs)
    for traj in trajs:
        assert traj.x_r.shape == (10, 2) and traj.x_o.shape == (10, 1) and traj.torques.shape == (9, 1)
        for arr in (traj.x_r, traj.x_o, traj.torques):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def test_torque_check_names_the_earliest_step_then_the_lowest_row():
    torques = np.zeros((4, 8, 2))
    _check_torques(torques, "controller produced")
    torques[2, 4, 1] = np.nan  # row 2 at step 5
    torques[0, 2, 0] = np.inf  # row 0 at step 3
    with pytest.raises(ValueError, match=r"non-finite torque at step 3, row 0$"):
        _check_torques(torques, "controller produced")
    # the earliest step wins over the lowest row
    torques[0, 2, 0], torques[0, 6, 0], torques[3, 1, 1] = 0.0, np.nan, -np.inf
    with pytest.raises(ValueError, match=r"non-finite torque at step 2, row 3$"):
        _check_torques(torques, "controller produced")
    # at one step, the lowest row
    torques[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"non-finite torque at step 2, row 1$"):
        _check_torques(torques, "controller produced")
    # one row names no row
    with pytest.raises(ValueError, match=r"non-finite torque at step 7$"):
        _check_torques(torques[:1], "controller produced")
    # finite values whose sum overflows are finite
    _check_torques(np.full((2, 3, 2), 1e308), "controller produced")


@pytest.mark.filterwarnings("error")
def test_network_torque_overflow_is_named_after_the_loop_without_warnings():
    spec = pendulum_env()
    model = fit(generate_demos(spec, default_expert(spec), 5, 20, seed=0), LiftingSpec("identity", spec.layout))
    # torque = 1e308 theta: theta = 2 overflows at step 1; theta = 0.5 gives
    # a finite torque that flings the joint, and the next one overflows
    big = np.zeros((1, 4))
    big[0, 0] = 1e308
    net = ControllerModel((4, 1), (big,), (np.zeros(1),), np.zeros(4), np.ones(4))
    starts = [EnvState(CompositeState([theta, 0.0], [theta - 1.0]), (1.0,)) for theta in (0.5, 2.0, 0.0)]
    # the loop steps past the inf torque: sin(inf) and inf - inf on later
    # steps must not warn, or the warning filter would raise first
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"non-finite torque at step 1, row 1$"):
            _closed_loop(model, net, spec, _start_rows(spec, starts), 8)
        with pytest.raises(ValueError, match=r"non-finite torque at step 2, row 0$"):
            _closed_loop(model, net, spec, _start_rows(spec, starts[::2]), 8)
        with pytest.raises(ValueError, match=r"non-finite torque at step 1$"):
            execute_policy(model, net, spec, starts[1], 8)
        (calm,) = _closed_loop(model, net, spec, _start_rows(spec, starts[2:]), 8)
    assert np.isfinite(calm.torques).all()


def test_non_finite_torque_names_step_and_row():
    spec = linear_env_random(2, seed=0)
    model = fit(generate_demos(spec, default_expert(spec), 5, 10, seed=0), LiftingSpec("identity", spec.layout))
    inits = [reset(spec, seed=s) for s in range(4)]
    calls = []

    def flaky(x_now, x_next):
        calls.append(None)
        return np.array([np.nan, 0.0]) if len(calls) == 3 * 4 + 3 else np.zeros(2)

    with pytest.raises(ValueError, match=r"non-finite torque at step 4, row 2$"):
        _closed_loop(model, flaky, spec, _start_rows(spec, inits), 6)

    # a network whose first output overflows on row 1 only, at the first step
    big = np.zeros((2, 4))
    big[0, 0] = 1e308
    net = ControllerModel((4, 2), (big,), (np.zeros(2),), np.zeros(4), np.ones(4))
    far = [EnvState(CompositeState([0.5 if i != 1 else 10.0, 0.0], []), ()) for i in range(3)]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"non-finite torque at step 1, row 1$"):
            _closed_loop(model, net, spec, _start_rows(spec, far), 6)
        with pytest.raises(ValueError, match=r"non-finite torque at step 1$"):
            execute_policy(model, net, spec, far[1], 6)
    # finite torques whose sum overflows are still finite
    huge = ControllerModel((4, 2), (np.zeros((2, 4)),), (np.full(2, 1e308),), np.zeros(4), np.ones(4))
    with np.errstate(over="ignore"):
        (traj,) = _closed_loop(model, huge, spec, _start_rows(spec, far[:1]), 2)
    assert (traj.torques == 1e308).all()
