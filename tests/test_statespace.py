"""Composite states, columnar trajectories, validation, the pairs a fit sees, and the array rule's readers."""

import re
from types import MappingProxyType

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    DemonstrationSet,
    EnvState,
    KoopmanModel,
    LiftingSpec,
    StateLayout,
    Trajectory,
    cost,
    execute_policy,
    fit,
    gradient_check,
    imitation_error,
    lift_matrix,
    load_demos,
    save_demos,
    validate,
)
from koopmanix.controller import forward, init as controller_init
from koopmanix.envs import (default_expert, generate_demos, linear_env, pendulum_env, perfect_tracker, pointmass_env,
                            reset, step)
from koopmanix.koopman import solve_koopman
from koopmanix.statespace import _array, _keys


def _traj(layout, T, fill=0.0, torques=True, rng=None):
    states = []
    for t in range(T):
        if rng is None:
            xr = np.full(layout.n, fill)
            xo = np.full(layout.m, fill)
        else:
            xr = rng.standard_normal(layout.n)
            xo = rng.standard_normal(layout.m)
        states.append(CompositeState(xr, xo))
    taus = tuple(np.zeros(layout.a) for _ in range(T - 1)) if torques else None
    return Trajectory(tuple(states), taus)


# ------------------------------------------------------------------- keyed blocks

def test_keys_rule_returns_the_block_or_names_the_key():
    block = {"a": 1, "c": 3}
    assert _keys("block", block, ("a",), ("b", "c")) is block
    assert _keys("block", {}, ()) == {}
    for given, message in ((None, "block must be an object, got None"),
                           ([("a", 1)], "block must be an object, got [('a', 1)]"),
                           ({"c": 3}, "block: missing key 'a'; accepted keys: a, b, c"),
                           ({"a": 1, "d": 4}, "block: unknown key 'd'; accepted keys: a, b, c")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _keys("block", given, ("a",), ("b", "c"))
    with pytest.raises(ValueError, match="^block: unknown key 'a'; accepted keys: none$"):
        _keys("block", {"a": 1}, ())
    proxy = MappingProxyType(block)
    assert _keys("block", proxy, ("a",), ("b", "c")) is proxy


def test_array_rule_returns_a_read_only_copy_or_names_the_fault():
    source = np.arange(6.0).reshape(2, 3)
    for given in (source, source.tolist(), np.arange(6).reshape(2, 3), [(0, 1, 2.0), (3, np.float32(4), 5)]):
        arr = _array("a", given, (2, None))
        assert arr.dtype == np.float64 and not arr.flags.writeable and np.array_equal(arr, source)
        assert arr is not given and not np.shares_memory(arr, source)
    for given, shape, message in (
            ([[1.0, 2.0], [3.0, True]], (2, 2), "a[1][1] must be a real number, got True"),
            (np.array([False]), (None,), "a[0] must be a real number, got False"),
            ([["1.5"]], (1, 1), "a[0][0] must be a real number, got '1.5'"),
            ([[0.0, None]], (1, 2), "a[0][1] must be a real number, got None"),
            ([[0.0, np.nan]], (1, 2), "a[0][1] must be finite, got nan"),
            (np.array([0.0, -np.inf]), (2,), "a[1] must be finite, got -inf"),
            ([1.0, 10**400], (2,), f"a[1] must be finite, got {10**400}"),
            ([[1.0, 2.0], [3.0]], (2, 2), "a[1] must have shape (2,), got (1,)"),
            (np.zeros((2, 3)), (16, 8), "a must have shape (16, 8), got (2, 3)"),
            ([1.0, 2.0], (None, None), "a must have shape (any, any), got (2,)"),
            ("eye", (None,), "a must have shape (any,), got ()"),
            ([[[1.0]]], (1, 1), "a must have shape (1, 1), got (1, 1, 1)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _array("a", given, shape)
    # with finite=False a non-finite entry is kept, and an integer past the float range reads as an infinity
    kept = _array("a", [np.nan, 10**400, -(10**400)], (3,), finite=False)
    assert np.isnan(kept[0]) and kept[1] == np.inf and kept[2] == -np.inf


PENDULUM, LINEAR = pendulum_env(), linear_env([[0.5, 0.0], [0.0, 0.5]])
IDENTITY = KoopmanModel(np.eye(2), LiftingSpec("identity", LINEAR.layout), LINEAR.layout)
NET = controller_init(StateLayout(n=1, m=0, a=1), seed=0)
EYE = [[1.0, 0.0], [0.0, 1.0]]

# every reader of an array a caller hands a public function: the call with
# value in the reader's slot, the name it reads under, a value it accepts
# and the shape it asks for, as the array rule words it
READERS = {
    "lift_matrix-raw": (lambda v: lift_matrix(LiftingSpec("identity", PENDULUM.layout), v),
                        "raw block", [[0.1, 0.2, 0.3]], "(any, 3)"),
    "step-tau": (lambda v: step(PENDULUM, reset(PENDULUM, 0), v), "tau", [0.5], "(1,)"),
    "callable-policy-torque": (lambda v: execute_policy(IDENTITY, lambda x_now, x_next: v, LINEAR, reset(LINEAR, 0), 3),
                               "controller torque", [0.5, 0.5], "(2,)"),
    "forward-x_now": (lambda v: forward(NET, v, [0.0]), "x_now", [0.0], "(any,)"),
    "gradient_check-x_next": (lambda v: gradient_check(NET, ([0.0], v, [0.0])), "x_next", [0.0], "(any,)"),
    "gradient_check-tau": (lambda v: gradient_check(NET, ([0.0], [0.0], v)), "tau", [0.0], "(1,)"),
    "solve_koopman-G": (lambda v: solve_koopman(EYE, v), "G", EYE, "(any, any)"),
    "solve_koopman-A": (lambda v: solve_koopman(v, EYE), "A", EYE, "(2, 2)"),
    "imitation_error-reference": (lambda v: imitation_error(v, [[0.0, 0.0]]), "reference", [[0.0, 0.0]],
                                  "(any, any)"),
    "imitation_error-demo": (lambda v: imitation_error([[0.0, 0.0]], v), "demo", [[0.0, 0.0]], "(1, 2)"),
    "perfect_tracker-x_now": (lambda v: perfect_tracker(LINEAR)(v, [0.0, 0.0]), "x_now", [0.0, 0.0], "(2,)"),
    "perfect_tracker-x_next": (lambda v: perfect_tracker(LINEAR)([0.0, 0.0], v), "x_next", [0.0, 0.0], "(2,)"),
    "EnvState-internal": (lambda v: EnvState(reset(PENDULUM, 0).composite, v), "internal", [1.0], "(any,)"),
}


def _with_first(value, entry):
    """value with its first entry, at any depth, replaced by entry."""
    return [_with_first(value[0], entry), *value[1:]] if isinstance(value, list) else entry


@pytest.mark.parametrize("fault", ["bool", "numeric-string", "wrong-shape"])
@pytest.mark.parametrize("reader", READERS)
def test_every_array_reader_refuses_what_the_array_rule_refuses(reader, fault):
    call, name, good, shape = READERS[reader]
    call(good)
    first = name + "[0]" * np.ndim(good)
    value, message = {
        "bool": (_with_first(good, True), f"{first} must be a real number, got True"),
        "numeric-string": (_with_first(good, "1"), f"{first} must be a real number, got '1'"),
        "wrong-shape": ([good], f"{name} must have shape {shape}, got {(1, *np.shape(good))}"),
    }[fault]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_array_readers_keep_the_non_finite_entries_they_accepted():
    raw = lift_matrix(LiftingSpec("identity", PENDULUM.layout), [[np.nan, np.inf, 0.0]])
    assert np.isnan(raw[0, 0]) and raw[0, 1] == np.inf
    assert np.isnan(imitation_error([[np.nan]], [[0.0]])) and imitation_error([[0.0]], [[np.inf]]) == np.inf


# ------------------------------------------------------------------- layouts

def test_layout_bounds():
    StateLayout(n=1, m=0, a=1)
    with pytest.raises(ValueError):
        StateLayout(n=0, m=0, a=1)
    with pytest.raises(ValueError):
        StateLayout(n=1, m=-1, a=1)
    with pytest.raises(ValueError):
        StateLayout(n=1, m=0, a=0)


@pytest.mark.parametrize("sizes, message", [
    ((2.5, 0, 1), "layout size n must be an integer, got 2.5"),
    ((True, 0, True), "layout size n must be an integer, got True"),
    ((2, "0", 1), "layout size m must be an integer, got '0'"),
    ((2, 0, 1.0), "layout size a must be an integer, got 1.0"),
    ((0, 0, 1), "layout size n must be >= 1, got 0"),
], ids=["float-n", "bool-n", "string-m", "float-a", "zero-n"])
def test_layout_sizes_must_be_integers(sizes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StateLayout(*sizes)
    assert StateLayout(np.int64(2), np.int64(0), np.int64(1)).n == 2


def test_layout_names_must_match_dims():
    StateLayout(n=2, m=1, a=1, robot_names=("q0", "q1"), object_names=("b",))
    with pytest.raises(ValueError):
        StateLayout(n=2, m=1, a=1, robot_names=("q0",))
    with pytest.raises(ValueError):
        StateLayout(n=2, m=1, a=1, object_names=("b", "extra"))


def test_layout_names_are_stored_as_a_tuple(tmp_path):
    # a list used to be kept as given: the layout was unhashable, and unequal to its saved-and-loaded copy
    listed = StateLayout(n=1, m=1, a=1, robot_names=["x"], object_names=["b"])
    assert listed.robot_names == ("x",) and listed.object_names == ("b",)
    assert listed == StateLayout(n=1, m=1, a=1, robot_names=("x",), object_names=("b",))
    assert hash(listed) == hash(StateLayout(n=1, m=1, a=1, robot_names=("x",), object_names=("b",)))
    traj = Trajectory.from_arrays(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((2, 1)))
    loaded = load_demos(save_demos(DemonstrationSet(listed, (traj,)), tmp_path / "demos"))
    assert loaded.layout == listed
    fit(loaded, LiftingSpec("identity", listed))


def test_empty_layout_names_read_as_none(tmp_path):
    # an empty tuple used to be kept: the layout was unequal to the one without names and to its loaded copy
    empty = StateLayout(2, 0, 1, object_names=())
    assert empty == StateLayout(2, 0, 1) and empty.object_names is None
    assert StateLayout(2, 0, 1, robot_names=[]).robot_names is None
    traj = Trajectory.from_arrays(np.zeros((3, 2)), np.zeros((3, 0)), np.zeros((2, 1)))
    assert load_demos(save_demos(DemonstrationSet(empty, (traj,)), tmp_path / "demos")).layout == empty


@pytest.mark.parametrize("names, message", [
    ({"robot_names": "ab"}, "robot_names must be None or a tuple or list of strings, got 'ab'"),
    ({"robot_names": ("x", 1)}, "robot_names must be None or a tuple or list of strings, got ('x', 1)"),
    ({"object_names": b"b"}, "object_names must be None or a tuple or list of strings, got b'b'"),
], ids=["string", "non-string-name", "bytes"])
def test_layout_names_must_be_strings(names, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StateLayout(n=2, m=1, a=1, **names)


def test_composite_state_full_and_immutability():
    s = CompositeState([1.0, 2.0], [3.0])
    assert np.array_equal(s.full, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.x_r[0] = 9.0  # arrays are frozen


def test_composite_state_rejects_matrices():
    with pytest.raises(ValueError):
        CompositeState(np.zeros((2, 2)), [])


def test_composite_state_refuses_a_bool_entry_and_keeps_a_non_finite_one():
    # np.array read True as 1.0
    with pytest.raises(ValueError, match=r"^x_r\[0\] must be a real number, got True$"):
        CompositeState([True, 0.0], [])
    assert np.isnan(CompositeState([np.nan], []).x_r[0])  # validate reports it


# ---------------------------------------------------------- columnar arrays

def test_trajectory_arrays_are_read_only():
    layout = StateLayout(n=2, m=1, a=1)
    traj = _traj(layout, 4, rng=np.random.default_rng(1))
    for arr in (traj.x_r, traj.x_o, traj.torques):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0
    with pytest.raises(AttributeError):
        traj.x_r = np.zeros((4, 2))


def test_states_and_from_arrays_give_bit_identical_arrays():
    rng = np.random.default_rng(5)
    x_r, x_o, taus = rng.standard_normal((6, 2)), rng.standard_normal((6, 3)), rng.standard_normal((5, 2))
    x_r[2, 1] = -0.0
    x_o[4, 0] = 5e-324
    stacked = Trajectory(tuple(CompositeState(r, o) for r, o in zip(x_r, x_o)), tuple(taus))
    direct = Trajectory.from_arrays(x_r, x_o, taus)
    for got, want in ((stacked.x_r, direct.x_r), (stacked.x_o, direct.x_o), (stacked.torques, direct.torques)):
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(direct.x_r, x_r) and direct.x_r is not x_r
    assert direct.horizon == stacked.horizon == 6
    assert Trajectory.from_arrays(x_r, x_o).torques is None


def test_states_view_round_trips(tmp_path):
    layout = StateLayout(n=2, m=1, a=1)
    stacked = _traj(layout, 5, rng=np.random.default_rng(2))
    env = pointmass_env()
    demos = generate_demos(env, default_expert(env), 2, 6, seed=3)  # blocks wrapped by Trajectory._adopt
    loaded = load_demos(save_demos(demos, tmp_path / "demos"))
    arrays = Trajectory.from_arrays(stacked.x_r, stacked.x_o, stacked.torques)
    for traj in (stacked, arrays, demos.trajectories[1], loaded.trajectories[1]):
        states = traj.states
        assert isinstance(states, tuple) and len(states) == traj.horizon
        assert all(isinstance(s, CompositeState) for s in states)
        assert traj.states is not states  # rebuilt on each access
        for t, s in enumerate(states):
            # each row is a read-only view of the trajectory's arrays, not a copy
            assert np.shares_memory(s.x_r, traj.x_r) and np.array_equal(s.x_r, traj.x_r[t])
            assert np.shares_memory(s.x_o, traj.x_o) and np.array_equal(s.x_o, traj.x_o[t])
            assert not s.x_r.flags.writeable and not s.x_o.flags.writeable
        with pytest.raises(ValueError):
            states[1].x_o[0] = 9.0
        with pytest.raises(ValueError):
            states[1].x_r.setflags(write=True)
        # the public constructor still copies
        row = traj.x_r[0].copy()
        copied = CompositeState(row, traj.x_o[0])
        assert not np.shares_memory(copied.x_r, row) and not np.shares_memory(copied.x_o, traj.x_o)
        row[0] = 9.0
        assert np.array_equal(copied.x_r, traj.x_r[0])
        again = Trajectory(states, traj.torques)
        for got, want in ((again.x_r, traj.x_r), (again.x_o, traj.x_o), (again.torques, traj.torques)):
            assert np.array_equal(got, want) and not np.shares_memory(got, want) and not got.flags.writeable
        assert np.array_equal(np.stack([s.full for s in states]), np.concatenate([traj.x_r, traj.x_o], axis=1))


def test_ragged_widths_rejected_at_construction_naming_the_step():
    with pytest.raises(ValueError, match=re.escape("x_r[2] must have shape (1,), got (2,)")):
        Trajectory((CompositeState([0.0], []), CompositeState([1.0], []), CompositeState([1.0, 2.0], [])))
    with pytest.raises(ValueError, match=re.escape("x_o[1] must have shape (1,), got (0,)")):
        Trajectory((CompositeState([0.0], [1.0]), CompositeState([1.0], [])))
    states = tuple(CompositeState([float(t)], []) for t in range(4))
    with pytest.raises(ValueError, match=re.escape("torques[2] must have shape (1,), got (3,)")):
        Trajectory(states, (np.zeros(1), np.zeros(1), np.zeros(3)))


def test_from_arrays_rejects_bad_shapes():
    with pytest.raises(ValueError, match=re.escape("x_r must have shape (any, any), got (3,)")):
        Trajectory.from_arrays(np.zeros(3), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="rows"):
        Trajectory.from_arrays(np.zeros((3, 1)), np.zeros((2, 0)))
    with pytest.raises(ValueError, match=re.escape("torques must have shape (any, any), got (2,)")):
        Trajectory.from_arrays(np.zeros((3, 1)), np.zeros((3, 0)), np.zeros(2))


# ---------------------------------------------------------------- validation

def test_well_formed_set_is_ok():
    layout = StateLayout(n=2, m=1, a=1)
    rng = np.random.default_rng(0)
    demos = DemonstrationSet(layout, (_traj(layout, 4, rng=rng), _traj(layout, 7, rng=rng)))
    report = validate(demos)
    assert report.ok
    assert report.violations == ()


def test_nan_violation_cites_trajectory_and_time():
    layout = StateLayout(n=1, m=0, a=1)
    states = [CompositeState([0.0], []) for _ in range(5)]
    states[3] = CompositeState([np.nan], [])
    bad = Trajectory(tuple(states), tuple(np.zeros(1) for _ in range(4)))
    report = validate(DemonstrationSet(layout, (bad,)))
    assert not report.ok
    v = report.violations[0]
    assert (v.traj, v.t) == (0, 3)
    assert "non-finite" in v.message


def test_short_trajectory_flagged():
    layout = StateLayout(n=1, m=0, a=1)
    single = Trajectory((CompositeState([1.0], []),))
    report = validate(DemonstrationSet(layout, (single,)))
    assert any("horizon 1 < 2" in v.message for v in report.violations)


def test_dimension_mismatch_flagged():
    layout = StateLayout(n=2, m=0, a=1)
    wrong = Trajectory((CompositeState([1.0], []), CompositeState([1.0], [])))
    report = validate(DemonstrationSet(layout, (wrong,)))
    assert any("x_r length 1" in v.message for v in report.violations)


def test_torque_count_and_width_flagged():
    layout = StateLayout(n=1, m=0, a=2)
    states = tuple(CompositeState([0.0], []) for _ in range(3))
    off_count = Trajectory(states, (np.zeros(2),))
    report = validate(DemonstrationSet(layout, (off_count,)))
    assert any("expected 2" in v.message for v in report.violations)
    off_width = Trajectory(states, (np.zeros(1), np.zeros(1)))
    report = validate(DemonstrationSet(layout, (off_width,)))
    assert any("torque length 1 != a=2" in v.message for v in report.violations)
    with pytest.raises(ValueError, match=re.escape("torques[1] must have shape (2,), got (1,)")):
        Trajectory(states, (np.zeros(2), np.zeros(1)))


def test_one_violation_per_bad_row_in_time_order():
    layout = StateLayout(n=2, m=0, a=1)
    x_r = np.zeros((4, 1))
    x_r[1, 0], x_r[3, 0] = np.nan, np.inf
    taus = np.zeros((3, 1))
    taus[2, 0] = np.nan
    report = validate(DemonstrationSet(layout, (Trajectory.from_arrays(x_r, np.zeros((4, 0)), taus),)))
    width = "x_r length 1 != n=2"
    assert [(v.traj, v.t, v.message) for v in report.violations] == [
        (0, 0, width), (0, 1, width), (0, 1, "non-finite state entry"), (0, 2, width),
        (0, 3, width), (0, 3, "non-finite state entry"), (0, 2, "non-finite torque entry"),
    ]
    # a clean trajectory on either side of one whose only fault is a NaN
    # object entry, and of one whose only fault is an infinite torque
    layout = StateLayout(n=1, m=1, a=1)
    clean = Trajectory.from_arrays(np.zeros((6, 1)), np.zeros((6, 1)), np.zeros((5, 1)))
    x_o = np.zeros((6, 1))
    x_o[2, 0] = np.nan
    nan_object = Trajectory.from_arrays(np.zeros((6, 1)), x_o, np.zeros((5, 1)))
    taus = np.zeros((5, 1))
    taus[4, 0] = np.inf
    inf_torque = Trajectory.from_arrays(np.zeros((6, 1)), np.zeros((6, 1)), taus)
    report = validate(DemonstrationSet(layout, (clean, nan_object, clean, inf_torque, clean)))
    assert [(v.traj, v.t, v.message) for v in report.violations] == [
        (1, 2, "non-finite state entry"), (3, 4, "non-finite torque entry"),
    ]


def test_empty_set_rejected_at_construction():
    layout = StateLayout(n=1, m=0, a=1)
    with pytest.raises(ValueError):
        DemonstrationSet(layout, ())


# ------------------------------------------------ pairs, as the fit counts them

def _fit_identity(layout, trajs):
    demos = DemonstrationSet(layout, tuple(trajs))
    return demos, fit(demos, LiftingSpec("identity", layout))


def test_pair_counts():
    layout = StateLayout(n=1, m=0, a=1)
    _, one = _fit_identity(layout, [_traj(layout, 3)])
    assert one.fit_meta.n_pairs == 2
    _, two = _fit_identity(layout, [_traj(layout, 3), _traj(layout, 5)])
    assert two.fit_meta.n_pairs == 6


def test_pairs_never_cross_trajectory_boundaries():
    # each trajectory holds its tag constant, so only pairs within one
    # trajectory are fitted exactly by K = 1; a pair across a boundary is not
    layout = StateLayout(n=1, m=0, a=1)
    trajs = [_traj(layout, 4, fill=float(tag)) for tag in range(3)]
    demos, model = _fit_identity(layout, trajs)
    assert model.fit_meta.n_pairs == 9
    np.testing.assert_allclose(model.K, [[1.0]], rtol=1e-14)
    assert cost(model, demos) < 1e-28


def test_pair_order_is_trajectory_then_time():
    # pairs run forward in time: x = 0, 1, 2 fits K = (0*1 + 1*2) / (0*0 + 1*1) = 2,
    # where backward pairs would fit (1*0 + 2*1) / (1*1 + 2*2) = 0.4
    layout = StateLayout(n=1, m=0, a=1)
    traj = Trajectory.from_arrays(np.array([[0.0], [1.0], [2.0]]), np.empty((3, 0)), np.zeros((2, 1)))
    _, model = _fit_identity(layout, [traj])
    np.testing.assert_allclose(model.K, [[2.0]], rtol=1e-14)


def test_pair_extraction_deterministic():
    layout = StateLayout(n=2, m=1, a=1)
    rng = np.random.default_rng(3)
    trajs = [_traj(layout, 6, rng=rng), _traj(layout, 4, rng=rng)]
    _, first = _fit_identity(layout, trajs)
    _, second = _fit_identity(layout, trajs)
    assert first.fit_meta.n_pairs == second.fit_meta.n_pairs == 8
    assert first.K.tobytes() == second.K.tobytes()


def test_pairs_reject_invalid_demos():
    layout = StateLayout(n=1, m=0, a=1)
    bad = Trajectory((CompositeState([np.inf], []), CompositeState([0.0], [])))
    with pytest.raises(ValueError, match="invalid demonstrations"):
        _fit_identity(layout, [bad])


def test_variable_horizons_are_first_class():
    layout = StateLayout(n=1, m=0, a=1)
    demos = DemonstrationSet(layout, tuple(_traj(layout, T) for T in (2, 9, 5)))
    assert validate(demos).ok
    assert fit(demos, LiftingSpec("identity", layout)).fit_meta.n_pairs == 1 + 8 + 4
