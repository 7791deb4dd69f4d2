"""Composite states, columnar trajectories, validation, and pair extraction."""

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    DemonstrationSet,
    StateLayout,
    Trajectory,
    consecutive_pairs,
    validate,
)


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


# ------------------------------------------------------------------- layouts

def test_layout_bounds():
    StateLayout(n=1, m=0, a=1)
    with pytest.raises(ValueError):
        StateLayout(n=0, m=0, a=1)
    with pytest.raises(ValueError):
        StateLayout(n=1, m=-1, a=1)
    with pytest.raises(ValueError):
        StateLayout(n=1, m=0, a=0)


def test_layout_names_must_match_dims():
    StateLayout(n=2, m=1, a=1, robot_names=("q0", "q1"), object_names=("b",))
    with pytest.raises(ValueError):
        StateLayout(n=2, m=1, a=1, robot_names=("q0",))
    with pytest.raises(ValueError):
        StateLayout(n=2, m=1, a=1, object_names=("b", "extra"))


def test_composite_state_full_and_immutability():
    s = CompositeState([1.0, 2.0], [3.0])
    assert np.array_equal(s.full, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.x_r[0] = 9.0  # arrays are frozen


def test_composite_state_rejects_matrices():
    with pytest.raises(ValueError):
        CompositeState(np.zeros((2, 2)), [])


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


def test_states_view_round_trips():
    layout = StateLayout(n=2, m=1, a=1)
    traj = _traj(layout, 5, rng=np.random.default_rng(2))
    states = traj.states
    assert isinstance(states, tuple) and len(states) == 5
    assert all(isinstance(s, CompositeState) for s in states)
    again = Trajectory(states, traj.torques)
    assert np.array_equal(again.x_r, traj.x_r) and np.array_equal(again.x_o, traj.x_o)
    assert np.array_equal(again.torques, traj.torques)
    assert np.array_equal(np.stack([s.full for s in states]), np.concatenate([traj.x_r, traj.x_o], axis=1))


def test_ragged_widths_rejected_at_construction_naming_the_step():
    with pytest.raises(ValueError, match="x_r length 2 at step 2 != length 1 at step 0"):
        Trajectory((CompositeState([0.0], []), CompositeState([1.0], []), CompositeState([1.0, 2.0], [])))
    with pytest.raises(ValueError, match="x_o length 0 at step 1 != length 1 at step 0"):
        Trajectory((CompositeState([0.0], [1.0]), CompositeState([1.0], [])))
    states = tuple(CompositeState([float(t)], []) for t in range(4))
    with pytest.raises(ValueError, match="torque length 3 at step 2 != length 1 at step 0"):
        Trajectory(states, (np.zeros(1), np.zeros(1), np.zeros(3)))


def test_from_arrays_rejects_bad_shapes():
    with pytest.raises(ValueError, match="matrix"):
        Trajectory.from_arrays(np.zeros(3), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="rows"):
        Trajectory.from_arrays(np.zeros((3, 1)), np.zeros((2, 0)))
    with pytest.raises(ValueError, match="matrix"):
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
    with pytest.raises(ValueError, match="torque length 1 at step 1 != length 2 at step 0"):
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


def test_empty_set_rejected_at_construction():
    layout = StateLayout(n=1, m=0, a=1)
    with pytest.raises(ValueError):
        DemonstrationSet(layout, ())


# ---------------------------------------------------------------- pair order

def test_pair_counts():
    layout = StateLayout(n=1, m=0, a=1)
    one = DemonstrationSet(layout, (_traj(layout, 3),))
    assert len(consecutive_pairs(one)) == 2
    two = DemonstrationSet(layout, (_traj(layout, 3), _traj(layout, 5)))
    assert len(consecutive_pairs(two)) == 6


def test_pairs_never_cross_trajectory_boundaries():
    # tag each state with its trajectory id in x_r
    layout = StateLayout(n=1, m=0, a=1)
    trajs = []
    for tag in range(3):
        states = tuple(CompositeState([float(tag)], []) for _ in range(4))
        trajs.append(Trajectory(states, tuple(np.zeros(1) for _ in range(3))))
    pairs = consecutive_pairs(DemonstrationSet(layout, tuple(trajs)))
    assert len(pairs) == 9
    for x_now, x_next, idx in pairs:
        assert x_now.x_r[0] == x_next.x_r[0] == float(idx)


def test_pair_order_is_trajectory_then_time():
    layout = StateLayout(n=1, m=0, a=1)
    states = tuple(CompositeState([float(t)], []) for t in range(3))
    traj = Trajectory(states, (np.zeros(1), np.zeros(1)))
    pairs = consecutive_pairs(DemonstrationSet(layout, (traj,)))
    assert [(p[0].x_r[0], p[1].x_r[0]) for p in pairs] == [(0.0, 1.0), (1.0, 2.0)]


def test_pair_extraction_deterministic():
    layout = StateLayout(n=2, m=1, a=1)
    rng = np.random.default_rng(3)
    demos = DemonstrationSet(layout, (_traj(layout, 6, rng=rng), _traj(layout, 4, rng=rng)))
    first = consecutive_pairs(demos)
    second = consecutive_pairs(demos)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a[0].full, b[0].full) and a[2] == b[2]


def test_pairs_reject_invalid_demos():
    layout = StateLayout(n=1, m=0, a=1)
    bad = Trajectory((CompositeState([np.inf], []), CompositeState([0.0], [])))
    with pytest.raises(ValueError, match="invalid demonstrations"):
        consecutive_pairs(DemonstrationSet(layout, (bad,)))


def test_variable_horizons_are_first_class():
    layout = StateLayout(n=1, m=0, a=1)
    demos = DemonstrationSet(layout, tuple(_traj(layout, T) for T in (2, 9, 5)))
    assert validate(demos).ok
    assert len(consecutive_pairs(demos)) == 1 + 8 + 4
