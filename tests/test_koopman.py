"""Analytical operator fit: accumulators, pseudoinverse, cost, rollout."""

import re

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    DemonstrationSet,
    KoopmanModel,
    LiftingSpec,
    StateLayout,
    Trajectory,
    accumulate,
    cost,
    fit,
    lift,
    lift_matrix,
    robot_slice,
    rollout,
)
from koopmanix.koopman import _svd_pinv, default_pinv_tolerance, prediction_errors, solve_koopman

LAYOUT_1D = StateLayout(n=1, m=0, a=1)
IDENT_1D = LiftingSpec("identity", LAYOUT_1D)


def _traj_1d(values):
    return Trajectory(tuple(CompositeState([float(v)], []) for v in values))


def _demos_1d(*value_rows):
    return DemonstrationSet(LAYOUT_1D, tuple(_traj_1d(row) for row in value_rows))


def _demos_nd(layout, rows_list):
    trajs = []
    for rows in rows_list:
        states = tuple(CompositeState(r[: layout.n], r[layout.n :]) for r in rows)
        trajs.append(Trajectory(states))
    return DemonstrationSet(layout, tuple(trajs))


def _weighted_qr_oracle(demos, spec):
    """Independent stacked least squares: rows weighted per trajectory by
    sqrt(1/(N(T-1))), solved via QR on the normal system X K^T = Y."""
    N = demos.n_demos
    X, Y = [], []
    for traj in demos.trajectories:
        w = np.sqrt(1.0 / (N * (traj.horizon - 1)))
        for t in range(traj.horizon - 1):
            X.append(w * lift(spec, traj.states[t]))
            Y.append(w * lift(spec, traj.states[t + 1]))
    X = np.stack(X)
    Y = np.stack(Y)
    Q, R = np.linalg.qr(X)
    return np.linalg.solve(R, Q.T @ Y).T


# -------------------------------------------------------------- accumulators

def test_accumulate_hand_example():
    acc = accumulate(_demos_1d([1, 2, 4]), IDENT_1D)
    assert acc.pair_count == 2
    assert acc.A[0, 0] == pytest.approx(5.0)
    assert acc.G[0, 0] == pytest.approx(2.5)


def test_accumulate_constant_trajectory():
    acc = accumulate(_demos_1d([3, 3, 3]), IDENT_1D)
    assert acc.A[0, 0] == pytest.approx(9.0)
    assert acc.G[0, 0] == pytest.approx(9.0)


def test_duplicate_trajectory_leaves_accumulators_unchanged():
    one = accumulate(_demos_1d([1, 2, 4]), IDENT_1D)
    two = accumulate(_demos_1d([1, 2, 4], [1, 2, 4]), IDENT_1D)
    np.testing.assert_allclose(two.A, one.A, rtol=1e-15)
    np.testing.assert_allclose(two.G, one.G, rtol=1e-15)
    assert two.pair_count == 2 * one.pair_count


def test_accumulate_weights_mixed_horizons():
    # weight of each pair is 1/(N(T-1)): hand-check with two unequal horizons
    demos = _demos_1d([1, 2], [1, 1, 1])
    acc = accumulate(demos, IDENT_1D)
    # traj 0: pair (1,2) weight 1/2; traj 1: pairs (1,1),(1,1) weight 1/4
    assert acc.G[0, 0] == pytest.approx(1 / 2 + 2 / 4)
    assert acc.A[0, 0] == pytest.approx(2 / 2 + 2 / 4)


def test_g_symmetry():
    rng = np.random.default_rng(0)
    layout = StateLayout(n=3, m=2, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    rows = [[rng.standard_normal(5) for _ in range(12)] for _ in range(4)]
    acc = accumulate(_demos_nd(layout, rows), spec)
    asym = np.max(np.abs(acc.G - acc.G.T))
    assert asym < 1e-12 * np.max(np.abs(acc.G))


def test_accumulate_layout_mismatch():
    spec = LiftingSpec("identity", StateLayout(n=2, m=0, a=1))
    with pytest.raises(ValueError):
        accumulate(_demos_1d([1, 2]), spec)


# ------------------------------------------------------------- pseudoinverse

def test_pinv_identity():
    pinv, rank, _ = _svd_pinv(np.eye(3), 1e-12)
    np.testing.assert_allclose(pinv, np.eye(3))
    assert rank == 3


def test_pinv_reads_a_finite_square_matrix():
    for G, message in ((np.ones((2, 3)), "G must have shape (2, 2), got (2, 3)"),
                       (np.diag([1.0, np.nan]), "G[1][1] must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _svd_pinv(G, None)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_koopman(np.eye(2), G)


def test_pinv_truncates_zero_singular_values():
    pinv, rank, _ = _svd_pinv(np.diag([2.0, 0.0]), 1e-12)
    np.testing.assert_allclose(pinv, np.diag([0.5, 0.0]))
    assert rank == 1


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((5, 5))
    G = G @ G.T  # SPD, full rank almost surely
    pinv, rank, _ = _svd_pinv(G, default_pinv_tolerance(5))
    assert rank == 5
    np.testing.assert_allclose(pinv @ G @ pinv, pinv, atol=1e-10)
    np.testing.assert_allclose(G @ pinv @ G, G, atol=1e-10)


def test_pinv_relative_threshold():
    # second singular value sits below rel_tolerance * sigma_max: dropped
    G = np.diag([1.0, 1e-9])
    _, rank_tight, _ = _svd_pinv(G, 1e-6)
    _, rank_loose, _ = _svd_pinv(G, 1e-12)
    assert rank_tight == 1
    assert rank_loose == 2


# ----------------------------------------------------------------------- fit

def test_fit_doubling_sequence():
    model = fit(_demos_1d([1, 2, 4]), IDENT_1D)
    assert model.K[0, 0] == pytest.approx(2.0)
    assert model.fit_meta.n_pairs == 2
    assert model.fit_meta.wall_time_s >= 0.0


def test_fit_constant_gives_identity():
    model = fit(_demos_1d([3, 3, 3]), IDENT_1D)
    assert model.K[0, 0] == pytest.approx(1.0)


def test_fit_recovers_rotation():
    theta = 0.1
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    layout = StateLayout(n=2, m=0, a=1)
    spec = LiftingSpec("identity", layout)
    rng = np.random.default_rng(3)
    rows_list = []
    for _ in range(3):
        x = rng.standard_normal(2)
        rows = [x.copy()]
        for _ in range(10):
            x = R @ x
            rows.append(x.copy())
        rows_list.append(rows)
    model = fit(_demos_nd(layout, rows_list), spec)
    assert np.linalg.norm(model.K - R) < 1e-10


def test_fit_exact_recovery_general_linear():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, 4)) * 0.4
    layout = StateLayout(n=4, m=0, a=1)
    spec = LiftingSpec("identity", layout)
    rows_list = []
    for _ in range(6):
        x = rng.standard_normal(4)
        rows = [x.copy()]
        for _ in range(8):
            x = M @ x
            rows.append(x.copy())
        rows_list.append(rows)
    model = fit(_demos_nd(layout, rows_list), spec)
    assert np.linalg.norm(model.K - M) < 1e-8


def test_fit_matches_qr_oracle_on_nonlinear_data():
    # different horizons + polynomial lifting: full-rank G, rank-revealing case
    rng = np.random.default_rng(5)
    layout = StateLayout(n=2, m=0, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    rows_list = []
    for T in (6, 9, 14, 11):
        x = rng.uniform(-1, 1, 2)
        rows = [x.copy()]
        for _ in range(T - 1):
            x = np.array([0.9 * x[0] + 0.1 * x[1] ** 2, 0.8 * x[1] + 0.05 * x[0] * x[1]])
            rows.append(x.copy())
        rows_list.append(rows)
    demos = _demos_nd(layout, rows_list)
    model = fit(demos, spec)
    oracle = _weighted_qr_oracle(demos, spec)
    assert np.linalg.norm(model.K - oracle) < 1e-8


def test_fit_optimality_against_perturbations():
    rng = np.random.default_rng(6)
    layout = StateLayout(n=2, m=0, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    rows_list = []
    for _ in range(4):
        x = rng.uniform(-1, 1, 2)
        rows = [x.copy()]
        for _ in range(7):
            x = np.array([0.9 * x[0] - 0.2 * x[1], 0.7 * x[1] + 0.1 * x[0] ** 2])
            rows.append(x.copy())
        rows_list.append(rows)
    demos = _demos_nd(layout, rows_list)
    model = fit(demos, spec)
    J_star = cost(model, demos)
    p = model.K.shape[0]
    for _ in range(200):
        delta = rng.standard_normal((p, p))
        delta /= np.linalg.norm(delta)
        perturbed = KoopmanModel(model.K + 1e-3 * delta, spec, layout)
        assert J_star <= cost(perturbed, demos)


def test_weight_scale_invariance():
    # scaling A and G by one positive factor cannot move K = A G^+
    demos = _demos_1d([1, 2, 4], [2, 3, 5, 8])
    spec = IDENT_1D
    acc = accumulate(demos, spec)
    K1, _ = solve_koopman(acc.A, acc.G)
    K2, _ = solve_koopman(7.3 * acc.A, 7.3 * acc.G)
    assert np.linalg.norm(K1 - K2) < 1e-12


def test_fit_meta_counts_and_rank():
    demos = _demos_1d([1, 2, 4], [1, 3, 9, 27])
    model = fit(demos, IDENT_1D)
    assert model.fit_meta.n_demos == 2
    assert model.fit_meta.n_pairs == 5
    assert model.fit_meta.rank == 1


def test_fit_is_the_accumulate_then_solve_koopman_path():
    rng = np.random.default_rng(8)
    layout = StateLayout(n=3, m=1, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    demos = _demos_nd(layout, [[rng.standard_normal(4) for _ in range(T)] for T in (7, 12, 9)])
    acc = accumulate(demos, spec)
    K, rank = solve_koopman(acc.A, acc.G)
    model = fit(demos, spec)
    assert model.K.tobytes() == K.tobytes()
    assert model.fit_meta.rank == rank


def test_no_tolerance_is_the_default_tolerance_on_both_solve_paths():
    rng = np.random.default_rng(9)
    layout = StateLayout(n=2, m=1, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    demos = _demos_nd(layout, [[rng.standard_normal(3) for _ in range(T)] for T in (6, 10)])
    acc = accumulate(demos, spec)
    tol = default_pinv_tolerance(acc.G.shape[0])
    K, _ = solve_koopman(acc.A, acc.G, tol)
    assert solve_koopman(acc.A, acc.G)[0].tobytes() == K.tobytes()
    assert fit(demos, spec).K.tobytes() == fit(demos, spec, rel_tolerance=tol).K.tobytes() == K.tobytes()


def test_negative_tolerance_rejected_on_every_solve_path():
    demos = _demos_1d([1, 2, 4])
    acc = accumulate(demos, IDENT_1D)
    for call in (
        lambda: fit(demos, IDENT_1D, rel_tolerance=-1),
        lambda: solve_koopman(acc.A, acc.G, rel_tolerance=-1),
        lambda: _svd_pinv(acc.G, -1),
    ):
        with pytest.raises(ValueError, match="rel_tolerance must be >= 0"):
            call()
    # NaN and inf compare false to every cutoff, and returned rank 0 and K = 0
    for tol, shown in ((float("nan"), "nan"), (float("inf"), "inf")):
        for call in (
            lambda: fit(demos, IDENT_1D, rel_tolerance=tol),
            lambda: solve_koopman(acc.A, acc.G, rel_tolerance=tol),
            lambda: _svd_pinv(acc.G, tol),
        ):
            with pytest.raises(ValueError, match=f"^rel_tolerance must be finite, got {shown}$"):
                call()
    # False fitted at tolerance 0, and a string raised TypeError
    for tol in ("0.1", False, True):
        for call in (
            lambda: fit(demos, IDENT_1D, rel_tolerance=tol),
            lambda: solve_koopman(acc.A, acc.G, rel_tolerance=tol),
            lambda: _svd_pinv(acc.G, tol),
        ):
            with pytest.raises(ValueError, match=f"^rel_tolerance must be a real number, got {tol!r}$"):
                call()


@pytest.mark.parametrize("tol", [1.0, 1.5])
def test_tolerance_of_one_or_more_rejected_on_every_solve_path(tol):
    # the cutoff tol * s[0] would drop every singular value and give K = 0 at rank 0
    demos = _demos_1d([1, 2, 4])
    acc = accumulate(demos, IDENT_1D)
    for call in (
        lambda: fit(demos, IDENT_1D, rel_tolerance=tol),
        lambda: solve_koopman(acc.A, acc.G, rel_tolerance=tol),
        lambda: _svd_pinv(acc.G, tol),
    ):
        with pytest.raises(ValueError, match=f"^rel_tolerance must be < 1, got {tol}$"):
            call()


# ---------------------------------------------------------------------- cost

def test_cost_zero_for_exact_fit():
    demos = _demos_1d([1, 2, 4])
    model = fit(demos, IDENT_1D)
    assert cost(model, demos) < 1e-18 * model.fit_meta.n_pairs


def test_cost_hand_example():
    model = KoopmanModel(np.array([[0.0]]), IDENT_1D, LAYOUT_1D)
    assert cost(model, _demos_1d([1, 2, 4])) == pytest.approx(10.0)


def test_cost_identity_on_constant_pair():
    model = KoopmanModel(np.eye(1), IDENT_1D, LAYOUT_1D)
    assert cost(model, _demos_1d([5, 5])) == 0.0


def test_lift_overflow_names_the_trajectory_on_every_lift_path():
    # 1e200 is finite but its cube is not: the kodex lift overflows in trajectory 1
    layout = StateLayout(n=1, m=0, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    demos = _demos_nd(layout, [[[0.5], [0.25]], [[1e200], [1.0]]])
    model = KoopmanModel(np.eye(3), spec, layout)
    for call in (
        lambda: accumulate(demos, spec),
        lambda: cost(model, demos),
        lambda: prediction_errors(model, demos),
    ):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="lifted values overflow in trajectory 1"):
                call()


# ------------------------------------------------------------------- rollout

def test_rollout_identity_model():
    layout = StateLayout(n=2, m=0, a=1)
    spec = LiftingSpec("identity", layout)
    model = KoopmanModel(np.eye(2), spec, layout)
    ref = rollout(model, CompositeState([1.5, -0.5], []), 5)
    assert ref.shape == (5, 2)
    for row in ref:
        np.testing.assert_array_equal(row, [1.5, -0.5])
    with pytest.raises(ValueError, match=r"^horizon must be an integer, got 2\.5$"):
        rollout(model, CompositeState([1.5, -0.5], []), 2.5)


def test_rollout_geometric():
    model = KoopmanModel(np.array([[2.0]]), IDENT_1D, LAYOUT_1D)
    ref = rollout(model, CompositeState([1.0], []), 4)
    np.testing.assert_allclose(ref[:, 0], [1, 2, 4, 8])


def test_rollout_matches_rotation_closed_form():
    theta = 0.07
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    layout = StateLayout(n=2, m=0, a=1)
    spec = LiftingSpec("identity", layout)
    model = KoopmanModel(R, spec, layout)
    x1 = np.array([1.0, 0.5])
    ref = rollout(model, CompositeState(x1, []), 100)
    for t in range(100):
        np.testing.assert_allclose(ref[t], np.linalg.matrix_power(R, t) @ x1, atol=1e-8)


def test_rollout_equals_iterated_predict_step():
    rng = np.random.default_rng(8)
    layout = StateLayout(n=2, m=1, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    p = 10
    K = rng.standard_normal((p, p)) * 0.2
    model = KoopmanModel(K, spec, layout)
    init = CompositeState(rng.standard_normal(2), rng.standard_normal(1))
    ref = rollout(model, init, 7)
    g = lift_matrix(spec, init.full[None, :])[0]
    rs = robot_slice(spec)
    for t in range(7):
        np.testing.assert_array_equal(ref[t], g[rs])
        g = K @ g


def test_rollout_reports_first_bad_step():
    model = KoopmanModel(np.array([[1e200]]), IDENT_1D, LAYOUT_1D)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="step 2"):
            rollout(model, CompositeState([1e200], []), 5)


@pytest.mark.filterwarnings("error")
def test_overflow_raises_without_a_floating_point_warning():
    layout = StateLayout(n=1, m=0, a=1)
    spec = LiftingSpec("kodex-polynomial", layout)
    with pytest.raises(ValueError, match="lifted values overflow in trajectory 0"):
        fit(_demos_nd(layout, [[[1e200], [1.0]]]), spec)
    model = KoopmanModel(10.0 * np.eye(3), spec, layout)
    with pytest.raises(ValueError, match=r"at step 310 of 400 \(spectral radius of K 10\.0 > 1\)$"):
        rollout(model, CompositeState([1.0], []), 400)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start", [np.nan, 1e110], ids=["nan", "lift-overflow"])
def test_a_non_finite_lifted_start_is_named_not_blamed_on_k(start):
    layout = StateLayout(n=1, m=0, a=1)
    model = KoopmanModel(1.5 * np.eye(3), LiftingSpec("kodex-polynomial", layout), layout)
    with pytest.raises(ValueError, match=r"^non-finite lifted start state$"):
        rollout(model, CompositeState([start], []), 10)


def test_rollout_overflow_quotes_the_spectral_radius():
    layout = StateLayout(n=2, m=0, a=1)
    model = KoopmanModel(2.0 * np.eye(2), LiftingSpec("identity", layout), layout)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"at step 1025 of 2000 \(spectral radius of K 2\.0 > 1\)$"):
            rollout(model, CompositeState([1.0, -1.0], []), 2000)


def test_the_quoted_spectral_radius_agrees_with_its_comparison():
    # a radius of 1 + 1e-9 read as "1 > 1" at six significant digits
    layout = StateLayout(n=2, m=0, a=1)
    model = KoopmanModel(np.diag([1 + 1e-9, 0.5]), LiftingSpec("identity", layout), layout)
    start = CompositeState([np.finfo(float).max, 1.0], [])
    with pytest.raises(ValueError, match=r"at step 2 of 50 \(spectral radius of K 1\.000000001 > 1\)$"):
        rollout(model, start, 50)
