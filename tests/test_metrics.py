"""Imitation error and success predicates."""

import re

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    SuccessCriterion,
    Trajectory,
    evaluate_success,
    imitation_error,
    success_rate,
)
from koopmanix.envs import default_criterion, pointmass_env
from koopmanix.metrics import outcome_summary


def _object_traj(values):
    """Trajectory whose object states are the given rows (robot part is a dummy)."""
    rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return Trajectory(tuple(CompositeState([0.0], row) for row in rows))


# ---- imitation error ----


def test_imitation_error_is_mean_l1():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=(20, 1))
    assert imitation_error(ref, ref + 0.5) == pytest.approx(0.5)
    ref2 = rng.normal(size=(20, 2))
    assert imitation_error(ref2, ref2 + np.array([0.5, -0.5])) == pytest.approx(1.0)
    assert imitation_error(ref2, ref2) == 0.0


def test_imitation_error_hand_example():
    ref = np.array([[0.0, 0.0], [1.0, 1.0]])
    demo = np.array([[1.0, 0.0], [1.0, 4.0]])
    # per-step L1 distances are 1 and 3
    assert imitation_error(ref, demo) == pytest.approx(2.0)


def test_imitation_error_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        imitation_error(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="shape"):
        imitation_error(np.zeros(3), np.zeros(3))


def test_imitation_error_refuses_an_empty_reference():
    with pytest.raises(ValueError, match=r"^reference must have at least one step, got shape \(0, 2\)$"):
        imitation_error(np.zeros((0, 2)), np.zeros((0, 2)))


def test_success_refuses_an_empty_trajectory():
    spec = pointmass_env()
    empty = Trajectory.from_arrays(np.zeros((0, spec.layout.n)), np.zeros((0, spec.layout.m)))
    for check in (evaluate_success, lambda traj, crit: success_rate([traj], crit)):
        with pytest.raises(ValueError, match=r"^trajectory must have at least one state, got 0$"):
            check(empty, default_criterion(spec))


def test_imitation_error_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = rng.normal(size=(3, 12, 4))
        assert imitation_error(a, c) <= imitation_error(a, b) + imitation_error(b, c) + 1e-12


# ---- success criteria ----


def test_terminal_distance_is_strict():
    crit = SuccessCriterion("terminal-distance", threshold=0.1)
    at = evaluate_success(_object_traj([[0.5], [0.1]]), crit)
    assert not at.success and at.rho_sum == 0
    below = evaluate_success(_object_traj([[0.5], [0.0999]]), crit)
    assert below.success and below.rho_sum == 1
    # only the final state matters
    assert evaluate_success(_object_traj([[0.0], [5.0]]), crit).success is False


def test_terminal_distance_uses_norm_over_extracted_dims():
    crit = SuccessCriterion("terminal-distance", threshold=0.5, extractor=(0, 1))
    assert evaluate_success(_object_traj([[0.3, 0.3]]), crit).success  # norm ~0.424
    assert not evaluate_success(_object_traj([[0.4, 0.4]]), crit).success


def test_cumulative_proximity_counts_steps():
    crit = SuccessCriterion("cumulative-proximity", threshold=0.1, count_threshold=2)
    traj = _object_traj([[0.2], [0.05], [-0.05], [0.0], [0.15]])
    res = evaluate_success(traj, crit)
    assert res.rho_sum == 3
    assert res.success  # 3 > 2
    tight = SuccessCriterion("cumulative-proximity", threshold=0.1, count_threshold=3)
    assert not evaluate_success(traj, tight).success  # 3 > 3 is false


def test_cumulative_proximity_threshold_is_strict():
    crit = SuccessCriterion("cumulative-proximity", threshold=0.1, count_threshold=0)
    assert evaluate_success(_object_traj([[0.1]]), crit).rho_sum == 0


def test_extractor_selects_object_dims():
    crit = SuccessCriterion("terminal-distance", threshold=0.1, extractor=(2,))
    traj = _object_traj([[9.0, 9.0, 0.05]])
    assert evaluate_success(traj, crit).success
    with pytest.raises(ValueError, match="out of range"):
        evaluate_success(traj, SuccessCriterion("terminal-distance", threshold=0.1, extractor=(3,)))


def test_criterion_validation():
    for kind in ("total-reward", "terminal-angle", "cumulative-alignment"):
        with pytest.raises(ValueError, match=f"unknown criterion kind '{kind}'"):
            SuccessCriterion(kind, threshold=0.1)
    with pytest.raises(ValueError, match="extractor"):
        SuccessCriterion("terminal-distance", threshold=0.1, extractor=())
    with pytest.raises(ValueError, match="count_threshold"):
        SuccessCriterion("terminal-distance", threshold=0.1, count_threshold=-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"threshold": float("nan")}, "threshold must be finite, got nan"),
    ({"threshold": float("-inf")}, "threshold must be finite, got -inf"),
    ({"threshold": "0.1"}, "threshold must be a real number, got '0.1'"),
    ({"threshold": 0.1, "count_threshold": 2.5}, "count_threshold must be an integer, got 2.5"),
    ({"threshold": 0.1, "count_threshold": True}, "count_threshold must be an integer, got True"),
    ({"threshold": 0.1, "extractor": (0.5,)}, "extractor[0] must be an integer, got 0.5"),
    ({"threshold": 0.1, "extractor": (0, True)}, "extractor[1] must be an integer, got True"),
    ({"threshold": 0.1, "extractor": 0}, "extractor must be a list or tuple, got 0"),
    ({"threshold": True}, "threshold must be a real number, got True"),
    ({"threshold": 0.1, "extractor": (0, -1)}, "extractor[1] must be >= 0, got -1"),
    # the comparisons are strict, so no distance is below a threshold of 0 or less
    ({"threshold": 0.0}, "threshold must be > 0, got 0.0"),
    ({"threshold": -1.0}, "threshold must be > 0, got -1.0"),
])
def test_criterion_rejects_bad_field_types(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SuccessCriterion("terminal-distance", **kwargs)


def test_criterion_takes_numpy_numbers():
    crit = SuccessCriterion("cumulative-proximity", threshold=np.float64(0.5), count_threshold=np.int64(0),
                            extractor=(np.int64(0),))
    assert evaluate_success(_object_traj([[0.1], [1.0]]), crit).success


def test_success_rate_percentage():
    crit = SuccessCriterion("terminal-distance", threshold=0.1)
    good = _object_traj([[0.0]])
    bad = _object_traj([[1.0]])
    assert success_rate([good, good, bad], crit) == pytest.approx(200.0 / 3.0)
    assert success_rate([bad], crit) == 0.0
    with pytest.raises(ValueError, match="^trajectories must hold at least 1 entry, got 0$"):
        success_rate([], crit)



# ---- why runs fail ----


def test_closest_is_the_nearest_approach():
    traj = _object_traj([[0.3, 0.4], [0.06, 0.08], [-1.0, 2.0]])
    for kind in ("terminal-distance", "cumulative-proximity"):
        res = evaluate_success(traj, SuccessCriterion(kind, threshold=0.05, extractor=(0, 1)))
        assert not res.success and res.closest == pytest.approx(0.1)


def test_outcome_summary_reports_failed_runs_against_thresholds():
    crit = SuccessCriterion("cumulative-proximity", threshold=0.1, count_threshold=2)
    runs = [
        _object_traj([[0.0], [0.0], [0.0]]),  # 3 steps near: success
        _object_traj([[0.05], [0.5], [0.5]]),  # 1 step, closest 0.05
        _object_traj([[0.3], [0.2], [0.25]]),  # 0 steps, closest 0.2
    ]
    results = [evaluate_success(t, crit) for t in runs]
    assert outcome_summary(results, crit) == (
        "1/3 succeeded; failed runs: satisfied steps 0..1 (need > 2), "
        "closest 0.05..0.2 (need < 0.1)"
    )
    assert outcome_summary(results[:1], crit) == "1/1 succeeded"
    terminal = SuccessCriterion("terminal-distance", threshold=0.1)
    far = evaluate_success(_object_traj([[0.5], [0.05], [0.2]]), terminal)
    assert outcome_summary([far], terminal) == (
        "0/1 succeeded; failed runs: satisfied steps 0..0 (need 1), closest 0.05..0.05 (need < 0.1)"
    )
