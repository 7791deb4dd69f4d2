"""Polynomial observable maps: dimensions, ordering, and retrieval slots."""

import itertools
import re

import numpy as np
import pytest

from koopmanix import (
    CompositeState,
    LiftingSpec,
    StateLayout,
    dimension,
    lift,
    lift_matrix,
    object_slice,
    robot_slice,
)
from koopmanix.lifting import monomial_exponents


def _spec(n, m, kind="kodex-polynomial"):
    return LiftingSpec(kind, StateLayout(n=n, m=m, a=1))


def _enumerate_polynomial(x_r, x_o):
    """Independent enumeration of the lifted vector, straight from the block
    definition: [x_r | quadratics i<=j | cubes | x_o | quadratics i<=j |
    squared-times-linear over all ordered pairs]."""
    out = list(x_r)
    n = len(x_r)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        out.append(x_r[i] * x_r[j])
    for i in range(n):
        out.append(x_r[i] ** 3)
    out += list(x_o)
    m = len(x_o)
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        out.append(x_o[i] * x_o[j])
    for i in range(m):
        for j in range(m):
            out.append(x_o[i] ** 2 * x_o[j])
    return np.array(out)


# ----------------------------------------------------------------- dimension

def test_identity_dimension():
    assert dimension(_spec(3, 2, "identity")) == 5


def test_small_polynomial_dimension():
    assert dimension(_spec(2, 1)) == 10


def test_relocation_sized_dimension():
    # n=30, m=12: 30 + (465+30) + 12 + (78+144) = 759
    assert dimension(_spec(30, 12)) == 759


def test_dimension_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 9))
        spec = _spec(n, m)
        oracle = len(_enumerate_polynomial(np.ones(n), np.ones(m)))
        assert dimension(spec) == oracle


def test_dimension_matches_lift_length():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 9))
        spec = _spec(n, m)
        state = CompositeState(rng.standard_normal(n), rng.standard_normal(m))
        assert lift(spec, state).shape == (dimension(spec),)


# -------------------------------------------------------------------- values

def test_identity_passthrough():
    spec = _spec(2, 0, "identity")
    assert np.array_equal(lift(spec, CompositeState([1.0, 2.0], [])), [1.0, 2.0])


def test_hand_enumerated_example():
    spec = _spec(2, 1)
    got = lift(spec, CompositeState([1.0, 2.0], [3.0]))
    assert np.array_equal(got, [1, 2, 1, 2, 4, 1, 8, 3, 9, 27])


def test_zero_input_lifts_to_zero():
    spec = _spec(2, 1)
    got = lift(spec, CompositeState([0.0, 0.0], [0.0]))
    assert got.shape == (10,)
    assert np.all(got == 0.0)


def test_lift_matches_enumeration_on_random_states():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 7))
        spec = _spec(n, m)
        xr = rng.uniform(-2, 2, n)
        xo = rng.uniform(-2, 2, m)
        got = lift(spec, CompositeState(xr, xo))
        expected = _enumerate_polynomial(xr, xo)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_lift_matrix_agrees_with_lift():
    rng = np.random.default_rng(3)
    spec = _spec(3, 2)
    raw = rng.standard_normal((11, 5))
    batched = lift_matrix(spec, raw)
    assert batched.shape == (11, dimension(spec))
    for row, full in zip(batched, raw):
        single = lift(spec, CompositeState(full[:3], full[3:]))
        assert np.array_equal(row, single)


def test_each_unordered_quadratic_appears_once():
    # every symmetric pair contributes exactly one slot in each quadratic block
    n, m = 4, 3
    exps = monomial_exponents(_spec(n, m))
    quads = [tuple(e) for e in exps if sum(e) == 2 and all(v == 0 for v in e[n:])]
    assert len(quads) == len(set(quads)) == n * (n + 1) // 2


# -------------------------------------------------------------------- slices

def test_robot_slice_is_prefix():
    assert robot_slice(_spec(2, 1)) == slice(0, 2)
    assert robot_slice(_spec(5, 0, "identity")) == slice(0, 5)
    assert robot_slice(_spec(30, 12)) == slice(0, 30)


def test_object_slice_positions():
    assert object_slice(_spec(2, 1)) == slice(7, 8)
    assert object_slice(_spec(3, 2, "identity")) == slice(3, 5)
    empty = object_slice(_spec(2, 0))
    assert empty.start == empty.stop  # m=0: nothing to retrieve


def test_retrieval_identity_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 8))
        spec = _spec(n, m)
        state = CompositeState(rng.standard_normal(n) * 1e3, rng.standard_normal(m) * 1e-3)
        values = lift(spec, state)
        assert np.array_equal(values[robot_slice(spec)], state.x_r)
        assert np.array_equal(values[object_slice(spec)], state.x_o)


# -------------------------------------------------------- slot exponents

def test_monomial_exponents_describe_every_slot():
    rng = np.random.default_rng(6)
    spec = _spec(3, 2)
    exps = monomial_exponents(spec)
    assert exps.shape == (dimension(spec), 5)
    for _ in range(10):
        full = rng.uniform(0.5, 1.5, 5)
        state = CompositeState(full[:3], full[3:])
        via_exponents = np.prod(full**exps, axis=1)
        np.testing.assert_allclose(lift(spec, state), via_exponents, rtol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown lifting kind"):
        LiftingSpec("fourier", StateLayout(n=1, m=0, a=1))


@pytest.mark.parametrize("layout", [None, (1, 0, 1)], ids=["none", "tuple"])
def test_layout_that_is_not_a_state_layout_rejected(layout):
    with pytest.raises(ValueError, match=r"^layout must be a StateLayout, got " + re.escape(repr(layout)) + "$"):
        LiftingSpec("identity", layout)


def test_lift_rejects_mismatched_state():
    spec = _spec(2, 1)
    with pytest.raises(ValueError):
        lift(spec, CompositeState([1.0], [2.0]))
