"""
The polynomial observable basis
===============================

The kodex-polynomial lifting augments a robot/object state with
quadratic and cubic monomials.  This script walks through a tiny
example by hand, shows how the basis size grows with the state
dimension, and checks that the original state can always be read
back out of the lifted vector exactly.
"""
import numpy as np

from koopmanix import CompositeState, LiftingSpec, StateLayout, lift
from koopmanix.lifting import dimension, monomial_exponents, object_slice, robot_slice

# ----------------------------------------------------------------------
# A two-dimensional robot with a one-dimensional object
# ----------------------------------------------------------------------
layout = StateLayout(n=2, m=1, a=1)
spec = LiftingSpec("kodex-polynomial", layout)
state = CompositeState([1.0, 2.0], [3.0])

v = lift(spec, state)
print("lifted vector:", v.tolist())
print("dimension p =", dimension(spec))

# The robot block is x1, x2, then x1^2, x1*x2, x2^2, then x1^3, x2^3.
# The object block is y, then y^2, y^3.
expected = [1.0, 2.0, 1.0, 2.0, 4.0, 1.0, 8.0, 3.0, 9.0, 27.0]
assert v.tolist() == expected

# Each row of the exponent table describes one observable as powers
# of (x1, x2, y).
print("monomial exponents:")
print(monomial_exponents(spec))

# ----------------------------------------------------------------------
# Growth of the basis with state size
# ----------------------------------------------------------------------
print("basis size for a few layouts:")
for n, m in ((2, 0), (2, 1), (4, 4), (12, 0), (30, 12)):
    s = LiftingSpec("kodex-polynomial", StateLayout(n=n, m=m, a=1))
    print(f"  n={n:2d} m={m:2d} -> p={dimension(s)}")

# ----------------------------------------------------------------------
# Retrieval is exact, not approximate
# ----------------------------------------------------------------------
# The raw state occupies dedicated slots in the lifted vector, so
# reading it back costs nothing and introduces no rounding at all.
rng = np.random.default_rng(123)
spec = LiftingSpec("kodex-polynomial", StateLayout(n=4, m=2, a=2))
for _ in range(1000):
    x_r = rng.normal(size=4)
    x_o = rng.normal(size=2)
    v = lift(spec, CompositeState(x_r, x_o))
    assert np.array_equal(v[robot_slice(spec)], x_r)
    assert np.array_equal(v[object_slice(spec)], x_o)
print("1000 random states retrieved bit-for-bit")
