"""Observable lifting maps from composite states to lifted vectors.

Two kinds:

* ``identity``          g(x) = [x_r | x_o]
* ``kodex-polynomial``  g(x) = [x_r | psi_r(x_r) | x_o | psi_o(x_o)] where
  psi_r holds the quadratics x_r[i]*x_r[j] for i <= j followed by the cubes
  x_r[i]**3, and psi_o holds the quadratics x_o[i]*x_o[j] for i <= j followed
  by x_o[i]**2 * x_o[j] over all ordered (i, j) pairs, i = j included.

Every kind passes the raw state through untransformed, so the original state
is recovered from a lifted vector by slicing alone.  Slot order is part of the
on-disk model contract and must never change (see persist ordering tags).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statespace import CompositeState, StateLayout, _array, _check_dims

KINDS = ("identity", "kodex-polynomial")


@dataclass(frozen=True)
class LiftingSpec:
    kind: str
    layout: StateLayout

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown lifting kind {self.kind!r}, expected one of {KINDS}")
        if not isinstance(self.layout, StateLayout):
            raise ValueError(f"layout must be a StateLayout, got {self.layout!r}")


def _poly_counts(n: int, m: int) -> tuple[int, int]:
    """Slot counts (n', m') of the polynomial blocks psi_r and psi_o."""
    n_extra = n * (n + 1) // 2 + n
    m_extra = m * (m + 1) // 2 + m * m
    return n_extra, m_extra


def dimension(spec: LiftingSpec) -> int:
    """Number p of lifted slots."""
    n, m = spec.layout.n, spec.layout.m
    if spec.kind == "identity":
        return n + m
    n_extra, m_extra = _poly_counts(n, m)
    return n + n_extra + m + m_extra


def robot_slice(spec: LiftingSpec) -> slice:
    """Slots holding x_r verbatim: always the leading n."""
    return slice(0, spec.layout.n)


def object_slice(spec: LiftingSpec) -> slice:
    """Slots holding x_o verbatim (empty when m == 0)."""
    n, m = spec.layout.n, spec.layout.m
    if spec.kind == "kodex-polynomial":
        n_extra, _ = _poly_counts(n, m)
        return slice(n + n_extra, n + n_extra + m)
    return slice(n, n + m)


@lru_cache(maxsize=32)
def _poly_indices(n: int, m: int):
    """Index arrays that turn the polynomial blocks into vectorized products."""
    qr_i, qr_j = np.triu_indices(n)
    qo_i, qo_j = np.triu_indices(m)
    # ordered pairs (i, j), i = j included, row-major
    so_i = np.repeat(np.arange(m), m)
    so_j = np.tile(np.arange(m), m)
    return qr_i, qr_j, qo_i, qo_j, so_i, so_j


def lift_matrix(spec: LiftingSpec, raw: np.ndarray) -> np.ndarray:
    """Lift a (T, n+m) block of raw composite rows, non-finite entries allowed, to a (T, p) block."""
    n, m = spec.layout.n, spec.layout.m
    raw = _array("raw block", raw, (None, n + m), finite=False)
    xr = raw[:, :n]
    xo = raw[:, n:]
    if spec.kind == "identity":
        return raw.copy()
    qr_i, qr_j, qo_i, qo_j, so_i, so_j = _poly_indices(n, m)
    blocks = [
        xr,
        xr[:, qr_i] * xr[:, qr_j],
        xr**3,
        xo,
        xo[:, qo_i] * xo[:, qo_j],
        xo[:, so_i] ** 2 * xo[:, so_j],
    ]
    return np.concatenate(blocks, axis=1)


def lift(spec: LiftingSpec, state: CompositeState) -> np.ndarray:
    """Lift one composite state to a read-only (p,) vector.  Raw slots are copied through bit-exactly."""
    _check_dims(spec.layout, state)
    values = lift_matrix(spec, state.full[None])[0]
    values.setflags(write=False)
    return values


def monomial_exponents(spec: LiftingSpec) -> np.ndarray:
    """Exponent vector of every lifted slot, shape (p, n+m).

    Row k describes slot k as a monomial over the raw dims.  This is the
    reference description of the slot ordering for serialization and tests.
    """
    n, m = spec.layout.n, spec.layout.m
    d = n + m
    eye = np.eye(d, dtype=np.int64)
    if spec.kind == "identity":
        return eye
    qr_i, qr_j, qo_i, qo_j, so_i, so_j = _poly_indices(n, m)
    # in lift_matrix's block order, each slot's exponents as a sum of unit rows
    return np.concatenate([
        eye[:n],
        eye[qr_i] + eye[qr_j],
        3 * eye[:n],
        eye[n:],
        eye[n + qo_i] + eye[n + qo_j],
        2 * eye[n + so_i] + eye[n + so_j],
    ])
