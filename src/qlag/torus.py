"""Derived lattice data shared by the immersion and quotient machinery.

The torus factor of the construction is R^m modulo twice the dual lattice;
this module caches the exact lattice bases per exponent matrix and exposes
float-valued period boxes, nearest-period distances, the exact sign vectors
of the coset action and the cached sign/translation table of the whole
group, which is where every reader of the action takes it from.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .lattice import (
    CosetGroup,
    ExponentMatrix,
    LatticeBasis,
    dual_basis,
    gamma_representatives,
    lattice_basis_from_generators,
    pairing_parity,
)


@lru_cache(maxsize=None)
def lattice_data(exponents: ExponentMatrix) -> tuple[LatticeBasis, LatticeBasis, CosetGroup]:
    """(basis of L, basis of L*, representatives of L*/2L*) for the row lattice."""
    basis = lattice_basis_from_generators(exponents)
    dual = dual_basis(basis)
    return basis, dual, gamma_representatives(dual)


def gamma_group(exponents: ExponentMatrix) -> CosetGroup:
    return lattice_data(exponents)[2]


def torus_box(exponents: ExponentMatrix) -> np.ndarray:
    """Rows spanning the torus period box: twice the dual basis, as floats."""
    _, dual, _ = lattice_data(exponents)
    return 2.0 * dual.as_float_array()


def torus_coordinates(exponents: ExponentMatrix, y: Sequence[float]) -> np.ndarray:
    """Coordinates of y, or of every row of a (..., m) batch, in the period
    box basis (integer iff y is a period).

    With B the primal basis rows, the coordinate of y along the i-th box
    vector is (y, b_i)/2, so membership in 2L* is an exact half-integer
    statement evaluated here in floats.
    """
    basis, _, _ = lattice_data(exponents)
    B = basis.as_float_array()
    return 0.5 * (np.asarray(y, dtype=float) @ B.T)


@lru_cache(maxsize=None)
def _period_candidates(exponents: ExponentMatrix) -> np.ndarray:
    """Periods p = k @ box that can lie nearer than 0 to a point v = f @ box
    with f in the cube [-1/2, 1/2]^m; the zero period comes first.

    Every other period is dropped for one of two reasons, so the nearest
    period to any such v is among the rows returned:
      * |k_i| > r_i for some i, where R = max |v| over the cube and r_i is
        the least integer with (r_i + 1/2) / |column i of box^-1| >= R:
        coordinate i of v - p is then at least r_i + 1/2 in size, which
        puts p at distance at least R >= |v| from v;
      * sum_j |(b_j, p)| <= |p|^2 over the box rows b_j: then
        (v, p) <= |p|^2 / 2 on the whole cube, so |v - p| >= |v|.
    Rectangular boxes keep the zero period alone.
    """
    box = torus_box(exponents)
    m = box.shape[0]
    corners = np.array(list(product((-0.5, 0.5), repeat=m))) @ box
    reach = np.max(np.linalg.norm(corners, axis=1))
    radii = np.ceil(reach * np.linalg.norm(np.linalg.inv(box), axis=0) - 0.5)
    ks = product(*(range(-r, r + 1) for r in np.maximum(radii, 0).astype(int)))
    periods = np.array(list(ks), dtype=float) @ box
    useful = np.abs(periods @ box.T).sum(axis=1) > (periods**2).sum(axis=1)
    candidates = np.vstack([np.zeros((1, m)), periods[useful]])
    candidates.setflags(write=False)  # shared by every caller
    return candidates


def torus_distance(exponents: ExponentMatrix, dy: np.ndarray) -> np.ndarray:
    """Euclidean distance from each vector of a (..., m) batch dy to the
    nearest torus period.

    Rounding the box coordinates finds the nearest period only on
    rectangular boxes; the candidates of _period_candidates around the
    rounded one make the distance exact on skewed boxes too.
    """
    c = torus_coordinates(exponents, dy)
    v = (c - np.round(c)) @ torus_box(exponents)
    dist2 = None
    for period in _period_candidates(exponents):
        d2 = ((v - period) ** 2).sum(axis=-1)
        dist2 = d2 if dist2 is None else np.minimum(dist2, d2)
    return np.sqrt(dist2)


def gamma_signs(exponents: ExponentMatrix, gamma: Sequence) -> np.ndarray:
    """The exact sign vector (+-1)^n of a coset representative.

    Component i is cos(pi * (e_i, gamma)) evaluated through integer parity,
    never through floating cosine.
    """
    return np.array(
        [1 - 2 * pairing_parity(gamma, row) for row in exponents.rows],
        dtype=float,
    )


@lru_cache(maxsize=None)
def action_table(exponents: ExponentMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Signs (|G|, n) and translations (|G|, m) of every element of the coset
    group, in group order (the identity first); computed once per exponent
    matrix, read-only because every caller shares them."""
    group = gamma_group(exponents)
    signs = np.array([gamma_signs(exponents, g) for g in group])
    shifts = np.array([[float(x) for x in g] for g in group])
    signs.setflags(write=False)
    shifts.setflags(write=False)
    return signs, shifts
