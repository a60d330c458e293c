"""Exact integer/rational lattice arithmetic.

The exponent rows e_1..e_n of a quadric system generate a full-rank lattice
L in R^m (m = number of equations).  This module extracts a canonical basis
of L (Hermite normal form), the dual lattice basis, and the 2^m coset
representatives of G = L*/2L*, whose parities with the generator rows
become signs in torus.gamma_signs alone; freeness, orientation characters,
orbits and the mesh seam read them from the table torus.action_table.

All arithmetic here is exact: integers for L, fractions.Fraction for L*.
Parity statements must never pass through floating point.  Linear algebra
over Q is one Gauss-Jordan inverse per LatticeBasis, which rejects a
singular basis and gives both the dual basis and coordinates, and one per
candidate square column basis of a polyhedron {v >= 0 : A v = b}, cached
across calls; one float solve of every basis picks the candidates and
decides nothing else.  polyhedron itself keeps nothing: each QuadricSystem
keeps the vertices and rays of its moment polytope and of each cut of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SingularBasis

IntVector = tuple[int, ...]
FracVector = tuple[Fraction, ...]
CosetGroup = tuple[FracVector, ...]  # representatives of L*/2L*, the identity first


def _as_int_rows(rows: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    out = []
    for r in rows:
        row = tuple(int(x) for x in r)
        if any(row[i] != r[i] for i in range(len(row))):
            raise ValueError("exponent entries must be integers")
        out.append(row)
    return tuple(out)


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer exponent rows e_1..e_n, one per ambient coordinate.

    rows[i] has length ``codim`` (the number of quadric equations); the rows
    must span a rank-``codim`` lattice.  n >= 1 and 0 <= k <= n-1 where
    k = n - codim is the dimension of the solution variety; no rows, or
    rows of length 0, raise ValueError.
    """

    rows: tuple[IntVector, ...]

    def __init__(self, rows: Sequence[Sequence[int]]):
        object.__setattr__(self, "rows", _as_int_rows(rows))
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise DimensionMismatch("exponent rows have unequal lengths")
        m = self.codim
        if not 1 <= m <= self.n:
            raise ValueError(f"need between 1 and n equations, got {m} for n={self.n}")
        rank = len(hermite_normal_form(self.rows))
        if rank < m:
            raise RankDeficient(f"exponent rows span rank {rank} < {m}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def k(self) -> int:
        return self.n - self.codim

    def column(self, j: int) -> IntVector:
        return tuple(r[j] for r in self.rows)


@dataclass(frozen=True)
class LatticeBasis:
    """Square nonsingular basis matrix; rows are the basis vectors.

    Entries are Fractions so the dual basis (rows of the inverse transpose)
    is representable exactly.  A basis of the generator lattice itself has
    integer entries, a dual basis generally does not.
    """

    rows: tuple[FracVector, ...]

    def __init__(self, rows: Sequence[Sequence]):
        frac_rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        object.__setattr__(self, "rows", frac_rows)
        m = len(frac_rows)
        if any(len(r) != m for r in frac_rows):
            raise DimensionMismatch("basis matrix must be square")
        # not a field: equality, hash and repr read the rows alone
        object.__setattr__(self, "_inverse", _inverse(frac_rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates(self, v: Sequence) -> FracVector:
        """Coefficients c with  v = sum_i c_i * rows[i],  exact: c = v B^-1."""
        vec = tuple(Fraction(x) for x in v)
        if len(vec) != self.dim:
            raise DimensionMismatch("vector length does not match basis")
        return tuple(sum((x * r[j] for x, r in zip(vec, self._inverse)), Fraction(0))
                     for j in range(self.dim))

    def contains(self, v: Sequence) -> bool:
        """True iff v is an integer combination of the basis rows."""
        return all(c.denominator == 1 for c in self.coordinates(v))

    def as_float_array(self):
        return np.array([[float(x) for x in r] for r in self.rows], dtype=float)


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------


def _inverse(rows: Sequence[FracVector]) -> tuple[FracVector, ...]:
    """B^-1 of a square matrix over Q by Gauss-Jordan on [B | I]; raises
    SingularBasis when det B = 0."""
    m = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(m)] for i, r in enumerate(rows)]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            raise SingularBasis("basis matrix has determinant 0")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(r[m:]) for r in a)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns the nonzero rows: pivots positive, in echelon position, entries
    above each pivot reduced into [0, pivot).  Integer row operations only,
    so the returned rows are a canonical basis of the same row lattice.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis: list[list[int]] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        # annihilate column `col` across the remaining rows by gcd steps
        carrier = None
        rest = []
        for r in work:
            if r[col] != 0:
                if carrier is None:
                    carrier = r
                else:
                    # Euclidean reduction of (carrier[col], r[col])
                    while r[col] != 0:
                        q = carrier[col] // r[col]
                        carrier = [a - q * b for a, b in zip(carrier, r)]
                        carrier, r = r, carrier
                    rest.append(r)
            else:
                rest.append(r)
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-a for a in carrier]
            basis.append(carrier)
            pivot_cols.append(col)
        work = [r for r in rest if any(r)]
    # reduce entries above each pivot, left to right: row i is zero left of
    # its pivot, so subtracting it leaves the earlier pivot columns reduced
    for i in range(len(basis)):
        p = pivot_cols[i]
        for j in range(i):
            q = basis[j][p] // basis[i][p]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return tuple(tuple(r) for r in basis)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def lattice_basis_from_generators(exponents: ExponentMatrix) -> LatticeBasis:
    """Canonical (HNF) basis of the lattice generated by the exponent rows,
    square because an ExponentMatrix has full rank."""
    return LatticeBasis(hermite_normal_form(exponents.rows))


def dual_basis(basis: LatticeBasis) -> LatticeBasis:
    """Rows b*_j with <b_i, b*_j> = delta_ij, exactly (inverse transpose):
    row j is column j of the basis's stored inverse."""
    return LatticeBasis(zip(*basis._inverse))


def gamma_representatives(dual: LatticeBasis) -> CosetGroup:
    """All {0,1}-combinations of the dual basis rows: 2^m coset
    representatives of L*/2L*, the zero vector first."""
    m = dual.dim
    reps = []
    for eps in itertools.product((0, 1), repeat=m):
        v = [Fraction(0)] * m
        for i, e in enumerate(eps):
            if e:
                v = [a + b for a, b in zip(v, dual.rows[i])]
        reps.append(tuple(v))
    return tuple(reps)


def pairing_parity(gamma: Sequence, e_row: Sequence[int]) -> int:
    """Parity (0 or 1) of the Euclidean pairing (gamma, e) = sum_i gamma_i *
    e_i, computed exactly; the pairing must be an integer."""
    if len(gamma) != len(e_row):
        raise DimensionMismatch(f"pairing of lengths {len(gamma)} and {len(e_row)}")
    value = sum((Fraction(g) * int(e) for g, e in zip(gamma, e_row)), Fraction(0))
    if value.denominator != 1:
        raise ValueError(f"pairing {value} is not an integer; gamma not in L*")
    return value.numerator % 2


@lru_cache(maxsize=None)
def _basis_inverse(rows: tuple[IntVector, ...], basis: IntVector) -> tuple[FracVector, ...] | None:
    """The exact inverse of the square column basis ``basis`` of the integer
    ``rows``, or None where it is singular; cached, since the samplers ask
    for the same bases at every floor."""
    try:
        return _inverse([[Fraction(row[c]) for c in basis] for row in rows])
    except SingularBasis:
        return None


def polyhedron(
    rows: Sequence[Sequence[int]], rhs: Sequence, rays: bool = True
) -> tuple[tuple[FracVector, ...], tuple[FracVector, ...]]:
    """The vertices and the extreme rays (none, without ``rays``) of
    {v >= 0 : A v = b}, A's integer rows ``rows`` and b ``rhs``, exact.

    The vertices are the points B^-1 b >= 0 of the square column bases B
    of A, in itertools.combinations order without repeats.  One float solve
    of every basis, for b scaled exactly by its largest |entry| so that no
    entry overflows, picks the candidates: |det B|, an integer, exceeds
    1/2, and B^-1 b >= -1e-6 max(1, |B^-1 b|).  Each candidate is inverted
    exactly by _basis_inverse, once per (A, B) in a process, and a singular
    one is skipped.  The rays, scaled to sum 1, are the vertices of
    {r >= 0 : A r = 0, sum r = 1}, whatever b is.  The float pass holds
    C(n, m) blocks of m x m floats, m = len(rows) (+ 1 for the rays): 7 MB
    at n = 16, m = 9.
    """
    n, m = len(rows[0]), len(rows)
    bases = np.array([*itertools.combinations(range(n), m)], dtype=int).reshape(-1, m)
    blocks = np.array(rows, dtype=float)[:, bases].transpose(1, 0, 2)
    regular = np.abs(np.linalg.det(blocks)) > 0.5
    top = max(map(abs, rhs)) or 1
    scaled = np.array([Fraction(x) / top for x in rhs], dtype=float)
    guess = np.linalg.solve(blocks[regular], scaled[:, None])[..., 0]
    near = guess.min(axis=1) >= -1e-6 * np.abs(guess).max(axis=1, initial=1.0)
    key = tuple(map(tuple, rows))
    found = {}
    for basis in bases[regular][near].tolist():
        inverse = _basis_inverse(key, tuple(basis))
        if inverse is None:
            continue
        x = [sum((p * q for p, q in zip(row, rhs)), Fraction(0)) for row in inverse]
        if min(x) >= 0:
            v = [Fraction(0)] * n
            for c, value in zip(basis, x):
                v[c] = value
            found[tuple(v)] = None
    return tuple(found), polyhedron([*rows, (1,) * n], [0] * m + [1], False)[0] if rays else ()


def sum_vector(exponents: ExponentMatrix) -> IntVector:
    """Componentwise sum of all exponent rows.

    The immersion built from the system is minimal (not merely volume
    critical under Hamiltonian deformations) exactly when this vanishes.
    """
    m = exponents.codim
    out = [0] * m
    for r in exponents.rows:
        for j in range(m):
            out[j] += r[j]
    return tuple(out)
