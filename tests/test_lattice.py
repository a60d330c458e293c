"""Exact lattice arithmetic: canonical bases, duals, coset groups,
parity pairings, and the report's freeness verdict read off the action
table.  Everything here must hold with rational equality."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qlag.pipeline
from qlag import (
    DimensionMismatch,
    ExponentMatrix,
    InstanceConfig,
    LatticeBasis,
    QuadricSystem,
    RankDeficient,
    SingularBasis,
    dual_basis,
    gamma_representatives,
    hermite_normal_form,
    lattice_basis_from_generators,
    pairing_parity,
    run_analyze,
    serialize_report,
    sum_vector,
)
from qlag.torus import action_table

F = Fraction


def _pairing(gamma, row):
    """The exact Euclidean pairing (gamma, e), a Fraction."""
    return sum((F(g) * e for g, e in zip(gamma, row)), F(0))


# -- basis extraction -------------------------------------------------------

def test_basis_from_coprime_generators_is_unit():
    basis = lattice_basis_from_generators(ExponentMatrix([[1], [2]]))
    assert basis.rows == ((F(1),),)


def test_basis_two_dim_hand_value():
    basis = lattice_basis_from_generators(ExponentMatrix([[1, 1], [1, -1]]))
    assert basis.rows == ((F(1), F(1)), (F(0), F(2)))


def test_basis_identity_passthrough():
    basis = lattice_basis_from_generators(ExponentMatrix([[1, 0], [0, 1]]))
    assert basis.rows == ((F(1), F(0)), (F(0), F(1)))


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficient):
        ExponentMatrix([[1, 1], [2, 2], [3, 3]])


def test_empty_exponent_matrix_rejected():
    # no coordinates is no instance: products assemble nonempty factors only
    with pytest.raises(ValueError):
        ExponentMatrix(())
    with pytest.raises(ValueError):
        QuadricSystem([], [])


def test_hnf_determinant_preserved():
    # |det| of any basis of the same lattice is an invariant
    rows = [[2, 1], [1, 3]]
    hnf = hermite_normal_form(rows)
    det = hnf[0][0] * hnf[1][1] - hnf[0][1] * hnf[1][0]
    assert abs(det) == abs(2 * 3 - 1 * 1)


def test_generators_reduce_over_basis():
    exps = ExponentMatrix([[3, 1], [1, 2], [4, 3]])
    basis = lattice_basis_from_generators(exps)
    for row in exps.rows:
        assert basis.contains(row)


# -- dual basis --------------------------------------------------------------

def test_dual_of_unit_is_unit():
    assert dual_basis(LatticeBasis([[1]])).rows == ((F(1),),)


def test_dual_hand_value():
    dual = dual_basis(LatticeBasis([[1, 1], [1, -1]]))
    assert dual.rows == ((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)))


def test_dual_of_scaled_identity():
    dual = dual_basis(LatticeBasis([[2, 0], [0, 2]]))
    assert dual.rows == ((F(1, 2), F(0)), (F(0), F(1, 2)))


def test_dual_pairing_is_exact_identity():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randrange(1, 4)
        while True:
            rows = [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(m)]
            try:
                basis = LatticeBasis(rows)
                break
            except SingularBasis:
                continue
        dual = dual_basis(basis)
        for i in range(m):
            for j in range(m):
                assert _pairing(dual.rows[j], [int(x) for x in basis.rows[i]]) == (
                    1 if i == j else 0
                )


def test_singular_basis_rejected():
    with pytest.raises(SingularBasis):
        LatticeBasis([[1, 2], [2, 4]])


# -- coset representatives ---------------------------------------------------

def test_gamma_one_dim():
    group = gamma_representatives(LatticeBasis([[1]]))
    assert group == ((F(0),), (F(1),))  # a plain tuple, the identity first


def test_gamma_hand_duals():
    dual = LatticeBasis([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])
    group = gamma_representatives(dual)
    assert set(group) == {
        (F(0), F(0)),
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(1), F(0)),
    }


def test_gamma_unit_lattice():
    group = gamma_representatives(LatticeBasis([[1, 0], [0, 1]]))
    assert set(group) == {
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
    }


def test_gamma_cardinality_and_distinctness_mod_2dual():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randrange(1, 4)
        while True:
            rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(m)]
            try:
                dual = dual_basis(LatticeBasis(rows))
                break
            except SingularBasis:
                continue
        group = gamma_representatives(dual)
        assert len(group) == 2 ** m
        # differences of distinct representatives never land in 2L*
        reps = group
        twice = LatticeBasis([[2 * x for x in r] for r in dual.rows])
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                diff = [a - b for a, b in zip(reps[i], reps[j])]
                assert not twice.contains(diff)


# -- pairings ----------------------------------------------------------------

def test_pairing_values():
    # the exact pairing is read through its parity: values 1, 0, 0, 3, 2, -1
    assert pairing_parity([F(1, 2), F(1, 2)], [1, 1]) == 1
    assert pairing_parity([F(1, 2), F(1, 2)], [1, -1]) == 0
    assert pairing_parity([F(0), F(0)], [5, -7]) == 0
    assert pairing_parity([F(3, 2), F(1, 2)], [1, 3]) == 1
    assert pairing_parity([F(3, 2), F(1, 2)], [1, 1]) == 0
    assert pairing_parity([F(-3, 2), F(1, 2)], [1, 1]) == 1


def test_pairing_parity():
    assert pairing_parity([F(1, 2), F(1, 2)], [1, 1]) == 1
    assert pairing_parity([F(1, 2), F(1, 2)], [1, -1]) == 0
    with pytest.raises(ValueError, match="not an integer"):
        pairing_parity([F(1, 2), F(0)], [1, 1])


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pairing_parity([F(1)], [1, 2])


def test_pairings_integral_for_all_group_elements():
    rng = random.Random(11)
    for _ in range(15):
        n, m = rng.randrange(2, 5), rng.randrange(1, 3)
        rows = None
        while rows is None:
            cand = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
            try:
                rows = ExponentMatrix(cand)
            except RankDeficient:
                rows = None
        basis = lattice_basis_from_generators(rows)
        group = gamma_representatives(dual_basis(basis))
        for gamma in group:
            for row in rows.rows:
                assert _pairing(gamma, row).denominator == 1


# -- free action: the report's lattice section ------------------------------


def _lattice_report(rows) -> dict:
    """The lattice section of a report on the exponent rows; the constants
    are placeholders, since no sweep runs."""
    n, m = len(rows), len(rows[0])
    config = {"n": n, "k": n - m, "rows": rows, "constants": [1.0] * m, "sweeps": {}}
    return run_analyze(InstanceConfig.from_dict(config))["lattice"]


def test_free_action_ellipse():
    section = _lattice_report([[1], [2]])
    assert section["free_action"] is True
    assert section["witnesses"] == [{"gamma": ["1"], "row": 0}]  # first row pairs oddly


def test_free_action_two_sphere_family():
    section = _lattice_report([[1, 1], [1, 1], [1, -1]])
    assert section["free_action"] is True
    assert len(section["witnesses"]) == 3
    assert all(w["row"] is not None for w in section["witnesses"])


def test_free_action_synthetic_failure(monkeypatch):
    # a table whose first nonzero row flips no coordinate: that class would
    # fix every point, so the action is not free and it has no witness
    rows = [[2, 0], [0, 2]]
    signs, shifts = action_table(ExponentMatrix(rows))
    fake = np.array(signs)
    fake[1] = 1.0
    monkeypatch.setattr(qlag.pipeline, "action_table", lambda exponents: (fake, shifts))
    section = _lattice_report(rows)
    assert section["free_action"] is False
    assert [w["row"] for w in section["witnesses"]] == [None, 0, 0]
    text = serialize_report({"lattice": section})
    assert '"free_action": false' in text and '"row": null' in text


def test_free_action_matches_parity_bruteforce():
    rng = random.Random(5)
    for _ in range(15):
        n, m = rng.randrange(2, 5), rng.randrange(1, 3)
        exps = None
        while exps is None:
            cand = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)]
            try:
                exps = ExponentMatrix(cand)
            except RankDeficient:
                exps = None
        section = _lattice_report(cand)
        group = gamma_representatives(dual_basis(lattice_basis_from_generators(exps)))
        assert [w["gamma"] for w in section["witnesses"]] == [
            [str(x) for x in g] for g in group[1:]
        ]
        # the first row each nonzero class pairs with oddly, in exact arithmetic
        brute = [
            next((j for j, row in enumerate(cand) if _pairing(g, row).numerator % 2), None)
            for g in group[1:]
        ]
        assert [w["row"] for w in section["witnesses"]] == brute
        assert section["free_action"] is (None not in brute)
        assert section["free_action"]  # valid coset groups always act freely


# -- sum vector ----------------------------------------------------------------

def test_sum_vector_zero_for_balanced_cone():
    assert sum_vector(ExponentMatrix([[1], [2], [-3]])) == (0,)


def test_sum_vector_ellipse():
    assert sum_vector(ExponentMatrix([[1], [2]])) == (3,)


def test_sum_vector_zero_matrix_rows():
    exps = ExponentMatrix([[1, 0], [0, 1], [-1, 0], [0, -1]])
    assert sum_vector(exps) == (0, 0)


# -- properties on random small integer matrices ---------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def _integer_matrices(max_rows=5, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=1,
            max_size=max_rows,
        )
    )


def _reduce_over_echelon(row, hnf):
    """Remainder of ``row`` after subtracting integer multiples of the HNF
    rows pivot by pivot; zero exactly when the row is in their lattice."""
    rest = list(row)
    for basis_row in hnf:
        pivot = next(j for j, x in enumerate(basis_row) if x)
        q, r = divmod(rest[pivot], basis_row[pivot])
        if r:
            return rest
        rest = [a - q * b for a, b in zip(rest, basis_row)]
    return rest


@PROPERTY
@given(_integer_matrices())
def test_hnf_is_idempotent(rows):
    hnf = hermite_normal_form(rows)
    assert hermite_normal_form(hnf) == hnf


@PROPERTY
@given(_integer_matrices())
def test_hnf_lattice_contains_every_input_row(rows):
    hnf = hermite_normal_form(rows)
    for row in rows:
        assert not any(_reduce_over_echelon(row, hnf))


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                       min_size=m, max_size=m)))
def test_dual_rows_pair_with_basis_rows_to_delta(rows):
    hnf = hermite_normal_form(rows)
    assume(len(hnf) == len(rows))
    basis = LatticeBasis(hnf)
    dual = dual_basis(basis)
    for i, b in enumerate(basis.rows):
        for j, d in enumerate(dual.rows):
            assert sum(x * y for x, y in zip(b, d)) == (1 if i == j else 0)


def _fractions(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_polyhedron_vertices_and_rays():
    from qlag.lattice import polyhedron

    F = Fraction
    # the hyperbola's v1 - 2 v2 = 1: one vertex and one ray
    assert polyhedron([(1, -2)], [F(1)]) == (_fractions((1, 0)), _fractions((F(2, 3), F(1, 3))))
    # and at a b beyond float range, which the float pass scales down exactly
    assert polyhedron([(1, -2)], [F(10 ** 400)]) == (
        _fractions((10 ** 400, 0)), _fractions((F(2, 3), F(1, 3))))
    # the klein cone's link v1 + 2 v2 - 3 v3 = 0, sum v = 1: two vertices, no ray
    link = [(1, 2, -3), (1, 1, 1)]
    assert polyhedron(link, [F(0), F(1)]) == (
        _fractions((F(3, 4), 0, F(1, 4)), (0, F(3, 5), F(2, 5))), ())
    # v1 + v2 + v3 = 1 with v1 = 1: the degenerate vertex of bases {1, 2}
    # and {1, 3} is listed once, and the singular basis {2, 3} is skipped
    assert polyhedron([(1, 1, 1), (1, 0, 0)], [F(1), F(1)]) == (_fractions((1, 0, 0)), ())
    # the planes cone's link v1 - v2 = 0, sum v = 1: its vertex (0, 0, 1) is
    # found from the basis {2, 3}, degenerate, though E's row 3 is zero
    assert polyhedron([(1, -1, 0), (1, 1, 1)], [F(0), F(1)]) == (
        _fractions((F(1, 2), F(1, 2), 0), (0, 0, 1)), ())


def _every_basis_solved_exactly(rows, rhs):
    """polyhedron's reference: every square column basis inverted over Q."""
    from qlag.lattice import _inverse

    n = len(rows[0])
    found = ({}, {})
    for out, (a, b) in zip(found, ((rows, rhs), ([*rows, (1,) * n], [0] * len(rows) + [1]))):
        for basis in itertools.combinations(range(n), len(a)):
            try:
                inverse = _inverse([[Fraction(row[c]) for c in basis] for row in a])
            except SingularBasis:
                continue
            x = [sum((p * q for p, q in zip(row, b)), Fraction(0)) for row in inverse]
            if min(x) >= 0:
                v = [Fraction(0)] * n
                for c, value in zip(basis, x):
                    v[c] = value
                out[tuple(v)] = None
    return tuple(found[0]), tuple(found[1])


@pytest.mark.parametrize("n, m, seed", [(8, 4, 3), (9, 3, 2)])
@pytest.mark.parametrize("affine", [True, False], ids=["v=1 in P", "b=0"])
def test_polyhedron_inverts_only_its_float_candidates(n, m, seed, affine, monkeypatch):
    # the float pass keeps every vertex and ray that solving all bases
    # exactly finds, in the same order; with v = 1 in P it leaves under a
    # third of the bases to invert, while b = 0 makes 0 a vertex of every
    # regular basis
    import numpy as np

    import qlag.lattice as lattice

    rng = np.random.default_rng(seed)
    while True:
        E = rng.integers(-2, 3, size=(n, m))
        if np.linalg.matrix_rank(E) == m:
            break
    rows = [tuple(int(x) for x in col) for col in E.T]
    rhs = [Fraction(int(d) if affine else 0) for d in E.sum(axis=0)]
    expected = _every_basis_solved_exactly(rows, rhs)
    lattice._basis_inverse.cache_clear()  # both cases share the rows
    inverted = []

    def counted(block, inverse=lattice._inverse):
        inverted.append(block)
        return inverse(block)

    monkeypatch.setattr(lattice, "_inverse", counted)
    assert lattice.polyhedron(rows, rhs) == expected
    assert len(expected[0]) > 1 if affine else expected[0] == ((0,) * n,)
    if affine:
        assert len(inverted) < (math.comb(n, m) + math.comb(n, m + 1)) / 3


def test_polytope_bases_are_inverted_once_across_floors(monkeypatch):
    # the floor moves only b, so a second enumeration at another floor
    # reuses every exact inverse and still equals a cold one; each call
    # takes a fresh system, whose memo has enumerated nothing
    import qlag.lattice as lattice
    from qlag.catalog import sphere_cone
    from qlag.quadric import moment_polytope

    inverted = []

    def counted(block, inverse=lattice._inverse):
        inverted.append(block)
        return inverse(block)

    monkeypatch.setattr(lattice, "_inverse", counted)
    lattice._basis_inverse.cache_clear()
    moment_polytope(sphere_cone(5), 0.1)
    assert inverted
    inverted.clear()
    warm = moment_polytope(sphere_cone(5), 0.2)
    assert inverted == []
    lattice._basis_inverse.cache_clear()
    cold = moment_polytope(sphere_cone(5), 0.2)
    assert inverted
    assert len(warm) == len(cold) == 2
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
