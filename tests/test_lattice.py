from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpow.errors import NotInLatticeError, SingularMatrixError
from charpow.lattice import (
    LatticeBasis,
    PAdicMatrix,
    column_span_basis,
    hnf,
    in_lattice,
    mat_det,
    mat_mul,
    reduce_against,
    row_hnf,
    row_reduce,
    snf,
    solve_integer,
)
from charpow.rng import SplitMix64

small_entries = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(map(tuple, rows)))


def nonsingular(n):
    return square(n).filter(lambda m: mat_det(m) != 0)


def test_hnf_identity():
    h, u = hnf(((1, 0), (0, 1)), 2)
    assert h.matrix == ((1, 0), (0, 1))
    assert u == ((1, 0), (0, 1))


def test_hnf_diagonal():
    h, u = hnf(((2, 0), (0, 1)), 2)
    assert h.matrix == ((2, 0), (0, 1))
    assert h.index() == 2


def test_hnf_swap_example():
    # oracle: the column span of [[0,1],[2,0]] is 2Z x Z ... checked by membership
    m = ((0, 1), (2, 0))
    h, u = hnf(m, 2)
    assert mat_mul(m, u) == h.matrix
    assert h.index() == 2
    assert abs(mat_det(u)) == 1
    for vec in [(1, 0), (0, 1), (1, 1), (3, -2)]:
        assert in_lattice(h, vec) == _in_span_bruteforce(m, vec)


def _in_span_bruteforce(m, vec):
    # solve m . x = vec over the rationals and check integrality
    det = mat_det(m)
    n = len(m)
    out = []
    for j in range(n):
        cols = [list(col) for col in zip(*m)]
        cols[j] = list(vec)
        rep = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
        out.append(Fraction(mat_det(rep), det))
    return all(x.denominator == 1 for x in out)


def test_hnf_singular_rejected():
    with pytest.raises(SingularMatrixError):
        hnf(((1, 1), (1, 1)), 2)


@settings(max_examples=60)
@given(nonsingular(2))
def test_hnf_idempotent_and_span(m):
    h, u = hnf(m, 2)
    assert mat_mul(m, u) == h.matrix
    h2, _ = hnf(h.matrix, 2)
    assert h2.matrix == h.matrix
    for vec in [(1, 0), (0, 1), (2, 3), (-1, 4)]:
        assert in_lattice(h, vec) == _in_span_bruteforce(m, vec)


@settings(max_examples=40)
@given(nonsingular(3))
def test_hnf_rank3(m):
    h, u = hnf(m, 2)
    assert mat_mul(m, u) == h.matrix
    assert abs(mat_det(u)) == 1
    assert h.index() == abs(mat_det(m))


def test_snf_examples():
    assert snf(PAdicMatrix(2, ((1, 0), (0, 1)))) == (1, 1)
    assert snf(PAdicMatrix(2, ((2, 0), (0, 2)))) == (2, 2)
    assert snf(PAdicMatrix(2, ((2, 2), (0, 2)))) == (2, 2)


def test_snf_matches_bruteforce_quotient():
    # oracle: enumerate Z^2 / M Z^2 on representatives mod 4 and read off orders
    m = ((2, 2), (0, 2))
    counts = _quotient_structure_bruteforce(m, 4)
    assert counts == [2, 2]
    assert list(snf(PAdicMatrix(2, m))) == counts


def _quotient_structure_bruteforce(m, modulus):
    # the quotient group Z^2/(M Z^2 + modulus Z^2) for modulus a multiple of
    # all elementary divisors; orders of a minimal generating set via SNF of
    # the relation matrix are read from element orders
    span = set()
    for a in range(-modulus, modulus + 1):
        for b in range(-modulus, modulus + 1):
            v = (
                (a * m[0][0] + b * m[0][1]) % modulus,
                (a * m[1][0] + b * m[1][1]) % modulus,
            )
            span.add(v)
    elements = {
        (x, y)
        for x in range(modulus)
        for y in range(modulus)
    }
    quotient = {}
    for e in elements:
        key = min(
            ((e[0] - s[0]) % modulus, (e[1] - s[1]) % modulus) for s in span
        )
        quotient.setdefault(key, []).append(e)
    size = len(quotient)
    orders = sorted(
        _element_order_in_quotient(e, span, modulus) for e in quotient
    )
    # abelian group of order 4 with max element order 2 is C2 x C2
    assert size == 4
    return [2, 2] if max(orders) == 2 else [1, 4]


def _element_order_in_quotient(e, span, modulus):
    k = 1
    cur = e
    while cur not in span:
        cur = ((cur[0] + e[0]) % modulus, (cur[1] + e[1]) % modulus)
        k += 1
    return k


@settings(max_examples=50)
@given(nonsingular(2))
def test_snf_divisibility_chain(m):
    divs = snf(PAdicMatrix(3, m))
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0


def test_det_valuation_examples():
    assert PAdicMatrix(2, ((1, 0), (0, 1))).det_valuation() == 0
    assert PAdicMatrix(2, ((1, 0), (0, 2))).det_valuation() == 1
    assert PAdicMatrix(2, ((2, 2), (0, 2))).det_valuation() == 2
    with pytest.raises(SingularMatrixError):
        PAdicMatrix(2, ((1, 1), (1, 1))).det_valuation()


@settings(max_examples=50)
@given(nonsingular(2), nonsingular(2))
def test_det_valuation_additive(a, b):
    pa, pb = PAdicMatrix(2, a), PAdicMatrix(2, b)
    assert pa.mul(pb).det_valuation() == pa.det_valuation() + pb.det_valuation()


def test_solve_integer_identity_and_scaled():
    eye = LatticeBasis(2, ((1, 0), (0, 1)))
    assert solve_integer(eye, ((3, 1), (0, 5))) == ((3, 1), (0, 5))
    two = LatticeBasis(2, ((2, 0), (0, 2)))
    assert solve_integer(two, ((2, 0), (0, 2))) == ((1, 0), (0, 1))


@settings(max_examples=50)
@given(nonsingular(2), square(2))
def test_solve_integer_roundtrip(b, x):
    basis, _ = hnf(b, 2)
    target = mat_mul(basis.matrix, x)
    assert solve_integer(basis, target) == tuple(map(tuple, x))


def test_solve_integer_rejects_outside():
    two = LatticeBasis(2, ((2, 0), (0, 2)))
    with pytest.raises(NotInLatticeError):
        solve_integer(two, ((1, 0), (0, 2)))


def test_row_hnf_is_left_canonical():
    # [[2,1],[0,1]] = [[1,1],[0,1]] . diag(2,1): same left orbit, one canonical form
    assert row_hnf(((2, 1), (0, 1))) == row_hnf(((2, 0), (0, 1)))
    assert row_hnf(((1, 1), (0, 2))) == ((1, 1), (0, 2))


@settings(max_examples=60)
@given(nonsingular(2))
def test_row_hnf_invariant_under_left_multiplication(m):
    for u in [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))]:
        assert row_hnf(mat_mul(u, m)) == row_hnf(m)


def test_supported_envelope_n4_p12():
    # n = 4 with index p^12 stays exact
    m = (
        (4096, 1, 0, 3),
        (0, 1, 7, 2),
        (0, 0, 1, 5),
        (0, 0, 0, 1),
    )
    pm = PAdicMatrix(2, m)
    assert pm.det_valuation() == 12
    h, u = hnf(m, 2)
    assert mat_mul(m, u) == h.matrix
    assert h.index() == 4096
    assert snf(pm) == (1, 1, 1, 4096)


def test_column_span_basis_rectangular():
    basis = column_span_basis(((2, 0, 1), (0, 2, 1)))
    assert mat_det(basis) != 0
    lb = LatticeBasis(2, basis)
    assert in_lattice(lb, (1, 1))
    assert not in_lattice(lb, (1, 0))


# ---------------------------------------------------------------------------
# row reduction with a pivot map, against the pivot-rescanning version


def _oracle_pivot(row):
    return next((i for i, x in enumerate(row) if x != 0), None)


def _oracle_reduce_against(row, basis):
    row = list(row)
    for b in basis:
        c = row[_oracle_pivot(b)]
        if c != 0:
            row = [x - c * y for x, y in zip(row, b)]
    return row


def _oracle_row_reduce(rows):
    """Oracle: each step rescans every basis row for its pivot."""
    basis = []
    for row in rows:
        row = _oracle_reduce_against(row, basis)
        piv = _oracle_pivot(row)
        if piv is None:
            continue
        inv = Fraction(1) / row[piv]
        row = [x * inv for x in row]
        basis = [
            [x - b[piv] * y for x, y in zip(b, row)] if b[piv] != 0 else b
            for b in basis
        ]
        basis.append(row)
        basis.sort(key=_oracle_pivot)
    return basis


def test_row_reduce_matches_rescanning_oracle_on_seeded_matrices():
    rng = SplitMix64(2024)
    for _ in range(150):
        nrows, ncols = 1 + rng.below(9), 1 + rng.below(9)
        rows = [
            [Fraction(rng.below(11) - 5) if rng.below(3) else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = row_reduce(rows)
        assert basis == _oracle_row_reduce(rows)
        probe = [Fraction(rng.below(7) - 3, 1 + rng.below(3)) for _ in range(ncols)]
        assert reduce_against(probe, basis) == _oracle_reduce_against(probe, basis)


def test_row_reduce_matches_rescanning_oracle_on_transfer_ideal():
    from charpow.classfn import transfer_ideal
    from charpow.groups import build_group

    ideal = transfer_ideal(2, 2, 2, 4, build_group("C2"))
    rows = [list(map(Fraction, g)) for g in ideal.generators]
    assert len(rows) == 1028
    assert row_reduce(rows) == _oracle_row_reduce(rows)
