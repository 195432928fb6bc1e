import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpow.errors import LevelMismatchError, NotInLatticeError, SingularMatrixError
from charpow.lattice import (
    PRIME_BOUND,
    LatticeBasis,
    PAdicMatrix,
    _back_substitute,
    column_span_basis,
    hnf,
    int_valuation,
    is_prime,
    mat_det,
    mat_mul,
    rational_span,
    row_hnf,
    scalar_matrix,
    snf,
    solve_integer,
)
from charpow.rng import SplitMix64, random_unimodular

small_entries = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(map(tuple, rows)))


def nonsingular(n):
    return square(n).filter(lambda m: mat_det(m) != 0)


def test_is_prime_matches_sieve_below_10_5():
    # oracle: the sieve of Eratosthenes, the trial division it replaced
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [p for p in range(-3, 10 ** 5) if is_prime(p)] == [p for p, q in enumerate(sieve) if q]


@pytest.mark.parametrize(
    "p, expected",
    [
        (2 ** 61 - 1, True),
        (10 ** 9 + 7, True),
        ((10 ** 9 + 7) * (10 ** 9 + 9), False),
        # the least strong pseudoprimes to the first 4, 8, 11 and 12 prime bases
        (3215031751, False),
        (341550071728321, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        (PRIME_BOUND - 2, False),  # 17 divides it
    ],
)
def test_is_prime_on_large_inputs(p, expected):
    assert is_prime(p) is expected


def test_is_prime_refuses_p_at_its_bound():
    # PRIME_BOUND is the least strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match=f"^p = {PRIME_BOUND} is at least {PRIME_BOUND}; "):
        is_prime(PRIME_BOUND)


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
        assert _in_lattice(h, vec) == _in_span_bruteforce(m, vec)


def _in_lattice(basis, vec):
    try:
        solve_integer(basis, tuple((v,) for v in vec))
        return True
    except NotInLatticeError:
        return False


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
        assert _in_lattice(h, vec) == _in_span_bruteforce(m, vec)


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
    assert int_valuation(PAdicMatrix(2, ((1, 0), (0, 1))).det, 2) == 0
    assert int_valuation(PAdicMatrix(2, ((1, 0), (0, 2))).det, 2) == 1
    assert int_valuation(PAdicMatrix(2, ((2, 2), (0, 2))).det, 2) == 2
    with pytest.raises(SingularMatrixError):
        int_valuation(PAdicMatrix(2, ((1, 1), (1, 1))).det, 2)


@settings(max_examples=50)
@given(nonsingular(2), nonsingular(2))
def test_det_valuation_additive(a, b):
    pa, pb = PAdicMatrix(2, a), PAdicMatrix(2, b)
    assert int_valuation(pa.mul(pb).det, 2) == int_valuation(pa.det, 2) + int_valuation(pb.det, 2)


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
    assert int_valuation(pm.det, 2) == 12
    h, u = hnf(m, 2)
    assert mat_mul(m, u) == h.matrix
    assert h.index() == 4096
    assert snf(pm) == (1, 1, 1, 4096)


def test_column_span_basis_rectangular():
    basis = column_span_basis(((2, 0, 1), (0, 2, 1)))
    assert mat_det(basis) != 0
    lb = LatticeBasis(2, basis)
    assert _in_lattice(lb, (1, 1))
    assert not _in_lattice(lb, (1, 0))


# ---------------------------------------------------------------------------
# rank, membership and inverses over Q, against rational row reduction


def _sparse(row):
    """A row as {column: Fraction} over its nonzero entries."""
    return {j: Fraction(x) for j, x in enumerate(row) if x}


def _oracle_pivot(row):
    return min(row, default=None)


def _oracle_add_multiple(row, c, other):
    """row + c . other, touching only the nonzero entries of other."""
    row = dict(row)
    for j, y in other.items():
        x = row.get(j, 0) + c * y
        if x:
            row[j] = x
        else:
            del row[j]
    return row


def _oracle_reduce_against(row, basis):
    for b in basis:
        c = row.get(_oracle_pivot(b))
        if c:
            row = _oracle_add_multiple(row, -c, b)
    return row


def _oracle_row_reduce(rows):
    """Oracle: rational RREF of sparse rows; each step rescans every basis row for its pivot."""
    basis = []
    for row in rows:
        row = _oracle_reduce_against(_sparse(row), basis)
        piv = _oracle_pivot(row)
        if piv is None:
            continue
        inv = 1 / row[piv]
        row = {j: x * inv for j, x in row.items()}
        basis = [
            _oracle_add_multiple(b, -b[piv], row) if piv in b else b
            for b in basis
        ]
        basis.append(row)
        basis.sort(key=_oracle_pivot)
    return basis


def _oracle_in_span(vec, basis):
    return not _oracle_reduce_against(_sparse(vec), basis)


def in_rational_span(span: dict, vec) -> bool:
    """Whether an integer vector lies in the Q-span kept by ``rational_span``.

    Bottom-up, each pivot row r clears v[r] by v -> c[r]/g . v - v[r]/g . c
    with g = gcd(c[r], v[r]); a nonzero entry at a row without a pivot puts
    v outside the span.
    """
    v = list(vec)
    for r in range(len(v) - 1, -1, -1):
        if v[r] == 0:
            continue
        c = span.get(r)
        if c is None:
            return False
        g = math.gcd(c[r], v[r])
        a, b = c[r] // g, v[r] // g
        v = [a * x - b * y for x, y in zip(v, c)]
    return True


def _cleared(vec):
    """An integer multiple of a rational vector."""
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    return [int(x * den) for x in vec]


def test_rational_span_matches_row_reduce_oracle_on_seeded_matrices():
    rng = SplitMix64(2024)
    for _ in range(150):
        nrows, ncols = 1 + rng.below(9), 1 + rng.below(9)
        rows = [
            [Fraction(rng.below(11) - 5) if rng.below(3) else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = _oracle_row_reduce(rows)
        span = rational_span([[int(x) for x in row] for row in rows], ncols)
        assert len(span) == len(basis)
        probe = [Fraction(rng.below(7) - 3, 1 + rng.below(3)) for _ in range(ncols)]
        comb = [sum(Fraction(rng.below(5) - 2) * row[j] for row in rows) for j in range(ncols)]
        for vec in (probe, comb):
            assert in_rational_span(span, _cleared(vec)) == _oracle_in_span(vec, basis)


def test_rational_span_matches_row_reduce_oracle_on_transfer_ideal():
    from charpow.classfn import transfer_ideal
    from charpow.groups import build_group

    ideal = transfer_ideal(2, 2, 2, 4, build_group("C2"))
    rows = ideal.generators
    assert len(rows) == 1028
    basis = _oracle_row_reduce(rows)
    assert ideal.rank == len(basis) == 233
    size = len(ideal.keys)
    probes = [[int(j == k) for j in range(size)] for k in range(size)]
    rng = SplitMix64(5)
    for _ in range(6):
        picks = [ideal.generators[rng.below(len(rows))] for _ in range(4)]
        comb = [sum(g[j] for g in picks) for j in range(size)]
        comb[rng.below(size)] += rng.below(2)
        probes.append(comb)
    for vec in probes:
        assert ideal.contains_vector(vec) == _oracle_in_span(vec, basis)


def test_rational_span_rank_and_membership_fuzz():
    def rank_oracle(rows):
        m = [list(map(Fraction, r)) for r in rows]
        rank, col = 0, 0
        ncols = len(m[0])
        while rank < len(m) and col < ncols:
            piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
            if piv is None:
                col += 1
                continue
            m[rank], m[piv] = m[piv], m[rank]
            pv = m[rank][col]
            m[rank] = [x / pv for x in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][col] != 0:
                    c = m[r][col]
                    m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
            rank += 1
            col += 1
        return rank

    rng = SplitMix64(12345)
    for _ in range(120):
        nrows, ncols = 1 + rng.below(6), 1 + rng.below(6)
        rows = [[rng.below(7) - 3 for _ in range(ncols)] for _ in range(nrows)]
        span = rational_span(rows, ncols)
        rank = rank_oracle(rows)
        assert len(span) == rank
        coeffs = [rng.below(5) - 2 for _ in range(nrows)]
        comb = [
            sum(coeffs[i] * rows[i][j] for i in range(nrows)) for j in range(ncols)
        ]
        assert in_rational_span(span, comb)
        for free in range(ncols):
            shifted = list(comb)
            shifted[free] += 1
            assert in_rational_span(span, shifted) == (rank_oracle(rows + [shifted]) == rank)


def _echelon_contains(span, keys, f):
    """Oracle of TransferIdeal.contains: every evaluation column of f lies in the echelon's span."""
    columns = zip(*(f.value_at(rep).values for rep in keys))
    return all(in_rational_span(span, _cleared(col)) for col in set(columns))


@pytest.mark.parametrize(
    "p, n, level, m, spec",
    [(2, 2, 2, 4, None), (2, 2, 2, 3, None), (3, 1, 1, 3, None), (2, 1, 2, 3, "C2"),
     (2, 1, 2, 4, "C2"), (2, 2, 2, 2, "S3")],
)
def test_transfer_ideal_support_matches_echelon_oracle(p, n, level, m, spec):
    from charpow.classfn import c0_coordinate, indicator, transfer_ideal
    from charpow.groups import build_group, enumerate_hom_classes

    ideal = transfer_ideal(p, n, level, m, spec and build_group(spec))
    size = len(ideal.keys)
    span = rational_span(ideal.generators, size)
    assert (ideal.rank, ideal.quotient_dim()) == (len(span), size - len(span))
    probes = [[int(j == k) for j in range(size)] for k in range(size)]
    rng = SplitMix64(100 * p + m)
    for _ in range(6):
        picks = [ideal.generators[rng.below(len(ideal.generators))] for _ in range(4)]
        coeffs = [rng.below(5) - 2 for _ in picks]
        comb = [sum(c * g[j] for c, g in zip(coeffs, picks)) for j in range(size)]
        probes.append(comb)
        comb = list(comb)
        comb[rng.below(size)] += 1
        probes.append(comb)
    for vec in probes:
        assert ideal.contains_vector(vec) == in_rational_span(span, vec)
    classes = enumerate_hom_classes(ideal.group, n, p)
    coord = c0_coordinate(p, n, level)
    functions = [indicator(c, level, value) for c in classes for value in (None, coord)]
    functions += [
        indicator(a, level).add(indicator(b, level, coord))
        for a, b in itertools.combinations(classes, 2)
    ]
    for f in functions:
        assert ideal.contains(f) == _echelon_contains(span, ideal.keys, f)


def _seeded_nonsingular(rng, n):
    while True:
        a = tuple(tuple(rng.below(9) - 4 for _ in range(n)) for _ in range(n))
        if mat_det(a) != 0:
            return a


def fraction_inverse(a):
    """Oracle: A^-1 as Fractions, by rational row reduction of [A | I]."""
    n = len(a)
    rref = _oracle_row_reduce(
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    )
    assert [_oracle_pivot(row) for row in rref] == list(range(n))
    return tuple(tuple(row.get(j, 0) for j in range(n, 2 * n)) for row in rref)


def test_scaled_inverse_by_back_substitution_matches_row_reduce_oracle():
    # det(A) . A^-1 for a triangular A, as image_subgroup takes |H| . A_H^-1
    from charpow.torsion import enumerate_subgroups

    rng = SplitMix64(77)
    cases = [row_hnf(_seeded_nonsingular(rng, 1 + rng.below(4))) for _ in range(200)]
    cases += [h.matrix for k in range(4) for h in enumerate_subgroups(2, 2, k)]
    for a in cases:
        d = mat_det(a)
        assert _back_substitute(a, scalar_matrix(len(a), d)) == tuple(
            tuple(d * x for x in row) for row in fraction_inverse(a)
        )


# ---------------------------------------------------------------------------
# row HNF and SNF through the column echelon, against the direct xgcd versions


def _oracle_xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _oracle_row_hnf(entries):
    """Oracle: xgcd row operations down each column, then reduce above the pivots.

    entries may have more rows than columns; the rows past the square
    block end up zero.
    """
    n = len(entries[0])
    rows = [list(r) for r in entries]
    for c in range(n):
        acc = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if acc is None:
            raise SingularMatrixError("row_hnf requires a nonsingular matrix")
        rows[c], rows[acc] = rows[acc], rows[c]
        for i in range(c + 1, len(rows)):
            if rows[i][c] == 0:
                continue
            a, b = rows[c][c], rows[i][c]
            g, x, y = _oracle_xgcd(a, b)
            rc, ri = rows[c], rows[i]
            rows[c] = [x * u + y * v for u, v in zip(rc, ri)]
            rows[i] = [(a // g) * v - (b // g) * u for u, v in zip(rc, ri)]
    for j in range(n):
        if rows[j][j] < 0:
            rows[j] = [-x for x in rows[j]]
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if q:
                rows[i] = [u - q * v for u, v in zip(rows[i], rows[j])]
    assert not any(map(any, rows[n:]))
    return tuple(map(tuple, rows[:n]))


def _oracle_snf(m):
    """Oracle: clear row and column k against the pivot (k, k) until both vanish."""
    n = m.n
    a = [list(row) for row in m.entries]

    def improve(k):
        while True:
            for i in range(k + 1, n):
                if a[i][k] % a[k][k] != 0:
                    g, x, y = _oracle_xgcd(a[k][k], a[i][k])
                    rk, ri = a[k], a[i]
                    ck, ci = a[k][k] // g, a[i][k] // g
                    a[k] = [x * u + y * v for u, v in zip(rk, ri)]
                    a[i] = [ck * v - ci * u for u, v in zip(rk, ri)]
            for i in range(k + 1, n):
                q = a[i][k] // a[k][k]
                if q:
                    a[i] = [u - q * v for u, v in zip(a[i], a[k])]
            for j in range(k + 1, n):
                if a[k][j] % a[k][k] != 0:
                    g, x, y = _oracle_xgcd(a[k][k], a[k][j])
                    ck, cj = a[k][k] // g, a[k][j] // g
                    for r in range(n):
                        u, v = a[r][k], a[r][j]
                        a[r][k] = x * u + y * v
                        a[r][j] = ck * v - cj * u
            for j in range(k + 1, n):
                q = a[k][j] // a[k][k]
                if q:
                    for r in range(n):
                        a[r][j] -= q * a[r][k]
            if all(a[i][k] == 0 for i in range(k + 1, n)) and all(
                a[k][j] == 0 for j in range(k + 1, n)
            ):
                return

    for k in range(n):
        pivot = next(
            ((i, j) for i in range(k, n) for j in range(k, n) if a[i][j] != 0), None
        )
        if pivot is None:
            raise SingularMatrixError("snf requires a nonsingular matrix")
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        for r in range(n):
            a[r][k], a[r][j] = a[r][j], a[r][k]
        improve(k)
    d = [abs(a[i][i]) for i in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            if d[j] % d[i] != 0:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    d.sort()
    return tuple(m.p ** _oracle_valuation(x, m.p) for x in d)


def _oracle_valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _assert_matches_oracles(m):
    assert row_hnf(m) == _oracle_row_hnf(m)
    for p in (2, 3, 5):
        assert snf(PAdicMatrix(p, m)) == _oracle_snf(PAdicMatrix(p, m))


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(nonsingular))
def test_row_hnf_and_snf_match_xgcd_oracles(m):
    _assert_matches_oracles(m)


def test_row_hnf_and_snf_match_xgcd_oracles_on_seeded_matrices():
    rng = SplitMix64(9)
    checked = 0
    for _ in range(400):
        n = 1 + rng.below(4)
        spread = (3, 11, 41, 201)[rng.below(4)]
        m = tuple(
            tuple(rng.below(spread) - spread // 2 for _ in range(n)) for _ in range(n)
        )
        if mat_det(m) == 0:
            continue
        _assert_matches_oracles(m)
        checked += 1
    assert checked > 300


def test_row_hnf_of_a_stack_is_row_hnf_of_a_square_basis():
    # [M; |det M| I] and [M; U M] have the row lattice of M, since
    # |det M| . M^-1 = +-adj(M) is integral; [M; p^v I] goes to the oracle
    rng = SplitMix64(31)
    for _ in range(150):
        n = 1 + rng.below(3)
        m = _seeded_nonsingular(rng, n)
        det = abs(mat_det(m))
        u = random_unimodular(rng, n)
        assert row_hnf(m + scalar_matrix(n, det)) == row_hnf(m)
        assert row_hnf(m + mat_mul(u, m)) == row_hnf(m)
        for p in (2, 3):
            stack = m + scalar_matrix(n, p ** int_valuation(det, p))
            assert row_hnf(stack) == _oracle_row_hnf(stack)
    assert row_hnf(((2, 0), (0, 3), (1, 1))) == ((1, 0), (0, 1))


def test_padic_matrix_mul_rejects_a_prime_mismatch():
    with pytest.raises(LevelMismatchError, match="prime mismatch"):
        PAdicMatrix(2, ((1, 0), (0, 1))).mul(PAdicMatrix(3, ((1, 0), (0, 1))))


def test_snf_of_a_diagonal_with_a_negative_entry():
    # already diagonal, so no Hermite round runs: the sign is dropped by abs
    m = PAdicMatrix(5, ((15, 0), (0, -28)))
    assert snf(m) == _oracle_snf(m) == (1, 5)


@pytest.mark.parametrize("form", [snf, _oracle_snf])
def test_snf_rejects_a_singular_diagonal(form):
    with pytest.raises(SingularMatrixError):
        form(PAdicMatrix(2, ((0, 0), (0, 1))))


@pytest.mark.parametrize("form", [row_hnf, _oracle_row_hnf])
def test_row_hnf_rejects_a_singular_matrix(form):
    with pytest.raises(SingularMatrixError):
        form(((0, 0), (0, 1)))
