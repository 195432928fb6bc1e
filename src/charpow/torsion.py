"""Finite subgroups of the p-divisible torus (Q_p/Z_p)^n and their sums.

A subgroup H of order p^k is stored through the integer matrix A_H with
H = (A_H^{-1} Z^n)/Z^n.  The kernel of an integer matrix acting on the
torus only depends on the matrix up to left multiplication by GL_n(Z), so
A_H is kept in row HNF (see lattice.row_hnf); that makes equality of
subgroups literal equality of matrices.  The annihilator lattice
Lambda_H = {lam : lam . h is integral for all h in H} is the column span
of A_H^T.

Kernels and images are built on integer matrices alone.  The kernel of M
is the row HNF of M's rows stacked over p^v I, for p^v the p-part of
det M; the image gamma(H) is read off the integral q . A_H^{-1}, q = |H|,
by one column echelon and one back substitution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .errors import ListingTooLargeError, SingularMatrixError
from .lattice import (
    LatticeBasis,
    Matrix,
    PAdicMatrix,
    _back_substitute,
    column_span_basis,
    freeze,
    hnf,
    int_valuation,
    is_p_power,
    is_prime,
    mat_mul,
    mat_transpose,
    row_hnf,
    scalar_matrix,
)

LISTING_CAP = 100_000  # most subgroups, sums, or summands of one sum a listing holds
ORDER_DIGITS = 4300  # most decimal digits of a subgroup order, Python's default for int to str
SUBGROUP_CACHE = 4096  # interned subgroups, and annihilator lattices, kept at most
LISTING_CACHE = 32  # subgroup listings kept at most
_SORT_KEY = attrgetter("order", "matrix")  # the canonical order of subgroups


@dataclass(frozen=True, order=True)
class TorsionSubgroup:
    """Finite subgroup of (Q_p/Z_p)^n in canonical (row HNF) form."""

    p: int
    matrix: Matrix  # A_H
    order: int = field(init=False, compare=False, repr=False)  # det A_H

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))
        if self.matrix != row_hnf(self.matrix):
            raise ValueError("subgroup matrix must be in row HNF")
        det = 1
        for i in range(self.n):
            det *= self.matrix[i][i]
        if not is_p_power(det, self.p):
            raise ValueError("subgroup matrix must have p-power determinant")
        object.__setattr__(self, "order", det)

    @property
    def n(self) -> int:
        return len(self.matrix)

    def sort_key(self):
        return _SORT_KEY(self)


def subgroup_from_kernel_matrix(m: PAdicMatrix) -> TorsionSubgroup:
    """Kernel of the isogeny x -> Mx on the torus, i.e. the p-part of M^{-1}Z^n / Z^n.

    With p^v the p-part of det M, Z^n M + p^v Z^n has index p^v, and over
    Z_p it is the row lattice of M, since p^v M^{-1} is adj(M) over a
    p-adic unit: so A_H is the row HNF of M's rows stacked over p^v I.
    """
    if m.det == 0:
        raise SingularMatrixError("kernel of a singular matrix is not finite")
    q = m.p ** int_valuation(m.det, m.p)
    return torsion_subgroup(m.p, row_hnf(m.entries + scalar_matrix(m.n, q)))


@lru_cache(maxsize=SUBGROUP_CACHE)
def torsion_subgroup(p: int, matrix: Matrix) -> TorsionSubgroup:
    """TorsionSubgroup(p, matrix) for a frozen matrix, interned: each is checked once."""
    return TorsionSubgroup(p, matrix)


@lru_cache(maxsize=SUBGROUP_CACHE)
def annihilator_lattice(h: TorsionSubgroup) -> LatticeBasis:
    """Column-HNF basis of Lambda_H; its index equals |H|."""
    basis, _ = hnf(mat_transpose(h.matrix), h.p)
    return basis


def image_subgroup(gamma: PAdicMatrix, h: TorsionSubgroup) -> TorsionSubgroup:
    """Canonical form of gamma(H) for a nonsingular integer matrix gamma.

    With q = |H| = det A_H, X = q . A_H^{-1} is integral, and gamma(H) is
    generated by the columns of gamma . X divided by q.  The lattice
    q . (Z^n + gamma(H)) is the column span of [q I | gamma . X], and
    A_{gamma H} is q times the inverse of its basis.
    """
    if gamma.det == 0:
        raise SingularMatrixError("image under a singular matrix")
    q = h.order
    q_eye = scalar_matrix(h.n, q)
    gens = mat_mul(gamma.entries, _back_substitute(h.matrix, q_eye))
    basis = column_span_basis(tuple(a + b for a, b in zip(q_eye, gens)))
    return torsion_subgroup(h.p, row_hnf(_back_substitute(basis, q_eye)))


def enumerate_subgroups(p: int, n: int, k: int):
    """All subgroups of order p^k, canonically ordered.

    Row-HNF matrices with p-power diagonal biject with subgroups; the list
    is sorted lexicographically on the matrix entries.
    """
    if _subgroup_count(p, n, k) > LISTING_CAP:  # before the cache, so a lower cap holds
        raise ListingTooLargeError(
            f"k = {k}: more than LISTING_CAP = {LISTING_CAP} subgroups"
        )
    return _subgroup_listing(p, n, k)


@lru_cache(maxsize=LISTING_CACHE)
def _subgroup_listing(p: int, n: int, k: int):
    out = []
    for exps in _compositions(k, n):
        diag = [p ** e for e in exps]
        ranges = []
        for j in range(n):
            for _ in range(j):
                ranges.append(range(diag[j]))
        for offs in itertools.product(*ranges):
            m = [[0] * n for _ in range(n)]
            pos = 0
            for j in range(n):
                m[j][j] = diag[j]
                for i in range(j):
                    m[i][j] = offs[pos]
                    pos += 1
            out.append(torsion_subgroup(p, freeze(m)))
    out.sort(key=lambda h: h.matrix)
    return tuple(out)


def _subgroup_count(p: int, n: int, k: int) -> int:
    """Number of subgroups of order p^k; once past LISTING_CAP, some larger number.

    Column j of a row-HNF matrix has j free entries above its pivot p^e_j,
    hence prod_j p^(e_j j) matrices per composition (e_j) of k.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n * n > LISTING_CAP:
        raise ListingTooLargeError(f"n = {n}: a subgroup matrix has {n * n} > LISTING_CAP entries")
    # p >= 2^(bit_length - 1) and 2^4 > 10: the first test refuses early, so p ** k stays small
    if k * (p.bit_length() - 1) >= 4 * ORDER_DIGITS or p ** k >= 10 ** ORDER_DIGITS:
        raise ListingTooLargeError(f"k = {k}: the order {p}^{k} has over {ORDER_DIGITS} digits")
    count = 0
    for exps in _compositions(k, n):
        count += math.prod(p ** (e * j) for j, e in enumerate(exps))
        if count > LISTING_CAP:
            break
    return count


def _compositions(total: int, parts: int):
    """total as parts ordered summands >= 0, ascending: parts - 1 bars among the stars."""
    places = total + parts - 1
    for bars in itertools.combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places)))


@dataclass(frozen=True)
class SumOfSubgroups:
    """Formal multiset of subgroups; total is the sum of the orders."""

    summands: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "summands", tuple(sorted(self.summands, key=_SORT_KEY))
        )

    @property
    def total(self) -> int:
        return sum(h.order for h in self.summands)


def max_subgroup_exponent(p: int, m: int) -> int:
    """Largest e with p^e <= m: the top subgroup order p^e a total of m allows.

    This is also the section bound a power operation P_m needs.
    """
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    e, q = 0, p
    while q <= m:
        q *= p
        e += 1
    return e


def _sum_count(p: int, n: int, m: int) -> int:
    """Number of sums with orders adding up to m; once past LISTING_CAP, some larger number.

    A sum is a partition of m into powers q of p, c_q parts of order q,
    with a multiset of c_q subgroups out of the N_q of order q for each q:
    prod_q C(N_q + c_q - 1, c_q) sums per partition.
    """
    counts = [_subgroup_count(p, n, e) for e in range(max_subgroup_exponent(p, m) + 1)]
    return _ways(p, counts, m, len(counts) - 1)


def _ways(p: int, counts, remaining: int, e: int) -> int:
    """Sums of subgroups of order at most p^e with orders adding up to remaining.

    counts[e] is the number of subgroups of order p^e; once past LISTING_CAP,
    some larger number.
    """
    if e == 0:  # only the trivial subgroup
        return 1
    total = 0
    for c in range(remaining // p ** e + 1):
        total += math.comb(counts[e] + c - 1, c) * _ways(p, counts, remaining - c * p ** e, e - 1)
        if total > LISTING_CAP:
            break
    return total


def sum_index_tuples(p: int, n: int, m: int):
    """The sums with orders adding up to m, as index tuples into one subgroup list.

    Returns (subgroups, tuples).  subgroups lists every subgroup of order p^e
    for p^e <= m, ascending in (order, matrix); each tuple names one sum's
    summands by their positions there, ascending, and the tuples come in the
    canonical order of the sums.  Positions order subgroups as
    TorsionSubgroup.sort_key does, so a plain sort of the tuples orders the sums.
    """
    if m > LISTING_CAP:
        raise ListingTooLargeError(
            f"m = {m}: the sum of m trivial subgroups has more than "
            f"LISTING_CAP = {LISTING_CAP} summands"
        )
    if _sum_count(p, n, m) > LISTING_CAP:
        raise ListingTooLargeError(f"m = {m}: more than LISTING_CAP = {LISTING_CAP} sums")
    subgroups, ranges = [], []
    for e in range(max_subgroup_exponent(p, m) + 1):
        start = len(subgroups)
        subgroups += enumerate_subgroups(p, n, e)
        ranges.append(range(start, len(subgroups)))
    tuples = []
    _place(p, ranges, m, len(ranges) - 1, [], tuples)
    tuples.sort()
    return tuple(subgroups), tuple(tuples)


def _place(p: int, ranges, remaining: int, e: int, pools, out: list):
    """Append to out the index tuples whose summands of order at most p^e add up to remaining.

    ranges[e] holds the positions of the subgroups of order p^e; pools hold
    the choices for the larger orders, ascending.
    """
    choices = lambda c: tuple(itertools.combinations_with_replacement(ranges[e], c))
    if e == 0:
        for combo in itertools.product(choices(remaining), *pools):
            out.append(tuple(itertools.chain.from_iterable(combo)))
        return
    for c in range(remaining // p ** e + 1):
        _place(p, ranges, remaining - c * p ** e, e - 1, [choices(c)] + pools, out)


def enumerate_sums(p: int, n: int, m: int):
    """All formal sums of subgroups with orders adding up to m, canonically ordered."""
    subgroups, tuples = sum_index_tuples(p, n, m)
    return tuple(SumOfSubgroups(tuple(map(subgroups.__getitem__, t))) for t in tuples)
