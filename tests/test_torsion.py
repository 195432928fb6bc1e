import gc
import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpow import torsion
from charpow.errors import ListingTooLargeError, SingularMatrixError
from charpow.lattice import (
    LatticeBasis,
    PAdicMatrix,
    column_span_basis,
    identity_matrix,
    int_valuation,
    mat_det,
    mat_mul,
    row_hnf,
    scalar_matrix,
    solve_integer,
)
from charpow.rng import SplitMix64, random_unimodular
from charpow.torsion import (
    SumOfSubgroups,
    TorsionSubgroup,
    annihilator_lattice,
    enumerate_subgroups,
    enumerate_sums,
    image_subgroup,
    subgroup_from_kernel_matrix,
)
from test_lattice import fraction_inverse

TRIVIAL = TorsionSubgroup(2, identity_matrix(2))  # in (Q_2/Z_2)^2
TWO_TORSION = TorsionSubgroup(2, scalar_matrix(2, 2))


# ---------------------------------------------------------------------------
# the Fraction routes to subgroups, kept as oracles for the integer ones


def subgroup_from_generators(p, n, gens):
    """Subgroup generated by torus elements given as Fraction vectors.

    Every generator must have p-power order (p-power denominators).
    """
    e = 0
    for g in gens:
        for x in g:
            x = Fraction(x)
            d = x.denominator
            v = int_valuation(d, p) if d > 1 else 0
            if p ** v != d:
                raise ValueError("generator does not have p-power order")
            e = max(e, v)
    q = p ** e
    cols = [[q if i == j else 0 for i in range(n)] for j in range(n)]
    for g in gens:
        cols.append([int(Fraction(x) * q) for x in g])
    scaled = tuple(tuple(col[i] for col in cols) for i in range(n))
    basis = column_span_basis(scaled)  # basis of q . (Z^n + <gens>), which holds q . Z^n
    # A_H = q . basis^{-1} maps the preimage lattice onto Z^n
    a = solve_integer(LatticeBasis(p, basis), scalar_matrix(n, q))
    return TorsionSubgroup(p, row_hnf(a))


def generators(h):
    """Columns of A_H^{-1} reduced mod Z^n, as tuples of Fractions in [0, 1)."""
    return tuple(tuple(x % 1 for x in col) for col in zip(*fraction_inverse(h.matrix)))


def _oracle_kernel(m):
    """The p-parts of the columns of M^{-1}, each times the prime-to-p part of its denominator."""
    gens = []
    for col in zip(*fraction_inverse(m.entries)):
        den = math.lcm(*(Fraction(x).denominator for x in col))
        unit = den // m.p ** int_valuation(den, m.p)
        gens.append(tuple(x * unit for x in col))
    return subgroup_from_generators(m.p, m.n, gens)


def _oracle_image(gamma, h):
    gens = [
        tuple(sum(gamma.entries[i][k] * col[k] for k in range(h.n)) for i in range(h.n))
        for col in generators(h)
    ]
    return subgroup_from_generators(h.p, h.n, gens)


def bruteforce_subgroups_of_torsion_square(p, e, order):
    """All subgroups of (Z/p^e)^2 with the given order, as frozensets.

    Oracle for enumerate_subgroups at n = 2: subgroups of order p^k <= p^e
    of the torus all live in the p^e-torsion (Z/p^e)^2.
    """
    q = p ** e
    elems = list(itertools.product(range(q), repeat=2))
    found = set()
    for g1 in elems:
        for g2 in elems:
            sub = set()
            frontier = [(0, 0)]
            sub.add((0, 0))
            while frontier:
                x = frontier.pop()
                for g in (g1, g2):
                    y = ((x[0] + g[0]) % q, (x[1] + g[1]) % q)
                    if y not in sub:
                        sub.add(y)
                        frontier.append(y)
            if len(sub) == order:
                found.add(frozenset(sub))
    return found


def subgroup_to_elements(h, q):
    """Elements of H inside (Z/q)^2, via the generators of A_H^{-1} mod Z^2."""
    gens = [tuple(int(x * q) % q for x in g) for g in generators(h)]
    sub = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % q, (x[1] + g[1]) % q)
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    return frozenset(sub)


def test_trivial_subgroup():
    assert enumerate_subgroups(2, 2, 0) == (TRIVIAL,)


@pytest.mark.parametrize("p,k,count", [(2, 1, 3), (2, 2, 7), (3, 1, 4)])
def test_subgroup_counts_against_bruteforce(p, k, count):
    subs = enumerate_subgroups(p, 2, k)
    assert len(subs) == count
    oracle = bruteforce_subgroups_of_torsion_square(p, k, p ** k)
    assert len(oracle) == count
    assert {subgroup_to_elements(h, p ** k) for h in subs} == oracle


def test_compositions_match_product_filter():
    # oracle: every tuple of parts entries in 0..total, kept when they add up to total
    for total, parts in itertools.product(range(5), range(1, 5)):
        oracle = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
        assert list(torsion._compositions(total, parts)) == oracle
    # no recursion: one composition of 5000 zeros
    assert list(torsion._compositions(0, 5000)) == [(0,) * 5000]


@pytest.mark.parametrize("p", [4, 1])
def test_subgroups_reject_non_prime_p(p):
    with pytest.raises(ValueError, match=f"p = {p} is not prime"):
        enumerate_subgroups(p, 2, 1)


def test_sums_reject_composite_p():
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        enumerate_sums(4, 1, 4)


def test_subgroups_are_duplicate_free_and_sorted():
    subs = enumerate_subgroups(2, 2, 2)
    assert len(set(subs)) == len(subs)
    assert list(subs) == sorted(subs, key=lambda h: h.matrix)


def test_sum_counts():
    assert len(enumerate_sums(2, 2, 1)) == 1
    assert len(enumerate_sums(2, 2, 3)) == 4
    assert len(enumerate_sums(2, 2, 4)) == 17


def test_sum_count_oracle_partitions():
    # independent partition-and-choose count for m = 3: 1+1+1 and 2+1
    subs1 = len(enumerate_subgroups(2, 2, 1))
    assert len(enumerate_sums(2, 2, 3)) == 1 + subs1


def test_sum_count_oracle_m4():
    # 1^4; 2+1+1; 2+2 (multiset); 4
    s1 = len(enumerate_subgroups(2, 2, 1))
    s2 = len(enumerate_subgroups(2, 2, 2))
    expected = 1 + s1 + s1 * (s1 + 1) // 2 + s2
    assert len(enumerate_sums(2, 2, 4)) == expected


def test_single_summand_sums_biject_with_subgroups():
    singles = [
        s for s in enumerate_sums(2, 2, 4) if len(s.summands) == 1
    ]
    assert {s.summands[0] for s in singles} == set(enumerate_subgroups(2, 2, 2))


def test_annihilator_trivial_and_full():
    assert annihilator_lattice(TRIVIAL).matrix == ((1, 0), (0, 1))
    assert annihilator_lattice(TWO_TORSION).matrix == ((2, 0), (0, 2))


def test_annihilator_pairing_oracle():
    # lambda in Lambda_H iff <lambda, h> is integral for every generator of H
    for h in enumerate_subgroups(2, 2, 2):
        basis = annihilator_lattice(h)
        assert basis.index() == h.order
        for col in zip(*basis.matrix):
            for gen in generators(h):
                pairing = sum(Fraction(c) * g for c, g in zip(col, gen))
                assert pairing.denominator == 1


def test_annihilator_valuation():
    for k in range(4):
        for h in enumerate_subgroups(2, 2, k):
            assert annihilator_lattice(h).index() == h.order


def test_image_identity_and_multiplication_by_p():
    h = TWO_TORSION
    eye = PAdicMatrix(2, ((1, 0), (0, 1)))
    assert image_subgroup(eye, h) == h
    twice = PAdicMatrix(2, ((2, 0), (0, 2)))
    assert image_subgroup(twice, h) == TRIVIAL


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_unimodular_image_permutes_subgroups(seed):
    rng = SplitMix64(seed)
    u = PAdicMatrix(2, random_unimodular(rng, 2))
    subs = enumerate_subgroups(2, 2, 2)
    image = {image_subgroup(u, h) for h in subs}
    assert image == set(subs)


def test_image_inverse_roundtrip():
    rng = SplitMix64(99)
    u = random_unimodular(rng, 2)
    det = mat_det(u)
    assert abs(det) == 1
    adj = ((u[1][1] * det, -u[0][1] * det), (-u[1][0] * det, u[0][0] * det))
    assert mat_mul(u, adj) == ((1, 0), (0, 1))
    gam, gam_inv = PAdicMatrix(2, u), PAdicMatrix(2, adj)
    for h in enumerate_subgroups(2, 2, 2):
        assert image_subgroup(gam, image_subgroup(gam_inv, h)) == h


def test_subgroup_from_generators_matches_order():
    h = subgroup_from_generators(2, 2, [(Fraction(1, 4), Fraction(0))])
    assert h.order == 4
    g = subgroup_from_generators(
        2, 2, [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))]
    )
    assert g == TWO_TORSION


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3) for n in (1, 2, 3)])
def test_kernel_and_image_match_fraction_oracles(p, n):
    rng = SplitMix64(100 * p + n)

    def draw():
        while True:
            m = tuple(tuple(rng.below(19) - 9 for _ in range(n)) for _ in range(n))
            if mat_det(m) != 0:
                return PAdicMatrix(p, m)

    prime_to_p = non_automorphisms = 0
    for _ in range(150):
        m = draw()
        h = subgroup_from_kernel_matrix(m)
        assert h == _oracle_kernel(m)
        prime_to_p += abs(m.det) != p ** int_valuation(m.det, p)
        scalars = {PAdicMatrix(p, scalar_matrix(n, c)) for c in (2, p)}
        for gamma in scalars | {draw()}:
            assert image_subgroup(gamma, h) == _oracle_image(gamma, h)
            non_automorphisms += not gamma.is_automorphism()
    assert prime_to_p > 0 and non_automorphisms > 150


def test_kernel_and_image_reject_singular_matrices():
    singular = PAdicMatrix(2, ((1, 2), (2, 4)))
    with pytest.raises(SingularMatrixError):
        subgroup_from_kernel_matrix(singular)
    with pytest.raises(SingularMatrixError):
        image_subgroup(singular, TWO_TORSION)


def _sum_key(s):
    """Oracle of the canonical sum order: the summands' subgroup keys, summand by summand."""
    return tuple(h.sort_key() for h in s.summands)


def test_sums_canonical_order_and_uniqueness():
    sums = enumerate_sums(2, 2, 4)
    assert len(set(sums)) == len(sums)
    assert list(sums) == sorted(sums, key=_sum_key)
    assert all(s.total == 4 for s in sums)


def test_stored_order_stays_out_of_comparisons():
    h = TorsionSubgroup(2, ((2, 1), (0, 4)))
    k = TorsionSubgroup(2, ((2, 1), (0, 4)))
    assert h.order == 8
    object.__setattr__(k, "order", 1)
    assert h == k and hash(h) == hash(k)
    assert not h < k and not k < h
    assert repr(h) == repr(k) == "TorsionSubgroup(p=2, matrix=((2, 1), (0, 4)))"


def test_sums_n3_m10_are_pinned():
    # count and order recorded before subgroup orders were stored
    sums = enumerate_sums(2, 3, 10)
    assert len(sums) == 11272
    listing = repr([[h.matrix for h in s.summands] for s in sums])
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "8064f1c785f6fb7faefbb29baf519263663c1bec9626debc38cbde320d265bda"
    )


def test_sum_multiset_sorted():
    h1 = TRIVIAL
    h2 = TWO_TORSION
    assert SumOfSubgroups((h2, h1)) == SumOfSubgroups((h1, h2))


def bruteforce_subgroup_count_rank3(p, e, order):
    q = p ** e
    elems = list(itertools.product(range(q), repeat=3))
    found = set()
    for gens in itertools.combinations_with_replacement(elems, 2):
        sub = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple((a + b) % q for a, b in zip(x, g))
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
        if len(sub) == order:
            found.add(frozenset(sub))
    return len(found)


def test_rank3_counts_against_bruteforce():
    assert len(enumerate_subgroups(2, 3, 1)) == bruteforce_subgroup_count_rank3(2, 1, 2) == 7
    assert len(enumerate_subgroups(2, 3, 2)) == bruteforce_subgroup_count_rank3(2, 2, 4) == 35
    assert len(enumerate_sums(2, 3, 2)) == 8
    for h in enumerate_subgroups(2, 3, 2):
        assert annihilator_lattice(h).index() == 4


# listings above LISTING_CAP are refused


@pytest.mark.parametrize(
    "make, count",
    [(lambda: enumerate_subgroups(2, 3, 3), 155), (lambda: enumerate_subgroups(3, 2, 4), 121),
     (lambda: enumerate_sums(2, 2, 6), 48), (lambda: enumerate_sums(3, 2, 4), 5)],
)
def test_listing_cap_is_exact(make, count, monkeypatch):
    # the subgroup count is the listing's length, and a listing of exactly
    # LISTING_CAP items passes
    assert len(make()) == count
    monkeypatch.setattr(torsion, "LISTING_CAP", count)
    assert len(make()) == count
    monkeypatch.setattr(torsion, "LISTING_CAP", count - 1)
    with pytest.raises(ListingTooLargeError, match=f"more than LISTING_CAP = {count - 1}"):
        make()


def test_cached_listing_is_still_refused_above_a_lowered_cap(monkeypatch):
    # the count is checked before the listing cache is read
    listing = enumerate_subgroups(2, 3, 3)
    hits = torsion._subgroup_listing.cache_info().hits
    assert enumerate_subgroups(2, 3, 3) is listing
    assert torsion._subgroup_listing.cache_info().hits == hits + 1
    monkeypatch.setattr(torsion, "LISTING_CAP", len(listing) - 1)
    with pytest.raises(ListingTooLargeError, match=f"^k = 3: more than LISTING_CAP = {len(listing) - 1} "):
        enumerate_subgroups(2, 3, 3)


def test_interned_subgroups_are_checked_once_and_equal_fresh_ones():
    torsion.torsion_subgroup.cache_clear()
    h = torsion.torsion_subgroup(2, ((2, 1), (0, 2)))
    assert torsion.torsion_subgroup(2, ((2, 1), (0, 2))) is h
    assert h == TorsionSubgroup(2, ((2, 1), (0, 2))) and h.order == 4
    info = torsion.torsion_subgroup.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, torsion.SUBGROUP_CACHE)
    with pytest.raises(ValueError, match="row HNF"):  # still checked on a miss
        torsion.torsion_subgroup(2, ((2, 3), (0, 2)))


@pytest.mark.parametrize(
    "make, message",
    [
        # 2^31 - 1 subgroups: refused before any matrix is built
        (lambda: enumerate_subgroups(2, 2, 30), "^k = 30: more than LISTING_CAP = 100000 subgroups$"),
        (lambda: enumerate_subgroups(2, 30, 200), "^k = 200: "),
        (lambda: enumerate_sums(2, 2, 40), "^m = 40: more than LISTING_CAP = 100000 sums$"),
        (lambda: enumerate_sums(2, 1, 10 ** 9), "^m = 1000000000: .* LISTING_CAP = 100000"),
    ],
)
def test_listing_above_cap_is_refused_quickly(make, message):
    start = time.perf_counter()
    with pytest.raises(ListingTooLargeError, match=message):
        make()
    assert time.perf_counter() - start < 10


def test_sum_count_is_the_listing_length():
    for p, n in itertools.product((2, 3, 5), (1, 2, 3)):
        for m in range(1, 9 if p ** n <= 8 else 6):
            assert torsion._sum_count(p, n, m) == len(enumerate_sums(p, n, m)), (p, n, m)


def test_sums_above_cap_are_refused_before_any_is_built(monkeypatch):
    built = []

    def counting_sum(summands):
        built.append(summands)
        return SumOfSubgroups(summands)

    monkeypatch.setattr(torsion, "SumOfSubgroups", counting_sum)
    start = time.perf_counter()
    with pytest.raises(ListingTooLargeError, match="^m = 2000: more than LISTING_CAP = 100000 sums$"):
        enumerate_sums(2, 1, 2000)
    assert built == [] and time.perf_counter() - start < 1
    assert len(enumerate_sums(2, 2, 4)) == len(built) == 17


def test_sums_below_cap_are_listed():
    assert torsion.LISTING_CAP == 100_000
    assert len(enumerate_sums(2, 3, 12)) == 54721


# sums as index tuples over one ordered subgroup list


def _oracle_sums(p, n, m):
    """Oracle: every sum built by the public constructor, then sorted by _sum_key."""
    by_order = {p ** e: enumerate_subgroups(p, n, e)
                for e in range(torsion.max_subgroup_exponent(p, m) + 1)}
    powers = list(by_order)
    sums = []

    def parts(remaining, max_q, chosen):
        if remaining == 0:
            pools = [itertools.combinations_with_replacement(by_order[q], c) for q, c in chosen]
            for combo in itertools.product(*pools):
                sums.append(SumOfSubgroups(tuple(itertools.chain(*combo))))
            return
        for q in reversed(powers):
            if q > max_q or q > remaining:
                continue
            for c in range(remaining // q, 0, -1):
                parts(remaining - c * q, q // p, chosen + [(q, c)])

    parts(m, m, [])
    sums.sort(key=_sum_key)
    return sums


def sum_grid(max_sums=20_000, max_work=300_000, small_total=5_000):
    """(p, n, m) for p in {2, 3} and n in {1, 2, 3}: every m = 0, 1, ... while the
    listings of one (p, n) hold at most small_total sums in all, then the
    largest m whose listing holds at most max_sums sums and m * sums at most
    max_work (a sum of m has up to m summands; at n = 1 that bounds m near 60,
    not 350)."""
    for p, n in itertools.product((2, 3), (1, 2, 3)):
        m = total = 0
        while (count := torsion._sum_count(p, n, m)) <= max_sums and m * count <= max_work:
            if total + count <= small_total:
                yield p, n, m
                total += count
            top = m
            m += 1
        if total + count > small_total:
            yield p, n, top


def test_sum_grid_covers_small_and_large_listings():
    tops = {(p, n): torsion._sum_count(p, n, m) for p, n, m in sum_grid()}
    assert len(tops) == 6 and min(tops.values()) > 1_500 and max(tops.values()) > 10_000
    assert {m for _, _, m in sum_grid()} >= {0, 1}


def test_sums_match_sort_key_oracle():
    for p, n, m in sum_grid():
        sums = enumerate_sums(p, n, m)
        assert list(sums) == _oracle_sums(p, n, m), (p, n, m)


def test_sum_index_tuples_name_the_listing():
    for p, n, m in [(2, 2, 6), (3, 2, 4), (2, 3, 5), (2, 1, 9), (2, 2, 0)]:
        subgroups, tuples = torsion.sum_index_tuples(p, n, m)
        assert list(subgroups) == sorted(subgroups, key=lambda h: h.sort_key())
        assert {h.order for h in subgroups} == {p ** e for e in range(torsion.max_subgroup_exponent(p, m) + 1)}
        assert list(tuples) == sorted(set(tuples))
        assert all(list(t) == sorted(t) for t in tuples)
        sums = enumerate_sums(p, n, m)
        assert [tuple(subgroups[i] for i in t) for t in tuples] == [s.summands for s in sums]


def test_listed_sums_equal_and_hash_like_constructed_ones():
    for p, n, m in [(2, 2, 6), (3, 2, 4), (2, 3, 4)]:
        for s in enumerate_sums(p, n, m):
            built = SumOfSubgroups(tuple(reversed(s.summands)))
            assert built == s and hash(built) == hash(s)
            assert built.summands == s.summands and s.total == m


def _cyclic_garbage(call) -> int:
    """Objects that only the cycle collector frees after call()."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_sum_listing_leaves_no_cyclic_garbage():
    # the recursive helpers are module functions: no closure refers to itself
    for call in (lambda: torsion.sum_index_tuples(2, 3, 10),
                 lambda: torsion._sum_count(2, 3, 10)):
        call()  # fills the subgroup caches
        assert _cyclic_garbage(call) == 0
