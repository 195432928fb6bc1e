import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpow.errors import (
    GroupTooLargeError,
    ListingTooLargeError,
    NotAHomomorphismError,
    NotASubgroupError,
    NotPPowerTupleError,
)
from charpow import groups as groups_module
from charpow import lattice as lattice_module
from charpow import torsion as torsion_module
from charpow.groups import (
    DecoratedSum,
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TupleClass,
    abelian_subgroups,
    _evaluate,
    build_group,
    canonical_tuple,
    canonical_tuples,
    delta_embed,
    diagonal_wreath_hom,
    enumerate_hom_classes,
    fixed_coset_conjugates,
    include_left_factor,
    product_delta_homs,
    product_group,
    split_product_class,
    subgroup_closure,
    sum_to_symm_class,
    symm_class_to_sum,
    symmetric_group,
    times_hom,
    wreath_class_to_decorated,
)
from charpow.lattice import LatticeBasis, column_span_basis, mat_mul, mat_transpose, row_hnf
from charpow.rng import SplitMix64
from charpow.torsion import (
    SumOfSubgroups,
    TorsionSubgroup,
    enumerate_subgroups,
    enumerate_sums,
)
from charpow.verify import (
    SUITES,
    abelian_classes_cover,
    digit_concat_covers,
    top_split_covers,
    transitive_classes_match,
    tuple_sum_count,
    tuple_sum_inverse,
    wreath_roundtrip,
    wreath_trivial_g,
    run_suites,
)
from fractions import Fraction

from test_torsion import subgroup_from_generators


def _conjugate(g, x, a):
    """x a x^-1, by two table products."""
    return g.mul(g.mul(x, a), int(g.inv[x]))


def precompose(alpha: TupleClass, t) -> TupleClass:
    """Oracle of canonical_tuples: the class of h_j = prod_i g_i^{T[i][j]}, one tuple at a time.

    Each power is a loop of products; the checked constructor asks that h
    has p-power entries that commute, and the least conjugate comes from a
    scan of the whole group.
    """
    g = alpha.group
    h = tuple(_evaluate(g, alpha.rep, col) for col in zip(*t))
    TupleClass(g, h, alpha.p)
    least = min(tuple(_conjugate(g, x, e) for e in h) for x in range(g.order))
    return TupleClass._canonical(g, least, alpha.p)


def test_build_group_orders():
    assert build_group("S3").order == 6
    assert build_group("wr(S2,2)").order == 8
    assert build_group("C2xC4").order == 8
    assert build_group("wr(C2,2)").order == 8
    assert build_group("S1").order == 1


def test_build_group_abelian_product():
    g = build_group("C2xC4")
    assert all(
        g.mul(a, b) == g.mul(b, a) for a in range(8) for b in range(8)
    )


def test_build_group_caches():
    assert build_group("S3") is build_group("S3")
    assert build_group("C2xC4") is build_group("C2 x C4")


def test_build_group_rejects_garbage():
    with pytest.raises(ValueError):
        build_group("Q8")
    with pytest.raises(ValueError):
        build_group("")


def test_order_cap():
    with pytest.raises(GroupTooLargeError):
        build_group("wr(S3,4)")  # 6^4 * 24 = 31104


@pytest.mark.parametrize(
    "spec", ["S12", "C10001", "S6xS6", "wr(S1,8)", "S1000000", "wr(C2,1000000)"]
)
def test_order_cap_checked_before_listing(spec):
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeError, match=r"has order above ORDER_CAP = 10000$"):
        build_group(spec)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec", ["wr(S2,-1)", "wr(S2,x)", "wr(S2)"])
def test_bad_wreath_spec_is_named(spec):
    with pytest.raises(ValueError, match=rf"^bad wreath spec '{re.escape(spec)}'$"):
        build_group(spec)


# ---------------------------------------------------------------------------
# every table against the per-pair label multiplication it replaced


def _oracle(group):
    """(element labels, label multiplication) of a group, stated per family."""
    kind, *args = group.structure
    if kind == "symmetric":
        (m,) = args
        return list(itertools.permutations(range(m))), lambda s, t: tuple(s[i] for i in t)
    if kind == "cyclic":
        (k,) = args
        return list(range(k)), lambda a, b: (a + b) % k
    if kind == "product":
        (g_elems, g_mul), (k_elems, k_mul) = map(_oracle, args)
        return list(itertools.product(g_elems, k_elems)), lambda a, b: (
            g_mul(a[0], b[0]),
            k_mul(a[1], b[1]),
        )
    g, m = args
    g_elems, g_mul = _oracle(g)
    perms = list(itertools.permutations(range(m)))

    def mul(a, b):
        (v, s), (w, t) = a, b
        return (
            tuple(g_mul(v[i], w[s.index(i)]) for i in range(m)),
            tuple(s[i] for i in t),
        )

    return [(v, s) for v in itertools.product(g_elems, repeat=m) for s in perms], mul


def _closure_table(elements, mul):
    index = {lab: i for i, lab in enumerate(elements)}
    return np.array([[index[mul(a, b)] for b in elements] for a in elements])


TABLE_SPECS = (
    [f"S{m}" for m in range(1, 7)]
    + [f"C{k}" for k in range(1, 7)]
    + ["C2xC4", "S3xC2", "C2xS3xC3", "S3x(C2xC2)", "wr(S2,2)xC2"]
    + ["wr(C2,2)", "wr(C2,4)", "wr(C3,2)", "wr(S3,2)", "wr(C2xC2,2)", "wr(S1,3)"]
)


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_table_matches_label_multiplication(spec):
    g = build_group(spec)
    elements, mul = _oracle(g)
    assert list(g.elements) == elements
    assert g.table.dtype == np.uint16
    assert (g.table == _closure_table(elements, mul)).all()


def _searchsorted_perm_table(perms):
    """Oracle: the composition table read by one binary search per row."""
    n, m = perms.shape
    weights = m ** np.arange(m - 1, -1, -1)
    keys = perms.dot(weights)
    return np.array([np.searchsorted(keys, perms[a][perms].dot(weights)) for a in range(n)])


@pytest.mark.parametrize("m", range(1, 8))
def test_perm_table_matches_searchsorted(m):
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp, ndmin=2)
    table = groups_module._perm_table(perms)
    assert table.dtype == np.uint16
    assert (table == _searchsorted_perm_table(perms)).all()


def test_perm_table_matches_tuple_composition():
    # the keys are int32: every m with m! within ORDER_CAP has m^m < 2^31
    admitted = itertools.takewhile(
        lambda m: math.factorial(m) <= groups_module.ORDER_CAP, itertools.count(1))
    assert all(m ** m < 2 ** 31 for m in admitted)
    compose = lambda s, t: tuple(s[i] for i in t)
    for m in range(1, 7):
        perms = list(itertools.permutations(range(m)))
        table = groups_module._perm_table(np.array(perms, dtype=np.intp, ndmin=2))
        assert (table == _closure_table(perms, compose)).all(), m
    # the S4 factor of wr(C2,4): (v, s) has index v 4! + s, and (v, s)(w, t) ends in s t
    s4 = _closure_table(list(itertools.permutations(range(4))), compose)
    factor = np.arange(384) % 24
    assert (build_group("wr(C2,4)").table % 24 == s4[np.ix_(factor, factor)]).all()


def _loop_orders(group):
    """Oracle: each element's order by repeated multiplication."""
    out = []
    for i in range(group.order):
        k, acc = 1, i
        while acc != group.identity:
            acc, k = group.mul(acc, i), k + 1
        out.append(k)
    return out


ORDER_SPECS = (
    [f"S{m}" for m in range(1, 8)]
    + [f"C{k}" for k in range(1, 65)]
    + [s for s in TABLE_SPECS if not s[1:].isdecimal()]
    + ["S2xS3", "wr(S2,3)", "wr(wr(S2,2),2)"]
)


def test_vectorized_orders_and_center_match_loops():
    for spec in ORDER_SPECS:
        g = build_group(spec)
        orders = g.orders()
        assert orders.tolist() == _loop_orders(g), spec
        if g.order <= 1000:  # the center, against every pair
            assert (g._center_mask() == (g.table == g.table.T).all(axis=1)).all(), spec


def test_group_build_holds_about_one_table(monkeypatch):
    # the sum table of C_k is reduced in place, and identity and inverses are
    # read in row blocks; a full-size temporary would double the peak
    monkeypatch.setattr(groups_module, "_GROUPS", {})  # build afresh
    tracemalloc.start()
    try:
        g = build_group("C4096")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * g.table.nbytes
    # 64 row blocks: each found its inverses
    assert (g.table[np.arange(g.order), g.inv] == g.identity).all()


@pytest.mark.parametrize("k", [4093, 4096, 5040])
def test_orders_of_large_cyclic_groups_by_divisor_tests(k):
    # the order of i in C_k is k / gcd(i, k); a prime k is the worst case for
    # one power per step, which took 3.3 s on C9973
    g = build_group(f"C{k}")
    start = time.perf_counter()
    orders = g.orders()
    assert time.perf_counter() - start < 1
    assert orders.tolist() == [k // math.gcd(i, k) for i in range(k)]


def test_subgroup_table_matches_label_multiplication():
    s4 = build_group("S4")
    _, mul = _oracle(s4)
    dihedral = subgroup_closure(s4, [s4.index[(1, 2, 3, 0)], s4.index[(1, 0, 3, 2)]])
    subgroups = list(abelian_subgroups(s4)) + [dihedral, Subgroup(s4, range(24))]
    assert dihedral.order == 8
    for sub in subgroups:
        h = sub.as_group()
        assert list(h.elements) == [s4.elements[i] for i in sub.indices]
        assert (h.table == _closure_table(h.elements, mul)).all()


LOOP5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
])


def test_finite_group_rejects_bad_tables():
    # a - b mod 3: a Latin square whose only right identity 0 is no left identity
    a = np.arange(3)
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup("minus3", range(3), (a[:, None] - a) % 3)
    # x y = y: every element is a left identity, and none a right one
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup("right zero", range(3), np.tile(a, (3, 1)))
    # {e, z} with z z = z: z has no inverse
    with pytest.raises(ValueError, match="element without inverse"):
        FiniteGroup("monoid", range(2), [[0, 1], [1, 1]])
    # a loop of order 5: identity 0 and every element its own inverse,
    # which no group of order 5 has
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup("loop5", range(5), LOOP5)
    with pytest.raises(ValueError, match=r"has 5 elements but a \(4, 5\) table"):
        FiniteGroup("short", range(5), LOOP5[:4])


# ---------------------------------------------------------------------------
# Light's test on generators against the exhaustive check it replaced


def _associative(table) -> bool:
    """Oracle: (xy)z == x(yz) for all n^3 triples."""
    t = np.asarray(table).astype(np.intp)
    return bool((t[t, :] == t[:, t]).all())


def _light_accepts(name, elements, table) -> bool:
    """FiniteGroup's verdict on associativity; other rejections propagate."""
    try:
        FiniteGroup(name, elements, table)
    except ValueError as exc:
        if "not associative" not in str(exc):
            raise
        return False
    return True


def _corruptions(group):
    """Tables that keep identity and inverses: in row a, one entry overwritten
    and two entries swapped, away from the identity's row, column and a^-1."""
    t, e = group.table, group.identity
    a = max(x for x in range(group.order) if x != e) if group.order > 1 else e
    cols = [x for x in range(group.order) if x not in (e, int(group.inv[a]))]
    if len(cols) < 2:
        return []
    b, c = cols[-2:]
    overwritten = t.copy()
    overwritten[a, b] = t[a, c]
    swapped = t.copy()
    swapped[a, [b, c]] = t[a, [c, b]]
    return [overwritten, swapped]


@pytest.fixture(scope="module")
def suite_groups():
    """Every group of order <= 200 the verify suites build, with its subgroup groups."""
    run_suites(list(SUITES))
    built = list(groups_module._GROUPS.values())
    built += [h for g in built for h in g._subgroup_groups.values()]
    return [g for g in built if g.order <= 200]


def test_light_test_agrees_with_exhaustive_check(suite_groups):
    names = {g.name for g in suite_groups}
    assert {"S3", "S5", "wr(C2,3)", "wr(S3,2)", "(S3xS4)"} <= names
    for g in suite_groups:
        assert _associative(g.table), g.name
        for bad in _corruptions(g):
            assert _light_accepts(g.name, g.elements, bad) == _associative(bad), g.name


@pytest.mark.parametrize("m", [5, 6, 7])
def test_light_test_generators_of_symmetric_groups_are_few_and_generate(m):
    # Taking the first element missed gave the m - 1 adjacent transpositions.
    g = build_group(f"S{m}")
    gens = g._generators()
    assert len(gens) < m - 1
    seen, frontier = {g.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for y in (g.mul(x, h) for h in gens):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert len(seen) == g.order


@pytest.mark.parametrize("spec, row, col", [("S5", 100, 110), ("S6", 100, 200), ("S6", 719, 1)])
def test_one_wrong_entry_is_rejected(spec, row, col):
    # S6 is above order 200, where a check of 20 000 sampled triples
    # once accepted both S6 tables.
    g = build_group(spec)
    bad = g.table.copy()
    bad[row, col] = bad[row, col + 1]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(f"bad {spec}", g.elements, bad)


def _loop6():
    # C6 with two entries of row 1 swapped keeps identity 0 and inverses
    t = build_group("C6").table.copy()
    t[1, [2, 3]] = t[1, [3, 2]]
    return t


def _loop5_times_c2():
    # element 2q + c is (q, c): the first generator found, (0, 1), associates
    # with every pair, so only a later generator exposes LOOP5
    c2 = np.array([[0, 1], [1, 0]])
    return (2 * LOOP5[:, None, :, None] + c2[None, :, None, :]).reshape(10, 10)


@pytest.mark.parametrize("make", [_loop6, _loop5_times_c2])
def test_non_associative_loop_is_rejected(make):
    t = make()
    assert not _associative(t)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup("loop", range(len(t)), t)


def test_trivial_group_classes():
    g = build_group("S1")
    assert len(enumerate_hom_classes(g, 2, 2)) == 1


def test_hom_classes_reject_rank_below_1():
    with pytest.raises(ValueError, match="^n = -1 must be at least 1$"):
        enumerate_hom_classes(build_group("S3"), -1, 2)


@pytest.mark.parametrize("p", [4, 1])
def test_hom_classes_reject_non_prime_p(p):
    with pytest.raises(ValueError, match=f"p = {p} is not prime"):
        enumerate_hom_classes(build_group("S2"), 2, p)


def test_c2_classes():
    g = build_group("C2")
    assert len(enumerate_hom_classes(g, 1, 2)) == 2


def test_s3_classes_bruteforce_oracle():
    # oracle: scan all 36 pairs, keep commuting 2-power pairs, merge by
    # simultaneous conjugacy
    g = build_group("S3")
    ppow = [i for i in range(6) if int(g.orders()[i]) in (1, 2)]
    pairs = [
        (a, b)
        for a in ppow
        for b in ppow
        if g.mul(a, b) == g.mul(b, a)
    ]
    assert len(pairs) == 10
    orbits = set()
    for a, b in pairs:
        orbit = frozenset(
            (_conjugate(g, x, a), _conjugate(g, x, b)) for x in range(6)
        )
        orbits.add(orbit)
    assert len(orbits) == 4
    classes = enumerate_hom_classes(g, 2, 2)
    assert len(classes) == 4
    assert {c.rep for c in classes} == {min(o) for o in orbits}


def test_tuple_class_canonical_rep_is_minimal():
    g = build_group("S3")
    for c in enumerate_hom_classes(g, 2, 2):
        orbit = [
            tuple(_conjugate(g, x, e) for e in c.rep) for x in range(g.order)
        ]
        assert c.rep == min(orbit)


def test_tuple_class_rejects_bad_orders():
    g = build_group("S3")
    three_cycle = next(i for i in range(6) if int(g.orders()[i]) == 3)
    with pytest.raises(NotPPowerTupleError):
        TupleClass(g, (three_cycle,), 2)


def test_tuple_class_rejects_non_commuting():
    g = build_group("S3")
    t1, t2 = [i for i in range(6) if int(g.orders()[i]) == 2][:2]
    with pytest.raises(NotPPowerTupleError):
        TupleClass(g, (t1, t2), 2)


def _oracle_hom_classes(group, n, p):
    """Oracle: walk every commuting p-power n-tuple, with the first entry taken
    up to conjugacy, canonicalize each leaf, and sort."""
    ppow = group.p_power_elements(p)
    reps = sorted({canonical_tuple(group, (g,))[0] for g in ppow})
    found = set()

    def extend(prefix, commuting):
        if len(prefix) == n:
            found.add(canonical_tuple(group, prefix))
            return
        candidates = np.array(commuting, dtype=np.intp)
        for g in reps if not prefix else commuting:
            mask = group.table[g, candidates] == group.table[candidates, g]
            extend(prefix + (g,), candidates[mask].tolist())

    extend((), ppow)
    return tuple(sorted(found))


HOM_CLASS_CASES = (
    [(spec, n, 2) for spec in [f"S{m}" for m in range(1, 7)]
     + ["C2xC2", "C4", "S2xS3", "wr(S2,2)", "wr(S2,3)", "wr(C2xC2,2)", "wr(C2,4)"]
     for n in (1, 2, 3)]
    + [("S7", 2, 2), ("S6", 2, 3), ("C3xS3", 3, 3), ("wr(C3,2)", 2, 3)]
)


@pytest.mark.parametrize("spec, n, p", HOM_CLASS_CASES)
def test_hom_classes_match_exhaustive_oracle(spec, n, p):
    g = build_group(spec)
    classes = enumerate_hom_classes(g, n, p)
    assert tuple(c.rep for c in classes) == _oracle_hom_classes(g, n, p)
    for c in classes:
        assert canonical_tuple(g, c.rep) == c.rep
        assert all(type(x) is int for x in c.rep)
        assert (c.group, c.p, c.n) == (g, p, n)


def test_hom_classes_above_listing_cap_are_refused(monkeypatch):
    s4 = build_group("S4")
    g = FiniteGroup("uncached S4", s4.elements, s4.table)  # 71 classes at n = 3
    monkeypatch.setattr(groups_module, "LISTING_CAP", 70)
    with pytest.raises(ListingTooLargeError, match=r"^n = 3: more than LISTING_CAP = 70 "):
        enumerate_hom_classes(g, 3, 2)
    assert (3, 2) not in g._hom_classes
    monkeypatch.setattr(groups_module, "LISTING_CAP", 71)
    assert len(enumerate_hom_classes(g, 3, 2)) == 71


def test_hom_classes_at_large_n():
    # a p-free group has one class at every n, reached without recursion
    for spec, n in (("S1", 5000), ("C3", 3000)):
        (only,) = enumerate_hom_classes(build_group(spec), n, 2)
        assert only.rep == (0,) * n
    with pytest.raises(ListingTooLargeError, match=r"^n = 100001: a tuple of more than LISTING_CAP"):
        enumerate_hom_classes(build_group("S1"), 100_001, 2)
    # C2 has 2^n classes: 2^16 are listed, 2^17 pass the cap during the
    # walk, and from n = 18 on 2^n > LISTING_CAP * |C2| refuses before it
    c2 = build_group("C2")
    assert len(enumerate_hom_classes(c2, 16, 2)) == 2 ** 16
    for n in (17, 18, 1000):
        start = time.perf_counter()
        with pytest.raises(ListingTooLargeError, match=f"^n = {n}: more than LISTING_CAP"):
            enumerate_hom_classes(c2, n, 2)
        assert n == 17 or time.perf_counter() - start < 1


def test_public_tuple_class_canonicalizes_and_checks():
    g = build_group("S4")
    x = g.index[(3, 2, 1, 0)]
    for c in enumerate_hom_classes(g, 2, 2):
        conj = tuple(_conjugate(g, x, e) for e in c.rep)
        assert TupleClass(g, conj, 2) == c
        assert TupleClass(g, np.array(conj), 2).rep == c.rep
    four_cycle = g.index[(1, 2, 3, 0)]
    three_cycle = g.index[(1, 2, 0, 3)]
    swap = g.index[(1, 0, 2, 3)]
    with pytest.raises(NotPPowerTupleError, match="has order 3"):
        TupleClass(g, (four_cycle, three_cycle), 2)
    with pytest.raises(NotPPowerTupleError, match="do not commute"):
        TupleClass(g, (four_cycle, swap), 2)


def test_canonical_tuples_identity_and_kill():
    g = build_group("C2")
    assert canonical_tuples(g, [(1,)], ((1,),)).tolist() == [[1]]
    assert canonical_tuples(g, [(1,)], ((2,),)).tolist() == [[0]]


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*[st.tuples(*[st.integers(-4, 4)] * 2)] * 2),
    st.tuples(*[st.tuples(*[st.integers(-4, 4)] * 2)] * 2),
)
def test_canonical_tuples_right_action(t1, t2):
    g = build_group("S3")
    reps = [alpha.rep for alpha in enumerate_hom_classes(g, 2, 2)]
    lhs = canonical_tuples(g, canonical_tuples(g, reps, t1), t2)
    assert np.array_equal(lhs, canonical_tuples(g, reps, mat_mul(t1, t2)))


KERNEL_GROUPS = ("S1", "S2", "S3", "S4", "C2", "C4", "C2xC2", "C2xS3", "wr(C2,2)", "wr(S2,2)")


@pytest.mark.parametrize("block", [None, 1, 40])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_canonical_tuples_match_checked_oracle(spec, n, block, monkeypatch):
    """One seeded matrix per class, with entries in [-9, 9]: negative ones,
    and ones above every element order here (at most 4)."""
    if block is not None:
        monkeypatch.setattr(groups_module, "_CHECK_BLOCK", block)
    g = build_group(spec)
    classes = enumerate_hom_classes(g, n, 2)
    rng = SplitMix64(len(classes) * n)
    mats = [
        tuple(tuple(rng.below(19) - 9 for _ in range(n)) for _ in range(n)) for _ in classes
    ]
    got = canonical_tuples(g, [alpha.rep for alpha in classes], mats)
    assert got.shape == (len(classes), n)
    assert [tuple(row) for row in got.tolist()] == [
        precompose(alpha, t).rep for alpha, t in zip(classes, mats)
    ]
    # one matrix for every tuple, and a matrix with more columns than rows
    wide = tuple(tuple(rng.below(19) - 9 for _ in range(n + 1)) for _ in range(n))
    got = canonical_tuples(g, [alpha.rep for alpha in classes], wide)
    assert [tuple(row) for row in got.tolist()] == [precompose(a, wide).rep for a in classes]


def test_canonical_tuples_reduce_entries_past_int64():
    g = build_group("C4")
    big = 2 ** 70 + 3  # 3 mod every element order of C4
    assert canonical_tuples(g, [(1,)], ((big,),)).tolist() == [[3]]
    assert canonical_tuples(g, [(1,)], ((-big,),)).tolist() == [[1]]


def test_symm_class_to_sum_identity_tuple():
    g = symmetric_group(3)
    alpha = TupleClass(g, (g.identity, g.identity), 2)
    s = symm_class_to_sum(alpha)
    assert len(s.summands) == 3
    assert all(h.order == 1 for h in s.summands)


def test_symm_class_to_sum_transposition_orbit_oracle():
    # n=1, p=2, m=2: the transposition has one orbit of size 2; the stabilizer
    # is 2Z and the subgroup is the unique order-2 subgroup of Q_2/Z_2
    g = symmetric_group(2)
    swap = g.index[(1, 0)]
    s = symm_class_to_sum(TupleClass(g, (swap,), 2))
    assert len(s.summands) == 1
    assert s.summands[0] == subgroup_from_generators(2, 1, [(Fraction(1, 2),)])


@pytest.mark.parametrize("p,n,m", [(2, 1, 4), (2, 2, 4), (2, 2, 5), (2, 3, 4), (3, 1, 3), (3, 2, 3)])
def test_tuple_classes_biject_with_sums(p, n, m):
    classes = enumerate_hom_classes(symmetric_group(m), n, p)
    sums = enumerate_sums(p, n, m)
    assert tuple_sum_count(classes, sums)
    assert tuple_sum_inverse(classes, sums)


@pytest.mark.parametrize("n", [1, 2])
def test_transitive_classes_match_subgroups(n):
    # two-sided counting oracle for p=2, k <= 2
    for k in (1, 2):
        classes = enumerate_hom_classes(symmetric_group(2 ** k), n, 2)
        assert transitive_classes_match(classes, enumerate_subgroups(2, n, k))


def test_sum_to_symm_roundtrip_all_of_sum4():
    for s in enumerate_sums(2, 2, 4):
        assert symm_class_to_sum(sum_to_symm_class(s, 2)) == s


def _fixed_cosets(g, sub, alpha):
    """The least element of each coset of sub fixed by alpha's rep."""
    return tuple(x for x, _ in fixed_coset_conjugates(g, set(sub.indices), alpha.rep))


def test_fixed_cosets_whole_group_and_trivial_alpha():
    g = build_group("S3")
    whole = Subgroup(g, tuple(range(6)))
    alpha = enumerate_hom_classes(g, 2, 2)[-1]
    assert _fixed_cosets(g, whole, alpha) == (0,)
    triv_alpha = TupleClass(g, (g.identity, g.identity), 2)
    sub = Subgroup(g, (g.identity,))
    assert len(_fixed_cosets(g, sub, triv_alpha)) == 6


def test_fixed_cosets_involution_empty():
    g = build_group("S2")
    sub = Subgroup(g, (g.identity,))
    alpha = TupleClass(g, (1,), 2)
    assert _fixed_cosets(g, sub, alpha) == ()


def test_fixed_cosets_image_lands_in_subgroup():
    g = build_group("S4")
    sub_elems = subgroup_closure(
        g, [g.index[(1, 0, 2, 3)], g.index[(0, 1, 3, 2)]]
    )
    alpha = enumerate_hom_classes(g, 2, 2)[5]
    found = fixed_coset_conjugates(g, set(sub_elems.indices), alpha.rep)
    assert found
    for rep, conj in found:
        inv = int(g.inv[rep])
        assert conj == tuple(g.mul(g.mul(inv, e), rep) for e in alpha.rep)
        assert set(conj) <= set(sub_elems.indices)


def _oracle_fixed_coset_conjugates(group, image, rep):
    """Oracle: scan every element, build its coset by products, conjugate rep."""
    seen, out = set(), []
    for g in range(group.order):
        if g in seen:
            continue
        seen.update(group.mul(g, h) for h in image)
        ginv = int(group.inv[g])
        conj = tuple(group.mul(group.mul(ginv, t), g) for t in rep)
        if all(x in image for x in conj):
            out.append((g, conj))
    return out


@pytest.mark.parametrize("spec", ["S3", "S4", "C4", "S2xS3", "wr(S2,2)", "wr(C2,3)"])
def test_fixed_coset_conjugates_match_scan_oracle(spec):
    g = build_group(spec)
    subgroups = list(abelian_subgroups(g)) + [Subgroup(g, tuple(range(g.order)))]
    for sub in subgroups:
        image = set(sub.indices)
        for n in (1, 2):
            for c in enumerate_hom_classes(g, n, 2):
                expected = _oracle_fixed_coset_conjugates(g, image, c.rep)
                assert fixed_coset_conjugates(g, image, c.rep) == expected


def test_subgroup_validation():
    g = build_group("S3")
    with pytest.raises(NotASubgroupError):
        Subgroup(g, (0, 1, 2))  # identity plus two transpositions: not closed


def test_homomorphism_validation():
    c4 = build_group("C4")
    c2 = build_group("C2")
    Homomorphism(c4, c2, (0, 1, 0, 1))
    with pytest.raises(NotAHomomorphismError):
        Homomorphism(c4, c2, (0, 1, 1, 0))


def test_homomorphism_law_checked_on_every_pair_of_a_large_source():
    s6, c2 = build_group("S6"), build_group("C2")
    assert s6.order > 200
    sign = [sum(a > b for a, b in itertools.combinations(s, 2)) % 2 for s in s6.elements]
    Homomorphism(s6, c2, sign)
    wrong_once = sign[:-1] + [1 - sign[-1]]
    with pytest.raises(NotAHomomorphismError, match="homomorphism law"):
        Homomorphism(s6, c2, wrong_once)


def test_product_maps_match_label_lookups():
    # the index arithmetic on products against looking the labels up
    g, s2, c2 = build_group("S3"), symmetric_group(2), build_group("C2")
    left = include_left_factor(g, s2)
    e = s2.elements[s2.identity]
    assert left.mapping == tuple(left.target.index[(a, e)] for a in g.elements)

    right = diagonal_wreath_hom(c2, 2)
    both = times_hom(left, right)
    assert both.mapping == tuple(
        both.target.index[
            (
                left.target.elements[left(left.source.index[a])],
                right.target.elements[right(right.source.index[b])],
            )
        ]
        for a, b in both.source.elements
    )

    de = delta_embed(1, 2)
    into_big, into_split = product_delta_homs(c2, 1, 2)
    for i, (a, st) in enumerate(into_big.source.elements):
        big = (a, de.target.elements[de(de.source.index[st])])
        assert into_big.target.elements[into_big(i)] == big
        assert into_split.target.elements[into_split(i)] == ((a, st[0]), (a, st[1]))

    for cls in enumerate_hom_classes(product_group(g, s2), 2, 2):
        labels = [cls.group.elements[i] for i in cls.rep]
        assert split_product_class(cls) == (
            TupleClass(g, tuple(g.index[x] for x, _ in labels), 2),
            TupleClass(s2, tuple(s2.index[y] for _, y in labels), 2),
        )


def test_delta_embed_identity():
    de = delta_embed(2, 2)
    src = de.source
    ident = src.identity
    assert de(ident) == de.target.identity
    # block structure: ((1,0),(0,1)) maps to the transposition on {0,1}
    s2 = symmetric_group(2)
    swap = s2.elements[s2.index[(1, 0)]]
    e = s2.elements[s2.identity]
    idx = src.index[(swap, e)]
    assert de.target.elements[de(idx)] == (1, 0, 2, 3)


def test_delta_embed_transports_sums():
    # classes of S2 x S2 map to concatenated sums in S4
    de = delta_embed(2, 2)
    from charpow.groups import split_product_class

    for cls in enumerate_hom_classes(de.source, 2, 2):
        a, b = split_product_class(cls)
        sa, sb = symm_class_to_sum(a), symm_class_to_sum(b)
        image = TupleClass(de.target, tuple(de(i) for i in cls.rep), 2)
        assert symm_class_to_sum(image) == SumOfSubgroups(sa.summands + sb.summands)


def test_abelian_subgroups_s3():
    # brute-force subgroup lattice of S3: 6 subgroups, 5 of them abelian
    g = build_group("S3")
    all_subs = set()
    for r in range(1, 7):
        for combo in itertools.combinations(range(6), r):
            if g.identity not in combo:
                continue
            inside = set(combo)
            if all(g.mul(a, b) in inside for a in combo for b in combo):
                all_subs.add(combo)
    assert len(all_subs) == 6
    abelian = {
        s
        for s in all_subs
        if all(g.mul(a, b) == g.mul(b, a) for a in s for b in s)
    }
    assert len(abelian) == 5
    found = abelian_subgroups(g)
    assert {s.indices for s in found} == abelian


def test_abelian_subgroups_cap():
    with pytest.raises(GroupTooLargeError):
        abelian_subgroups(build_group("wr(C2,4)x S3"))


def test_wreath_roundtrip_and_counts():
    w = build_group("wr(S2,2)")
    classes = enumerate_hom_classes(w, 1, 2)
    assert len(classes) == 5
    assert all(wreath_class_to_decorated(c).total == 2 for c in classes)
    assert wreath_roundtrip(classes)


def test_wreath_split_runs_at_most_one_echelon_per_distinct_subgroup(monkeypatch):
    # the orbit walk reads both Hermite forms off the orbit; only the first
    # check of each distinct subgroup matrix runs an echelon
    classes = enumerate_hom_classes(build_group("wr(C2,4)"), 2, 2)
    assert len(classes) == 261
    calls = []
    echelon = lattice_module._column_echelon

    def counting_echelon(entries, n):
        calls.append(n)
        return echelon(entries, n)

    monkeypatch.setattr(lattice_module, "_column_echelon", counting_echelon)
    torsion_module.torsion_subgroup.cache_clear()
    subgroups = {h for c in classes for h, _ in wreath_class_to_decorated(c).summands}
    assert len(calls) <= len(subgroups)
    calls.clear()
    for c in classes:
        wreath_class_to_decorated(c)
    assert calls == []


@pytest.mark.parametrize(
    "spec", ["wr(C2,1)", "wr(C2,2)", "wr(C2,3)", "wr(C2,4)", "wr(S3,2)", "wr(wr(S2,2),2)"]
)
def test_decorations_pass_the_checked_tuple_class_constructor(spec):
    # decorations are built unchecked; the checks (p-power orders, commuting
    # entries) are invariant under conjugation, so checking the rep suffices
    for beta in enumerate_hom_classes(build_group(spec), 2, 2):
        for _, alpha in wreath_class_to_decorated(beta).summands:
            assert TupleClass(alpha.group, alpha.rep, alpha.p) == alpha


def test_wreath_diagonal_tuple_gives_trivial_summands():
    g = build_group("S2")
    h = diagonal_wreath_hom(g, 3)
    w = h.target
    s3 = symmetric_group(3)
    alpha = TupleClass(g, (1,), 2)
    src_idx = h.source.index[(g.elements[1], s3.elements[s3.identity])]
    beta = TupleClass(w, (h(src_idx),), 2)
    d = wreath_class_to_decorated(beta)
    assert len(d.summands) == 3
    assert all(hh.order == 1 for hh, _ in d.summands)
    assert all(a == alpha for _, a in d.summands)


def test_wreath_reduces_to_symmetric_bijection_for_trivial_g():
    classes = enumerate_hom_classes(build_group("wr(S1,3)"), 2, 2)
    assert wreath_trivial_g(classes, enumerate_sums(2, 2, 3))


def test_decorated_sum_canonical_order():
    w = build_group("wr(C2,2)")
    for c in enumerate_hom_classes(w, 2, 2):
        d = wreath_class_to_decorated(c)
        keys = [(h.sort_key(), a.rep) for h, a in d.summands]
        assert keys == sorted(keys)


# every bijection check of charpow.verify returns False on a known-bad instance


def _classes(spec):
    return enumerate_hom_classes(build_group(spec), 2, 2)


BAD_INSTANCES = {
    # the classes of S_3 against the sums of total 4
    "tuple_sum_count": lambda: tuple_sum_count(_classes("S3"), enumerate_sums(2, 2, 4)),
    "tuple_sum_inverse": lambda: tuple_sum_inverse(
        _classes("S3"), enumerate_sums(2, 2, 4)
    ),
    # the classes of S_4 against the subgroups of order 2
    "transitive_classes_match": lambda: transitive_classes_match(
        _classes("S4"), enumerate_subgroups(2, 2, 1)
    ),
    # one sum or class missing from the target
    "digit_concat_covers": lambda: digit_concat_covers(
        2, 2, 3, enumerate_sums(2, 2, 3)[:-1]
    ),
    "top_split_covers": lambda: top_split_covers(2, 2, 2, enumerate_sums(2, 2, 4)[:-1]),
    "abelian_classes_cover": lambda: abelian_classes_cover(
        build_group("S3"), 2, 2, _classes("S3")[:-1]
    ),
    # a class listed twice
    "wreath_roundtrip": lambda: wreath_roundtrip(
        _classes("wr(S2,2)") + _classes("wr(S2,2)")[:1]
    ),
    # the classes of e wr S_3 against the sums of total 4
    "wreath_trivial_g": lambda: wreath_trivial_g(
        _classes("wr(S1,3)"), enumerate_sums(2, 2, 4)
    ),
}


@pytest.mark.parametrize("check", sorted(BAD_INSTANCES))
def test_check_fails_on_bad_instance(check):
    assert BAD_INSTANCES[check]() is False


# ---------------------------------------------------------------------------
# stabilizer lattices by one orbit walk, against the exhaustive search


def subgroup_from_annihilator(p: int, basis: LatticeBasis) -> TorsionSubgroup:
    """Subgroup whose annihilator lattice is the given column span."""
    return TorsionSubgroup(p, row_hnf(mat_transpose(basis.matrix)))


def _oracle_orbit_subgroups(perms, p, n):
    """Oracle: orbits by search, stabilizers by testing every lam in [0, exp)^n."""
    m = len(perms[0])
    identity = tuple(range(m))

    def power(s, e):
        out = identity
        for _ in range(e):
            out = tuple(s[i] for i in out)
        return out

    exp = 1
    for s in perms:
        k = next(k for k in range(1, m + 2) if power(s, k) == identity)
        while exp < k:
            exp *= p
    powers = [[power(s, e) for e in range(exp)] for s in perms]
    seen = set()
    for x0 in range(m):
        if x0 in seen:
            continue
        orbit = {x0}
        frontier = [x0]
        while frontier:
            x = frontier.pop()
            for s in perms:
                if s[x] not in orbit:
                    orbit.add(s[x])
                    frontier.append(s[x])
        seen |= orbit
        cols = [[exp * int(i == j) for i in range(n)] for j in range(n)]
        for lam in itertools.product(range(exp), repeat=n):
            pos = x0
            for j in range(n):
                pos = powers[j][lam[j]][pos]
            if pos == x0:
                cols.append(list(lam))
        basis = LatticeBasis(p, column_span_basis(tuple(zip(*cols))))
        yield x0, basis, subgroup_from_annihilator(p, basis)


ORBIT_CASES = [(f"S{m}", p, n) for m in range(1, 7) for p in (2, 3) for n in (1, 2)]
ORBIT_CASES += [(f"S{m}", p, 3) for m in range(1, 6) for p in (2, 3)]
ORBIT_CASES += [(spec, p, n) for spec in ("wr(C2,4)", "wr(S3,2)") for p in (2, 3)
                for n in (1, 2)]


@pytest.mark.parametrize("spec, p, n", ORBIT_CASES)
def test_orbit_walk_matches_exhaustive_stabilizers(spec, p, n):
    group = build_group(spec)
    wreath = group.structure[0] == "wreath"
    for alpha in enumerate_hom_classes(group, n, p):
        elements = [group.elements[i] for i in alpha.rep]
        perms = [e[1] for e in elements] if wreath else elements
        assert list(groups_module._orbit_subgroups(perms, p, n)) == list(
            _oracle_orbit_subgroups(perms, p, n)
        )
