"""Acceptance criteria, one test per criterion.

Each criterion runs the property checks of charpow.verify on its own
instances, next to its independent oracles (pinned counts, the brute-force
pair count, the exact Honda series).  Every check is exact
(rational/integer equality); each criterion also carries the runtime
budget it must fit in.  Run with -s to see the one-line pass reports.
"""

import time

from charpow.classfn import (
    average,
    is_invariant,
    power_op,
    random_class_function,
    random_stabilizer,
    total_power_op,
    transfer_ideal,
)
from charpow.fgl import (
    RationalCoefficients,
    TruncatedPoly,
    build_honda,
    build_multiplicative,
    default_truncation,
)
from charpow.groups import (
    Homomorphism,
    build_group,
    enumerate_hom_classes,
    symmetric_group,
    wreath_group,
)
from charpow.isogeny import canonical_section, random_section
from charpow.rng import SplitMix64
from charpow.torsion import enumerate_subgroups, enumerate_sums
from charpow.verify import (
    abelian_classes_cover,
    diagonal_compatible,
    digit_concat_covers,
    has_height,
    ideal_quotient_dim_matches,
    invariance_preserved,
    mth_power,
    multiplicative_two_series,
    naturality,
    quotient_rank,
    restriction_identity,
    section_independent,
    stabilizer_commutes,
    top_split_covers,
    transitive_classes_match,
    tuple_sum_count,
    wreath_roundtrip,
    wreath_trivial_g,
)

P, N, LEVEL = 2, 2, 2


def _report(num, title, ok, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {title} ({elapsed:.1f}s / budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def _bruteforce_pair_class_count(m):
    """Fully naive oracle: all commuting 2-power pairs in S_m up to conjugacy."""
    g = symmetric_group(m)
    ppow = [
        i for i in range(g.order) if int(g.orders()[i]) in (1, 2, 4)
    ]
    conj = lambda x, a: g.mul(g.mul(x, a), int(g.inv[x]))  # x a x^-1
    orbits = set()
    for a in ppow:
        for b in ppow:
            if g.mul(a, b) != g.mul(b, a):
                continue
            orbit = frozenset(
                (conj(x, a), conj(x, b)) for x in range(g.order)
            )
            orbits.add(orbit)
    return len(orbits)


def test_criterion_1_bijection_counts():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        for n in (1, 2):
            for m in range(1, 7):
                classes = enumerate_hom_classes(symmetric_group(m), n, p)
                ok = ok and tuple_sum_count(classes, enumerate_sums(p, n, m))
    pinned = {2: 4, 3: 4, 4: 17}
    for m, expect in pinned.items():
        ok = ok and len(enumerate_hom_classes(symmetric_group(m), 2, 2)) == expect
        ok = ok and len(enumerate_sums(2, 2, m)) == expect
        ok = ok and _bruteforce_pair_class_count(m) == expect
    _report(1, "bijection counts hom(L,S_m)/~ = Sum_m", ok, t0, 10)


def test_criterion_2_transitive_classes():
    t0 = time.time()
    ok = True
    expected_n2 = {1: 3, 2: 7}
    for n in (1, 2):
        for k in (1, 2):
            classes = enumerate_hom_classes(symmetric_group(2 ** k), n, 2)
            subs = enumerate_subgroups(2, n, k)
            ok = ok and transitive_classes_match(classes, subs)
            if n == 2:
                ok = ok and len(subs) == expected_n2[k]
    _report(2, "transitive classes of S_{p^k} = Sub_{p^k}", ok, t0, 5)


def test_criterion_3_transfer_ideal_dimension():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        for k in (1, 2):
            ideal = transfer_ideal(2, n, LEVEL, 2 ** k)
            ok = ok and ideal_quotient_dim_matches(ideal, enumerate_subgroups(2, n, k))
    _report(3, "dim Cl_n(S_{p^k})/I_tr = |Sub_{p^k}|", ok, t0, 30)


def test_criterion_4_section_independence():
    t0 = time.time()
    sec = canonical_section(P, N, 2)
    seeded = [random_section(P, N, 2, s) for s in range(1, 6)]
    ok = True
    idx = 0
    for spec, count in (("S1", 7), ("C2", 7), ("S3", 6)):
        g = build_group(spec)
        for _ in range(count):
            idx += 1
            f = average(random_class_function(g, P, N, LEVEL, seed=1000 + idx))
            for m in range(1, 5):
                base = power_op(f, m, sec)
                ok = ok and section_independent(power_op, f, m, base, seeded)
    assert idx == 20
    _report(4, "section independence on 20 invariant functions", ok, t0, 120)


def test_criterion_5_invariance_preservation():
    t0 = time.time()
    sec = canonical_section(P, N, 2)
    ok = True
    for spec, seed in (("S1", 51), ("C2", 52), ("S3", 53)):
        g = build_group(spec)
        f = average(random_class_function(g, P, N, LEVEL, seed=seed))
        ok = ok and is_invariant(f)
        for m in range(1, 5):
            ok = ok and invariance_preserved(power_op(f, m, sec))
    _report(5, "invariance preserved under P_m (full GL_2(Z/4))", ok, t0, 120)


def test_criterion_6_restriction_and_mth_power():
    t0 = time.time()
    sec = canonical_section(P, N, 2)
    ok = True
    for spec, seed in (("S3", 61), ("C2", 62), ("S3", 63)):
        g = build_group(spec)
        f = random_class_function(g, P, N, LEVEL, seed=seed)
        pf = {m: power_op(f, m, sec) for m in range(1, 5)}
        for m in range(1, 5):
            ok = ok and mth_power(f, m, pf[m])
            for i in range(1, m):
                ok = ok and restriction_identity(g, i, m - i, pf[i], pf[m - i], pf[m])
    _report(6, "restriction identity and m-th power identity", ok, t0, 60)


def test_criterion_7_naturality_and_diagonal():
    t0 = time.time()
    sec = canonical_section(P, N, 2)
    s3 = build_group("S3")
    c2 = build_group("C2")
    transposition = next(i for i in range(6) if int(s3.orders()[i]) == 2)
    gamma = Homomorphism(c2, s3, (s3.identity, transposition))
    f = random_class_function(s3, P, N, LEVEL, seed=71)
    ok = True
    for m in range(1, 5):
        ok = ok and naturality(gamma, f, m, power_op(f, m, sec), sec)
    for spec, ms in (("S1", (1, 2, 3, 4)), ("C2", (1, 2, 3)), ("S3", (1, 2))):
        h = random_class_function(build_group(spec), P, N, LEVEL, seed=72)
        for m in ms:
            ok = ok and diagonal_compatible(h, m, total_power_op(h, m, sec), sec)
    _report(7, "naturality along C2 -> S3 and diagonal compatibility", ok, t0, 60)


def test_criterion_8_stabilizer_commutation():
    t0 = time.time()
    sec = canonical_section(P, N, 2)
    g = build_group("C2")
    f = random_class_function(g, P, N, LEVEL, seed=81)
    rng = SplitMix64(82)
    ok = True
    p2 = power_op(f, 2, sec)
    p3 = power_op(f, 3, sec)
    t2 = total_power_op(f, 2, sec)
    for _ in range(10):
        s = random_stabilizer(P, N, LEVEL, rng)
        ok = ok and stabilizer_commutes(power_op, f, 2, p2, s, sec)
        ok = ok and stabilizer_commutes(power_op, f, 3, p3, s, sec)
        ok = ok and stabilizer_commutes(total_power_op, f, 2, t2, s, sec)
    _report(8, "stabilizer action commutes with P and total P", ok, t0, 60)


def test_criterion_9_wreath_bijection():
    t0 = time.time()
    ok = True
    for spec in ("wr(S2,2)", "wr(C2,2)"):
        w = build_group(spec)
        for n in (1, 2):
            ok = ok and wreath_roundtrip(enumerate_hom_classes(w, n, 2))
    # reduces to the plain bijection at G = e
    for m in range(1, 5):
        classes = enumerate_hom_classes(wreath_group(symmetric_group(1), m), 2, 2)
        ok = ok and wreath_trivial_g(classes, enumerate_sums(2, 2, m))
    _report(9, "wreath-product bijection round trips", ok, t0, 30)


def test_criterion_10_formal_groups():
    t0 = time.time()
    ok = multiplicative_two_series(build_multiplicative(RationalCoefficients(2), 6))
    for p in (2, 3):
        m = build_multiplicative(RationalCoefficients(p), p + 2)
        ok = ok and quotient_rank(m, [1], 1)
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = build_honda(p, n, default_truncation(p, n))
        # exact series: [p](x) = x^{p^n} mod p
        expected = TruncatedPoly.make(law.ring, 1, law.trunc, {(p ** n,): 1})
        ok = ok and has_height(law, n) and law.i_series(p) == expected
    h22 = build_honda(2, 2, default_truncation(2, 2))
    ok = ok and quotient_rank(h22, [1], 2) and quotient_rank(h22, [1, 1], 2)
    _report(10, "formal group laws: series, degrees, ranks", ok, t0, 30)


def test_criterion_11_injection_set_checks():
    t0 = time.time()
    ok = True
    # concatenation over the 2-adic digits of m is onto the sums of total m
    for n in (1, 2):
        for m in range(1, 7):
            ok = ok and digit_concat_covers(2, n, m, enumerate_sums(2, n, m))
    # abelian subgroups cover every tuple class
    for spec in ("S3", "S4"):
        g = build_group(spec)
        ok = ok and abelian_classes_cover(g, 2, 2, enumerate_hom_classes(g, 2, 2))
    # single subgroups plus p-fold sums of total p^{k-1} cover the p^k layer
    for n in (1, 2):
        for k in (1, 2):
            ok = ok and top_split_covers(2, n, k, enumerate_sums(2, n, 2 ** k))
    _report(11, "set-level checks behind the injection lemmas", ok, t0, 60)
