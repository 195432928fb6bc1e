"""Property suites: exhaustive verification of the class-function identities.

Every property family is stated once, in this module, as a pure check
function: inputs in, bool out.  A check takes the objects it compares, so
that a wrong input makes it return False; a power-operation check takes
P_m(f) (or the total power operation) already computed and computes the
other side of its identity itself.

The suites below are loops over their instance lists that call these
checks.  The acceptance criteria and the identity tests under tests/ call
the same checks on their own instances, next to their independent oracles
(pinned counts, brute-force enumerations, exact series, hand expansions),
and each check has a test that it returns False on a known-bad instance.

Each suite yields (name, params, ok[, detail]) records; run_suites turns
them into CheckResults, and the CLI renders those and exits nonzero if any
fail.  Defaults are desk scale (p = 2, n = 2, level 2, m <= 4, bijection
counts up to m = COUNT_MAX_M).
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .classfn import (
    average,
    c0_constant,
    constant_one,
    external_product,
    is_invariant,
    power_op,
    random_class_function,
    random_stabilizer,
    restrict,
    stabilizer_act,
    total_power_op,
    transfer,
    transfer_ideal,
)
from .fgl import (
    RationalCoefficients,
    abelian_quotient_rank,
    build_honda,
    build_honda_rational,
    build_multiplicative,
    default_truncation,
    quotient_ring_rank,
    weierstrass_degree,
)
from .groups import (
    Homomorphism,
    Subgroup,
    TupleClass,
    abelian_subgroups,
    build_group,
    decorated_to_wreath_class,
    diagonal_wreath_hom,
    enumerate_hom_classes,
    identity_hom,
    include_left_factor,
    product_delta_homs,
    product_group,
    sum_to_symm_class,
    symm_class_to_sum,
    symmetric_group,
    times_hom,
    wreath_class_to_decorated,
    wreath_group,
)
from .isogeny import canonical_section, random_section
from .rng import SplitMix64
from .torsion import (
    SumOfSubgroups,
    enumerate_subgroups,
    enumerate_sums,
    max_subgroup_exponent,
)

COUNT_MAX_M = 6  # largest m of the bijection counts


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    params: str
    ok: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)


@dataclass
class VerifyConfig:
    p: int = 2
    n: int = 2
    level: int = 2
    max_m: int = 4
    seeds: tuple = (1, 2)
    functions: int = 3
    groups: tuple = ("S1", "C2", "S3")


def _result(suite, name, params, ok, detail="", *, seconds=0.0):
    return CheckResult(suite, name, str(params), bool(ok), detail, seconds)


def _timed(records):
    """Each record of a suite, with the seconds spent since the one before."""
    start = time.perf_counter()
    for record in records:
        yield record, time.perf_counter() - start
        start = time.perf_counter()


# ---------------------------------------------------------------------------
# bijections: tuple classes of S_m and G wr S_m against sums of subgroups


def tuple_sum_count(classes, sums) -> bool:
    """As many tuple classes of S_m as sums of subgroups of total m."""
    return len(classes) == len(sums)


def tuple_sum_inverse(classes, sums) -> bool:
    """symm_class_to_sum maps classes onto sums; sum_to_symm_class inverts it."""
    image = {symm_class_to_sum(c): c for c in classes}
    return len(image) == len(classes) and set(image) == set(sums) and all(
        sum_to_symm_class(s, c.n) == c for s, c in image.items()
    )


def transitive_classes(classes):
    """The classes of S_m whose sum of subgroups has a single summand."""
    return [c for c in classes if len(symm_class_to_sum(c).summands) == 1]


def transitive_classes_match(classes, subs) -> bool:
    """The transitive classes of S_{p^k} biject with the subgroups of order p^k."""
    transitive = transitive_classes(classes)
    hit = {symm_class_to_sum(c).summands[0] for c in transitive}
    return len(transitive) == len(subs) and hit == set(subs)


def _concatenations(pools):
    """Every sum made of one sum from each pool."""
    return {
        SumOfSubgroups(tuple(itertools.chain(*(s.summands for s in combo))))
        for combo in itertools.product(*pools)
    }


def digit_concat_covers(p, n, m, sums) -> bool:
    """Concatenating sums of total p^j, a_j of them for each p-adic digit a_j
    of m, gives exactly `sums`, the sums of total m."""
    pools = []
    rest, q = m, 1
    while rest:
        pools += [enumerate_sums(p, n, q)] * (rest % p)
        rest //= p
        q *= p
    return _concatenations(pools) == set(sums)


def top_split_covers(p, n, k, sums) -> bool:
    """Single subgroups of order p^k and p-fold concatenations of sums of
    total p^(k-1) give exactly `sums`, the sums of total p^k."""
    singles = {SumOfSubgroups((h,)) for h in enumerate_subgroups(p, n, k)}
    pool = enumerate_sums(p, n, p ** (k - 1))
    return singles | _concatenations([pool] * p) == set(sums)


def abelian_classes_cover(g, n, p, classes) -> bool:
    """Tuple classes pushed into g from its abelian subgroups are exactly
    `classes`, the tuple classes of g."""
    image = set()
    for sub in abelian_subgroups(g):
        iota = sub.inclusion()
        for c in enumerate_hom_classes(iota.source, n, p):
            image.add(TupleClass(g, tuple(iota(i) for i in c.rep), p))
    return image == set(classes)


def wreath_roundtrip(classes) -> bool:
    """wreath_class_to_decorated is injective on `classes`, and
    decorated_to_wreath_class inverts it."""
    decorated = [wreath_class_to_decorated(c) for c in classes]
    return len(set(decorated)) == len(classes) and all(
        decorated_to_wreath_class(d, c.n) == c for d, c in zip(decorated, classes)
    )


def wreath_trivial_g(classes, sums) -> bool:
    """For G = e, dropping the decorations is a bijection from `classes`,
    the classes of e wr S_m, onto `sums`, the sums of total m."""
    plain = {
        SumOfSubgroups(tuple(h for h, _ in wreath_class_to_decorated(c).summands))
        for c in classes
    }
    return plain == set(sums) and len(plain) == len(classes)


def suite_bijections(cfg: VerifyConfig):
    for p in (2, 3):
        for n in (1, 2):
            for m in range(1, COUNT_MAX_M + 1):
                classes = enumerate_hom_classes(symmetric_group(m), n, p)
                sums = enumerate_sums(p, n, m)
                params = f"p={p} n={n} m={m}"
                yield ("tuple-sum-count", params, tuple_sum_count(classes, sums),
                       f"{len(classes)} classes vs {len(sums)} sums")
                yield "tuple-sum-inverse", params, tuple_sum_inverse(classes, sums)
    p = cfg.p
    for n in (1, 2):
        for k in (0, 1, 2):
            classes = enumerate_hom_classes(symmetric_group(p ** k), n, p)
            subs = enumerate_subgroups(p, n, k)
            yield ("transitive-vs-subgroups", f"p={p} n={n} k={k}",
                   transitive_classes_match(classes, subs),
                   f"{len(transitive_classes(classes))} transitive classes vs "
                   f"{len(subs)} subgroups")
    for n in (1, 2):
        for m in range(1, COUNT_MAX_M + 1):
            yield ("digit-concat-onto", f"p={p} n={n} m={m}",
                   digit_concat_covers(p, n, m, enumerate_sums(p, n, m)))
    for n in (1, 2):
        for k in (1, 2):
            yield ("top-split-onto", f"p={p} n={n} k={k}",
                   top_split_covers(p, n, k, enumerate_sums(p, n, p ** k)))
    for spec in ("S3", "S4"):
        g = build_group(spec)
        yield ("abelian-cover", f"G={spec} p={p} n={cfg.n}",
               abelian_classes_cover(g, cfg.n, p, enumerate_hom_classes(g, cfg.n, p)))
    for spec, n in (("wr(S2,2)", 1), ("wr(S2,2)", 2), ("wr(C2,2)", 1), ("wr(C2,2)", 2)):
        classes = enumerate_hom_classes(build_group(spec), n, 2)
        yield ("wreath-roundtrip", f"G wr S: {spec} n={n}", wreath_roundtrip(classes),
               f"{len(classes)} classes")
    for m in range(1, cfg.max_m + 1):
        classes = enumerate_hom_classes(wreath_group(symmetric_group(1), m), cfg.n, p)
        yield ("wreath-trivial-G", f"p={p} n={cfg.n} m={m}",
               wreath_trivial_g(classes, enumerate_sums(p, cfg.n, m)))


# ---------------------------------------------------------------------------
# transfers


def transfer_restriction_identity(f, sub) -> bool:
    """Transfer after restriction along the inclusion of sub gives f back;
    this holds for sub the whole group."""
    iota = sub.inclusion()
    return transfer(restrict(f, iota), iota) == f


def transfer_of_one_is_regular(sub, p, n, level) -> bool:
    """The transfer of 1 from sub is |G| at the trivial tuple and 0 at every
    other class, as it is for sub the trivial subgroup."""
    g = sub.parent
    tr = transfer(constant_one(sub.as_group(), p, n, level), sub.inclusion())
    trivial = (g.identity,) * n
    return all(
        tr.value_at(c) == c0_constant(p, n, level, g.order if c.rep == trivial else 0)
        for c in enumerate_hom_classes(g, n, p)
    )


def ideal_quotient_dim_matches(ideal, subs) -> bool:
    """dim Cl_n(S_{p^k}) / I_tr equals the number of subgroups of order p^k."""
    return ideal.quotient_dim() == len(subs)


def _contains_indicator(ideal, c) -> bool:
    return ideal.contains_vector([int(rep == c.rep) for rep in ideal.keys])


def ideal_contains_multi_summand(ideal) -> bool:
    """The indicator of every class whose sum has several summands lies in I_tr."""
    classes = enumerate_hom_classes(ideal.group, ideal.n, ideal.p)
    transitive = transitive_classes(classes)
    return all(_contains_indicator(ideal, c) for c in classes if c not in transitive)


def ideal_excludes_transitive(ideal) -> bool:
    """No indicator of a transitive class lies in I_tr."""
    classes = enumerate_hom_classes(ideal.group, ideal.n, ideal.p)
    return not any(_contains_indicator(ideal, c) for c in transitive_classes(classes))


def suite_transfers(cfg: VerifyConfig):
    p, n, level = cfg.p, cfg.n, cfg.level
    g = build_group("S3")
    f = random_class_function(g, p, n, level, seed=11)
    yield ("whole-group-identity", "G=S3",
           transfer_restriction_identity(f, Subgroup(g, tuple(range(g.order)))))
    s2 = build_group("S2")
    yield ("trivial-subgroup-count", "G=S2",
           transfer_of_one_is_regular(Subgroup(s2, (s2.identity,)), p, n, level))
    for n_ in (1, 2):
        for k in (1, 2):
            ideal = transfer_ideal(p, n_, level, p ** k)
            subs = enumerate_subgroups(p, n_, k)
            yield ("ideal-quotient-dim", f"p={p} n={n_} k={k}",
                   ideal_quotient_dim_matches(ideal, subs),
                   f"dim {ideal.quotient_dim()} vs |Sub| {len(subs)}")
    for m in (2, 4):
        ideal = transfer_ideal(p, n, level, m)
        yield "ideal-membership-multi", f"m={m}", ideal_contains_multi_summand(ideal)
        yield ("ideal-membership-transitive", f"m={m}",
               ideal_excludes_transitive(ideal))


# ---------------------------------------------------------------------------
# power operations; pm below is P_m(f) computed by the caller


def p1_is_identity(f, p1) -> bool:
    """P_1(f), pulled back along G -> G x S_1, is f."""
    return restrict(p1, include_left_factor(f.group, symmetric_group(1))) == f


def p_of_one_is_one(one, m, section) -> bool:
    """P_m(1) = 1, for `one` the constant function 1."""
    target = product_group(one.group, symmetric_group(m))
    return power_op(one, m, section) == constant_one(target, one.p, one.n, one.level)


def multiplicative(f, g, m, pm, section) -> bool:
    """P_m(f g) = P_m(f) P_m(g)."""
    return power_op(f.mul(g), m, section) == pm.mul(power_op(g, m, section))


def mth_power(f, m, pm) -> bool:
    """P_m(f), pulled back along G -> G x S_m, is f^m."""
    return restrict(pm, include_left_factor(f.group, symmetric_group(m))) == f.pow(m)


def restriction_identity(g, i, j, pi, pj, pm) -> bool:
    """P_{i+j}(f) and P_i(f) x P_j(f) agree on G x (S_i x S_j); pm is P_{i+j}(f)."""
    into_big, into_split = product_delta_homs(g, i, j)
    return restrict(pm, into_big) == restrict(external_product(pi, pj), into_split)


def naturality(gamma, f, m, pm, section) -> bool:
    """P_m(gamma^* f) = (gamma x id)^* P_m(f), for f on gamma's target."""
    pulled = restrict(pm, times_hom(gamma, identity_hom(symmetric_group(m))))
    return power_op(restrict(f, gamma), m, section) == pulled


def diagonal_compatible(f, m, total, section) -> bool:
    """The total power operation, pulled back along the diagonal
    G x S_m -> G wr S_m, is P_m(f)."""
    return restrict(total, diagonal_wreath_hom(f.group, m)) == power_op(f, m, section)


def invariance_preserved(pm) -> bool:
    """P_m(f) of an invariant f is invariant under GL_n(Z/p^N)."""
    return is_invariant(pm)


def section_independent(op, f, m, base, sections) -> bool:
    """op(f, m, s) is base, op(f, m) for one section, for every s in sections;
    op is power_op or total_power_op, f invariant."""
    return all(op(f, m, s) == base for s in sections)


def stabilizer_commutes(op, f, m, pm, s, section) -> bool:
    """The stabilizer element s commutes with op, power_op or total_power_op;
    pm is op(f, m, section)."""
    return stabilizer_act(pm, s) == op(stabilizer_act(f, s), m, section)


def suite_powerops(cfg: VerifyConfig):
    p, n, level = cfg.p, cfg.n, cfg.level
    # the diagonal-compatibility cases below run up to m = 4 at any max_m
    sec = canonical_section(p, n, max_subgroup_exponent(p, max(cfg.max_m, 4)))
    ms = range(1, cfg.max_m + 1)
    for spec in cfg.groups:
        g = build_group(spec)
        f = random_class_function(g, p, n, level, seed=21)
        f2 = random_class_function(g, p, n, level, seed=22)
        pf = functools.cache(lambda m: power_op(f, m, sec))
        one = constant_one(g, p, n, level)
        yield "P1-identity", f"G={spec}", p1_is_identity(f, pf(1))
        for m in ms:
            yield "P-of-one", f"G={spec} m={m}", p_of_one_is_one(one, m, sec)
            yield "mth-power", f"G={spec} m={m}", mth_power(f, m, pf(m))
        for m in (2, 3):
            yield ("multiplicative", f"G={spec} m={m}",
                   multiplicative(f, f2, m, pf(m), sec))
        for m in ms[1:]:
            for i in range(1, m):
                yield ("restriction-identity", f"G={spec} i={i} j={m - i}",
                       restriction_identity(g, i, m - i, pf(i), pf(m - i), pf(m)))
    # naturality along C2 -> S2 in S3
    s3 = build_group("S3")
    transposition = next(i for i in range(s3.order) if int(s3.orders()[i]) == 2)
    gamma = Homomorphism(build_group("C2"), s3, (s3.identity, transposition))
    f = random_class_function(s3, p, n, level, seed=23)
    for m in ms:
        yield "naturality", f"m={m}", naturality(gamma, f, m, power_op(f, m, sec), sec)
    # diagonal compatibility of the total power operation; the C2 m=4 case
    # needs level 3 (G wr S_4 contains elements of order 8)
    cases = [
        ("S1", (1, 2, 3, 4), level),
        ("C2", (1, 2, 3), level),
        ("S3", (1, 2), level),
        ("C2", (4,), 3),
    ]
    for spec, m_values, lvl in cases:
        f = random_class_function(build_group(spec), p, n, lvl, seed=24)
        for m in m_values:
            yield ("diagonal-compatibility", f"G={spec} m={m} level={lvl}",
                   diagonal_compatible(f, m, total_power_op(f, m, sec), sec))


def suite_invariance(cfg: VerifyConfig):
    p, n, level = cfg.p, cfg.n, cfg.level
    bound = max_subgroup_exponent(p, cfg.max_m)
    sec = canonical_section(p, n, bound)
    others = [random_section(p, n, bound, s) for s in cfg.seeds]
    idx = 0
    for spec in cfg.groups:
        g = build_group(spec)
        for _ in range(cfg.functions):
            idx += 1
            f = average(random_class_function(g, p, n, level, seed=100 + idx))
            for m in range(1, cfg.max_m + 1):
                base = power_op(f, m, sec)
                params = f"G={spec} f#{idx} m={m}"
                yield "preservation", params, invariance_preserved(base)
                yield ("section-independence", params,
                       section_independent(power_op, f, m, base, others))


def suite_stabilizer(cfg: VerifyConfig):
    p, n, level = cfg.p, cfg.n, cfg.level
    # the instances below run up to m = 3 at any max_m
    sec = canonical_section(p, n, max_subgroup_exponent(p, max(cfg.max_m, 3)))
    rng = SplitMix64(77)
    f = random_class_function(build_group("C2"), p, n, level, seed=31)
    instances = [
        ("commutes-with-P", power_op, 2),
        ("commutes-with-P", power_op, 3),
        ("commutes-with-total-P", total_power_op, 2),
    ]
    ops = [(name, op, m, op(f, m, sec)) for name, op, m in instances]
    for i in range(10):
        s = random_stabilizer(p, n, level, rng)
        for name, op, m, pm in ops:
            yield name, f"s#{i} m={m}", stabilizer_commutes(op, f, m, pm, s, sec)


# ---------------------------------------------------------------------------
# formal group laws


def multiplicative_two_series(law) -> bool:
    """[2](x) = 2x + x^2."""
    return law.i_series(2).coeffs == (((1,), 2), ((2,), 1))


def quotient_rank(law, ks, height) -> bool:
    """R[[x]] / ([p^k](x)) has rank p^(k height), and the ranks multiply over
    the cyclic factors C_{p^k}, k in ks; the rank for one k is the
    Weierstrass degree of [p^k](x)."""
    return abelian_quotient_rank(law, ks) == law.ring.p ** (height * sum(ks))


def has_height(law, n) -> bool:
    """The first term of [p](x) sits at degree p^n and has a unit coefficient."""
    p = law.ring.p
    terms = law.i_series(p).coeffs
    return bool(terms) and terms[0][0] == (p ** n,) and law.ring.is_unit(terms[0][1])


def fgl_axioms(law) -> bool:
    """Unit, commutativity and associativity of the truncated law."""
    return (
        law.unit_axiom_holds()
        and law.is_commutative()
        and law.associativity_residual_is_zero()
    )


def i_series_additive(law, k) -> bool:
    """[i](x) +_F [j](x) = [i + j](x) for 0 <= i, j < k."""
    return all(
        law.plus(law.i_series(i), law.i_series(j)) == law.i_series(i + j)
        for i in range(k)
        for j in range(k)
    )


def p_integral(law) -> bool:
    """No coefficient of the law has p in its denominator."""
    return all(Fraction(c).denominator % law.ring.p for _, c in law.law.coeffs)


def suite_fgl(cfg: VerifyConfig):
    yield ("mult-2-series", "p=2",
           multiplicative_two_series(build_multiplicative(RationalCoefficients(2), 9)),
           "[2](x) = 2x + x^2")
    for p in (2, 3):
        mult = build_multiplicative(RationalCoefficients(p), p + 2)
        yield "mult-weierstrass", f"p={p}", quotient_rank(mult, [1], 1)
    honda = {}
    for p, n in ((2, 1), (2, 2), (3, 1)):
        law = honda[p, n] = build_honda(p, n, default_truncation(p, n))
        params = f"p={p} n={n}"
        yield ("honda-height", params, has_height(law, n),
               f"[p](x) has first term x^{p ** n} mod p")
        yield "honda-axioms", params, fgl_axioms(law)
        yield "i-series-additivity", params, i_series_additive(law, 4)
    h22 = honda[2, 2]
    rank1, basis = quotient_ring_rank(h22, 1)
    yield ("quotient-rank", "honda(2) p=2 k=1", quotient_rank(h22, [1], 2),
           f"rank {rank1}, basis {basis}")
    yield "quotient-rank-product", "honda(2) p=2 C2xC2", quotient_rank(h22, [1, 1], 2)
    wd2, wd4 = (weierstrass_degree(h22.i_series(q)) for q in (2, 4))
    yield ("weierstrass-tower", "honda(2) p=2",
           quotient_rank(h22, [1], 2) and quotient_rank(h22, [2], 2),
           f"[2] deg {wd2}, [4] deg {wd4}")
    yield "honda-rational-integral", "p=2 n=1", p_integral(build_honda_rational(2, 1, 6))


SUITES = {
    "bijections": suite_bijections,
    "transfers": suite_transfers,
    "powerops": suite_powerops,
    "invariance": suite_invariance,
    "stabilizer": suite_stabilizer,
    "fgl": suite_fgl,
}


def run_suites(names, cfg: VerifyConfig = None):
    cfg = cfg or VerifyConfig()
    if "all" in names:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(
            _result(name, *record, seconds=seconds)
            for record, seconds in _timed(SUITES[name](cfg))
        )
    results.sort(key=lambda r: (r.suite, r.name, r.params))
    return results
