import random
from fractions import Fraction

import pytest

from charpow.errors import NonIntegralCoefficientError, NoUnitCoefficientError
from charpow.fgl import (
    FGL,
    IntegersMod,
    RationalCoefficients,
    TruncatedPoly,
    TruncatedSeries,
    build_honda,
    build_honda_rational,
    build_multiplicative,
    default_truncation,
    honda_logarithm,
    quotient_ring_rank,
    series_reversion,
    weierstrass_degree,
)
from charpow.verify import (
    fgl_axioms,
    has_height,
    i_series_additive,
    multiplicative_two_series,
    p_integral,
    quotient_rank,
)

Q2 = RationalCoefficients(2)


def test_series_arithmetic():
    x = TruncatedSeries.x(Q2, 5)
    sq = x.mul(x)
    assert sq.coeffs == (0, 0, 1, 0, 0, 0)
    assert sq.compose(sq).coeffs == (0, 0, 0, 0, 1, 0)


def test_series_reversion_oracle():
    # f = x + x^2: inverse satisfies f(g(x)) = x; classical expansion
    # g = x - x^2 + 2x^3 - 5x^4 + ...
    f = TruncatedSeries(Q2, (0, 1, 1, 0, 0))
    g = series_reversion(f)
    assert f.compose(g) == TruncatedSeries.x(Q2, 4)
    assert g.coeffs[:4] == (0, 1, -1, 2)


def test_additive_and_multiplicative_i_series():
    add = _law({(1, 0): 1, (0, 1): 1}, 6)  # x + y
    assert add.i_series(2).coeffs == (0, 2, 0, 0, 0, 0, 0)
    mult = build_multiplicative(Q2, 6)
    assert multiplicative_two_series(mult)
    # [3](x) = (1+x)^3 - 1
    assert mult.i_series(3).coeffs == (0, 3, 3, 1, 0, 0, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_multiplicative_weierstrass_degree(p):
    mult = build_multiplicative(RationalCoefficients(p), p + 2)
    assert quotient_rank(mult, [1], 1)
    reduced = build_multiplicative(IntegersMod(p, 1), p + 2)
    assert quotient_rank(reduced, [1], 1)


def test_weierstrass_degree_basics():
    x = TruncatedSeries.x(Q2, 4)
    assert weierstrass_degree(x) == 1
    allzero = TruncatedSeries.zero(IntegersMod(2, 2), 4)
    with pytest.raises(NoUnitCoefficientError):
        weierstrass_degree(allzero)
    with pytest.raises(ValueError):
        weierstrass_degree(TruncatedSeries(Q2, (1, 1, 0, 0, 0)))


def test_honda_log_exp_oracle():
    # independent oracle: [p](x) = exp(p . log(x)) must match the recursive
    # i-series computation, and reduce to x^{p^n} mod p
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        trunc = default_truncation(p, n)
        law = build_honda_rational(p, n, trunc)
        log = honda_logarithm(p, n, trunc)
        exp = series_reversion(log)
        p_log = TruncatedSeries(log.ring, tuple(p * c for c in log.coeffs))
        via_logexp = exp.compose(p_log)
        assert law.i_series(p) == via_logexp
        reduced = law.reduce(IntegersMod(p, 1))
        ps = reduced.i_series(p)
        expected = tuple(
            1 if e == p ** n else 0 for e in range(trunc + 1)
        )
        assert ps.coeffs == expected


def test_honda_axioms_and_associativity():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        law = build_honda(p, n, default_truncation(p, n))
        assert fgl_axioms(law)


def test_honda_rational_associativity_small():
    law = build_honda_rational(2, 1, 6)
    assert law.associativity_residual_is_zero()


def test_i_series_additivity():
    law = build_honda(2, 2, default_truncation(2, 2))
    assert i_series_additive(law, 5)


def test_height_tower():
    law = build_honda(2, 2, default_truncation(2, 2))
    assert quotient_rank(law, [1], 2)
    assert quotient_rank(law, [2], 2)
    assert weierstrass_degree(law.i_series(2)) ** 2 == weierstrass_degree(
        law.i_series(4)
    )


def test_quotient_ring_ranks():
    mult = build_multiplicative(IntegersMod(2, 1), 6)
    rank, basis = quotient_ring_rank(mult, 1)
    assert rank == 2 and basis == ("1", "x")
    law = build_honda(2, 2, default_truncation(2, 2))
    rank, basis = quotient_ring_rank(law, 1)
    assert rank == 4
    assert basis == ("1", "x", "x^2", "x^3")
    assert quotient_rank(law, [1, 1], 2)


def test_quotient_rank_requires_enough_truncation():
    law = build_honda(2, 2, 8)  # too short to see degree 16
    with pytest.raises(NoUnitCoefficientError):
        quotient_ring_rank(law, 2)


def test_reduction_rejects_non_integral():
    ring = IntegersMod(2, 2)
    with pytest.raises(NonIntegralCoefficientError):
        ring.convert(Fraction(1, 2))
    assert ring.convert(Fraction(1, 3)) == 3  # 3 inverts to 3 mod 4


def test_poly_substitution_consistency():
    # F(x, 0) = x for the multiplicative law via the generic substitute
    mult = build_multiplicative(Q2, 5)
    x1 = TruncatedPoly.var(Q2, 1, 5, 0)
    zero = TruncatedPoly.zero(Q2, 1, 5)
    assert mult.law.substitute([x1, zero]) == x1


# every formal-group check of charpow.verify returns False on a known-bad law


def _law(coeffs, trunc=8):
    return FGL(Q2, trunc, TruncatedPoly.make(Q2, 2, trunc, coeffs), "bad")


BAD_INSTANCES = {
    # the additive law x + y has [2](x) = 2x
    "multiplicative_two_series": lambda: multiplicative_two_series(
        _law({(1, 0): 1, (0, 1): 1}, 6)
    ),
    # the multiplicative law has height 1
    "quotient_rank": lambda: quotient_rank(build_multiplicative(Q2, 4), [1], 2),
    "has_height": lambda: has_height(build_multiplicative(IntegersMod(2, 1), 5), 2),
    # x + y + x y^2 is not commutative
    "fgl_axioms": lambda: fgl_axioms(_law({(1, 0): 1, (0, 1): 1, (1, 2): 1})),
    # x + y + x^2 y^2 is commutative but not associative
    "i_series_additive": lambda: i_series_additive(
        _law({(1, 0): 1, (0, 1): 1, (2, 2): 1}), 4
    ),
    "p_integral": lambda: p_integral(
        _law({(1, 0): 1, (0, 1): 1, (1, 1): Fraction(1, 2)})
    ),
}


@pytest.mark.parametrize("check", sorted(BAD_INSTANCES))
def test_check_fails_on_bad_instance(check):
    assert BAD_INSTANCES[check]() is False


# composition through substitute, against the Horner loops it replaced


def _oracle_compose(outer, inner):
    """Oracle: outer(inner(x)) by Horner from the top degree down."""
    ring, d = outer.ring, outer.trunc
    zero = ring.convert(0)
    out = TruncatedSeries.zero(ring, d)
    for c in reversed(outer.coeffs[1:]):
        term = TruncatedSeries(ring, (ring.convert(c),) + (zero,) * d)
        out = out.add(term).mul(inner)
    const = TruncatedSeries(ring, (ring.convert(outer.coeffs[0]),) + (zero,) * d)
    return out.add(const)


def _oracle_honda_law(p, n, trunc):
    """Oracle: F = exp(log x + log y) by Horner in u = log x + log y."""
    ring = RationalCoefficients(p)
    log = honda_logarithm(p, n, trunc)
    exp = series_reversion(log)
    lx = TruncatedPoly.make(ring, 2, trunc, {(e, 0): c for e, c in enumerate(log.coeffs)})
    ly = TruncatedPoly.make(ring, 2, trunc, {(0, e): c for e, c in enumerate(log.coeffs)})
    u = lx.add(ly)
    law = TruncatedPoly.zero(ring, 2, trunc)
    for c in reversed(exp.coeffs[1:]):
        law = law.add(TruncatedPoly.const(ring, 2, trunc, c)).mul(u)
    return law


HONDA_CASES = [(2, 1, default_truncation(2, 1)), (2, 2, default_truncation(2, 2)),
               (3, 1, default_truncation(3, 1)), (2, 1, 6)]


@pytest.mark.parametrize("p, n, trunc", HONDA_CASES)
def test_honda_law_matches_horner_oracle(p, n, trunc):
    rational = build_honda_rational(p, n, trunc)
    law = _oracle_honda_law(p, n, trunc)
    assert rational.law == law
    # same coefficient types too, so JSON and repr are unchanged
    assert [type(c) for _, c in rational.law.coeffs] == [type(c) for _, c in law.coeffs]
    reduced = FGL(rational.ring, trunc, law, rational.name).reduce(IntegersMod(p, 1))
    assert build_honda(p, n, trunc).law == reduced.law


@pytest.mark.parametrize("p, n, trunc", HONDA_CASES)
def test_compose_matches_horner_oracle(p, n, trunc):
    log = honda_logarithm(p, n, trunc)
    exp = series_reversion(log)
    reduced = build_honda(p, n, trunc)
    series = [log, exp, build_honda_rational(p, n, trunc).i_series(2)]
    pairs = [(a, b) for a in series for b in series]
    mod_p = [reduced.i_series(2), reduced.i_series(p), reduced.i_series(3)]
    pairs += [(a, b) for a in mod_p for b in mod_p]
    for outer, inner in pairs:
        got = outer.compose(inner)
        assert got == _oracle_compose(outer, inner)
        assert [type(c) for c in got.coeffs] == [
            type(c) for c in _oracle_compose(outer, inner).coeffs
        ]


# one-pass substitute, compose and reversion, against the per-term code they replaced


def _oracle_substitute(poly, args):
    """Oracle: one product chain per term, added into the sum term by term."""
    ring, trunc, tgt_nvars = poly.ring, poly.trunc, args[0].nvars
    powers = [[TruncatedPoly.const(ring, tgt_nvars, trunc, 1)] for _ in args]
    out = TruncatedPoly.zero(ring, tgt_nvars, trunc)
    for exps, c in poly.coeffs:
        term = TruncatedPoly.const(ring, tgt_nvars, trunc, c)
        for v, e in enumerate(exps):
            while len(powers[v]) <= e:
                powers[v].append(powers[v][-1].mul(args[v]))
            term = term.mul(powers[v][e])
        out = out.add(term)
    return out


def _oracle_substitute_compose(outer, inner):
    return TruncatedSeries.from_poly(_oracle_substitute(outer.to_poly(), [inner.to_poly()]))


def _oracle_series_reversion(s):
    """Oracle: coefficient k of s(g) from a full composition, for each k."""
    ring = s.ring
    inv = TruncatedSeries.x(ring, s.trunc)
    for k in range(2, s.trunc + 1):
        residual = _oracle_substitute_compose(s, inv).coeffs[k]
        if residual != ring.convert(0):
            coeffs = list(inv.coeffs)
            coeffs[k] = coeffs[k] - residual
            inv = TruncatedSeries(ring, tuple(coeffs))
    return inv


def _same(a, b):
    """Equal, with the same coefficient types, so JSON and repr agree too."""
    coeffs = lambda x: [c for _, c in x.coeffs] if isinstance(x, TruncatedPoly) else x.coeffs
    return a == b and [type(c) for c in coeffs(a)] == [type(c) for c in coeffs(b)]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1)])
def test_one_pass_series_code_matches_oracle_on_honda_logs(p, n):
    trunc = default_truncation(p, n)
    ring = RationalCoefficients(p)
    log = honda_logarithm(p, n, trunc)
    exp = series_reversion(log)
    assert _same(exp, _oracle_series_reversion(log))
    assert _same(log.compose(exp), _oracle_substitute_compose(log, exp))
    assert _same(exp.compose(log), _oracle_substitute_compose(exp, log))
    lx = TruncatedPoly.make(ring, 2, trunc, {(e, 0): c for e, c in enumerate(log.coeffs)})
    ly = TruncatedPoly.make(ring, 2, trunc, {(0, e): c for e, c in enumerate(log.coeffs)})
    u = [lx.add(ly)]
    assert _same(exp.to_poly().substitute(u), _oracle_substitute(exp.to_poly(), u))


SERIES_RINGS = [RationalCoefficients(2), RationalCoefficients(3), IntegersMod(2, 3),
                IntegersMod(3, 2)]


def _random_coefficient(rng, ring):
    if isinstance(ring, RationalCoefficients):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-2 * ring.q, 2 * ring.q)  # unreduced, as callers may pass


def _random_poly(rng, ring, nvars, trunc, terms):
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, trunc) for _ in range(nvars))
        coeffs[exps] = _random_coefficient(rng, ring)
    return TruncatedPoly.make(ring, nvars, trunc, coeffs)


def _random_series(rng, ring, trunc, low):
    """Random coefficients from degree `low` up; 0 below it."""
    coeffs = [ring.convert(0)] * low
    coeffs += [ring.convert(_random_coefficient(rng, ring)) for _ in range(low, trunc + 1)]
    return TruncatedSeries(ring, tuple(coeffs))


@pytest.mark.parametrize("seed", range(24))
def test_one_pass_series_code_matches_oracle_on_random_input(seed):
    rng = random.Random(seed)
    ring = SERIES_RINGS[seed % len(SERIES_RINGS)]
    trunc = rng.randint(3, 7)
    nvars, tgt_nvars = rng.randint(1, 3), rng.randint(1, 3)
    poly = _random_poly(rng, ring, nvars, trunc, rng.randint(1, 12))
    args = [_random_poly(rng, ring, tgt_nvars, trunc, rng.randint(0, 6)) for _ in range(nvars)]
    assert _same(poly.substitute(args), _oracle_substitute(poly, args))
    outer, inner = _random_series(rng, ring, trunc, 0), _random_series(rng, ring, trunc, 1)
    assert _same(outer.compose(inner), _oracle_substitute_compose(outer, inner))
    s = _random_series(rng, ring, trunc, 2)
    s = TruncatedSeries(ring, (s.coeffs[0], ring.convert(1)) + s.coeffs[2:])
    assert _same(series_reversion(s), _oracle_series_reversion(s))
