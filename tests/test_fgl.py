import gc
import random
from fractions import Fraction

import pytest

import charpow.fgl as fgl_module
from charpow.errors import NonIntegralCoefficientError, NoUnitCoefficientError
from charpow.fgl import (
    FGL,
    IntegersMod,
    RationalCoefficients,
    TruncatedPoly,
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


def _series(ring, trunc, coeffs):
    """The series sum c x^e over coeffs {e: c}, as a one-variable TruncatedPoly."""
    return TruncatedPoly.make(ring, 1, trunc, {(e,): c for e, c in coeffs.items()})


def test_series_arithmetic():
    x = TruncatedPoly.var(Q2, 1, 5, 0)
    sq = x.mul(x)
    assert sq == _series(Q2, 5, {2: 1})
    assert sq.substitute([sq]) == _series(Q2, 5, {4: 1})


def test_series_reversion_oracle():
    # f = x + x^2: inverse satisfies f(g(x)) = x; classical expansion
    # g = x - x^2 + 2x^3 - 5x^4 + ...
    f = _series(Q2, 4, {1: 1, 2: 1})
    g = series_reversion(f)
    assert f.substitute([g]) == TruncatedPoly.var(Q2, 1, 4, 0)
    assert g == _series(Q2, 4, {1: 1, 2: -1, 3: 2, 4: -5})


@pytest.mark.parametrize("coeffs", [{1: 2, 2: 1}, {0: 1, 1: 1}, {2: 1}])
def test_series_reversion_rejects_a_bad_constant_or_linear_term(coeffs):
    with pytest.raises(ValueError, match="reversion needs 0 and 1"):
        series_reversion(_series(Q2, 4, coeffs))


def test_substitute_rejects_a_wrong_argument_count():
    x = TruncatedPoly.var(Q2, 1, 4, 0)
    with pytest.raises(ValueError, match="2 arguments for a series in 1 variables"):
        x.substitute([x, x])


def test_honda_rational_rejects_an_exp_that_does_not_invert_log(monkeypatch):
    monkeypatch.setattr(fgl_module, "series_reversion", lambda s: s)
    with pytest.raises(NonIntegralCoefficientError, match="not inverse to log"):
        build_honda_rational(2, 1, 4)


def test_additive_and_multiplicative_i_series():
    add = _law({(1, 0): 1, (0, 1): 1}, 6)  # x + y
    assert add.i_series(2) == _series(Q2, 6, {1: 2})
    mult = build_multiplicative(Q2, 6)
    assert multiplicative_two_series(mult)
    # [3](x) = (1+x)^3 - 1
    assert mult.i_series(3) == _series(Q2, 6, {1: 3, 2: 3, 3: 1})


@pytest.mark.parametrize("p", [2, 3])
def test_multiplicative_weierstrass_degree(p):
    mult = build_multiplicative(RationalCoefficients(p), p + 2)
    assert quotient_rank(mult, [1], 1)
    reduced = build_multiplicative(IntegersMod(p, 1), p + 2)
    assert quotient_rank(reduced, [1], 1)


def test_weierstrass_degree_basics():
    x = TruncatedPoly.var(Q2, 1, 4, 0)
    assert weierstrass_degree(x) == 1
    allzero = TruncatedPoly.zero(IntegersMod(2, 2), 1, 4)
    with pytest.raises(NoUnitCoefficientError):
        weierstrass_degree(allzero)
    with pytest.raises(ValueError):
        weierstrass_degree(_series(Q2, 4, {0: 1, 1: 1}))


def test_weierstrass_degree_rejects_two_variables():
    # x vanishes at the origin and has a unit coefficient, but is no series in one variable
    for poly in (TruncatedPoly.var(Q2, 2, 4, 0), build_multiplicative(Q2, 4).law):
        with pytest.raises(ValueError, match="one variable, not 2"):
            weierstrass_degree(poly)


def test_honda_log_exp_oracle():
    # independent oracle: [p](x) = exp(p . log(x)) must match the recursive
    # i-series computation, and reduce to x^{p^n} mod p
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        trunc = default_truncation(p, n)
        law = build_honda_rational(p, n, trunc)
        log = honda_logarithm(p, n, trunc)
        exp = series_reversion(log)
        p_log = TruncatedPoly.make(log.ring, 1, trunc, {e: p * c for e, c in log.coeffs})
        via_logexp = exp.substitute([p_log])
        assert law.i_series(p) == via_logexp
        reduced = law.reduce(IntegersMod(p, 1))
        assert reduced.i_series(p) == _series(IntegersMod(p, 1), trunc, {p ** n: 1})


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
    # its first term 2x sits at degree p^0 = 1 but 2 is no unit mod 4
    "has_height_unit": lambda: has_height(build_multiplicative(IntegersMod(2, 2), 5), 0),
    # [2](x) = x^4 mod 2 is zero through degree 3: no first term to read
    "has_height_truncated": lambda: has_height(build_honda(2, 2, 3), 2),
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


# composition through substitute, against the Horner loops it replaced; the series
# oracles keep their own arithmetic on dense coefficient lists, degrees 0..trunc


def _dense(s):
    """The coefficients of a one-variable series, degrees 0..trunc."""
    zero = s.ring.convert(0)
    return [dict(s.coeffs).get((e,), zero) for e in range(s.trunc + 1)]


def _from_dense(ring, coeffs):
    return _series(ring, len(coeffs) - 1, dict(enumerate(coeffs)))


def _dense_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _dense_mul(ring, a, b):
    """a . b, truncated at the length of a."""
    d = len(a) - 1
    out = [0] * (d + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > d:
                break
            out[i + j] += x * y
    return [ring.convert(c) for c in out]


def _oracle_compose(outer, inner):
    """Oracle: outer(inner(x)) by Horner from the top degree down."""
    ring, f, g = outer.ring, _dense(outer), _dense(inner)
    zeros = [ring.convert(0)] * outer.trunc
    out = [ring.convert(0)] + zeros
    for c in reversed(f[1:]):
        out = _dense_mul(ring, _dense_add(out, [c] + zeros), g)
    return _from_dense(ring, _dense_add(out, [f[0]] + zeros))


def _oracle_honda_law(p, n, trunc):
    """Oracle: F = exp(log x + log y) by Horner in u = log x + log y."""
    ring = RationalCoefficients(p)
    log = honda_logarithm(p, n, trunc)
    exp = series_reversion(log)
    lx = TruncatedPoly.make(ring, 2, trunc, {(e, 0): c for (e,), c in log.coeffs})
    ly = TruncatedPoly.make(ring, 2, trunc, {(0, e): c for (e,), c in log.coeffs})
    u = lx.add(ly)
    law = TruncatedPoly.zero(ring, 2, trunc)
    for c in reversed(_dense(exp)[1:]):
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
        assert _same(outer.substitute([inner]), _oracle_compose(outer, inner))


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


def _dense_compose(ring, f, g):
    """f(g(x)) on dense lists: the term c x^e of f adds c . g^e, by one more product per e."""
    power = [ring.convert(1)] + [ring.convert(0)] * (len(f) - 1)
    out = [ring.convert(0)] * len(f)
    for c in f:
        out = _dense_add(out, [ring.convert(c * a) for a in power])
        power = _dense_mul(ring, power, g)
    return out


def _oracle_substitute_compose(outer, inner):
    return _from_dense(outer.ring, _dense_compose(outer.ring, _dense(outer), _dense(inner)))


def _oracle_series_reversion(s):
    """Oracle: coefficient k of s(g) from a full composition, for each k."""
    ring, f = s.ring, _dense(s)
    inv = _dense(TruncatedPoly.var(ring, 1, s.trunc, 0))
    for k in range(2, s.trunc + 1):
        residual = _dense_compose(ring, f, inv)[k]
        if residual != ring.convert(0):
            inv[k] = inv[k] - residual
    return _from_dense(ring, inv)


def _same(a, b):
    """Equal, with the same coefficient types, so JSON and repr agree too."""
    return a == b and [type(c) for _, c in a.coeffs] == [type(c) for _, c in b.coeffs]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1)])
def test_one_pass_series_code_matches_oracle_on_honda_logs(p, n):
    trunc = default_truncation(p, n)
    ring = RationalCoefficients(p)
    log = honda_logarithm(p, n, trunc)
    exp = series_reversion(log)
    assert _same(exp, _oracle_series_reversion(log))
    assert _same(log.substitute([exp]), _oracle_substitute_compose(log, exp))
    assert _same(exp.substitute([log]), _oracle_substitute_compose(exp, log))
    lx = TruncatedPoly.make(ring, 2, trunc, {(e, 0): c for (e,), c in log.coeffs})
    ly = TruncatedPoly.make(ring, 2, trunc, {(0, e): c for (e,), c in log.coeffs})
    u = [lx.add(ly)]
    assert _same(exp.substitute(u), _oracle_substitute(exp, u))


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
    return _from_dense(ring, coeffs)


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
    assert _same(outer.substitute([inner]), _oracle_substitute_compose(outer, inner))
    # zero below degree 2, so adding x makes the linear coefficient 1
    s = _random_series(rng, ring, trunc, 2).add(TruncatedPoly.var(ring, 1, trunc, 0))
    assert _same(series_reversion(s), _oracle_series_reversion(s))


def test_substitute_leaves_no_cyclic_garbage():
    # the recursion of substitute is a module function: no closure refers to itself
    law = build_honda(2, 2, 17)
    gc.collect()
    gc.disable()
    try:
        law.i_series(4)  # four substitutions, none cached before
        assert gc.collect() == 0
    finally:
        gc.enable()
