"""Truncated power-series arithmetic and formal group laws.

Coefficients live in one of two ring models: rationals viewed p-locally
(units are the fractions of valuation zero) or integers mod p^N.  All
polynomial arithmetic is exact and truncated at a fixed total degree D.
A power series in one variable is a `TruncatedPoly` with nvars = 1, and
the composition s(t) is `s.substitute([t])`, the one substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIntegralCoefficientError, NoUnitCoefficientError


class RationalCoefficients:
    """Exact rationals with units read p-locally (denominators prime to p)."""

    def __init__(self, p: int):
        self.p = p

    def convert(self, x):
        return x if isinstance(x, Fraction) else Fraction(x)

    def is_unit(self, x) -> bool:
        x = Fraction(x)
        return x != 0 and x.numerator % self.p != 0 and x.denominator % self.p != 0

    def __eq__(self, other):
        return isinstance(other, RationalCoefficients) and other.p == self.p

    def __hash__(self):
        return hash(("Q", self.p))

    def __repr__(self):
        return f"Q(p={self.p})"


class IntegersMod:
    """Z / p^level; level 1 is the prime field."""

    def __init__(self, p: int, level: int):
        self.p = p
        self.level = level
        self.q = p ** level

    def convert(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise NonIntegralCoefficientError(
                    f"{x} has p = {self.p} in its denominator"
                )
            inv = pow(x.denominator % self.q, -1, self.q)
            return (x.numerator * inv) % self.q
        return int(x) % self.q

    def is_unit(self, x) -> bool:
        return int(x) % self.p != 0

    def __eq__(self, other):
        return (
            isinstance(other, IntegersMod)
            and (other.p, other.level) == (self.p, self.level)
        )

    def __hash__(self):
        return hash(("Zmod", self.p, self.level))

    def __repr__(self):
        return f"Z/{self.q}"


@dataclass(frozen=True)
class TruncatedPoly:
    """Multivariate polynomial, exact modulo total degree > trunc."""

    ring: object
    nvars: int
    trunc: int
    coeffs: tuple  # sorted tuple of (exponent tuple, coefficient)

    @staticmethod
    def make(ring, nvars, trunc, coeffs: dict) -> "TruncatedPoly":
        clean = {}
        zero = ring.convert(0)
        for exps, c in coeffs.items():
            if sum(exps) > trunc:
                continue
            c = ring.convert(c)
            if c != zero:
                clean[tuple(exps)] = c
        return TruncatedPoly(ring, nvars, trunc, tuple(sorted(clean.items())))

    @staticmethod
    def zero(ring, nvars, trunc):
        return TruncatedPoly.make(ring, nvars, trunc, {})

    @staticmethod
    def const(ring, nvars, trunc, c):
        return TruncatedPoly.make(ring, nvars, trunc, {(0,) * nvars: c})

    @staticmethod
    def var(ring, nvars, trunc, i):
        exps = tuple(int(j == i) for j in range(nvars))
        return TruncatedPoly.make(ring, nvars, trunc, {exps: 1})

    def as_dict(self):
        return dict(self.coeffs)

    def add(self, other: "TruncatedPoly") -> "TruncatedPoly":
        out = self.as_dict()
        for exps, c in other.coeffs:
            out[exps] = out.get(exps, 0) + c
        return TruncatedPoly.make(self.ring, self.nvars, self.trunc, out)

    def mul(self, other: "TruncatedPoly") -> "TruncatedPoly":
        out = _mul_into({}, self.coeffs, other.coeffs, self.trunc)
        return TruncatedPoly.make(self.ring, self.nvars, self.trunc, out)

    def substitute(self, args) -> "TruncatedPoly":
        """Plug args[i] (all in one ambient poly ring) in for variable i.

        Terms are grouped by their exponent of each variable in turn, so
        F = sum_e args[0]^e F_e(args[1], ...) costs one product per exponent
        e, and everything is summed into one dict that make converts once.
        """
        if len(args) != self.nvars:
            raise ValueError(f"{len(args)} arguments for a series in {self.nvars} variables")
        ring, trunc, tgt_nvars = self.ring, self.trunc, args[0].nvars
        powers = [[TruncatedPoly.const(ring, tgt_nvars, trunc, 1)] for _ in args]
        terms = _plug(self.coeffs, 0, args, powers, trunc)
        return TruncatedPoly.make(ring, tgt_nvars, trunc, terms)


def _plug(terms, v: int, args, powers, trunc: int) -> dict:
    """sum of c . prod_{u >= v} args[u]^exps[u] over terms (exps, c), as a dict.

    powers[u] lists the powers of args[u] built so far, from the 0th; more are
    appended as needed.  Terms of total degree above trunc are dropped.
    """
    if v == len(args):  # the terms share every exponent: one term
        return {(0,) * args[0].nvars: terms[0][1]}
    groups = {}
    for term in terms:
        groups.setdefault(term[0][v], []).append(term)
    out = {}
    for e, group in groups.items():
        while len(powers[v]) <= e:
            powers[v].append(powers[v][-1].mul(args[v]))
        _mul_into(out, powers[v][e].coeffs, _plug(group, v + 1, args, powers, trunc).items(),
                  trunc)
    return out


def _mul_into(out: dict, left, right, trunc: int) -> dict:
    """out += left . right, dropping total degree above trunc; terms are (exps, c) pairs."""
    terms = [(e2, c2, sum(e2)) for e2, c2 in right]
    for e1, c1 in left:
        room = trunc - sum(e1)
        for e2, c2, d2 in terms:
            if d2 > room:
                continue
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


@dataclass(frozen=True)
class FGL:
    """Formal group law F(x, y) over a coefficient ring, truncated at degree D."""

    ring: object
    trunc: int
    law: TruncatedPoly
    name: str

    def plus(self, a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
        return self.law.substitute([a, b])

    def i_series(self, i: int) -> TruncatedPoly:
        cache = self.__dict__.setdefault("_i_cache", {})
        if i not in cache:
            if i == 0:
                cache[i] = TruncatedPoly.zero(self.ring, 1, self.trunc)
            else:
                cache[i] = self.plus(
                    self.i_series(i - 1), TruncatedPoly.var(self.ring, 1, self.trunc, 0)
                )
        return cache[i]

    def reduce(self, new_ring) -> "FGL":
        coeffs = {
            exps: new_ring.convert(c) for exps, c in self.law.coeffs
        }
        law = TruncatedPoly.make(new_ring, 2, self.trunc, coeffs)
        return FGL(new_ring, self.trunc, law, f"{self.name} over {new_ring!r}")

    # --- axiom checks -----------------------------------------------------

    def unit_axiom_holds(self) -> bool:
        x1 = TruncatedPoly.var(self.ring, 1, self.trunc, 0)
        z1 = TruncatedPoly.zero(self.ring, 1, self.trunc)
        return (
            self.law.substitute([x1, z1]) == x1
            and self.law.substitute([z1, x1]) == x1
        )

    def is_commutative(self) -> bool:
        x = TruncatedPoly.var(self.ring, 2, self.trunc, 0)
        y = TruncatedPoly.var(self.ring, 2, self.trunc, 1)
        return self.law.substitute([y, x]) == self.law

    def associativity_residual_is_zero(self) -> bool:
        x = TruncatedPoly.var(self.ring, 3, self.trunc, 0)
        y = TruncatedPoly.var(self.ring, 3, self.trunc, 1)
        z = TruncatedPoly.var(self.ring, 3, self.trunc, 2)
        fxy = self.law.substitute([x, y])
        fyz = self.law.substitute([y, z])
        return self.law.substitute([fxy, z]) == self.law.substitute([x, fyz])


def default_truncation(p: int, n: int) -> int:
    """Smallest degree window covering the p^2-series checks."""
    return p ** (2 * n) + 1


def build_multiplicative(ring, trunc: int) -> FGL:
    law = TruncatedPoly.make(ring, 2, trunc, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    return FGL(ring, trunc, law, "multiplicative")


def honda_logarithm(p: int, n: int, trunc: int) -> TruncatedPoly:
    """log(x) = sum x^{p^{ni}} / p^i, truncated."""
    coeffs = {}
    i = 0
    while p ** (n * i) <= trunc:
        coeffs[(p ** (n * i),)] = Fraction(1, p ** i)
        i += 1
    return TruncatedPoly.make(RationalCoefficients(p), 1, trunc, coeffs)


def series_reversion(s: TruncatedPoly) -> TruncatedPoly:
    """Compositional inverse of a series with s(0) = 0 and unit linear term.

    [x^k] s(g) = g_k + sum_{i >= 2} s_i [x^k] g^i, and [x^k] g^i (i >= 2)
    involves only g_1..g_{k-1}; so one pass over k fills in column k of
    every power g^i, then g_k.  The recursion runs on dense lists of
    coefficients, degrees 0..trunc.
    """
    ring = s.ring
    d = s.trunc
    zero = ring.convert(0)
    coeffs = [dict(s.coeffs).get((e,), zero) for e in range(d + 1)]
    if coeffs[0] != zero or coeffs[1] != ring.convert(1):
        raise ValueError(
            f"s(0) = {coeffs[0]} and linear coefficient {coeffs[1]}: reversion needs 0 and 1"
        )
    inv = [zero, ring.convert(1)] + [zero] * (d - 1)
    powers = [None, inv] + [[zero] * (d + 1) for _ in range(2, d + 1)]  # powers[i][k] = [x^k] g^i
    for k in range(2, d + 1):
        for i in range(2, k + 1):
            prev = powers[i - 1]
            powers[i][k] = ring.convert(sum(inv[j] * prev[k - j] for j in range(1, k - i + 2)))
        residual = ring.convert(sum(coeffs[i] * powers[i][k] for i in range(2, k + 1)))
        if residual != zero:
            inv[k] = inv[k] - residual
    return TruncatedPoly.make(ring, 1, d, {(e,): c for e, c in enumerate(inv)})


def build_honda_rational(p: int, n: int, trunc: int) -> FGL:
    """Height-n Honda law over the p-local rationals: exp(log x + log y).

    Coefficients are verified p-integral; a failure indicates a bug.
    """
    ring = RationalCoefficients(p)
    log = honda_logarithm(p, n, trunc)
    exp = series_reversion(log)
    if log.substitute([exp]) != TruncatedPoly.var(ring, 1, trunc, 0):
        raise NonIntegralCoefficientError("honda exp is not inverse to log")
    x, y = (TruncatedPoly.var(ring, 2, trunc, i) for i in range(2))
    law = exp.substitute([log.substitute([x]).add(log.substitute([y]))])
    for _, c in law.coeffs:
        if Fraction(c).denominator % p == 0:
            raise NonIntegralCoefficientError(
                f"honda({n}) law has non-integral coefficient {c}"
            )
    fgl = FGL(ring, trunc, law, f"honda({n}) at p={p}")
    if not (fgl.unit_axiom_holds() and fgl.is_commutative()):
        raise NonIntegralCoefficientError("honda construction broke the FGL axioms")
    return fgl


def build_honda(p: int, n: int, trunc: int) -> FGL:
    """Honda law reduced to the residue field Z/p."""
    return build_honda_rational(p, n, trunc).reduce(IntegersMod(p, 1))


def weierstrass_degree(g: TruncatedPoly) -> int:
    """Smallest degree carrying a unit coefficient; g must be a series in one
    variable that vanishes at 0."""
    if g.nvars != 1:
        raise ValueError(f"a series has one variable, not {g.nvars}")
    if g.coeffs and g.coeffs[0][0] == (0,):
        raise ValueError("series must vanish at the origin")
    for (d,), c in g.coeffs:
        if g.ring.is_unit(c):
            return d
    raise NoUnitCoefficientError(
        f"no unit coefficient up to degree {g.trunc}; raise the truncation"
    )


def quotient_ring_rank(fgl: FGL, k: int):
    """Rank and monomial basis of R[[x]]/([p^k](x)) for the law's own prime."""
    p = fgl.ring.p
    rank = weierstrass_degree(fgl.i_series(p ** k))
    basis = tuple(
        "1" if e == 0 else ("x" if e == 1 else f"x^{e}") for e in range(rank)
    )
    return rank, basis


def abelian_quotient_rank(fgl: FGL, ks) -> int:
    """Tensor rank for a product of cyclic p-groups C_{p^{k_1}} x ... ."""
    rank = 1
    for k in ks:
        rank *= quotient_ring_rank(fgl, k)[0]
    return rank
