"""Generalized class functions at a finite working level, and their operations.

The coefficient ring is modeled at level N as the ring of rational-valued
functions on all n x n matrices over Z/p^N.  An isogeny with matrix A acts
on the right by (c . A)(xi) = c(A xi); a stabilizer element acts through
the other side, (c . s)(xi) = c(xi s), so the two actions commute on the
nose.  Class functions are sparse maps from canonical tuple-class
representatives to such tables; a missing key is the zero element.

The working level must satisfy p^N >= exponent of the p-part of every
group acted on: tuple classes only see a matrix through its residue mod
the exponent, values only through its residue mod p^N, and one level has
to serve both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    LevelMismatchError,
    NotASubgroupError,
    SectionOutOfRangeError,
    TableTooLargeError,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    TupleClass,
    _prime_factors,
    build_group,
    canonical_tuple,
    canonical_tuples,
    delta_embed,
    enumerate_hom_classes,
    fixed_coset_conjugates,
    product_group,
    split_product_class,
    symm_class_to_sum,
    symmetric_group,
    wreath_class_to_decorated,
    wreath_delta_embed,
    wreath_group,
)
from .isogeny import Isogeny, Section, psi_dual
from .lattice import PAdicMatrix, mat_det, mat_transpose
from .rng import SplitMix64
from .torsion import max_subgroup_exponent

TABLE_CAP = 65_536
CLASSFN_CACHE = 256  # entries kept at most by each cache of this module


def _table_size(p, n, level) -> int:
    """Entries of a level-N table, one per matrix in M_n(Z/p^level), within TABLE_CAP."""
    for name, value in (("n", n), ("level", level)):
        if value < 1:
            raise ValueError(f"{name} = {value} must be at least 1")
    size = (p ** level) ** (n * n)
    if size > TABLE_CAP:
        raise TableTooLargeError(
            f"coefficient table at p = {p}, n = {n}, level = {level} would have "
            f"{size} entries > TABLE_CAP = {TABLE_CAP}"
        )
    return size


@lru_cache(maxsize=CLASSFN_CACHE)
def _translation_perm(p, level, n, a_flat, on_left):
    """(perm, bijective): perm[t] = index of A . xi_t (on_left) or xi_t . A mod p^level,
    a read-only intp array, and whether A is invertible mod p, so that perm permutes the table.

    Table index t is the base-q number of the row-major entries of xi_t, so
    all products are formed at once in int64; a product entry is below
    n q^2 <= 2^32 within TABLE_CAP.
    """
    q = p ** level
    size = _table_size(p, n, level)
    weights = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    xi = (np.arange(size, dtype=np.int64)[:, None] // weights % q).reshape(size, n, n)
    a = np.array([x % q for x in a_flat], dtype=np.int64).reshape(n, n)
    prod = (a @ xi if on_left else xi @ a) % q
    perm = prod.reshape(size, n * n).dot(weights).astype(np.intp)
    perm.flags.writeable = False
    return perm, _is_invertible_mod_p(p, n, a_flat)


def _is_invertible_mod_p(p, n, a_flat):
    """Whether A is invertible mod p, so that its translations permute M_n(Z/p^level)."""
    return mat_det([a_flat[i * n:(i + 1) * n] for i in range(n)]) % p != 0


def _flatten(entries):
    return tuple(int(x) for row in entries for x in row)


# Entries of an int64 table are below 2**INT64_BITS in absolute value, so one
# add or sub of two of them cannot overflow.
INT64_BITS = 62


def _dtype(bits):
    """The tier of entries below 2**bits: int64, or Python ints above the bound."""
    return np.int64 if bits <= INT64_BITS else object


def _tier(arr, bits):
    """arr, moved to Python ints if its entries may reach 2**bits beyond the int64 tier."""
    if bits <= INT64_BITS or arr.dtype == object:
        return arr
    return arr.astype(object)


def _from_python(num, den):
    """(numerators, den, bits) of int or Fraction entries, normalized, with the exact bit bound."""
    if den is None:
        kinds = set(map(type, num))
        for kind in kinds:
            if not issubclass(kind, (int, Fraction)):
                raise TypeError(f"table entries must be int or Fraction, got {kind.__name__}")
        den = 1
        if kinds != {int}:  # already normalized: each entry is in lowest terms
            den = math.lcm(*{v.denominator for v in num})
            num = tuple(v.numerator * (den // v.denominator) for v in num)
    elif den < 1:
        raise ValueError(f"den = {den} must be positive")
    g = math.gcd(den, *num)  # also rejects a numerator that is not an integer
    if g != 1:
        den //= g
        num = tuple(x // g for x in num)
    bits = max(max(num), -min(num)).bit_length()
    return np.array(num, dtype=_dtype(bits)), den, bits


def _normalized(arr, den, bits):
    """(arr, den, bits) divided by g = gcd(den, *arr), back in int64 once the bound allows.

    |x / g| < 2**bits / g <= 2**(bits - bitlen(g) + 1).
    """
    if den == 1:
        return arr, den, bits
    g = math.gcd(int(np.gcd.reduce(arr)), den)
    if g == 1:
        return arr, den, bits
    bits = max(bits - g.bit_length() + 1, 0)
    arr = (_tier(arr, g.bit_length()) // g).astype(_dtype(bits), copy=False)
    return arr, den // g, bits


class C0Element:
    """Rational-valued function on M_n(Z/p^level), the level-N coefficient model.

    The table is held as integer numerators over one common denominator
    den > 0, normalized so that gcd(den, *num) == 1; equal tables thus have
    equal (num, den).  The numerators are one read-only numpy array in one
    of two tiers: int64 while a bit bound proves every entry below
    2**INT64_BITS, Python ints (object dtype) otherwise.  Every operation
    carries the bound forward and picks the tier from it; == and hash
    never see the tier.

    C0Element(p, n, level, values) takes int or Fraction entries;
    C0Element(p, n, level, num, den) takes integer numerators over den.
    """

    __slots__ = ("p", "n", "level", "den", "_arr", "_bits", "_hash")

    def __init__(self, p, n, level, values, den=None, *, _bits=None, _reduced=False):
        """The private keywords are for tables made by the operations below: _bits
        marks values as a numerator array of the right size, in its tier, with
        every |entry| < 2**_bits; _reduced marks it as already normalized."""
        if _bits is None:
            size = _table_size(p, n, level)
            values = tuple(values)
            if len(values) != size:
                raise LevelMismatchError(f"table must have {size} entries, got {len(values)}")
            values, den, _bits = _from_python(values, den)
        elif not _reduced:
            values, den, _bits = _normalized(values, den, _bits)
        values.flags.writeable = False
        _set_p(self, p)
        _set_n(self, n)
        _set_level(self, level)
        _set_den(self, den)
        _set_arr(self, values)
        _set_bits(self, _bits)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"C0Element is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return C0Element, (self.p, self.n, self.level, self.num, self.den)

    @property
    def num(self) -> tuple:
        """The numerators, as a tuple of Python ints."""
        return tuple(self._arr.tolist())

    @property
    def values(self) -> tuple:
        """The entries: the numerators when den is 1, Fractions otherwise."""
        if self.den == 1:
            return self.num
        return tuple(Fraction(x, self.den) for x in self._arr.tolist())

    def __eq__(self, other):
        if not isinstance(other, C0Element):
            return NotImplemented
        return (self.p, self.n, self.level, self.den) == (
            other.p, other.n, other.level, other.den
        ) and np.array_equal(self._arr, other._arr)

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash((self.p, self.n, self.level, self.num, self.den)))
        return self._hash

    def __repr__(self):
        return (
            f"C0Element(p={self.p}, n={self.n}, level={self.level}, "
            f"num={self.num}, den={self.den})"
        )

    def _like(self, arr, den, bits, reduced=False):
        return C0Element(self.p, self.n, self.level, arr, den, _bits=bits, _reduced=reduced)

    def _over(self, den):
        """(numerators over den, their bit bound), for den a multiple of self.den."""
        k = den // self.den
        if k == 1:
            return self._arr, self._bits
        bits = self._bits + k.bit_length()
        return _tier(self._arr, bits) * k, bits

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._arr)

    def _combine(self, other, op):
        """op (add or subtract) entrywise over the common denominator."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        (a, a_bits), (b, b_bits) = self._over(den), other._over(den)
        bits = max(a_bits, b_bits) + 1
        return self._like(op(_tier(a, bits), _tier(b, bits)), den, bits)

    def add(self, other: "C0Element") -> "C0Element":
        return self._combine(other, np.add)

    def sub(self, other: "C0Element") -> "C0Element":
        return self._combine(other, np.subtract)

    def mul(self, other: "C0Element") -> "C0Element":
        self._check(other)
        bits = self._bits + other._bits
        return self._like(
            _tier(self._arr, bits) * _tier(other._arr, bits), self.den * other.den, bits
        )

    def scale(self, c) -> "C0Element":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"scale factor must be int or Fraction, got {type(c).__name__}")
        bits = self._bits + abs(c.numerator).bit_length()
        return self._like(_tier(self._arr, bits) * c.numerator, self.den * c.denominator, bits)

    def act_isogeny(self, phi: Isogeny) -> "C0Element":
        """Right action (c . phi)(xi) = c(A_phi xi); a ring homomorphism."""
        return self.act_matrix_left(phi.matrix.entries)

    def act_matrix_left(self, entries) -> "C0Element":
        return self._gather(_flatten(entries), True)

    def act_matrix_right(self, entries) -> "C0Element":
        return self._gather(_flatten(entries), False)

    def _gather(self, a_flat, on_left):
        """The table read through a translation perm; a bijective one keeps den and the gcd."""
        perm, bijective = _translation_perm(self.p, self.level, self.n, a_flat, on_left)
        return self._like(self._arr[perm], self.den, self._bits, reduced=bijective)

    def _check(self, other):
        if (self.p, self.n, self.level) != (other.p, other.n, other.level):
            raise LevelMismatchError("coefficient tables live at different levels")


# The slots' own setters, past the __setattr__ that keeps a C0Element immutable.
_set_p, _set_n, _set_level, _set_den, _set_arr, _set_bits, _set_hash = (
    getattr(C0Element, name).__set__ for name in C0Element.__slots__
)


def c0_constant(p, n, level, c) -> C0Element:
    return C0Element(p, n, level, (c,) * _table_size(p, n, level))


def c0_coordinate(p, n, level) -> C0Element:
    """The function xi -> its enumeration index; a convenient exact generator."""
    return C0Element(p, n, level, tuple(range(_table_size(p, n, level))))


def c0_delta(p, n, level, t: int) -> C0Element:
    """Indicator of table index t."""
    size = _table_size(p, n, level)
    if not 0 <= t < size:
        raise ValueError(f"t = {t} is outside 0..{size - 1} (table size {size})")
    return C0Element(p, n, level, tuple(int(i == t) for i in range(size)))


def c0_random(p, n, level, rng: SplitMix64) -> C0Element:
    """Entries (below(19) - 9) / (1 + below(4)) as integer numerators over 12, the lcm of 1..4.

    Each entry draws its numerator, then its denominator, all 2 * size
    draws at once; |numerator| <= 9 * 12 < 2**7.
    """
    z = rng.next_u64_array(2 * _table_size(p, n, level))
    nums = (z[0::2] % 19).astype(np.int64) - 9
    nums *= np.array([12, 6, 4, 3])[z[1::2] % 4]  # 12 // (1 + below(4))
    return C0Element(p, n, level, nums, 12, _bits=7)


@dataclass(frozen=True)
class StabilizerElement:
    """Invertible n x n matrix mod p^level, reduced, acting by (c . s)(xi) = c(xi s)."""

    p: int
    n: int
    level: int
    entries: tuple

    def __post_init__(self):
        q = self.p ** self.level
        ent = tuple(tuple(int(x) % q for x in row) for row in self.entries)
        if len(ent) != self.n or any(len(row) != self.n for row in ent):
            raise ValueError(f"matrix {ent} is not {self.n} x {self.n}")
        object.__setattr__(self, "entries", ent)
        if not _is_invertible_mod_p(self.p, self.n, _flatten(ent)):
            raise ValueError("matrix is not invertible mod p")


def random_stabilizer(p, n, level, rng: SplitMix64) -> StabilizerElement:
    while True:
        ent = tuple(tuple(rng.below(p ** level) for _ in range(n)) for _ in range(n))
        if _is_invertible_mod_p(p, n, _flatten(ent)):
            return StabilizerElement(p, n, level, ent)


@lru_cache(maxsize=CLASSFN_CACHE)
def _class_positions(group: FiniteGroup, n: int, p: int):
    """Position of each canonical tuple-class representative in the class order."""
    return {c.rep: i for i, c in enumerate(enumerate_hom_classes(group, n, p))}


class ClassFunction:
    """Sparse map from tuple classes of a group to coefficient tables."""

    __slots__ = ("group", "p", "n", "level", "values")

    def __init__(self, group: FiniteGroup, p: int, n: int, level: int, values):
        self.group = group
        self.p = p
        self.n = n
        self.level = level
        keys = _class_positions(group, n, p)
        table = {}
        for rep, val in values.items():
            rep = tuple(int(x) for x in rep)
            if rep not in keys:
                raise ValueError(f"{rep} is not a canonical tuple-class key")
            if (val.p, val.n, val.level) != (p, n, level):
                raise LevelMismatchError("value table level does not match")
            if not val.is_zero():
                table[rep] = val
        self.values = dict(sorted(table.items()))

    def value_at(self, key) -> C0Element:
        if isinstance(key, TupleClass):
            rep = key.rep  # already canonical
        else:
            rep = canonical_tuple(self.group, tuple(key))
        return self.values.get(rep) or c0_constant(self.p, self.n, self.level, 0)

    def _like(self, values) -> "ClassFunction":
        return ClassFunction(self.group, self.p, self.n, self.level, values)

    def add(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        out = dict(self.values)
        for rep, val in other.values.items():
            out[rep] = out[rep].add(val) if rep in out else val
        return self._like(out)

    def mul(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return self._like(
            {
                rep: val.mul(other.values[rep])
                for rep, val in self.values.items()
                if rep in other.values
            }
        )

    def scale(self, c) -> "ClassFunction":
        return self._like({rep: val.scale(c) for rep, val in self.values.items()})

    def pow(self, k: int) -> "ClassFunction":
        out = constant_one(self.group, self.p, self.n, self.level)
        for _ in range(k):
            out = out.mul(self)
        return out

    def _check(self, other):
        if self.group is not other.group:
            raise ValueError("class functions live on different groups")
        if (self.p, self.n, self.level) != (other.p, other.n, other.level):
            raise LevelMismatchError("class functions live at different levels")

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and (self.p, self.n, self.level) == (other.p, other.n, other.level)
            and self.values == other.values
        )

    def __repr__(self):
        return (
            f"ClassFunction({self.group.name}, p={self.p}, n={self.n}, "
            f"level={self.level}, support={len(self.values)})"
        )


def constant_one(group, p, n, level) -> ClassFunction:
    return constant_value(group, p, n, level, c0_constant(p, n, level, 1))


def constant_value(group, p, n, level, c0: C0Element) -> ClassFunction:
    return ClassFunction(group, p, n, level, dict.fromkeys(_class_positions(group, n, p), c0))


def indicator(cls: TupleClass, level: int, c0: C0Element = None) -> ClassFunction:
    """The class function that is c0 (default 1) on cls and zero elsewhere.

    Indicators of the tuple classes span the class functions; the transfer
    ideal is tested on them.
    """
    value = c0 if c0 is not None else c0_constant(cls.p, cls.n, level, 1)
    return ClassFunction(cls.group, cls.p, cls.n, level, {cls.rep: value})


def random_class_function(group, p, n, level, seed: int) -> ClassFunction:
    rng = SplitMix64(seed)
    return ClassFunction(
        group, p, n, level,
        {rep: c0_random(p, n, level, rng) for rep in _class_positions(group, n, p)},
    )


# ---------------------------------------------------------------------------
# automorphism action, averaging, invariance


def _require_level_covers(group: FiniteGroup, p: int, level: int):
    needed = group.exponent_valuation(p)
    if level < needed:
        raise LevelMismatchError(
            f"group {group.name} requires level N >= {needed} at p = {p}; "
            f"got N = {level}"
        )


def _pulled_back(group: FiniteGroup, n: int, p: int, g) -> list:
    """For each class [alpha] in class order, the canonical rep of [alpha g^T]."""
    reps = list(_class_positions(group, n, p))
    return list(map(tuple, canonical_tuples(group, reps, mat_transpose(g)).tolist()))


def act_by_residue(f: ClassFunction, gbar) -> ClassFunction:
    """Right action of an invertible matrix mod p^level on a class function.

    (f . g)([alpha]) = f([alpha g^T]) . g; keys are pulled back through the
    transpose, values move by left translation.
    """
    _require_level_covers(f.group, f.p, f.level)
    g = StabilizerElement(f.p, f.n, f.level, gbar).entries
    out = {}
    for rep, src in zip(_class_positions(f.group, f.n, f.p), _pulled_back(f.group, f.n, f.p, g)):
        if src in f.values:
            out[rep] = f.values[src].act_matrix_left(g)
    return f._like(out)


def aut_act(f: ClassFunction, gamma: PAdicMatrix) -> ClassFunction:
    """(f . gamma)([alpha]) = f([alpha gamma^T]) . gamma, for gamma invertible mod p.

    This is the action of Aut((Q_p/Z_p)^n) = GL_n(Z_p) on class functions;
    the character map of Hopkins-Kuhn-Ravenel lands in its invariants.
    """
    if gamma.p != f.p:
        raise LevelMismatchError("prime mismatch")
    return act_by_residue(f, gamma.entries)


def _gl_generators(p, level, n):
    """Generators of GL_n(Z/p^level), at most n(n - 1) + 3: the transvections
    1 + E_ij (i != j), then diag(u, 1, ..., 1) for u in (r, 1 + p, -1) mod
    p^level, r the least primitive root mod p, dropping u = 1 and repeats.
    Over a local ring the E_ij(t) = E_ij(1)^t generate SL_n; the u generate
    the units, hence GL_n / SL_n: r mod p, 1 + p the kernel 1 + pZ/p^level
    at odd p, and -1 and 3 all of them at p = 2.
    """
    q = p ** level
    orders = [(p - 1) // r for r in set(_prime_factors(p - 1))]
    root = next(r for r in range(1, p) if all(pow(r, k, p) != 1 for k in orders))
    units = dict.fromkeys(u % q for u in (root, 1 + p, -1) if u % q != 1)

    def identity_but(cells):
        return tuple(
            tuple(cells.get((i, j), int(i == j)) for j in range(n)) for i in range(n)
        )

    return [identity_but({ij: 1}) for ij in itertools.permutations(range(n), 2)] + [
        identity_but({(0, 0): u}) for u in units
    ]


@lru_cache(maxsize=CLASSFN_CACHE)
def _orbits(group: FiniteGroup, n: int, p: int, level: int):
    """Orbits of GL_n(Z/p^level) on the pairs (class position c, table index t).

    A pair is numbered c * size + t.  Returns the orbit label of each pair,
    orbits numbered from 0, as a read-only intp array, and the size of each
    orbit.  A generator g permutes the pairs, sending (c, t) to the pair
    that act_by_residue reads: (pos of _pulled_back's [alpha_c g^T], perm_g[t]).

    The labels are a forest of pointers to lesser pairs of the same orbit,
    hooked and jumped as Shiloach and Vishkin do (J. Algorithms 3, 1982).
    Every pair starts as a root of its own.  Each round hooks each root to
    the least root across any generator edge from its tree, in both
    directions, then jumps pointers until every tree is a star; it stops
    when a round changes nothing.  A root is then the least pair of its
    orbit, so each orbit carries its least pair.
    """
    pos = _class_positions(group, n, p)
    size = _table_size(p, n, level)
    moves = []  # per generator: the first pair of each class's image, and the matrix
    for g in _gl_generators(p, level, n):
        start = np.array([pos[src] for src in _pulled_back(group, n, p, g)])[:, None] * size
        moves.append((start, _flatten(g)))
    labels, roots = np.arange(len(pos) * size), None
    while not np.array_equal(labels, roots):  # each round starts from stars
        roots, labels = labels, labels.copy()
        for start, g in moves:  # one pair permutation at a time, from the bounded perm cache
            across = roots[(start + _translation_perm(p, level, n, g, True)[0]).ravel()]
            np.minimum.at(labels, roots, across)  # hook
            np.minimum.at(labels, across, roots)
        while not np.array_equal(labels, jumped := labels[labels]):  # jump
            labels = jumped
    _, labels, counts = np.unique(labels, return_inverse=True, return_counts=True)
    labels = labels.astype(np.intp)
    labels.flags.writeable = False
    return labels, tuple(counts.tolist())


def average(f: ClassFunction) -> ClassFunction:
    """Projection onto invariant class functions, the mean of f . g over GL_n(Z/p^level).

    Computed as a mean over orbits: the value at a pair (class, xi) is the
    mean of f over the GL-orbit of that pair, taken over every class,
    including those where f is zero.  This equals (1/|GL|) sum_g f . g,
    since g -> x . g covers the orbit of x |Stab(x)| times.
    """
    _require_level_covers(f.group, f.p, f.level)
    labels, counts = _orbits(f.group, f.n, f.p, f.level)
    size = _table_size(f.p, f.n, f.level)
    pos = _class_positions(f.group, f.n, f.p)
    den = math.lcm(*(val.den for val in f.values.values()))
    over = [(pos[rep] * size, *val._over(den)) for rep, val in f.values.items()]
    # orbit k sums at most counts[k] numerators
    bits = max((b for _, _, b in over), default=0) + max(counts).bit_length()
    sums = np.zeros(len(counts), dtype=_dtype(bits))
    for start, x, _ in over:
        np.add.at(sums, labels[start:start + size], x)
    # the mean over orbit k is sums[k] / (counts[k] * den) = means[k] / (whole * den)
    whole = math.lcm(*counts)
    bits += whole.bit_length()
    means = _tier(sums, bits) * np.array([whole // c for c in counts], dtype=_dtype(bits))
    bits = max(int(means.max()), -int(means.min())).bit_length()  # exact, and often far lower
    means = means.astype(_dtype(bits), copy=False)
    return f._like({
        rep: C0Element(
            f.p, f.n, f.level, means[labels[c * size:(c + 1) * size]], whole * den, _bits=bits
        )
        for rep, c in pos.items()
    })


def is_invariant(f: ClassFunction) -> bool:
    """f . g == f for every g in GL_n(Z/p^level), checked on its generators.

    This suffices because act_by_residue is a right action: (f . g) . h = f . (gh).
    """
    _require_level_covers(f.group, f.p, f.level)
    return all(act_by_residue(f, g) == f for g in _gl_generators(f.p, f.level, f.n))


def stabilizer_act(f: ClassFunction, s: StabilizerElement) -> ClassFunction:
    if (s.p, s.n, s.level) != (f.p, f.n, f.level):
        raise LevelMismatchError("stabilizer element level does not match")
    return f._like({rep: val.act_matrix_right(s.entries) for rep, val in f.values.items()})


# ---------------------------------------------------------------------------
# restriction, products, transfers


def restrict(f: ClassFunction, hom: Homomorphism) -> ClassFunction:
    """Pullback along a homomorphism: (hom^* f)([alpha]) = f([hom . alpha])."""
    if hom.target is not f.group:
        raise ValueError("homomorphism target does not match the class function")
    reps = list(_class_positions(hom.source, f.n, f.p))
    # the image of a commuting p-power tuple under a homomorphism is one
    srcs = canonical_tuples(f.group, [[hom(i) for i in rep] for rep in reps]).tolist()
    out = {}
    for rep, src in zip(reps, map(tuple, srcs)):
        if src in f.values:
            out[rep] = f.values[src]
    return ClassFunction(hom.source, f.p, f.n, f.level, out)


def external_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """Class function on the product group with value f([a]) g([b]) at ([a], [b])."""
    if (f.p, f.n, f.level) != (g.p, g.n, g.level):
        raise LevelMismatchError("external product needs matching levels")
    target = product_group(f.group, g.group)
    out = {}
    for cls in enumerate_hom_classes(target, f.n, f.p):
        a, b = split_product_class(cls)
        if a.rep in f.values and b.rep in g.values:
            out[cls.rep] = f.values[a.rep].mul(g.values[b.rep])
    return ClassFunction(target, f.p, f.n, f.level, out)


def transfer_counts(iota: Homomorphism, alpha: TupleClass):
    """Multiplicity of each source class among conjugates landing in the image.

    Counts cosets g . im(iota) fixed by every entry of alpha, keyed by the
    source class of the conjugated tuple.
    """
    if not iota.is_injective():
        raise NotASubgroupError("transfer needs an injective homomorphism")
    inside = {img: src for src, img in enumerate(iota.mapping)}
    # a conjugate of alpha inside the image pulls back to a commuting p-power tuple
    pulled = [
        [inside[x] for x in conj]
        for _, conj in fixed_coset_conjugates(iota.target, set(inside), alpha.rep)
    ]
    counts = {}
    for src_rep in map(tuple, canonical_tuples(iota.source, pulled).tolist()):
        counts[src_rep] = counts.get(src_rep, 0) + 1
    return counts


def transfer(f: ClassFunction, iota: Homomorphism) -> ClassFunction:
    """Transfer along an injective homomorphism, by summing over fixed cosets."""
    if iota.source is not f.group:
        raise ValueError("class function does not live on the transfer source")
    big = iota.target
    out = {}
    for cls in enumerate_hom_classes(big, f.n, f.p):
        counts = transfer_counts(iota, cls).items()
        terms = [f.values[src].scale(k) for src, k in counts if src in f.values]
        if terms:
            out[cls.rep] = reduce(C0Element.add, terms)
    return ClassFunction(big, f.p, f.n, f.level, out)


# ---------------------------------------------------------------------------
# power operations


def _symmetric_target(group: FiniteGroup, m: int) -> FiniteGroup:
    return product_group(group, symmetric_group(m))


def _symmetric_summands(cls: TupleClass):
    alpha, tau = split_product_class(cls)
    return tuple((h, alpha) for h in symm_class_to_sum(tau).summands)


def _wreath_summands(cls: TupleClass):
    return wreath_class_to_decorated(cls).summands


def _transpose_dual(phi: Isogeny):
    return mat_transpose(phi.matrix.entries)


@lru_cache(maxsize=CLASSFN_CACHE)
def _summand_structure(target: FiniteGroup, n: int, p: int, summands):
    """(rep, ((H, alpha), ...)) for each class of the target: the sum bijection,
    which depends on the class alone."""
    return tuple(
        (cls.rep, summands(cls)) for cls in enumerate_hom_classes(target, n, p)
    )


def _section_plan(section: Section, target: FiniteGroup, summands, dual):
    """(factors, classes): each distinct summand (H, alpha) of the target's classes
    once, as (source key, phi_H), and (rep, (factor index, ...)) for each class.

    The source key is the rep of [alpha . dual(phi_H)], and all of them come
    from one canonical_tuples call.  A plan depends on the section's
    assignment but not on f or the level, so it is built once and kept on
    the section itself; Section == ignores the assignment, so sections are
    never matched by equality.
    """
    key = (target, summands, dual)
    if key not in section._plans:
        index = {}
        classes = tuple(
            (rep, tuple(index.setdefault(term, len(index)) for term in terms))
            for rep, terms in _summand_structure(target, section.n, section.p, summands)
        )
        phis = [section.isogeny_for(h) for h, _ in index]
        group = next((alpha.group for _, alpha in index), None)  # the source of f
        srcs = canonical_tuples(
            group, [alpha.rep for _, alpha in index], [dual(phi) for phi in phis]
        ).tolist()
        section._plans[key] = (tuple(zip(map(tuple, srcs), phis)), classes)
    return section._plans[key]


def _power_product(f, m, section, make_target, summands, dual) -> ClassFunction:
    """At each class of the target: prod over (H, alpha) of f([alpha . dual(phi_H)]) . phi_H.

    Checks the section bound before the target group is built, then the level.
    """
    if (section.p, section.n) != (f.p, f.n):
        raise LevelMismatchError("section parameters do not match")
    need = max_subgroup_exponent(f.p, m)
    if need > section.bound:
        raise SectionOutOfRangeError(
            f"power operation with m={m} needs section bound >= {need}"
        )
    target = make_target(f.group, m)
    _require_level_covers(target, f.p, f.level)
    factors, classes = _section_plan(section, target, summands, dual)
    moved = [None] * len(factors)

    def term(i):
        """f([alpha . dual(phi_H)]) . phi_H of factor i, gathered once per call."""
        if moved[i] is None:
            src, phi = factors[i]
            moved[i] = f.values[src].act_isogeny(phi)
        return moved[i]

    out = {}
    for rep, terms in classes:
        if not terms:  # the empty product, at m = 0
            out[rep] = c0_constant(f.p, f.n, f.level, 1)
        elif all(factors[i][0] in f.values for i in terms):  # else the product vanishes
            out[rep] = reduce(C0Element.mul, map(term, terms))
    return ClassFunction(target, f.p, f.n, f.level, out)


def power_op(f: ClassFunction, m: int, section: Section) -> ClassFunction:
    """P_m for the given section: ([alpha], +H_i) -> prod_i f([alpha phi_{H_i}^*]) . phi_{H_i}."""
    return _power_product(
        f, m, section, _symmetric_target, _symmetric_summands, _transpose_dual
    )


def total_power_op(f: ClassFunction, m: int, section: Section) -> ClassFunction:
    """The wreath-product refinement of power_op, using the psi-dual per summand."""
    return _power_product(f, m, section, wreath_group, _wreath_summands, psi_dual)


# ---------------------------------------------------------------------------
# transfer ideal


class TransferIdeal:
    """Q-span of integer vectors over the tuple classes, kept as its support.

    The transfer of the indicator of a class (A, B) of a two-block subgroup
    lands on the one class of the (decorated) sum A + B, so each generator
    has exactly one nonzero entry and the span is the coordinate subspace on
    the keys where some generator is nonzero.  Any other generator raises
    ValueError.
    """

    def __init__(self, group: FiniteGroup, p: int, n: int, level: int, generators):
        self.group = group
        self.p = p
        self.n = n
        self.level = level
        self.keys = tuple(_class_positions(group, n, p))
        self.generators = tuple(generators)  # integer vectors over self.keys
        support = set()
        for gen in self.generators:
            hits = [rep for rep, x in zip(self.keys, gen, strict=True) if x]
            if len(hits) != 1:
                raise ValueError(f"generator has {len(hits)} nonzero entries, not one")
            support.add(hits[0])
        self.support = frozenset(support)

    @property
    def rank(self) -> int:
        return len(self.support)

    def quotient_dim(self) -> int:
        return len(self.keys) - self.rank

    def contains_vector(self, vec) -> bool:
        """Membership of a rational vector over the keys: zero at every key off the support."""
        vec = list(vec)
        if len(vec) != len(self.keys):
            raise ValueError(
                f"vector has {len(vec)} entries, the ideal has {len(self.keys)} keys"
            )
        return not any(x for rep, x in zip(self.keys, vec) if rep not in self.support)

    def contains(self, f: ClassFunction) -> bool:
        """Membership for a C0-valued function: f vanishes at every key off the support.

        It carries the statement that an indicator lies in the transfer
        ideal exactly when its class's sum of subgroups has more than one
        summand.  f.values holds no zero table, so its keys are where f
        is nonzero.
        """
        if f.group is not self.group:
            raise ValueError("class function does not live on the ideal's group")
        if (f.p, f.n, f.level) != (self.p, self.n, self.level):
            raise LevelMismatchError("class function parameters do not match the ideal")
        return self.support.issuperset(f.values)


def transfer_ideal(p: int, n: int, level: int, m: int, g: FiniteGroup = None):
    """Span of all transfer images from the two-block subgroups at total size m.

    With g None this is the ideal in Cl_n(S_m); otherwise the wreath version
    in Cl_n(G wr S_m).
    """
    if m < 2:
        raise ValueError("transfer ideal needs m >= 2")
    if g is None or (g.structure and g.structure == ("symmetric", 1)):
        target = symmetric_group(m)
        embeds = [delta_embed(i, m - i) for i in range(1, m)]
    else:
        target = wreath_group(g, m)
        embeds = [wreath_delta_embed(g, i, m - i) for i in range(1, m)]
    keypos = _class_positions(target, n, p)
    gens = []
    for iota in embeds:
        columns = {rep: [0] * len(keypos) for rep in _class_positions(iota.source, n, p)}
        for cls in enumerate_hom_classes(target, n, p):
            for src_rep, count in transfer_counts(iota, cls).items():
                columns[src_rep][keypos[cls.rep]] += count
        gens.extend(tuple(col) for col in columns.values())
    return TransferIdeal(target, p, n, level, gens)


# ---------------------------------------------------------------------------
# serialization


def _fraction_strings(val: C0Element) -> list:
    """Each entry as "num/den" in lowest terms, with one gcd pass over the table."""
    arr = _tier(val._arr, max(val._bits, val.den.bit_length()))
    g = np.gcd(arr, val.den)
    return [f"{x}/{d}" for x, d in zip((arr // g).tolist(), (val.den // g).tolist())]


def json_classes(f: ClassFunction):
    """The entries of f's "classes" list, one per present class in sorted rep order, lazily."""
    return (
        {"rep": list(rep), "value": _fraction_strings(val)}
        for rep, val in sorted(f.values.items())
    )


def to_json_dict(f: ClassFunction) -> dict:
    return {
        "p": f.p,
        "n": f.n,
        "level": f.level,
        "group": f.group.name,
        "classes": list(json_classes(f)),
    }


def _parse_table(p, n, level, rep, strings) -> C0Element:
    """The table of "num/den" strings as integer numerators over their lcm.

    A malformed entry or a zero denominator raises a ValueError naming the
    class rep and the entry index.
    """
    nums, dens = [], []
    for i, s in enumerate(strings):
        try:
            num, den = map(int, s.split("/"))
        except (AttributeError, ValueError):
            raise ValueError(f"class {list(rep)}: value entry {i} = {s!r} is not num/den") from None
        if den == 0:
            raise ValueError(f"class {list(rep)}: value entry {i} = {s!r} has denominator 0")
        nums.append(num)
        dens.append(den)
    den = math.lcm(*dens)
    return C0Element(p, n, level, [x * (den // d) for x, d in zip(nums, dens)], den)


def _json_field(value, kind, where):
    """value, or a ValueError naming the field where unless it is of kind (dict, list or str)."""
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{where} must be {expected}, not {type(value).__name__}")
    return value


def _json_int(value, where):
    """value if it is an int (not a bool, float or digit string), else a ValueError naming where."""
    if type(value) is not int:
        raise ValueError(f"{where} = {value!r} is not an integer")
    return value


def from_json_dict(data: dict) -> ClassFunction:
    _json_field(data, dict, "class function JSON")
    group = build_group(_json_field(data["group"], str, "group"))
    p, n, level = (_json_int(data[key], key) for key in ("p", "n", "level"))
    values = {}
    for i, entry in enumerate(_json_field(data["classes"], list, "classes")):
        where = f"classes[{i}]"
        _json_field(entry, dict, where)
        rep = _json_field(entry["rep"], list, f"{where}.rep")
        rep = tuple(_json_int(x, f"{where}.rep") for x in rep)
        strings = _json_field(entry["value"], list, f"{where}.value")
        values[rep] = _parse_table(p, n, level, rep, strings)
    return ClassFunction(group, p, n, level, values)
