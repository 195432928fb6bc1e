import hashlib
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from charpow import classfn as classfn_module
from charpow.classfn import (
    CLASSFN_CACHE,
    INT64_BITS,
    TABLE_CAP,
    C0Element,
    ClassFunction,
    StabilizerElement,
    TransferIdeal,
    act_by_residue,
    aut_act,
    average,
    _gl_generators,
    _is_invertible_mod_p,
    _table_size,
    _translation_perm,
    c0_constant,
    c0_coordinate,
    c0_delta,
    c0_random,
    constant_one,
    constant_value,
    from_json_dict,
    indicator,
    is_invariant,
    power_op,
    random_class_function,
    random_stabilizer,
    restrict,
    stabilizer_act,
    to_json_dict,
    total_power_op,
    transfer,
    transfer_ideal,
)
from charpow.errors import (
    LevelMismatchError,
    SectionOutOfRangeError,
    TableTooLargeError,
)
from charpow.groups import (
    DecoratedSum,
    Homomorphism,
    Subgroup,
    TupleClass,
    build_group,
    delta_embed,
    enumerate_hom_classes,
    product_group,
    split_product_class,
    symm_class_to_sum,
    symmetric_group,
    identity_hom,
    wreath_class_to_decorated,
    wreath_delta_embed,
    wreath_group,
)
from charpow.isogeny import Section, canonical_section, psi_dual, random_section
from charpow.lattice import PAdicMatrix, mat_det, mat_transpose
from charpow.rng import SplitMix64
from charpow.torsion import SumOfSubgroups, enumerate_subgroups
from charpow.verify import (
    diagonal_compatible,
    ideal_contains_multi_summand,
    ideal_excludes_transitive,
    ideal_quotient_dim_matches,
    invariance_preserved,
    mth_power,
    multiplicative,
    naturality,
    p1_is_identity,
    p_of_one_is_one,
    restriction_identity,
    section_independent,
    stabilizer_commutes,
    transfer_of_one_is_regular,
    transfer_restriction_identity,
)

from test_groups import precompose

P, N, LEVEL = 2, 2, 2


@pytest.fixture(scope="module")
def s3():
    return build_group("S3")


@pytest.fixture(scope="module")
def section():
    return canonical_section(P, N, 2)


@lru_cache(maxsize=None)
def matrix_space(p: int, level: int, n: int):
    """Oracle: all n x n matrices mod p^level, flattened row-major, lexicographic."""
    _table_size(p, n, level)
    mats = tuple(itertools.product(range(p ** level), repeat=n * n))
    return mats, {m: i for i, m in enumerate(mats)}


def general_linear_residues(p, level, n):
    """Oracle: every invertible n x n matrix mod p^level, by a scan of M_n(Z/p^level)."""
    mats = matrix_space(p, level, n)[0]
    rows = (tuple(flat[i * n:(i + 1) * n] for i in range(n)) for flat in mats)
    return tuple(mat for mat in rows if mat_det(mat) % p != 0)


def test_matrix_space_size():
    mats, index = matrix_space(2, 2, 2)
    assert len(mats) == 256
    assert index[mats[17]] == 17


def test_gl_size():
    assert len(general_linear_residues(2, 2, 2)) == 96
    assert general_linear_residues(2, 2, 1) == (((1,),), ((3,),))
    assert len(general_linear_residues(3, 1, 1)) == 2


@pytest.mark.parametrize(
    "p, level, n",
    [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1),
     (2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 3, 2),
     (2, 4, 1), (3, 3, 1), (5, 2, 1), (7, 1, 2), (3, 2, 2)],
)
def test_gl_generators_generate(p, level, n):
    # closure of the generators under multiplication, from the identity; at
    # (2, 1, 1) the set is empty and GL is trivial
    q = p ** level

    def times(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(n)) % q for j in range(n))
            for i in range(n)
        )

    gens = _gl_generators(p, level, n)
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    closure, frontier = {eye}, [eye]
    while frontier:
        frontier = [times(x, g) for x in frontier for g in gens]
        frontier = [y for y in dict.fromkeys(frontier) if y not in closure]
        closure.update(frontier)
    assert closure == set(general_linear_residues(p, level, n))


@pytest.mark.parametrize("p, level, n", [(2, 14, 1), (65521, 1, 1), (3, 9, 2)])
def test_gl_generators_are_bounded_in_p_and_level(p, level, n):
    # the units mod p^level need at most three generators, so no table is built here
    assert len(_gl_generators(p, level, n)) <= n * (n - 1) + 3


# The transvections 1 + E_ij at n = 2 and 3, flattened row-major
_T2 = [(1, 1, 0, 1), (1, 0, 1, 1)]
_T3 = [
    (1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 1, 0, 1, 0, 0, 0, 1), (1, 0, 0, 1, 1, 0, 0, 0, 1),
    (1, 0, 0, 0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 0, 1, 0, 1), (1, 0, 0, 0, 1, 0, 0, 1, 1),
]
# The generating set as it was, with diag(u, 1, ..., 1) for every unit u != 1, at
# each (p, level) where the bounded set is the same list; verify-invariance runs at
# p = 2, level 2
FORMER_GL_GENERATORS = {
    (2, 1, 1): [],
    (2, 1, 2): _T2,
    (2, 1, 3): _T3,
    (2, 2, 1): [(3,)],
    (2, 2, 2): _T2 + [(3, 0, 0, 1)],
    (2, 2, 3): _T3 + [(3, 0, 0, 0, 1, 0, 0, 0, 1)],
    (3, 1, 1): [(2,)],
    (3, 1, 2): _T2 + [(2, 0, 0, 1)],
    (3, 1, 3): _T3 + [(2, 0, 0, 0, 1, 0, 0, 0, 1)],
}


@pytest.mark.parametrize("p, level, n", sorted(FORMER_GL_GENERATORS))
def test_gl_generators_keep_the_former_small_lists(p, level, n):
    flat = [tuple(x for row in g for x in row) for g in _gl_generators(p, level, n)]
    assert flat == FORMER_GL_GENERATORS[p, level, n]


def test_matrices_of_the_wrong_shape_are_refused():
    # each of these was once accepted; the two actions returned the zero function
    f = random_class_function(build_group("C2"), 2, 2, 2, seed=1)
    assert len(f.values) == 4
    with pytest.raises(ValueError, match="is not 2 x 2"):
        act_by_residue(f, ((1, 1),))
    with pytest.raises(ValueError, match="is not 2 x 2"):
        aut_act(f, PAdicMatrix(2, ((1,),)))
    with pytest.raises(ValueError, match="is not 2 x 2"):
        StabilizerElement(2, 2, 2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_c0_ring_ops():
    one = c0_constant(2, 1, 2, 1)
    coord = c0_coordinate(2, 1, 2)
    assert coord.values == (0, 1, 2, 3)
    assert one.mul(coord) == coord
    assert coord.add(coord) == coord.scale(2)
    assert coord.sub(coord).is_zero()


def test_c0_isogeny_action_is_ring_hom():
    from charpow.isogeny import Isogeny

    phi = Isogeny(PAdicMatrix(2, ((2,),)))
    a = c0_coordinate(2, 1, 2)
    b = c0_delta(2, 1, 2, 1)
    assert a.mul(b).act_isogeny(phi) == a.act_isogeny(phi).mul(b.act_isogeny(phi))
    assert c0_constant(2, 1, 2, 1).act_isogeny(phi) == c0_constant(2, 1, 2, 1)
    # (c . [2])(xi) = c(2 xi mod 4)
    assert a.act_isogeny(phi).values == (0, 2, 0, 2)


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_c0_rejects_inexact_entries(bad):
    with pytest.raises(TypeError):
        C0Element(2, 1, 1, (0, bad))


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_scale_rejects_a_float_or_a_string(s3, bad):
    kind = type(bad).__name__
    with pytest.raises(TypeError, match=f"scale factor must be int or Fraction, got {kind}"):
        c0_coordinate(2, 1, 1).scale(bad)
    with pytest.raises(TypeError, match=kind):
        constant_one(s3, P, N, LEVEL).scale(bad)


def random_fraction(rng: SplitMix64):
    """Oracle of c0_random's entry: numerator in [-9, 9], then denominator in {1, 2, 3, 4}."""
    num = rng.below(19) - 9
    den = 1 + rng.below(4)
    return Fraction(num, den)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
@pytest.mark.parametrize("p, n, level", [(2, 2, 2), (2, 2, 4), (3, 2, 2), (2, 1, 3)])
def test_c0_random_matches_fraction_oracle(p, n, level, seed):
    rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
    c = c0_random(p, n, level, rng)
    size = (p ** level) ** (n * n)
    oracle = C0Element(p, n, level, tuple(random_fraction(oracle_rng) for _ in range(size)))
    assert c == oracle and hash(c) == hash(oracle)
    assert rng.state == oracle_rng.state


def test_splitmix64_reference_outputs():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(2)] == [0x599ED017FB08FC85, 0x2C73F08458540FA5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [0, 1, 2, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_splitmix64_array_draw_matches_scalar_stream(seed, count):
    rng, oracle = SplitMix64(seed), SplitMix64(seed)
    rng.next_u64(), oracle.next_u64()  # from a state that is not the seed
    z = rng.next_u64_array(count)
    assert z.dtype == np.uint64
    assert z.tolist() == [oracle.next_u64() for _ in range(count)]
    assert rng.state == oracle.state
    assert rng.next_u64() == oracle.next_u64()


# SHA-256 of the canonical JSON (sorted keys, fixed separators, newline) of
# random_class_function(group, p=2, n=2, level, seed=0), recorded while
# seeded tables were drawn one Fraction per entry
SEEDED_JSON_DIGESTS = {
    ("S3", 2): "7dedd84c67cb51e720ef21ec844c621a474696a4f8694840ec0b0e786f072c70",
    ("C2", 3): "18d3025891faa36f23f47ad3921196da825613863ad55e4051b0ff2882f23d43",
}


@pytest.mark.parametrize("spec, level", sorted(SEEDED_JSON_DIGESTS))
def test_seeded_class_function_json_is_pinned(spec, level):
    f = random_class_function(build_group(spec), 2, 2, level, 0)
    text = json.dumps(to_json_dict(f), sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_JSON_DIGESTS[spec, level]


def test_c0_int_table_equals_fraction_table(s3):
    ints = C0Element(2, 1, 2, (0, 1, 2, 3))
    fracs = C0Element(2, 1, 2, tuple(Fraction(k) for k in range(4)))
    assert ints == fracs
    blobs = {
        json.dumps(to_json_dict(constant_value(s3, 2, 1, 2, c)), sort_keys=True)
        for c in (ints, fracs)
    }
    assert len(blobs) == 1
    assert '"value": ["0/1", "1/1", "2/1", "3/1"]' in blobs.pop()


def test_table_cap_checked_before_allocation():
    with pytest.raises(TableTooLargeError, match="134217728 entries > TABLE_CAP = 65536"):
        matrix_space(2, 3, 3)
    with pytest.raises(TableTooLargeError):
        general_linear_residues(2, 3, 3)
    with pytest.raises(TableTooLargeError):
        c0_constant(2, 3, 3, 0)


def test_c0_constant_rejects_rank_0():
    with pytest.raises(ValueError, match="^n = 0 must be at least 1$"):
        c0_constant(2, 0, 2, 1)


def test_constant_one_rejects_rank_0():
    with pytest.raises(ValueError, match="^n = 0 must be at least 1$"):
        constant_one(build_group("S1"), 2, 0, 2)


def test_constant_one_rejects_level_0():
    with pytest.raises(ValueError, match="^level = 0 must be at least 1$"):
        constant_one(build_group("S1"), 2, 2, 0)


@pytest.mark.parametrize("a", [((1, 2), (3, 1)), ((2, 0), (1, 2)), ((5, 7), (6, 3))])
def test_translation_perms_match_matrix_products(a):
    # Oracle: direct 2x2 matrix products mod 4 over all of M_2(Z/4).
    def times(x, y):
        return tuple(
            sum(x[i][k] * y[k][j] for k in range(2)) % 4 for i in range(2) for j in range(2)
        )

    mats, _ = matrix_space(2, 2, 2)
    flat = tuple(x for row in a for x in row)
    left, _ = _translation_perm(2, 2, 2, flat, True)
    right, _ = _translation_perm(2, 2, 2, flat, False)
    for t, m in enumerate(mats):
        xi = (m[:2], m[2:])
        assert mats[left[t]] == times(a, xi)
        assert mats[right[t]] == times(xi, a)


def test_c0_left_right_actions_commute():
    a = c0_coordinate(2, 2, 2)
    left = ((1, 2), (3, 1))
    right = ((1, 1), (2, 3))
    assert (
        a.act_matrix_left(left).act_matrix_right(right)
        == a.act_matrix_right(right).act_matrix_left(left)
    )


# ---------------------------------------------------------------------------
# the (num, den) table against the Fraction-tuple table it replaced


def _loop_translation_perm(p, level, n, a_flat, on_left):
    """Oracle: one matrix product per table index, looked up in matrix_space."""
    q = p ** level
    mats, index = matrix_space(p, level, n)
    a = [[x % q for x in a_flat[i * n:(i + 1) * n]] for i in range(n)]
    perm = []
    for flat in mats:
        xi = [flat[i * n:(i + 1) * n] for i in range(n)]
        x, y = (a, xi) if on_left else (xi, a)
        prod = tuple(
            sum(x[i][k] * y[k][j] for k in range(n)) % q
            for i in range(n)
            for j in range(n)
        )
        perm.append(index[prod])
    return tuple(perm)


class FractionTable:
    """Oracle: the table as a tuple of Fractions, with the same operations."""

    def __init__(self, values):
        self.values = tuple(Fraction(v) for v in values)

    def add(self, other):
        return FractionTable(a + b for a, b in zip(self.values, other.values))

    def sub(self, other):
        return FractionTable(a - b for a, b in zip(self.values, other.values))

    def mul(self, other):
        return FractionTable(a * b for a, b in zip(self.values, other.values))

    def scale(self, c):
        return FractionTable(Fraction(c) * v for v in self.values)

    def gather(self, perm):
        return FractionTable(self.values[t] for t in perm)

    def is_zero(self):
        return all(v == 0 for v in self.values)


def _assert_matches(c, oracle):
    assert c.den > 0 and math.gcd(c.den, *c.num) == 1
    assert all(type(x) is int for x in c.num)
    assert c.values == oracle.values
    assert c.is_zero() == oracle.is_zero()
    rebuilt = C0Element(c.p, c.n, c.level, oracle.values)
    assert rebuilt == c and hash(rebuilt) == hash(c)
    assert (rebuilt.num, rebuilt.den) == (c.num, c.den)


def _rows(flat, n):
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _seeded_tables(p, n, level, seed):
    rng = SplitMix64(seed)
    size = (p ** level) ** (n * n)
    return [
        c0_random(p, n, level, rng),
        c0_random(p, n, level, rng),
        c0_constant(p, n, level, 0),
        c0_constant(p, n, level, Fraction(1, 2)),
        c0_constant(p, n, level, 2),
        C0Element(p, n, level, tuple(Fraction(-(t % 5), 1 + t % 3) for t in range(size))),
        c0_coordinate(p, n, level).scale(-3),
    ]


@pytest.mark.parametrize("p, n, level", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_c0_ops_match_fraction_oracle(p, n, level):
    tables = _seeded_tables(p, n, level, seed=100 * p + 10 * n + level)
    for c in tables:
        _assert_matches(c, FractionTable(c.values))
    rng = SplitMix64(7)
    a_flat = tuple(rng.below(p ** level) for _ in range(n * n))
    s_flat = tuple(rng.below(p ** level) for _ in range(n * n))
    for a, b in itertools.product(tables, repeat=2):
        fa, fb = FractionTable(a.values), FractionTable(b.values)
        _assert_matches(a.add(b), fa.add(fb))
        _assert_matches(a.sub(b), fa.sub(fb))
        _assert_matches(a.mul(b), fa.mul(fb))
        assert (a == b) == (fa.values == fb.values)
    for c in tables:
        fc = FractionTable(c.values)
        for k in (0, 1, -1, 2, Fraction(-3, 4), Fraction(6, 1)):
            _assert_matches(c.scale(k), fc.scale(k))
        left = _loop_translation_perm(p, level, n, a_flat, on_left=True)
        right = _loop_translation_perm(p, level, n, s_flat, on_left=False)
        _assert_matches(c.act_matrix_left(_rows(a_flat, n)), fc.gather(left))
        _assert_matches(c.act_matrix_right(_rows(s_flat, n)), fc.gather(right))


def test_c0_denominators_cancel_to_one():
    half = c0_constant(2, 1, 2, Fraction(1, 2))
    two = c0_constant(2, 1, 2, 2)
    assert half.den == 2 and half.num == (1, 1, 1, 1)
    product = half.mul(two)
    assert (product.num, product.den) == ((1, 1, 1, 1), 1)
    assert product == c0_constant(2, 1, 2, 1) and product.values == (1, 1, 1, 1)
    thirds = C0Element(2, 1, 2, (Fraction(1, 3), Fraction(2, 3), 0, Fraction(-1, 3)))
    assert thirds.add(thirds).add(thirds).den == 1
    assert thirds.scale(3).num == (1, 2, 0, -1)
    assert thirds.sub(thirds) == c0_constant(2, 1, 2, 0)
    assert thirds.sub(thirds).den == 1
    assert thirds.scale(0).den == 1


def test_c0_zero_and_negative_tables():
    zero = c0_constant(2, 1, 1, 0)
    assert (zero.num, zero.den) == ((0, 0), 1) and zero.is_zero()
    assert C0Element(2, 1, 1, (Fraction(0, 7), 0)) == zero
    neg = C0Element(2, 1, 1, (Fraction(-2, 4), -3))
    assert (neg.num, neg.den) == ((-1, -6), 2)
    assert neg.values == (Fraction(-1, 2), -3)
    assert not neg.is_zero()
    assert C0Element(2, 1, 1, (-2, -12), 4) == neg  # numerators over a den are normalized
    with pytest.raises(ValueError, match="den = 0 must be positive"):
        C0Element(2, 1, 1, (1, 2), 0)
    with pytest.raises(TypeError):
        C0Element(2, 1, 1, (1, 0.5), 2)


def test_c0_table_hashes_like_fraction_table():
    ints = C0Element(2, 1, 2, (0, 2, 4, 6))
    fracs = C0Element(2, 1, 2, (Fraction(0), Fraction(4, 2), Fraction(8, 2), Fraction(6)))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert len({ints, fracs, C0Element(2, 1, 2, (0, 2, 4, 6), 1)}) == 1
    assert ints != C0Element(2, 1, 2, (0, 2, 4, 6), 3)


# ---------------------------------------------------------------------------
# the two tiers of numerators: int64 under the bit bound, Python ints above it


def _tier_tables():
    """Tables at p = 2, n = 1, level = 2 with entries near 2^31, 2^62 and above 2^63."""
    return [
        C0Element(2, 1, 2, (2 ** 31 - 1, -(2 ** 31), 2 ** 31 + 5, 7)),
        C0Element(2, 1, 2, (2 ** 62 - 1, -(2 ** 62 - 1), 3, Fraction(2 ** 62 - 1, 3))),
        C0Element(2, 1, 2, (2 ** 63 + 1, -(2 ** 63) - 5, 1, Fraction(2 ** 64 + 1, 3))),
        C0Element(2, 1, 2, (Fraction(2 ** 40, 7), -5, 0, Fraction(1, 2 ** 63))),
        C0Element(2, 1, 2, (Fraction(1, 2 ** 64), Fraction(-3, 2 ** 64), 0, Fraction(1, 2 ** 63))),
        c0_constant(2, 1, 2, 0),
    ]


def test_c0_tiers_follow_the_bit_bound():
    near31, near62, above63, big_nums, big_den, _ = _tier_tables()
    assert near31._arr.dtype == np.int64 and near62._arr.dtype == np.int64
    assert above63._arr.dtype == object and big_nums._arr.dtype == object
    assert big_den._arr.dtype == np.int64 and big_den.den == 2 ** 64
    assert INT64_BITS == 62
    # a product and a sum of int64 tables whose bound passes 62 bits go to Python ints
    assert near31.mul(near31)._arr.dtype == object
    assert near31.mul(near31).values == tuple(x * x for x in near31.values)
    assert near62.add(near62)._arr.dtype == object
    assert near62.add(near62).values[0] == 2 ** 63 - 2
    assert near62.sub(near62.scale(-1)).values[1] == -(2 ** 63) + 2
    assert near62.scale(4).values[0] == 2 ** 64 - 4
    # and a table whose bound drops back under 62 bits by normalization returns to int64
    down = above63.scale(Fraction(1, 2 ** 70)).scale(2 ** 70)
    assert down == above63
    assert c0_constant(2, 1, 2, 2 ** 70).scale(Fraction(1, 2 ** 70))._arr.dtype == np.int64


@pytest.mark.parametrize("gather", [False, True])
def test_c0_tiers_match_fraction_oracle(gather):
    tables = _tier_tables()
    for c in tables:
        _assert_matches(c, FractionTable(c.values))
    for a, b in itertools.product(tables, repeat=2):
        fa, fb = FractionTable(a.values), FractionTable(b.values)
        for c, fc in ((a.add(b), fa.add(fb)), (a.sub(b), fa.sub(fb)), (a.mul(b), fa.mul(fb))):
            _assert_matches(c, fc)
            if gather:  # a singular left translation, then a bijective right one
                left = _loop_translation_perm(2, 2, 1, (2,), on_left=True)
                right = _loop_translation_perm(2, 2, 1, (3,), on_left=False)
                _assert_matches(c.act_matrix_left(((2,),)), fc.gather(left))
                _assert_matches(c.act_matrix_right(((3,),)), fc.gather(right))
        for k in (0, -1, 2 ** 40, Fraction(-3, 2 ** 62)):
            _assert_matches(a.scale(k), fa.scale(k))


def test_c0_equal_tables_in_both_tiers_are_equal_and_hash_alike():
    small = (5, -3, 0, Fraction(1, 2))
    as_int64 = C0Element(2, 1, 2, small)
    big = c0_constant(2, 1, 2, 2 ** 70)
    as_object = C0Element(2, 1, 2, tuple(big.values[0] + v for v in small)).sub(big)
    assert as_int64._arr.dtype == np.int64 and as_object._arr.dtype == object
    assert as_object == as_int64 and hash(as_object) == hash(as_int64)
    assert len({as_object, as_int64, C0Element(2, 1, 2, map(Fraction, small))}) == 1
    assert as_object.num == as_int64.num == (10, -6, 0, 1)
    assert all(type(x) is int for x in as_object.num)
    assert as_object != as_int64.scale(2)


@pytest.mark.parametrize("p, n, level", [(2, 1, 3), (2, 2, 2), (3, 2, 1)])
def test_translation_is_bijective_exactly_when_invertible_mod_p(p, n, level):
    size = (p ** level) ** (n * n)
    rng = SplitMix64(31 * p + n + level)
    for _ in range(40):
        flat = tuple(rng.below(p ** level) for _ in range(n * n))
        for on_left in (True, False):
            perm, flag = _translation_perm(p, level, n, flat, on_left)
            assert not perm.flags.writeable
            bijective = len(set(perm.tolist())) == size
            assert flag == _is_invertible_mod_p(p, n, flat) == bijective


def test_translation_perm_cache_stays_within_its_bound():
    # each seeded section brings isogenies of its own, so an unbounded cache
    # kept every perm of the 150 sections, 585 of them, for the process's life
    f = random_class_function(build_group("C2"), 2, 2, 3, seed=1)
    misses = _translation_perm.cache_info().misses
    for seed in range(150):
        power_op(f, 2, random_section(2, 2, 1, seed))
    info = _translation_perm.cache_info()
    assert info.misses - misses > CLASSFN_CACHE
    assert info.maxsize == CLASSFN_CACHE and info.currsize <= CLASSFN_CACHE


def _levels_within_cap(p, n):
    level = 1
    while (p ** level) ** (n * n) <= TABLE_CAP:
        yield level
        level += 1


@pytest.mark.parametrize(
    "p, n, level",
    [(p, n, level) for p in (2, 3) for n in (1, 2, 3) for level in _levels_within_cap(p, n)],
)
def test_translation_perms_match_loop(p, n, level):
    rng = SplitMix64(1000 * p + 100 * n + level)
    q = p ** level
    flat = tuple(rng.below(q) for _ in range(n * n))
    flats = [flat, tuple(x + q * rng.below(5) - 2 * q for x in flat)]  # and an unreduced lift
    for a_flat in flats:
        for on_left in (True, False):
            perm, _ = _translation_perm(p, level, n, a_flat, on_left)
            assert tuple(perm.tolist()) == _loop_translation_perm(p, level, n, a_flat, on_left)


def test_class_function_rejects_bad_keys(s3):
    with pytest.raises(ValueError):
        ClassFunction(s3, P, N, LEVEL, {(5, 5): c0_constant(P, N, LEVEL, 1)})


def test_class_function_zero_normalization(s3):
    f = ClassFunction(
        s3, P, N, LEVEL,
        {enumerate_hom_classes(s3, N, P)[0].rep: c0_constant(P, N, LEVEL, 0)},
    )
    assert f == ClassFunction(s3, P, N, LEVEL, {})


def test_aut_act_identity_and_one(s3):
    f = random_class_function(s3, P, N, LEVEL, seed=1)
    eye = PAdicMatrix(2, ((1, 0), (0, 1)))
    assert aut_act(f, eye) == f
    one = constant_one(s3, P, N, LEVEL)
    gam = PAdicMatrix(2, ((1, 1), (0, 1)))
    assert aut_act(one, gam) == one


def test_aut_act_right_action_law(s3):
    f = random_class_function(s3, P, N, LEVEL, seed=2)
    g1 = PAdicMatrix(2, ((1, 1), (0, 1)))
    g2 = PAdicMatrix(2, ((0, 1), (1, 0)))
    assert aut_act(aut_act(f, g1), g2) == aut_act(f, g1.mul(g2))


def test_aut_act_rejects_non_unit(s3):
    f = random_class_function(s3, P, N, LEVEL, seed=3)
    with pytest.raises(ValueError):
        aut_act(f, PAdicMatrix(2, ((2, 0), (0, 1))))


def test_level_rule_enforced():
    # wr(C2,4) has 2-exponent 8: level 2 must be rejected for the aut action
    w = build_group("wr(C2,4)")
    f = constant_one(w, P, N, LEVEL)
    with pytest.raises(LevelMismatchError):
        act_by_residue(f, ((1, 0), (0, 1)))


@pytest.mark.parametrize("op", [average, is_invariant], ids=["average", "is_invariant"])
@pytest.mark.parametrize("spec, n, level", [("wr(C2,4)", N, LEVEL), ("C4", 1, 1)])
def test_level_rule_enforced_without_scan(op, spec, n, level):
    # C4 at n = 1, level 1: GL_1(Z/2) is trivial and has no generators to apply
    f = constant_one(build_group(spec), P, n, level)
    with pytest.raises(LevelMismatchError):
        op(f)


def test_average_projects_onto_invariants(s3):
    f = random_class_function(s3, P, N, LEVEL, seed=4)
    fav = average(f)
    assert is_invariant(fav)
    assert average(fav) == fav
    # full-orbit oracle: averaging the orbit sum directly
    gl = general_linear_residues(P, LEVEL, N)
    total = None
    for gbar in gl:
        moved = act_by_residue(f, gbar)
        total = moved if total is None else total.add(moved)
    assert total.scale(Fraction(1, len(gl))) == fav


def _mean_over(f, mats):
    total = None
    for gbar in mats:
        moved = act_by_residue(f, gbar)
        total = moved if total is None else total.add(moved)
    return total.scale(Fraction(1, len(mats)))


def _invariant_by_full_loop(f):
    return all(
        act_by_residue(f, gbar) == f
        for gbar in general_linear_residues(f.p, f.level, f.n)
    )


# S3 at p = 2 is test_average_projects_onto_invariants
@pytest.mark.parametrize("spec, p, n, level", [("S1", 2, 2, 2), ("C2", 2, 2, 2), ("C3", 3, 1, 2)])
def test_average_matches_full_group_mean(spec, p, n, level):
    f = random_class_function(build_group(spec), p, n, level, seed=4)
    rep, val = list(f.values.items())[-1]
    # f itself, f on one class only, whose orbit meets classes where it is zero,
    # and f with entries above the int64 tier
    for h in (f, ClassFunction(f.group, p, n, level, {rep: val}), f.scale(2 ** 70 + 1)):
        hav = average(h)
        assert is_invariant(hav)
        assert average(hav) == hav
        assert _mean_over(h, general_linear_residues(p, level, n)) == hav


def _orbits_by_union_find(group, n, p, level):
    """Oracle of _orbits: union-find over the pairs, one generator edge at a time.

    Orbits are numbered by their least pair, as np.unique numbers them.
    """
    classes = enumerate_hom_classes(group, n, p)
    pos = {c.rep: i for i, c in enumerate(classes)}
    size = (p ** level) ** (n * n)
    parent = list(range(len(classes) * size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in _gl_generators(p, level, n):
        perm, _ = _translation_perm(p, level, n, tuple(x for row in g for x in row), True)
        perm = perm.tolist()
        tr = mat_transpose(g)
        for c, cls in enumerate(classes):
            start, image = c * size, pos[precompose(cls, tr).rep] * size
            for t in range(size):
                a, b = find(start + t), find(image + perm[t])
                if a != b:  # the least pair stays the root
                    parent[max(a, b)] = min(a, b)
    _, labels, counts = np.unique(
        [find(x) for x in range(len(parent))], return_inverse=True, return_counts=True
    )
    return labels, tuple(counts.tolist())


def _orbit_cases():
    """(spec, p, n, level) for S1, C2, C4 and S3 at p = 2: at n = 2 every level
    within TABLE_CAP, at n = 1 the levels up to 10, where 2 of the 511 units
    other than 1 generate GL_1.  Then odd primes: the units mod 65521, one
    cycle of 65520 under the primitive root, and C3 at p = 3."""
    out = []
    for spec, n in itertools.product(("S1", "C2", "C4", "S3"), (1, 2)):
        low = 2 if spec == "C4" else 1
        out += [
            pytest.param(spec, 2, n, level, id=f"{spec}-{n}-{level}")
            for level in range(low, (10 if n == 1 else 4) + 1)
        ]
    odd = [("S1", 65521, 1, 1), ("C3", 3, 2, 1), ("C3", 3, 2, 2), ("S3", 3, 1, 3)]
    return out + [pytest.param(*case, id="{}-p{}-{}-{}".format(*case)) for case in odd]


@pytest.mark.parametrize("spec, p, n, level", _orbit_cases())
def test_orbits_match_union_find(spec, p, n, level, monkeypatch):
    group = build_group(spec)
    labels, counts = classfn_module._orbits(group, n, p, level)
    oracle_labels, oracle_counts = _orbits_by_union_find(group, n, p, level)
    # orbits numbered by their least pair on both sides: the same partition
    assert labels.tolist() == oracle_labels.tolist()
    assert counts == oracle_counts
    f = random_class_function(group, p, n, level, seed=level)
    fav = average(f)
    monkeypatch.setattr(classfn_module, "_orbits", lambda *key: (oracle_labels, oracle_counts))
    assert average(f) == fav


@pytest.mark.parametrize("spec", ["S1", "C2", "S3"])
def test_is_invariant_matches_full_loop(spec):
    f = random_class_function(build_group(spec), P, N, LEVEL, seed=6)
    # the mean over det = 1 mod 4 is invariant under the transvections only;
    # it is caught by the diag(3, 1) generator
    sl = [g for g in general_linear_residues(P, LEVEL, N) if mat_det(g) % 4 == 1]
    assert len(sl) == 48
    bad = _mean_over(f, sl)
    assert all(act_by_residue(bad, g) == bad for g in _gl_generators(P, LEVEL, N)[:2])
    for h, expected in [(average(f), True), (f, False), (bad, False)]:
        assert is_invariant(h) is _invariant_by_full_loop(h) is expected


def test_transfer_whole_group_is_identity(s3):
    whole = Subgroup(s3, tuple(range(s3.order)))
    f = random_class_function(s3, P, N, LEVEL, seed=5)
    assert transfer_restriction_identity(f, whole)


def test_transfer_constant_one_counts_fixed_cosets():
    s2 = build_group("S2")
    assert transfer_of_one_is_regular(Subgroup(s2, (s2.identity,)), P, 1, LEVEL)


def test_transfer_indicator_supported_on_one_class():
    # Tr of an indicator is concentrated on the matching class of the big group
    s4 = build_group("S4")
    sub = Subgroup(
        s4,
        tuple(
            sorted(
                {s4.identity, s4.index[(1, 0, 2, 3)], s4.index[(0, 1, 3, 2)],
                 s4.index[(1, 0, 3, 2)]}
            )
        ),
    )
    k = sub.as_group()
    beta = enumerate_hom_classes(k, N, P)[3]
    tr = transfer(indicator(beta, LEVEL), sub.inclusion())
    iota = sub.inclusion()
    image_class = TupleClass(s4, tuple(iota(i) for i in beta.rep), P)
    support = set(tr.values)
    assert support == {image_class.rep}
    vals = set(tr.value_at(image_class).values)
    assert len(vals) == 1 and vals.pop() > 0


def test_transfer_ideal_m2_n1():
    ideal = transfer_ideal(P, 1, LEVEL, 2)
    assert ideal.quotient_dim() == 1
    # quotient supported on the transposition class only
    assert ideal_contains_multi_summand(ideal)
    assert ideal_excludes_transitive(ideal)


def test_wreath_transfer_ideal_quotient_matches_single_summands():
    # the quotient by the wreath transfer ideal keeps one coordinate per
    # single-summand decorated sum
    from charpow.groups import wreath_class_to_decorated, wreath_group

    cases = [("S2", 2, 1), ("S2", 2, 2), ("C2", 4, 1)]
    for spec, m, n in cases:
        g = build_group(spec)
        ideal = transfer_ideal(2, n, 2, m, g)
        w = wreath_group(g, m)
        singles = [
            c
            for c in enumerate_hom_classes(w, n, 2)
            if len(wreath_class_to_decorated(c).summands) == 1
        ]
        assert ideal.quotient_dim() == len(singles)


@pytest.mark.parametrize(
    "p, n, m, spec",
    [(2, 2, 4, None), (2, 2, 3, None), (3, 1, 3, None), (2, 1, 3, "C2"), (2, 1, 4, "C2"),
     (2, 2, 2, "S3")],
)
def test_transfer_generator_lands_on_the_concatenated_sum(p, n, m, spec):
    # Tr of the indicator of (A, B) is supported on the one class whose
    # (decorated) sum is A + B, which is why the ideal is kept as its support
    g = spec and build_group(spec)
    if g is None:
        embeds = [delta_embed(i, m - i) for i in range(1, m)]
        to_sum, join = symm_class_to_sum, SumOfSubgroups
    else:
        embeds = [wreath_delta_embed(g, i, m - i) for i in range(1, m)]
        to_sum, join = wreath_class_to_decorated, DecoratedSum
    ideal = transfer_ideal(p, n, 2, m, g)
    key_of = {to_sum(c): c.rep for c in enumerate_hom_classes(ideal.group, n, p)}
    sources = [c for iota in embeds for c in enumerate_hom_classes(iota.source, n, p)]
    assert len(sources) == len(ideal.generators)
    for cls, gen in zip(sources, ideal.generators):
        a, b = (to_sum(half) for half in split_product_class(cls))
        key = key_of[join(a.summands + b.summands)]
        assert [rep for rep, x in zip(ideal.keys, gen) if x] == [key]


@pytest.mark.parametrize(
    "gen, message",
    [([0, 0, 0, 0], "has 0 nonzero"), ([1, 0, 2, 0], "has 2 nonzero"),
     ([1, 0, 0], "shorter"), ([1, 0, 0, 0, 0], "longer")],
)
def test_transfer_ideal_rejects_a_generator_without_one_nonzero_entry(gen, message):
    ideal = transfer_ideal(2, 1, 2, 4)
    assert len(ideal.keys) == 4
    with pytest.raises(ValueError, match=message):
        TransferIdeal(ideal.group, 2, 1, 2, ideal.generators + (gen,))


def test_transfer_ideal_contains_constant_multiples():
    ideal = transfer_ideal(P, N, LEVEL, 2)
    sym = symmetric_group(2)
    multi = next(
        c
        for c in enumerate_hom_classes(sym, N, P)
        if len(symm_class_to_sum(c).summands) > 1
    )
    f = indicator(multi, LEVEL, c0_coordinate(P, N, LEVEL))
    assert ideal.contains(f)


def _contains_by_column(ideal, f):
    # oracle: one membership test per table index t, reading f's tables directly
    size = len(matrix_space(f.p, f.level, f.n)[0])
    return all(
        ideal.contains_vector(
            [f.values[rep].values[t] if rep in f.values else 0 for rep in ideal.keys]
        )
        for t in range(size)
    )


def test_transfer_ideal_contains_matches_column_oracle():
    ideal = transfer_ideal(P, N, LEVEL, 4)
    classes = enumerate_hom_classes(ideal.group, N, P)
    assert len(classes) == 17
    verdicts = set()
    for cls in classes:
        for value in (None, c0_coordinate(P, N, LEVEL)):
            f = indicator(cls, LEVEL, value)
            verdict = ideal.contains(f)
            assert verdict is _contains_by_column(ideal, f)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_transfer_ideal_contains_level_3():
    ideal = transfer_ideal(P, N, 3, 4)
    multi = next(
        c for c in enumerate_hom_classes(ideal.group, N, P)
        if len(symm_class_to_sum(c).summands) > 1
    )
    f = indicator(multi, 3, c0_coordinate(P, N, 3))
    assert len(f.value_at(multi).values) == 4096
    assert ideal.contains(f) and _contains_by_column(ideal, f)


@pytest.mark.parametrize("vec", [[1, 0, 0, 0, 5], [0], []])
def test_transfer_ideal_rejects_a_vector_of_the_wrong_length(vec):
    ideal = transfer_ideal(2, 1, 2, 4)
    assert len(ideal.keys) == 4
    message = rf"^vector has {len(vec)} entries, the ideal has 4 keys$"
    with pytest.raises(ValueError, match=message):
        ideal.contains_vector(vec)


@pytest.mark.parametrize("spec", ["S5", "S3"])
def test_transfer_ideal_rejects_a_function_on_another_group(spec):
    ideal = transfer_ideal(2, 1, 2, 4)
    f = random_class_function(build_group(spec), 2, 1, 2, seed=3)
    with pytest.raises(ValueError, match="ideal's group"):
        ideal.contains(f)


@pytest.mark.parametrize("p, n, level", [(2, 2, 2), (2, 1, 3)])
def test_transfer_ideal_rejects_a_function_at_other_parameters(p, n, level):
    ideal = transfer_ideal(2, 1, 2, 4)
    f = random_class_function(ideal.group, p, n, level, seed=3)
    with pytest.raises(LevelMismatchError):
        ideal.contains(f)


# ---------------------------------------------------------------------------
# power operations: golden hand expansions


def test_power_op_golden_n1_coord_generator():
    # p=2, n=1, m=2, G trivial, level 2, f = coordinate generator.
    # Keys of S1 x S2 match classes of S2: identity pair and transposition.
    # Hand expansion of the defining formula:
    #   trivial sum (two trivial summands, phi = id): value = coord^2
    #   order-2 subgroup (phi = [2]): value = coord(2 xi) = (0, 2, 0, 2)
    g = build_group("S1")
    sec = canonical_section(2, 1, 1)
    f = constant_value(g, 2, 1, LEVEL, c0_coordinate(2, 1, LEVEL))
    out = power_op(f, 2, sec)
    target = out.group
    s2 = symmetric_group(2)
    e_rep = tuple(
        target.index[(g.elements[g.identity], s2.elements[s2.identity])]
        for _ in range(1)
    )
    t_rep = tuple(
        target.index[(g.elements[g.identity], s2.elements[s2.index[(1, 0)]])]
        for _ in range(1)
    )
    assert out.value_at(e_rep).values == (0, 1, 4, 9)
    assert out.value_at(t_rep).values == (0, 2, 0, 2)


def test_total_power_op_golden_s2_wreath():
    # G = S2, m = 2, p = 2, n = 1: full value table against the formula,
    # expanded by hand over the five classes of S2 wr S2.
    g = build_group("S2")
    sec = canonical_section(2, 1, 1)
    f = random_class_function(g, 2, 1, LEVEL, seed=8)
    out = total_power_op(f, 2, sec)
    w = out.group
    fe, ft = f.value_at((0,)), f.value_at((1,))
    two = PAdicMatrix(2, ((2,),))
    for cls in enumerate_hom_classes(w, 1, 2):
        d = wreath_class_to_decorated(cls)
        if len(d.summands) == 2:
            expected = Fraction(1)
            vals = [f.value_at(a.rep) for _, a in d.summands]
            expected = vals[0].mul(vals[1])
        else:
            (h, alpha), = d.summands
            # psi-dual of the canonical [2] is the identity: pulled class = alpha
            base = fe if alpha.rep == (0,) else ft
            expected = base.act_matrix_left(two.entries)
        assert out.value_at(cls) == expected


# ---------------------------------------------------------------------------
# power operations: the per-call formula as an oracle for the cached plans


def _power_product_per_call(f, m, section, total):
    """P_m(f), or the total power operation, with the sum bijection, the
    pulled-back class and phi_H found afresh at every class of the target."""
    if total:
        target = wreath_group(f.group, m)
    else:
        target = product_group(f.group, symmetric_group(m))
    out = {}
    for cls in enumerate_hom_classes(target, f.n, f.p):
        if total:
            summands = wreath_class_to_decorated(cls).summands
        else:
            alpha, tau = split_product_class(cls)
            summands = [(h, alpha) for h in symm_class_to_sum(tau).summands]
        val = c0_constant(f.p, f.n, f.level, 1)
        for h, alpha in summands:
            phi = section.isogeny_for(h)
            dual = psi_dual(phi) if total else mat_transpose(phi.matrix.entries)
            val = val.mul(f.value_at(precompose(alpha, dual)).act_isogeny(phi))
        out[cls.rep] = val
    return ClassFunction(target, f.p, f.n, f.level, out)


def _plan_cases(n):
    """(group, m, total, level): levels 2 then 3, so one section's plans
    meet both."""
    cases = [
        (spec, m, total, level) for level, spec, m, total
        in itertools.product((2, 3), ("S1", "C2", "S3"), (1, 2, 3), (False, True))
    ]
    if n == 1:
        return cases + [("C2", 4, False, 3), ("C2", 4, True, 3)]
    # 4096-entry tables at n = 2, level 3: keep the small targets there
    return [c for c in cases if c[3] == 2 or (c[0], c[1]) == ("C2", 2)]


@pytest.mark.parametrize("spec", ["canonical", 5, 6])
@pytest.mark.parametrize("n", [1, 2])
def test_power_ops_match_per_call_oracle(n, spec):
    if spec == "canonical":
        section = canonical_section(P, n, 2)
    else:
        section = random_section(P, n, 2, spec)
    for seed, (group, m, total, level) in enumerate(_plan_cases(n)):
        f = random_class_function(build_group(group), P, n, level, seed)
        # a function vanishing at one class takes the early exit
        sparse = ClassFunction(f.group, P, n, level, dict(list(f.values.items())[1:]))
        op = total_power_op if total else power_op
        for g in (f, sparse):
            assert op(g, m, section) == _power_product_per_call(g, m, section, total), (
                group, m, total, level
            )


def test_total_power_op_gathers_each_factor_once(monkeypatch):
    """C2 wr S3 at n = 2 has 68 classes and 156 summands, over 16 distinct
    factors f([alpha . dual(phi_H)]) . phi_H."""
    calls = []
    act = C0Element.act_isogeny
    monkeypatch.setattr(C0Element, "act_isogeny", lambda c, phi: calls.append(phi) or act(c, phi))
    f = random_class_function(build_group("C2"), P, 2, 2, seed=3)
    out = total_power_op(f, 3, canonical_section(P, 2, 1))
    assert len(out.values) == 68
    assert len(calls) <= 16


def test_plan_is_not_shared_by_equal_sections(s3):
    # Section == ignores the assignment: a plan looked up by equality would
    # hand this impostor the canonical section's plan
    canonical = canonical_section(P, N, 2)
    impostor = Section(P, N, 2, "canonical", random_section(P, N, 2, 1).assignment)
    assert impostor == canonical and impostor.assignment != canonical.assignment
    f = random_class_function(s3, P, N, LEVEL, seed=17)
    for op, total in ((power_op, False), (total_power_op, True)):
        first = op(f, 2, canonical)
        second = op(f, 2, impostor)
        assert second == _power_product_per_call(f, 2, impostor, total)
        assert second != first


def test_power_op_one_and_multiplicativity(s3, section):
    one = constant_one(s3, P, N, LEVEL)
    for m in (1, 2, 3):
        assert p_of_one_is_one(one, m, section)
    f = random_class_function(s3, P, N, LEVEL, seed=9)
    g = random_class_function(s3, P, N, LEVEL, seed=10)
    for m in (2, 3):
        assert multiplicative(f, g, m, power_op(f, m, section), section)


@pytest.mark.parametrize(
    "op, target", [(power_op, "(C2xS0)"), (total_power_op, "wr(C2,0)")]
)
def test_power_ops_at_m0_are_constant_one(section, op, target):
    f = random_class_function(build_group("C2"), P, N, LEVEL, seed=14)
    p0 = op(f, 0, section)
    assert p0.group.name == target
    assert p0 == constant_one(p0.group, P, N, LEVEL)


def test_power_op_m1_identity(s3, section):
    f = random_class_function(s3, P, N, LEVEL, seed=11)
    assert p1_is_identity(f, power_op(f, 1, section))


def test_mth_power_identity(s3, section):
    f = random_class_function(s3, P, N, LEVEL, seed=12)
    for m in (2, 3, 4):
        assert mth_power(f, m, power_op(f, m, section))


def test_restriction_identity(s3, section):
    f = random_class_function(s3, P, N, LEVEL, seed=13)
    pf = {m: power_op(f, m, section) for m in (1, 2, 3, 4)}
    for m, i in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        assert restriction_identity(s3, i, m - i, pf[i], pf[m - i], pf[m])


def _c2_into_s3():
    s3 = build_group("S3")
    transposition = next(i for i in range(6) if int(s3.orders()[i]) == 2)
    return Homomorphism(build_group("C2"), s3, (s3.identity, transposition))


def test_naturality(section):
    gamma = _c2_into_s3()
    f = random_class_function(gamma.target, P, N, LEVEL, seed=14)
    for m in (1, 2, 3):
        assert naturality(gamma, f, m, power_op(f, m, section), section)


def test_restrict_identity_and_trivial_map(s3):
    f = random_class_function(s3, P, N, LEVEL, seed=30)
    assert restrict(f, identity_hom(s3)) == f
    c4 = build_group("C4")
    pulled = restrict(f, Homomorphism(c4, s3, (s3.identity,) * c4.order))
    trivial_value = f.value_at((s3.identity,) * N)
    assert all(
        pulled.value_at(c) == trivial_value
        for c in enumerate_hom_classes(c4, N, P)
    )


def test_total_power_op_m1_is_identity(section):
    g = build_group("C2")
    f = random_class_function(g, P, N, LEVEL, seed=31)
    t1 = total_power_op(f, 1, section)
    assert diagonal_compatible(f, 1, t1, section)
    w = t1.group
    for rep, val in f.values.items():
        wrep = w.index[((g.elements[rep[0]],), (0,))], w.index[((g.elements[rep[1]],), (0,))]
        assert t1.value_at(tuple(wrep)) == val


def test_diagonal_compatibility(section):
    g = build_group("C2")
    f = random_class_function(g, P, N, LEVEL, seed=15)
    for m in (1, 2, 3):
        assert diagonal_compatible(f, m, total_power_op(f, m, section), section)


def test_section_independence_on_invariants(s3, section):
    f = average(random_class_function(s3, P, N, LEVEL, seed=16))
    seeded = [random_section(P, N, 2, seed) for seed in (1, 2)]
    for m in (2, 3):
        assert section_independent(power_op, f, m, power_op(f, m, section), seeded)


def test_total_power_op_section_independence_on_invariants(section):
    g = build_group("C2")
    f = average(random_class_function(g, P, N, LEVEL, seed=26))
    seeded = [random_section(P, N, 2, seed) for seed in (1, 2)]
    base = total_power_op(f, 2, section)
    assert section_independent(total_power_op, f, 2, base, seeded)


def test_section_domain_order_contract():
    # seeded sections draw unimodular matrices while walking subgroups in
    # canonical enumeration order: order ascending, then lexicographic matrix
    from charpow.torsion import enumerate_subgroups

    sec = random_section(P, N, 2, 9)
    expected = []
    for k in range(3):
        expected.extend(enumerate_subgroups(P, N, k))
    assert list(sec.assignment) == expected


def test_section_dependence_without_invariance(s3, section):
    # the known-bad instance of section_independent: f is not invariant
    f = random_class_function(s3, P, N, LEVEL, seed=17)
    base = power_op(f, 2, section)
    assert not section_independent(
        power_op, f, 2, base, [random_section(P, N, 2, 1)]
    )


def test_invariance_preservation(s3, section):
    f = average(random_class_function(s3, P, N, LEVEL, seed=18))
    assert invariance_preserved(power_op(f, 2, section))


def test_stabilizer_commutation(s3, section):
    rng = SplitMix64(5)
    f = random_class_function(s3, P, N, LEVEL, seed=19)
    s = random_stabilizer(P, N, LEVEL, rng)
    assert stabilizer_commutes(power_op, f, 2, power_op(f, 2, section), s, section)
    assert stabilizer_act(f, StabilizerElement(P, N, LEVEL, ((1, 0), (0, 1)))) == f
    one = constant_one(s3, P, N, LEVEL)
    assert stabilizer_act(one, s) == one


@pytest.mark.parametrize(
    "op", [power_op, total_power_op], ids=["power_op", "total_power_op"]
)
@pytest.mark.parametrize("m", [4, 8])  # S3 x S8 and S3 wr S8 exceed ORDER_CAP
def test_section_out_of_range(s3, m, op):
    small = canonical_section(P, N, 1)
    f = random_class_function(s3, P, N, LEVEL, seed=20)
    with pytest.raises(SectionOutOfRangeError):
        op(f, m, small)


def _oracle_json_dict(f):
    """Oracle: the per-entry formula, one math.gcd per entry."""
    return {
        "p": f.p, "n": f.n, "level": f.level, "group": f.group.name,
        "classes": [
            {"rep": list(rep), "value": [
                f"{x // (g := math.gcd(x, val.den))}/{val.den // g}" for x in val.num
            ]}
            for rep, val in sorted(f.values.items())
        ],
    }


def test_to_json_dict_matches_per_entry_formula_byte_for_byte(s3):
    c2 = build_group("C2")
    classes = [cls.rep for cls in enumerate_hom_classes(c2, 1, 2)]
    mixed = C0Element(2, 1, 2, (Fraction(1, 6), Fraction(1, 2), Fraction(2, 3), -1))
    huge = C0Element(2, 1, 2, (Fraction(2 ** 70, 3), Fraction(-1, 2 ** 65), 6, 0))
    big_den = C0Element(2, 1, 2, (Fraction(1, 2 ** 64), Fraction(-6, 2 ** 64), 0, Fraction(1, 8)))
    assert mixed.den == 6 and mixed._arr.dtype == np.int64
    assert huge._arr.dtype == object and huge.den > 2 ** 64
    assert big_den._arr.dtype == np.int64 and big_den.den == 2 ** 64
    cases = [
        ClassFunction(c2, 2, 1, 2, dict(zip(classes, (mixed, huge)))),
        ClassFunction(c2, 2, 1, 2, dict(zip(classes, (mixed.mul(mixed), huge.add(mixed))))),
        ClassFunction(c2, 2, 1, 2, dict(zip(classes, (big_den, big_den.mul(mixed))))),
        random_class_function(s3, P, N, LEVEL, seed=22),
    ]
    for f in cases:
        got = json.dumps(to_json_dict(f), sort_keys=True, separators=(",", ":"))
        want = json.dumps(_oracle_json_dict(f), sort_keys=True, separators=(",", ":"))
        assert got == want


def test_serialization_roundtrip(s3, section):
    f = random_class_function(s3, P, N, LEVEL, seed=21)
    blob = json.dumps(to_json_dict(f), sort_keys=True)
    back = from_json_dict(json.loads(blob))
    assert back == f
    p2 = power_op(f, 2, section)
    blob2 = json.dumps(to_json_dict(p2), sort_keys=True)
    assert from_json_dict(json.loads(blob2)) == p2


def _parse_fraction(s: str) -> Fraction:
    """Oracle: one entry of a JSON table, parsed through Fraction."""
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _oracle_from_json_dict(data):
    return ClassFunction(
        build_group(data["group"]), data["p"], data["n"], data["level"],
        {tuple(e["rep"]): C0Element(data["p"], data["n"], data["level"],
                                    tuple(map(_parse_fraction, e["value"])))
         for e in data["classes"]},
    )


def test_from_json_dict_matches_fraction_oracle(s3):
    # every entry form int() and the oracle accept: unreduced, negative or
    # signed denominators, spaces, zeros, and entries past int64
    forms = [
        lambda a, b: f"{a}/{b}",
        lambda a, b: f"{3 * a}/{3 * b}",
        lambda a, b: f"{-a}/{-b}",
        lambda a, b: f" +{a}/{b} " if a >= 0 else f"{a}/+{b}",
        lambda a, b: f"{a * 2 ** 70}/{b * 2 ** 70}",
    ]
    f = random_class_function(s3, P, N, LEVEL, seed=23)
    data = to_json_dict(f)
    for k, entry in enumerate(data["classes"]):
        values = []
        for j, x in enumerate(entry["value"]):
            a, b = map(int, x.split("/"))
            values.append(forms[(j + k) % len(forms)](a, b))
        entry["value"] = values
    data["classes"][0]["value"][:3] = ["0/7", f"{2 ** 80}/3", f"-1/{2 ** 66}"]
    got = from_json_dict(data)
    assert got == _oracle_from_json_dict(data)
    assert to_json_dict(got) == to_json_dict(_oracle_from_json_dict(data))
    assert from_json_dict(to_json_dict(f)) == f == _oracle_from_json_dict(to_json_dict(f))


# ---------------------------------------------------------------------------
# every shared check of charpow.verify returns False on a known-bad instance;
# section_independent's is test_section_dependence_without_invariance


def _fn(spec, seed):
    return random_class_function(build_group(spec), P, N, LEVEL, seed=seed)


def _all_keys_ideal(m):
    ideal = transfer_ideal(P, N, LEVEL, m)
    size = len(ideal.keys)
    units = [[int(i == j) for j in range(size)] for i in range(size)]
    return TransferIdeal(ideal.group, P, N, LEVEL, units)


BAD_INSTANCES = {
    # P_1 of another function
    "p1_is_identity": lambda sec: p1_is_identity(
        _fn("S3", 40), power_op(_fn("S3", 41), 1, sec)
    ),
    # a function other than 1
    "p_of_one_is_one": lambda sec: p_of_one_is_one(_fn("S3", 40), 2, sec),
    # P_2(g) given as P_2(f)
    "multiplicative": lambda sec: multiplicative(
        _fn("S3", 40), _fn("S3", 41), 2, power_op(_fn("S3", 41), 2, sec), sec
    ),
    "mth_power": lambda sec: mth_power(
        _fn("S3", 40), 2, power_op(_fn("S3", 41), 2, sec)
    ),
    "restriction_identity": lambda sec: restriction_identity(
        build_group("S3"), 1, 1,
        power_op(_fn("S3", 40), 1, sec), power_op(_fn("S3", 40), 1, sec),
        power_op(_fn("S3", 41), 2, sec),
    ),
    "naturality": lambda sec: naturality(
        _c2_into_s3(), _fn("S3", 40), 2, power_op(_fn("S3", 41), 2, sec), sec
    ),
    "diagonal_compatible": lambda sec: diagonal_compatible(
        _fn("C2", 40), 2, total_power_op(_fn("C2", 41), 2, sec), sec
    ),
    # P_2 of a function that is not invariant
    "invariance_preserved": lambda sec: invariance_preserved(
        power_op(_fn("S3", 40), 2, sec)
    ),
    "stabilizer_commutes": lambda sec: stabilizer_commutes(
        power_op, _fn("C2", 40), 2, power_op(_fn("C2", 41), 2, sec),
        random_stabilizer(P, N, LEVEL, SplitMix64(5)), sec,
    ),
    # a proper subgroup
    "transfer_restriction_identity": lambda sec: transfer_restriction_identity(
        _fn("S3", 40), Subgroup(build_group("S3"), (build_group("S3").identity,))
    ),
    # a nontrivial subgroup
    "transfer_of_one_is_regular": lambda sec: transfer_of_one_is_regular(
        Subgroup(build_group("S2"), (0, 1)), P, N, LEVEL
    ),
    # the subgroups of order 4 against the ideal of S_2
    "ideal_quotient_dim_matches": lambda sec: ideal_quotient_dim_matches(
        transfer_ideal(P, N, LEVEL, 2), enumerate_subgroups(P, N, 2)
    ),
    # the zero ideal, and the ideal spanned by every class
    "ideal_contains_multi_summand": lambda sec: ideal_contains_multi_summand(
        TransferIdeal(symmetric_group(2), P, N, LEVEL, [])
    ),
    "ideal_excludes_transitive": lambda sec: ideal_excludes_transitive(
        _all_keys_ideal(2)
    ),
}


@pytest.mark.parametrize("check", sorted(BAD_INSTANCES))
def test_check_fails_on_bad_instance(check, section):
    assert BAD_INSTANCES[check](section) is False


@pytest.mark.parametrize("t", [-1, 4, 99999])
def test_c0_delta_rejects_an_index_outside_the_table(t):
    with pytest.raises(ValueError, match=rf"^t = {t} is outside 0\.\.3 \(table size 4\)$"):
        c0_delta(2, 1, 2, t)
