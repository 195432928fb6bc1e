"""The whole-matrix class-function kernels against the per-class loops they replaced.

Each oracle below is the loop that ran one C0Element at a time: it reads a
class function only through `values`, a map from class rep to C0Element,
and builds its result through the public constructor.  One parametrized
test compares every kernel with its oracle over S1, C2 and S3 at levels
1 to 3, the canonical and a seeded section, and four functions: a seeded
one, the same with classes missing, one with entries past 2^62 and one
over a denominator past 2^64.
"""

from fractions import Fraction
from functools import reduce

import pytest

from charpow import classfn
from charpow.classfn import (
    C0Element,
    ClassFunction,
    _level_needed,
    _orbits,
    _summand_structure,
    _symmetric_summands,
    _symmetric_target,
    _transpose_dual,
    _wreath_summands,
    act_by_residue,
    average,
    c0_constant,
    external_product,
    json_classes,
    power_op,
    random_class_function,
    random_stabilizer,
    restrict,
    stabilizer_act,
    total_power_op,
    transfer,
)
from charpow.groups import (
    Subgroup,
    build_group,
    canonical_tuples,
    enumerate_hom_classes,
    include_left_factor,
    product_group,
    split_product_class,
    symmetric_group,
    wreath_group,
)
from charpow.isogeny import canonical_section, psi_dual, random_section
from charpow.rng import SplitMix64

from test_classfn import _oracle_json_dict

P, N = 2, 2


def _rep(group, tup, mat=None):
    return tuple(canonical_tuples(group, [tup], None if mat is None else [mat])[0].tolist())


def _like(f, group, values):
    return ClassFunction(group, f.p, f.n, f.level, values)


def oracle_power_product(f, m, section, total, on_left=True):
    """At each target class, the factors f([alpha . dual(phi_H)]) . phi_H, one table
    at a time, multiplied by C0Element.mul; a class with an absent factor is zero.
    on_left=False translates each factor on the wrong side: a known-bad kernel."""
    if total:
        target, summands, dual = wreath_group(f.group, m), _wreath_summands, psi_dual
    else:
        target = product_group(f.group, symmetric_group(m))
        summands, dual = _symmetric_summands, _transpose_dual
    move = C0Element.act_matrix_left if on_left else C0Element.act_matrix_right
    out = {}
    for rep, terms in _summand_structure(target, f.n, f.p, summands):
        factors = []
        for h, alpha in terms:
            phi = section.isogeny_for(h)
            src = _rep(f.group, alpha.rep, dual(phi))
            if src not in f.values:
                break
            factors.append(move(f.values[src], phi.matrix.entries))
        else:
            out[rep] = reduce(C0Element.mul, factors, c0_constant(f.p, f.n, f.level, 1))
    return _like(f, target, out)


def oracle_stabilizer_act(f, s):
    return _like(f, f.group, {r: v.act_matrix_right(s.entries) for r, v in f.values.items()})


def oracle_act_by_residue(f, g):
    """(f . g)([alpha]) = f([alpha g^T]) . g, class by class."""
    out = {}
    for cls in enumerate_hom_classes(f.group, f.n, f.p):
        src = _rep(f.group, cls.rep, tuple(zip(*g)))
        if src in f.values:
            out[cls.rep] = f.values[src].act_matrix_left(g)
    return _like(f, f.group, out)


def oracle_restrict(f, hom):
    out = {}
    for cls in enumerate_hom_classes(hom.source, f.n, f.p):
        src = _rep(f.group, [hom(i) for i in cls.rep])
        if src in f.values:
            out[cls.rep] = f.values[src]
    return _like(f, hom.source, out)


def oracle_external_product(f, g):
    target = product_group(f.group, g.group)
    out = {}
    for cls in enumerate_hom_classes(target, f.n, f.p):
        a, b = split_product_class(cls)
        if a.rep in f.values and b.rep in g.values:
            out[cls.rep] = f.values[a.rep].mul(g.values[b.rep])
    return _like(f, target, out)


def oracle_transfer(f, iota):
    out = {}
    for cls in enumerate_hom_classes(iota.target, f.n, f.p):
        terms = [
            f.values[src].scale(k)
            for src, k in classfn.transfer_counts(iota, cls).items() if src in f.values
        ]
        if terms:
            out[cls.rep] = reduce(C0Element.add, terms)
    return _like(f, iota.target, out)


def oracle_average(f):
    """The mean of f over each GL-orbit of (class, table index) pairs, in Fractions."""
    labels, counts = _orbits(f.group, f.n, f.p, f.level)
    classes = enumerate_hom_classes(f.group, f.n, f.p)
    size = len(labels) // len(classes)
    sums = [Fraction(0)] * len(counts)
    for c, cls in enumerate(classes):
        if cls.rep in f.values:
            for t, x in enumerate(f.values[cls.rep].values):
                sums[labels[c * size + t]] += x
    return _like(f, f.group, {
        cls.rep: C0Element(f.p, f.n, f.level, [
            sums[k] / counts[k] for k in labels[c * size:(c + 1) * size].tolist()
        ])
        for c, cls in enumerate(classes)
    })


def oracle_mul(f, g):
    return _like(f, f.group, {r: v.mul(g.values[r]) for r, v in f.values.items() if r in g.values})


def oracle_add(f, g):
    out = dict(f.values)
    for r, v in g.values.items():
        out[r] = out[r].add(v) if r in out else v
    return _like(f, f.group, out)


def _same(f, g):
    """Equal as maps of tables, and == agrees."""
    same = f.group is g.group and dict(f.values) == dict(g.values)
    assert (f == g) is same
    return same


def _functions(group, level):
    """A seeded function, the same without its first and last classes (zero on S1),
    one with entries past 2^62 and one over a denominator past 2^64."""
    f = random_class_function(group, P, N, level, seed=level)
    sparse = ClassFunction(group, P, N, level, dict(list(f.values.items())[1:-1]))
    huge = f.scale(2 ** 70 + 1)
    tiny = f.scale(Fraction(1, 2 ** 70))
    assert huge._num.dtype == object and min(tiny._den) >= 2 ** 64
    return {"seeded": f, "sparse": sparse, "huge": huge, "tiny": tiny}


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("spec", ["S1", "C2", "S3"])
def test_kernels_match_their_per_class_loops(spec, level):
    group = build_group(spec)
    sections = [canonical_section(P, N, 1), random_section(P, N, 1, 7 * level + 1)]
    functions = _functions(group, level)
    s = random_stabilizer(P, N, level, SplitMix64(level))
    gamma = ((1, 1), (0, 1))
    for name, f in functions.items():
        case = (spec, level, name)
        assert _same(stabilizer_act(f, s), oracle_stabilizer_act(f, s)), case
        assert _same(act_by_residue(f, gamma), oracle_act_by_residue(f, gamma)), case
        assert _same(average(f), oracle_average(f)), case
        assert _same(f.mul(functions["sparse"]), oracle_mul(f, functions["sparse"])), case
        assert _same(f.add(functions["tiny"]), oracle_add(f, functions["tiny"])), case
        assert list(json_classes(f)) == _oracle_json_dict(f)["classes"], case
        for section in sections:
            for op, total, ms in ((power_op, False, (0, 1, 2, 3)), (total_power_op, True, (1, 2))):
                for m in ms:
                    target = (wreath_group if total else _symmetric_target)(group, m)
                    if level < _level_needed(target, P):
                        continue
                    pm = op(f, m, section)
                    assert _same(pm, oracle_power_product(f, m, section, total)), (*case, m, total)
                    pulled = include_left_factor(group, symmetric_group(m))
                    if not total:
                        assert _same(restrict(pm, pulled), oracle_restrict(pm, pulled)), case
    f, g = functions["seeded"], functions["sparse"]
    assert _same(external_product(f, g), oracle_external_product(f, g))
    whole = Subgroup(group, tuple(range(group.order))).inclusion()
    trivial = Subgroup(group, (group.identity,)).inclusion()
    for iota in (whole, trivial):
        h = random_class_function(iota.source, P, N, level, seed=3)
        for k in (h, h.scale(2 ** 70 + 1)):
            assert _same(transfer(k, iota), oracle_transfer(k, iota))


def test_a_right_translation_in_the_power_product_is_caught():
    # the known-bad kernel: the factors moved by xi -> xi . phi instead of phi . xi
    f = random_class_function(build_group("C2"), P, N, 2, seed=5)
    section = canonical_section(P, N, 1)
    for op, total in ((power_op, False), (total_power_op, True)):
        good = op(f, 2, section)
        assert _same(good, oracle_power_product(f, 2, section, total))
        assert not _same(good, oracle_power_product(f, 2, section, total, on_left=False))
