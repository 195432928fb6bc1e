"""The whole pipeline again at p = 3, guarding against p = 2 assumptions."""

from charpow.classfn import (
    average,
    is_invariant,
    power_op,
    random_class_function,
    total_power_op,
    transfer_ideal,
)
from charpow.groups import (
    build_group,
    enumerate_hom_classes,
    symmetric_group,
)
from charpow.isogeny import canonical_section, random_section
from charpow.torsion import enumerate_subgroups, enumerate_sums
from charpow.verify import (
    diagonal_compatible,
    ideal_quotient_dim_matches,
    invariance_preserved,
    section_independent,
    tuple_sum_count,
)


def test_p3_counts():
    assert len(enumerate_subgroups(3, 2, 1)) == 4
    assert len(enumerate_subgroups(3, 1, 2)) == 1
    for n in (1, 2):
        for m in (3, 6):
            classes = enumerate_hom_classes(symmetric_group(m), n, 3)
            assert tuple_sum_count(classes, enumerate_sums(3, n, m))


def test_p3_section_independence_and_invariance():
    g = build_group("C3")
    sec = canonical_section(3, 1, 1)
    f = average(random_class_function(g, 3, 1, 1, seed=1))
    assert is_invariant(f)
    seeded = [random_section(3, 1, 1, s) for s in (1, 2)]
    for m in (1, 2, 3):
        base = power_op(f, m, sec)
        assert invariance_preserved(base)
        assert section_independent(power_op, f, m, base, seeded)


def test_p3_rank2_section_independence():
    g = build_group("C3")
    sec = canonical_section(3, 2, 1)
    f = average(random_class_function(g, 3, 2, 1, seed=2))
    base = power_op(f, 3, sec)
    assert invariance_preserved(base)
    seeded = [random_section(3, 2, 1, s) for s in (1, 2)]
    assert section_independent(power_op, f, 3, base, seeded)


def test_p3_diagonal_compatibility_needs_level_2():
    # wr(C3,3) has 3-exponent 9, so the check runs at level 2
    g = build_group("C3")
    sec = canonical_section(3, 1, 1)
    f = random_class_function(g, 3, 1, 2, seed=3)
    assert diagonal_compatible(f, 3, total_power_op(f, 3, sec), sec)


def test_p3_transfer_ideal():
    ideal = transfer_ideal(3, 1, 1, 3)
    assert ideal_quotient_dim_matches(ideal, enumerate_subgroups(3, 1, 1))
