from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpow.errors import SectionOutOfRangeError, SingularMatrixError
from charpow.isogeny import (
    Isogeny,
    canonical_section,
    compose,
    kernel,
    psi_dual,
    random_section,
    sigma_solve,
)
from charpow.lattice import (
    PAdicMatrix,
    hnf,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_transpose,
    scalar_matrix,
    snf,
)
from charpow.rng import SplitMix64, random_unimodular
from charpow.torsion import TorsionSubgroup, enumerate_subgroups
from test_torsion import subgroup_from_generators

TRIVIAL = TorsionSubgroup(2, identity_matrix(2))  # in (Q_2/Z_2)^2
TWO_TORSION = TorsionSubgroup(2, scalar_matrix(2, 2))


def iso(entries, p=2):
    return Isogeny(PAdicMatrix(p, entries))


def test_isogeny_rejects_singular():
    with pytest.raises(SingularMatrixError):
        iso(((1, 1), (1, 1)))


def test_kernel_identity_and_p():
    assert kernel(iso(((1, 0), (0, 1)))) == TRIVIAL
    assert kernel(iso(((2, 0), (0, 2)))) == TWO_TORSION


def test_kernel_diag_1_2():
    # SNF oracle: Z^2/diag(1,2)Z^2 = Z/2, kernel generated by (0, 1/2)
    m = PAdicMatrix(2, ((1, 0), (0, 2)))
    assert snf(m) == (1, 2)
    h = kernel(Isogeny(m))
    assert h == subgroup_from_generators(2, 2, [(Fraction(0), Fraction(1, 2))])
    assert h.order == 2


def test_kernel_ignores_prime_to_p_part():
    # det 3 is a 2-adic unit: trivial kernel p-locally
    assert kernel(iso(((3, 0), (0, 1)))) == TRIVIAL


def test_canonical_section_roundtrip():
    sec = canonical_section(2, 2, 2)
    assert sec.provenance == "canonical"
    assert sec.isogeny_for(TRIVIAL).matrix.entries == ((1, 0), (0, 1))
    assert sec.isogeny_for(TWO_TORSION).matrix.entries == ((2, 0), (0, 2))
    for k in range(3):
        for h in enumerate_subgroups(2, 2, k):
            assert kernel(sec.isogeny_for(h)) == h


def test_section_out_of_range():
    sec = canonical_section(2, 2, 1)
    with pytest.raises(SectionOutOfRangeError):
        sec.isogeny_for(TorsionSubgroup(2, scalar_matrix(2, 4)))


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_random_section_properties(seed):
    sec = random_section(2, 2, 2, seed)
    assert sec.provenance == f"seeded:{seed}"
    for h in sec.assignment:
        phi = sec.isogeny_for(h)
        assert kernel(phi) == h
    again = random_section(2, 2, 2, seed)
    for h in sec.assignment:
        assert again.isogeny_for(h).matrix == sec.isogeny_for(h).matrix


def test_random_section_unimodular_over_canonical():
    sec = random_section(2, 2, 2, 7)
    can = canonical_section(2, 2, 2)
    for h in sec.assignment:
        a = sec.isogeny_for(h).matrix.entries
        b = can.isogeny_for(h).matrix.entries
        # a . b^{-1} must be integer unimodular
        det_b = mat_det(b)
        adj = ((b[1][1], -b[0][1]), (-b[1][0], b[0][0]))
        prod = mat_mul(a, adj)  # = a . b^{-1} . det(b)
        assert all(x % det_b == 0 for row in prod for x in row)
        u = tuple(tuple(x // det_b for x in row) for row in prod)
        assert abs(mat_det(u)) == 1


def test_torsor_property_between_sections():
    # two sections differ pointwise by a p-adically unimodular matrix
    a = random_section(2, 2, 2, 5)
    b = random_section(2, 2, 2, 17)
    for h in a.assignment:
        ma = a.isogeny_for(h).matrix.entries
        mb = b.isogeny_for(h).matrix.entries
        det_b = mat_det(mb)
        adj = ((mb[1][1], -mb[0][1]), (-mb[1][0], mb[0][0]))
        prod = mat_mul(ma, adj)
        assert all(x % det_b == 0 for row in prod for x in row)
        u = PAdicMatrix(2, tuple(tuple(x // det_b for x in row) for row in prod))
        assert u.is_automorphism()


def test_compose_multiplies_kernel_orders():
    two = iso(((2, 0), (0, 2)))
    assert kernel(compose(two, two)).order == 16
    assert compose(two, iso(((1, 0), (0, 1)))).matrix == two.matrix


@settings(max_examples=30)
@given(
    st.tuples(*[st.tuples(*[st.integers(-5, 5)] * 2)] * 2),
    st.tuples(*[st.tuples(*[st.integers(-5, 5)] * 2)] * 2),
)
def test_compose_kernel_order_multiplicative(a, b):
    if mat_det(a) == 0 or mat_det(b) == 0:
        return
    pa, pb = iso(a), iso(b)
    assert kernel(compose(pa, pb)).order == kernel(pa).order * kernel(pb).order


def test_psi_dual_identity_and_scalar():
    assert psi_dual(iso(((1, 0), (0, 1)))) == ((1, 0), (0, 1))
    assert psi_dual(iso(((2, 0), (0, 2)))) == ((1, 0), (0, 1))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_psi_dual_defining_equation(seed):
    sec = random_section(2, 2, 2, seed)
    for h in sec.assignment:
        phi = sec.isogeny_for(h)
        t = mat_transpose(phi.matrix.entries)
        basis, _ = hnf(t, 2)
        x = psi_dual(phi)
        assert mat_mul(basis.matrix, x) == t
        assert abs(mat_det(x)) == 1


def test_sigma_solve_identity_and_trivial():
    sec = canonical_section(2, 2, 2)
    eye = PAdicMatrix(2, ((1, 0), (0, 1)))
    h = enumerate_subgroups(2, 2, 1)[0]
    assert sigma_solve(eye, h, sec).entries == ((1, 0), (0, 1))
    gam = PAdicMatrix(2, ((1, 2), (1, 1)))
    assert sigma_solve(gam, TRIVIAL, sec).entries == gam.entries


@pytest.mark.parametrize("seed", [0, 6, 11])
def test_sigma_solve_defining_equation(seed):
    from charpow.torsion import image_subgroup

    rng = SplitMix64(seed)
    gam = PAdicMatrix(2, random_unimodular(rng, 2))
    sec = random_section(2, 2, 2, seed + 100)
    for k in range(3):
        for h in enumerate_subgroups(2, 2, k):
            sigma = sigma_solve(gam, h, sec)
            lhs = mat_mul(
                sec.isogeny_for(image_subgroup(gam, h)).matrix.entries, gam.entries
            )
            rhs = mat_mul(sigma.entries, sec.isogeny_for(h).matrix.entries)
            assert lhs == rhs
            assert sigma.is_automorphism()
