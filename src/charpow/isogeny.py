"""The isogeny monoid of the torus in matrix form, and sections of kernel.

An isogeny is a nonsingular integer matrix A acting on column vectors of
(Q_p/Z_p)^n; its Pontryagin dual on the lattice Z_p^n is the transpose.
Two matrices have the same kernel iff they agree up to left multiplication
by a p-adically unimodular matrix, which is why sections below are built
as (unimodular) . (canonical kernel matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    NoIntegralSolutionError,
    NotInLatticeError,
    SectionOutOfRangeError,
    SingularMatrixError,
)
from .lattice import (
    Matrix,
    PAdicMatrix,
    hnf,
    mat_mul,
    mat_transpose,
    solve_integer,
)
from .rng import SplitMix64, random_unimodular
from .torsion import (
    TorsionSubgroup,
    enumerate_subgroups,
    image_subgroup,
    subgroup_from_kernel_matrix,
)


@dataclass(frozen=True)
class Isogeny:
    """Endoisogeny of the torus; kernel order is p^{v_p(det)}."""

    matrix: PAdicMatrix

    def __post_init__(self):
        if self.matrix.det == 0:
            raise SingularMatrixError("an isogeny must have nonzero determinant")

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def n(self) -> int:
        return self.matrix.n


def compose(phi: Isogeny, psi: Isogeny) -> Isogeny:
    """Composite isogeny x -> phi(psi(x)); kernel orders multiply.

    This is the product of the isogeny monoid that acts on class functions.
    """
    return Isogeny(phi.matrix.mul(psi.matrix))


def kernel(phi: Isogeny) -> TorsionSubgroup:
    """Canonical form of ker(phi) = (A^{-1}Z^n)/Z^n inside the torus.

    It inverts a section: kernel(section.isogeny_for(H)) == H for every H covered.
    """
    return subgroup_from_kernel_matrix(phi.matrix)


@dataclass(frozen=True)
class Section:
    """A choice of isogeny with kernel H for every H of order at most p^B."""

    p: int
    n: int
    bound: int  # order bound exponent B
    provenance: str
    assignment: dict = field(compare=False, repr=False)
    # power-operation plans read off this assignment, built by classfn on first use
    _plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def isogeny_for(self, h: TorsionSubgroup) -> Isogeny:
        if h not in self.assignment:
            raise SectionOutOfRangeError(
                f"section only covers kernels of order up to {self.p}^{self.bound}"
            )
        return self.assignment[h]


def _all_subgroups(p: int, n: int, bound: int):
    for k in range(bound + 1):
        yield from enumerate_subgroups(p, n, k)


def canonical_section(p: int, n: int, bound: int) -> Section:
    """The section assigning to H its canonical kernel matrix A_H."""
    assignment = {
        h: Isogeny(PAdicMatrix(p, h.matrix)) for h in _all_subgroups(p, n, bound)
    }
    return Section(p, n, bound, "canonical", assignment)


def random_section(p: int, n: int, bound: int, seed: int) -> Section:
    """Seeded section: U_H . A_H with U_H a random integer unimodular matrix.

    Subgroups are visited in canonical enumeration order, drawing each U_H
    from one SplitMix64 stream, so equal seeds give identical sections.
    """
    rng = SplitMix64(seed)
    assignment = {}
    for h in _all_subgroups(p, n, bound):
        u = random_unimodular(rng, n)
        assignment[h] = Isogeny(PAdicMatrix(p, mat_mul(u, h.matrix)))
    return Section(p, n, bound, f"seeded:{seed}", assignment)


def psi_dual(phi: Isogeny) -> Matrix:
    """Matrix of the dual of the induced isomorphism, in the HNF basis of Lambda_H.

    With T = A^T and B the HNF basis of the column span of T, returns the
    unimodular X with B . X = T.
    """
    t = mat_transpose(phi.matrix.entries)
    basis, _ = hnf(t, phi.p)
    return solve_integer(basis, t)


def sigma_solve(
    gamma: PAdicMatrix, h: TorsionSubgroup, section: Section
) -> PAdicMatrix:
    """The automorphism with phi_{gamma H} . gamma = sigma . phi_H, solved exactly.

    sigma is the conjugator of the stabilizer action: it carries the
    section's isogeny at H, after gamma, to its isogeny at gamma H.
    """
    gh = image_subgroup(gamma, h)
    a_gh = section.isogeny_for(gh).matrix.entries
    a_h = section.isogeny_for(h).matrix.entries
    lhs = mat_mul(a_gh, gamma.entries)
    # sigma . A_H = lhs transposes to A_H^T . sigma^T = lhs^T, and A_H^T . U = B
    basis, u = hnf(mat_transpose(a_h), gamma.p)
    try:
        sigma_t = mat_mul(u, solve_integer(basis, mat_transpose(lhs)))
    except NotInLatticeError:
        raise NoIntegralSolutionError(
            "conjugator is not integral; section is broken"
        ) from None
    out = PAdicMatrix(gamma.p, mat_transpose(sigma_t))
    if mat_mul(out.entries, a_h) != lhs:
        raise NoIntegralSolutionError("conjugator fails its defining equation")
    if not out.is_automorphism():
        raise NoIntegralSolutionError("conjugator is not an automorphism")
    return out
