"""Exact-arithmetic workbench for generalized class functions and power operations.

Submodules:
  lattice   exact integer linear algebra (HNF, SNF, valuations)
  torsion   finite subgroups of the p-divisible torus and their sums
  isogeny   the isogeny monoid, sections of the kernel map
  groups    finite groups, commuting tuples, the wreath bijections
  classfn   the level-N coefficient model, class functions, power operations
  fgl       truncated series and formal group laws
  verify    exhaustive property suites behind `charpow verify`
"""

from .errors import (
    CharpowError,
    GroupTooLargeError,
    LevelMismatchError,
    NoIntegralSolutionError,
    NonIntegralCoefficientError,
    NotAHomomorphismError,
    NotASubgroupError,
    NotInLatticeError,
    NotPPowerTupleError,
    NoUnitCoefficientError,
    SectionOutOfRangeError,
    SingularMatrixError,
    TableTooLargeError,
)
from .lattice import LatticeBasis, PAdicMatrix, hnf, snf, solve_integer
from .torsion import (
    SumOfSubgroups,
    TorsionSubgroup,
    annihilator_lattice,
    enumerate_subgroups,
    enumerate_sums,
    image_subgroup,
)
from .isogeny import (
    Isogeny,
    Section,
    canonical_section,
    compose,
    kernel,
    psi_dual,
    random_section,
    sigma_solve,
)
from .groups import (
    DecoratedSum,
    FiniteGroup,
    Homomorphism,
    Subgroup,
    TupleClass,
    abelian_subgroups,
    build_group,
    decorated_to_wreath_class,
    delta_embed,
    enumerate_hom_classes,
    sum_to_symm_class,
    symm_class_to_sum,
    wreath_class_to_decorated,
)
from .classfn import (
    C0Element,
    ClassFunction,
    StabilizerElement,
    aut_act,
    average,
    external_product,
    is_invariant,
    power_op,
    restrict,
    stabilizer_act,
    total_power_op,
    transfer,
    transfer_ideal,
)
from .fgl import (
    FGL,
    TruncatedPoly,
    build_honda,
    build_multiplicative,
    quotient_ring_rank,
    weierstrass_degree,
)

__version__ = "0.1.0"
