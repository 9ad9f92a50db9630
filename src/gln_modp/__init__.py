"""Combinatorics of smooth mod-p representation theory of GL_n over a p-adic
field: the spherical Hecke algebra basis change and its inversion, eigenvalue
pairs and supersingularity, constituent classification with submodule
lattices, an extended affine 0-Hecke engine, and a finite-group brute-force
oracle for the ground-truth gates.
"""

from .finite_field import FqElem, FqField
from .root_datum import (
    StandardParabolic, all_parabolics,
    fundamental_antidominant_coweight, interval_above, is_antidominant,
    leq_M, pairing, stab_levi,
)
from .weights import (
    LeviWeightClass, WeightClass, central_character_exponents,
    enumerate_levi_weight_classes, enumerate_weight_classes, is_M_regular,
    make_levi_weight, make_weight, regular_cover, restrict_to_levi,
    weight_partner_for_change,
)
from .hecke import (
    HeckeElement, basis_element, double_support_claim, multiply,
    satake_T_to_tau, satake_tau_to_T,
)
from .eigen import (
    ParamPair, SmoothCharacter, change_of_weight_applicable,
    compatible_tame_exponents, eval_T, eval_element, eval_tau,
    factors_through, is_supersingular, trivial_character, twist,
)
from .classify import (
    ConstituentPoset, InductionDatum, IrreducibleRep, Steinberg,
    SubmoduleLattice, Supersingular, constituents, delta, lower_sets,
    param_pair, submodule_lattice, validate,
)
from .hecke0 import (
    DerivationCapExceeded, DerivationReport, derive_rotation_invariance,
    identity, rotation, simple, translation, verify_braid_and_rotation,
    verify_translation_power, verify_word_shift_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
