"""Hecke eigenvalue systems as pairs (standard Levi, smooth character of its
connected center), their evaluation on both Hecke bases, supersingularity,
twisting, and the change-of-weight applicability test.

A smooth character of F^x into a characteristic-p field is determined by its
value at a fixed uniformizer (nonzero scalar) together with a tame exponent
mod q-1 (the character of the residue units); wild inertia is pro-p and dies
in characteristic p.  A pair carries one such character per Levi block.
"""

from __future__ import annotations

from ._record import Record
from .finite_field import FqElem
from .hecke import HeckeElement, basis_element, satake_T_to_tau
from .root_datum import StandardParabolic, is_antidominant, pairing
from .weights import WeightClass, central_character_exponents, restrict_to_levi


class SmoothCharacter(Record):
    """A smooth character of F^x: value at the uniformizer plus tame exponent."""

    __slots__ = ("unramified", "tame_exponent", "q")

    def __init__(self, unramified: FqElem, tame_exponent: int, q: int):
        if not unramified:
            raise ValueError("unramified part must be nonzero")
        p, r = unramified.field.p, q
        while r > 1 and r % p == 0:
            r //= p
        if r != 1 or q < p:
            raise ValueError(f"q = {q} is not a positive power of the field's p = {p}")
        object.__setattr__(self, "unramified", unramified)
        object.__setattr__(self, "tame_exponent", tame_exponent % (q - 1))
        object.__setattr__(self, "q", q)

    @property
    def field(self):
        return self.unramified.field

    def __mul__(self, other: "SmoothCharacter") -> "SmoothCharacter":
        if self.q != other.q:
            raise ValueError("characters for different residue fields")
        return SmoothCharacter(self.unramified * other.unramified,
                               self.tame_exponent + other.tame_exponent, self.q)

    def power(self, k: int) -> "SmoothCharacter":
        return SmoothCharacter(self.unramified ** k, k * self.tame_exponent, self.q)


def trivial_character(field, q: int) -> SmoothCharacter:
    """The trivial character of F^x.

    Acceptance criteria 4 and 5 induce it from the Borel to check the
    classification on the trivial principal series of GL_n(F): it has 2^(n-1)
    irreducible constituents, each once, and its submodule lattice has 3, 6
    and 20 elements for n = 2, 3 and 4.
    """
    return SmoothCharacter(field.one, 0, q)


class ParamPair(Record):
    """A standard Levi together with a character of its connected center,
    stored blockwise."""

    __slots__ = ("M", "chars")

    def __init__(self, M: StandardParabolic, chars: tuple):
        chars = tuple(chars)
        if len(chars) != len(M.composition):
            raise ValueError("one character per Levi block required")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "chars", chars)

    @property
    def field(self):
        return self.chars[0].field

    @property
    def q(self):
        return self.chars[0].q


def _block_values(pair: ParamPair, lam):
    """Block values of lam if lam is constant on every block of M, else None."""
    vals = []
    for block in pair.M.blocks():
        v = lam[block[0] - 1]
        if any(lam[j - 1] != v for j in block):
            return None
        vals.append(v)
    return vals


def eval_tau(pair: ParamPair, lam) -> FqElem:
    """Value of the eigensystem on tau_lam: the inverse character value when
    lam factors through the center of M (lam constant on blocks), else 0."""
    lam = tuple(lam)
    if not is_antidominant(lam):
        raise ValueError(f"{lam} is not antidominant")
    if len(lam) != pair.M.n:
        raise ValueError("rank mismatch")
    field = pair.field
    vals = _block_values(pair, lam)
    if vals is None:
        return field.zero
    out = field.one
    for eta, v in zip(pair.chars, vals):
        out = out * eta.unramified ** (-v)
    return out


def compatible_tame_exponents(V: WeightClass, M: StandardParabolic) -> tuple:
    """Tame exponents forced on a pair (M, -) by the weight V: the central
    character of the restriction of V to the Levi."""
    return central_character_exponents(restrict_to_levi(V, M))


def check_compatibility(pair: ParamPair, V: WeightClass) -> None:
    if pair.q != V.q:
        raise ValueError(f"pair is for q={pair.q} but the weight has q={V.q}")
    want = compatible_tame_exponents(V, pair.M)
    got = tuple(eta.tame_exponent for eta in pair.chars)
    if want != got:
        raise ValueError(
            f"tame exponents {got} do not match the central character {want} of the weight")


def eval_T(pair: ParamPair, lam, V: WeightClass) -> FqElem:
    """Value on T_lam: push through the tau expansion of T_lam for the weight
    V and evaluate termwise.  The pair's tame exponents must match the central
    character of V restricted to M."""
    check_compatibility(pair, V)
    return eval_element(pair, basis_element(V, "T", tuple(lam), pair.field))


def eval_element(pair: ParamPair, x: HeckeElement) -> FqElem:
    """Linear extension of the eigensystem to a Hecke element in either basis."""
    tau = satake_T_to_tau(x) if x.basis == "T" else x
    check_compatibility(pair, x.weight)
    out = pair.field.zero
    for lam, c in tau.terms.items():
        out = out + c * eval_tau(pair, lam)
    return out


def factors_through(pair: ParamPair, L: StandardParabolic) -> bool:
    """Whether the eigensystem factors through the partial transform to L:
    equivalent to M being a sub-Levi of L."""
    return L.contains(pair.M)


def is_supersingular(pair: ParamPair) -> bool:
    """Supersingular means the Levi is the whole group (the eigensystem
    factors through no proper partial transform)."""
    return pair.M == StandardParabolic.full(pair.M.n)


def twist(pair: ParamPair, eta: SmoothCharacter) -> ParamPair:
    """Twist by a character of the group: each block character is multiplied
    by eta composed with the block determinant (degree = block size)."""
    new = tuple(chi * eta.power(size)
                for chi, size in zip(pair.chars, pair.M.composition))
    return ParamPair(pair.M, new)


def change_of_weight_applicable(V: WeightClass, i: int, pair: ParamPair) -> bool:
    """Whether the weight-change isomorphism applies at the simple root i for
    this eigensystem: the coroot either does not land in the center of M, or
    the character takes a nontrivial value on it.

    The coroot lands in Z_M exactly when the blocks around position i are the
    two singletons {i} and {i+1}; in that case the criterion compares the two
    unramified values.
    """
    if pairing(V.nu, i) != 0:
        raise ValueError(f"<nu, alpha_{i}^vee> != 0")
    if i in pair.M.delta:
        raise ValueError(f"alpha_{i} lies in the Levi of the pair")
    M = pair.M
    bi, bi1 = M.block_of(i), M.block_of(i + 1)
    both_singletons = M.composition[bi] == 1 and M.composition[bi1] == 1
    if not both_singletons:
        return True
    return pair.chars[bi].unramified != pair.chars[bi1].unramified
