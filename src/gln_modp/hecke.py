"""The spherical mod-p Hecke algebra of a weight, as the monoid algebra on
antidominant coweights, in its two bases.

For a weight class V with stabilizer Levi M, the algebra has bases {T_lam}
and {tau_lam} indexed by antidominant coweights.  The change of basis is
triangular with respect to the restricted coroot order >=_M:

    tau_mu  =  sum of T_lam over antidominant lam >=_M mu,

inverted by the Moebius function of the subposet of antidominant coweights
under >=_M.  That function lives on the unit cube: mu(lam, nu) = 0 unless
nu = lam + alpha_S^vee (the sum of the simple coroots in S) for a *set*
S inside Delta_M, and then it is the Moebius function, from the empty set
to S, of the family {T inside Delta_M : lam + alpha_T^vee antidominant}
ordered by inclusion.  Proof: the antidominant coweights above lam are
closed under the coefficientwise maximum of their coroot coordinates, so
every interval [lam, nu] is a lattice whose join is that maximum; for any
nu > lam, the set S where its coroot coordinates are largest gives an
antidominant lam + alpha_S^vee <= nu, so the atoms are 0/1 vectors, and by
Rota's crosscut theorem mu(lam, nu) vanishes unless nu is a union of atoms.
So T_lam has at most 2^|Delta_M| tau-terms.

In the tau basis multiplication is the monoid rule
tau_a tau_b = tau_{a+b}.  Coefficients live in a configurable finite field
F_{p^m}: the basis-change entries are integers mod p, but classification
scalars need roots of unity, so one scalar type serves both.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from ._record import Record
from .finite_field import FqField, accumulate
from .root_datum import (
    StandardParabolic, add, fundamental_antidominant_coweight, interval_above,
    is_antidominant, leq_M, simple_coroot,
)
from .weights import WeightClass


class HeckeElement(Record):
    """A finite formal sum over antidominant coweights.

    The weight class fixes the Levi M used by the basis change (it is always
    the stabilizer Levi of the weight, never passed separately).  No zero
    coefficients are stored.
    """

    __slots__ = ("weight", "basis", "terms", "field")

    def __init__(self, weight: WeightClass, basis: str, terms, field: FqField):
        if basis not in ("T", "tau"):
            raise ValueError(f"unknown basis tag {basis!r}")
        if field.p != weight.p:
            raise ValueError("scalar field characteristic differs from the weight's p")
        clean = {}
        for lam, c in dict(terms).items():
            lam = tuple(lam)
            if len(lam) != weight.n:
                raise ValueError("coweight rank mismatch")
            if not is_antidominant(lam):
                raise ValueError(f"{lam} is not antidominant")
            c = field(c)
            if c:
                clean[lam] = c
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "field", field)

    def __repr__(self):
        parts = " + ".join(f"({c})*{self.basis}_{lam}" for lam, c in sorted(self.terms.items()))
        return parts or "0"

    def map_terms(self, fn):
        out = {}
        for lam, c in self.terms.items():
            for mu, d in fn(lam).items():
                accumulate(out, mu, c * d)
        return out


def basis_element(weight: WeightClass, basis: str, lam, field: FqField) -> HeckeElement:
    return HeckeElement(weight, basis, {tuple(lam): field.one}, field)


_MAX_CUBE_RANK = 13  # a row scans 2^|delta| masks and up to 3^|delta| submasks


def _tau_row(lam, delta):
    """The nonzero Moebius values mu(lam, nu) as sorted (nu, int) pairs:
    nu = lam + alpha_S^vee over the sets S inside delta with nu
    antidominant, the value computed over subsets as bitmasks."""
    if len(delta) > _MAX_CUBE_RANK:
        raise ValueError("Levi rank too large for the unit-cube expansion")
    roots = sorted(delta)
    values, row = {}, []
    # increasing masks visit every subset of a set before the set itself
    for mask in range(1 << len(roots)):
        nu = list(lam)
        for b, i in enumerate(roots):
            if mask >> b & 1:
                nu[i - 1] += 1
                nu[i] -= 1
        if not is_antidominant(nu):
            continue
        value, sub = (0 if mask else 1), mask
        while sub:
            sub = (sub - 1) & mask
            value -= values.get(sub, 0)
        values[mask] = value
        if value:
            row.append((tuple(nu), value))
    return sorted(row)


def satake_T_to_tau(x: HeckeElement) -> HeckeElement:
    """Expand in the tau basis: T_lam goes to the sum of mu(lam, nu) tau_nu
    over the unit cube nu = lam + alpha_S^vee, S inside Delta_M (at most
    2^|Delta_M| terms).  Unitriangular with leading coefficient 1 at lam."""
    if x.basis != "T":
        raise ValueError("element is not in the T basis")
    delta = x.weight.levi.delta

    def expand(lam):
        return {nu: x.field(m) for nu, m in _tau_row(lam, delta)}

    return HeckeElement(x.weight, "tau", x.map_terms(expand), x.field)


def satake_tau_to_T(x: HeckeElement) -> HeckeElement:
    """Expand in the T basis: tau_mu is the plain sum of T_lam over the
    interval above mu."""
    if x.basis != "tau":
        raise ValueError("element is not in the tau basis")
    M = x.weight.levi

    def expand(mu):
        return {lam: x.field.one for lam in interval_above(mu, M)}

    return HeckeElement(x.weight, "T", x.map_terms(expand), x.field)


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product via the tau basis (tau_a tau_b = tau_{a+b}); the result is
    returned in the basis of the first factor."""
    if a.weight != b.weight or a.field != b.field:
        raise ValueError("operands live in different Hecke algebras")
    ta = satake_T_to_tau(a) if a.basis == "T" else a
    tb = satake_T_to_tau(b) if b.basis == "T" else b
    out = ta.map_terms(lambda lam: {add(lam, mu): d for mu, d in tb.terms.items()})
    prod = HeckeElement(a.weight, "tau", out, a.field)
    return satake_tau_to_T(prod) if a.basis == "T" else prod


def double_support_claim(M: StandardParabolic, i: int, box: int) -> bool:
    """Exhaustively check, for antidominant mu with entries in [-box, box],
    that mu >=_M 2*lam iff mu = 2*lam or mu >=_M 2*lam + alpha_i^vee, where
    lam is the i-th fundamental antidominant coweight.

    Together with the basis change this is why the tau expansion of T_{2 lam}
    has exactly two terms with opposite signs.  The antidominant mu are the
    sorted tuples of ``combinations_with_replacement``; those whose sum
    differs from sum(2*lam) satisfy both sides vacuously and are skipped.

    Acceptance criterion 3 checks through it a statement about the mod p
    Satake transform, through which the paper defines supersingularity: T at
    a doubled fundamental coweight 2*lam goes to tau_{2 lam} minus
    tau_{2 lam + alpha_i^vee}, two terms whose coefficients sum to zero.
    """
    n = M.n
    if i not in M.delta:
        raise ValueError(f"alpha_{i} is not a simple root of the Levi {M}")
    lam2 = tuple(2 * v for v in fundamental_antidominant_coweight(n, i))
    target = add(lam2, simple_coroot(n, i))
    want = sum(lam2)
    return all(leq_M(lam2, mu, M) == (mu == lam2 or leq_M(target, mu, M))
               for mu in combinations_with_replacement(range(-box, box + 1), n)
               if sum(mu) == want)
