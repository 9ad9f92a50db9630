"""Calculus of irreducible GL_n(F_q)-representations at the level of their
q-restricted highest weights.

A weight class is a dominant integer vector nu with all simple pairings in
[0, q-1], taken modulo (q-1)Z(1,...,1); the canonical representative has
last entry in [0, q-2].  The Levi variant is normalized blockwise.  None of
the operations here ever materialize the representation itself; everything
is a coordinate formula on highest weights (the oracle module builds actual
modules for tiny cases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .finite_field import prime_radical
from .root_datum import (
    StandardParabolic, fundamental_weight, is_dominant, pairing, stab_levi,
)


def _canonical_global(nu, q):
    # land the last entry in [0, q-2]
    shift = nu[-1] - (nu[-1] % (q - 1))
    return tuple(v - shift for v in nu)


@dataclass(frozen=True)
class WeightClass:
    """A q-restricted highest weight modulo (q-1)Z(1,...,1)."""

    nu: tuple
    q: int
    p: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(self.nu))
        object.__setattr__(self, "p", prime_radical(self.q))
        if not is_dominant(self.nu):
            raise ValueError(f"{self.nu} is not dominant")
        for i in range(1, len(self.nu)):
            if not 0 <= pairing(self.nu, i) <= self.q - 1:
                raise ValueError(f"{self.nu} is not {self.q}-restricted")
        if self.nu[-1] % (self.q - 1) != self.nu[-1]:
            raise ValueError(f"{self.nu} is not canonical (last entry not in [0, q-2])")

    @property
    def n(self) -> int:
        return len(self.nu)

    @property
    def levi(self) -> StandardParabolic:
        """The Levi whose Weyl group stabilizes the highest-weight line."""
        return stab_levi(self.nu)


def make_weight(nu, q: int) -> WeightClass:
    """Canonicalize nu modulo (q-1)(1,...,1) and build the class."""
    return WeightClass(_canonical_global(tuple(nu), q), q)


@dataclass(frozen=True)
class LeviWeightClass:
    """A blockwise q-restricted highest weight for a Levi, normalized so the
    last entry of each block lies in [0, q-2]."""

    M: StandardParabolic
    nu: tuple
    q: int

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(self.nu))
        if len(self.nu) != self.M.n:
            raise ValueError("rank mismatch")
        for block in self.M.blocks():
            vals = [self.nu[j - 1] for j in block]
            if any(vals[a] < vals[a + 1] for a in range(len(vals) - 1)):
                raise ValueError(f"{self.nu} is not dominant on block {block}")
            if any(not 0 <= vals[a] - vals[a + 1] <= self.q - 1 for a in range(len(vals) - 1)):
                raise ValueError(f"{self.nu} is not {self.q}-restricted on block {block}")
            if vals[-1] % (self.q - 1) != vals[-1]:
                raise ValueError(f"{self.nu} is not blockwise canonical")


def make_levi_weight(M: StandardParabolic, nu, q: int) -> LeviWeightClass:
    """Canonicalize blockwise (each block modulo (q-1)(1,...,1) on the block)."""
    nu = list(nu)
    if len(nu) != M.n:
        raise ValueError("rank mismatch")
    for block in M.blocks():
        last = block[-1]
        shift = nu[last - 1] - (nu[last - 1] % (q - 1))
        for j in block:
            nu[j - 1] -= shift
    return LeviWeightClass(M, tuple(nu), q)


def restrict_to_levi(V: WeightClass, P: StandardParabolic) -> LeviWeightClass:
    """The weight class of the Levi of P on the same highest weight.

    Only the ambient group shrinks; the vector is re-normalized blockwise.
    """
    if P.n != V.n:
        raise ValueError("rank mismatch")
    return make_levi_weight(P, V.nu, V.q)


def is_M_regular(V: WeightClass, M: StandardParabolic) -> bool:
    """True iff the highest-weight line has stabilizer inside W_M, i.e. all
    block-boundary pairings are strictly positive."""
    if M.n != V.n:
        raise ValueError("rank mismatch")
    return all(pairing(V.nu, i) > 0 for i in M.boundaries)


def regular_cover(Vbar: LeviWeightClass) -> WeightClass:
    """The unique M-regular weight class restricting to Vbar.

    Solves for blockwise constants: shifting block b by (q-1)k_b keeps the
    blockwise class, and each boundary pairing can be forced into [1, q-1]
    by exactly one choice of the next k; a final global shift makes the
    result canonical.
    """
    q, M = Vbar.q, Vbar.M
    nu = list(Vbar.nu)
    blocks = M.blocks()
    for b in range(1, len(blocks)):
        d = nu[blocks[b - 1][-1] - 1] - nu[blocks[b][0] - 1]
        k = (d - 1) // (q - 1)  # unique k with d - (q-1)k in [1, q-1]
        for j in blocks[b]:
            nu[j - 1] += (q - 1) * k
    V = make_weight(nu, q)
    assert is_M_regular(V, M)
    return V


def central_character_exponents(Vbar: LeviWeightClass) -> tuple:
    """Per Levi block, the exponent mod q-1 through which the block's central
    torus k^x acts on the highest weight."""
    q = Vbar.q
    return tuple(sum(Vbar.nu[j - 1] for j in block) % (q - 1)
                 for block in Vbar.M.blocks())


def weight_partner_for_change(V: WeightClass, i: int) -> WeightClass:
    """The companion weight nu + (q-1)omega_i, defined when <nu, alpha_i^vee>
    vanishes; the i-th pairing becomes q-1 and all others are unchanged."""
    if pairing(V.nu, i) != 0:
        raise ValueError(f"<nu, alpha_{i}^vee> = {pairing(V.nu, i)} != 0")
    omega = fundamental_weight(V.n, i)
    nu = tuple(v + (V.q - 1) * w for v, w in zip(V.nu, omega))
    return make_weight(nu, V.q)


def enumerate_weight_classes(n: int, q: int):
    """All canonical q-restricted weight classes for GL_n (finite: pairings
    in [0, q-1], last entry in [0, q-2]): the classes of the Levi G itself.

    Acceptance criterion 7 checks through it that restriction to a Levi M is
    a bijection from the M-regular weights of GL_n(F_q) onto the weights of
    M(F_q), the inverse being the regular cover.
    """
    return [WeightClass(c.nu, q)
            for c in enumerate_levi_weight_classes(StandardParabolic.full(n), q)]


def enumerate_levi_weight_classes(M: StandardParabolic, q: int):
    """All canonical blockwise q-restricted classes for the Levi M, the
    target of the restriction bijection that acceptance criterion 7 checks."""
    per_block = []
    for block in M.blocks():
        size = len(block)
        vals = []
        for diffs in product(range(q), repeat=size - 1):
            for last in range(q - 1):
                col = [last]
                for d in reversed(diffs):
                    col.append(col[-1] + d)
                vals.append(tuple(reversed(col)))
        per_block.append(vals)
    out = []
    for combo in product(*per_block):
        nu = tuple(v for blockvals in combo for v in blockvals)
        out.append(LeviWeightClass(M, nu, q))
    return out
