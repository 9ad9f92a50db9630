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

from itertools import product

from ._record import Record
from .finite_field import prime_radical
from .root_datum import StandardParabolic, fundamental_weight, pairing, stab_levi


# A weight of GL_n is a Levi weight of the one-block Levi: both classes check
# and canonicalize each Levi block of nu by the same two rules.

def _check_block(vals, q):
    """Refuse the entries of one block unless they are dominant, q-restricted
    and end in [0, q-2]."""
    for a, b in zip(vals, vals[1:]):
        if a < b:
            raise ValueError(f"{vals} is not dominant")
    for a, b in zip(vals, vals[1:]):
        if a - b > q - 1:
            raise ValueError(f"{vals} is not {q}-restricted")
    if not 0 <= vals[-1] <= q - 2:
        raise ValueError(f"{vals} is not canonical (last entry not in [0, q-2])")


def _canonical_block(vals, q):
    """Shift one block by a multiple of (q-1)(1,...,1) so it ends in [0, q-2],
    after refusing a q that is not a prime power."""
    prime_radical(q)
    shift = vals[-1] - vals[-1] % (q - 1)
    return tuple(v - shift for v in vals)


def _split(nu, M: StandardParabolic):
    """The entries of nu on each Levi block of M, in order."""
    return [nu[block.start - 1:block.stop - 1] for block in M.blocks()]


class WeightClass(Record):
    """A q-restricted highest weight modulo (q-1)Z(1,...,1); its p, derived
    from q, is left out of equality and repr."""

    _fields = ("nu", "q")
    __slots__ = _fields + ("p",)

    def __init__(self, nu: tuple, q: int):
        object.__setattr__(self, "nu", tuple(nu))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", prime_radical(q))
        _check_block(self.nu, q)

    @property
    def n(self) -> int:
        return len(self.nu)

    @property
    def levi(self) -> StandardParabolic:
        """The Levi whose Weyl group stabilizes the highest-weight line."""
        return stab_levi(self.nu)


def make_weight(nu, q: int) -> WeightClass:
    """Canonicalize nu modulo (q-1)(1,...,1) and build the class."""
    return WeightClass(_canonical_block(tuple(nu), q), q)


class LeviWeightClass(Record):
    """A blockwise q-restricted highest weight for a Levi, normalized so the
    last entry of each block lies in [0, q-2]."""

    __slots__ = ("M", "nu", "q")

    def __init__(self, M: StandardParabolic, nu: tuple, q: int):
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "nu", tuple(nu))
        object.__setattr__(self, "q", q)
        prime_radical(self.q)
        if len(self.nu) != self.M.n:
            raise ValueError("rank mismatch")
        for vals in _split(self.nu, self.M):
            _check_block(vals, self.q)


def make_levi_weight(M: StandardParabolic, nu, q: int) -> LeviWeightClass:
    """Canonicalize blockwise (each block modulo (q-1)(1,...,1) on the block)."""
    nu = tuple(nu)
    if len(nu) != M.n:
        raise ValueError("rank mismatch")
    return LeviWeightClass(
        M, tuple(v for vals in _split(nu, M) for v in _canonical_block(vals, q)), q)


def restrict_to_levi(V: WeightClass, P: StandardParabolic) -> LeviWeightClass:
    """The weight class of the Levi of P on the same highest weight.

    Only the ambient group shrinks; the vector is re-normalized blockwise.
    """
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
    return tuple(sum(vals) % (q - 1) for vals in _split(Vbar.nu, Vbar.M))


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
