"""Classification data for irreducible admissible GL_n(F)-representations and
the constituent calculus for parabolic inductions of such data.

An induction datum is a standard parabolic together with one block
representation per Levi block: either an opaque supersingular label with its
central character, or a twisted generalized Steinberg (a parabolic of the
block group plus a twisting character).  Canonical data satisfy: supersingular
blocks have size > 1 (a one-dimensional character is the generalized Steinberg
of the full block group), and consecutive Steinberg blocks carry distinct
twisting characters.

A datum violating the second constraint is not irreducible.  Its maximal
runs of equal-twist Steinberg blocks, each supersingular block a run on its
own, are found once: delta, the number of failing adjacencies, is the block
count less the run count, and each simple constituent merges every run into
one block and makes its free parabolic choices.  There are 2^delta, each
occurring once, and the lattice of "submodules" is the lattice of lower sets
of the choice poset.  That poset is B_delta on the bits of the constituent
index: the binary digits of index i are the runs' choice masks, first run
highest, and bit b of a run's mask is set when free boundary b is chosen.
Reverse inclusion of the chosen parabolics is then i & j == j; the least
constituent (every boundary chosen) is 2^delta - 1, the greatest is 0.  So
the submodule lattice depends on delta alone: it is built once per delta
under a bounded cache, and every datum with that delta shares the object.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product

from ._record import Record
from .eigen import ParamPair, SmoothCharacter
from .root_datum import StandardParabolic


class Supersingular(Record):
    """An opaque supersingular block: never constructed, only labelled."""

    __slots__ = ("size", "label", "central")

    def __init__(self, size: int, label: str, central: SmoothCharacter):
        if size < 1:
            raise ValueError("block size must be positive")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "central", central)


class Steinberg(Record):
    """A generalized Steinberg block twisted by a character: the pair of a
    standard parabolic Q of the block group and the twist eta.  Q equal to
    the full block group encodes the character eta itself."""

    __slots__ = ("size", "Q", "eta")

    def __init__(self, size: int, Q: StandardParabolic, eta: SmoothCharacter):
        if Q.n != size:
            raise ValueError("Q must be a standard parabolic of the block group")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "eta", eta)


class InductionDatum(Record):
    __slots__ = ("P", "blocks")

    def __init__(self, P: StandardParabolic, blocks: tuple):
        blocks = tuple(blocks)
        if len(blocks) != len(P.composition):
            raise ValueError("one block representation per Levi block required")
        for size, blk in zip(P.composition, blocks):
            if not isinstance(blk, (Supersingular, Steinberg)):
                raise ValueError(f"unknown block representation {blk!r}")
            if blk.size != size:
                raise ValueError("block sizes must match the composition")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return self.P.n


def _runs(blocks):
    """The maximal runs of adjacent Steinberg blocks with equal twist, left
    to right, as lists; each supersingular block is a run on its own."""
    return [list(run) for _, run in groupby(
        blocks, key=lambda b: b.eta if isinstance(b, Steinberg) else object())]


def delta(datum: InductionDatum) -> int:
    """Number of adjacent Steinberg pairs with equal twist, r - 1 per run of r."""
    return len(datum.blocks) - len(_runs(datum.blocks))


def _has_unit_supersingular(datum: InductionDatum) -> bool:
    return any(isinstance(blk, Supersingular) and blk.size == 1 for blk in datum.blocks)


def validate(datum: InductionDatum) -> bool:
    """Canonical-form constraints: supersingular blocks have size > 1 and
    consecutive Steinberg blocks have distinct twists."""
    return delta(datum) == 0 and not _has_unit_supersingular(datum)


class IrreducibleRep(Record):
    """A validated canonical induction datum; equality is structural."""

    __slots__ = ("datum",)

    def __init__(self, datum: InductionDatum):
        if not validate(datum):
            raise ValueError("datum is not in canonical form")
        object.__setattr__(self, "datum", datum)

    def short(self) -> str:
        parts = []
        for blk in self.datum.blocks:
            if isinstance(blk, Supersingular):
                parts.append(f"ss{blk.size}[{blk.label}]")
            else:
                comp = ",".join(str(c) for c in blk.Q.composition)
                parts.append(f"Sp({comp})*({blk.eta.unramified};{blk.eta.tame_exponent})")
        return "Ind(" + "|".join(parts) + ")"


class ConstituentPoset(Record):
    """Constituents of an induction datum, ordered by reverse inclusion of
    their free parabolic choices: B_delta on the bits of the element index."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple):
        object.__setattr__(self, "elements", elements)  # IrreducibleRep, canonical order

    def __len__(self):
        return len(self.elements)

    @staticmethod
    def leq(i: int, j: int) -> bool:
        """i below j: i chooses every free boundary j chooses, so every chosen
        parabolic of i contains that of j; as index bits, i & j == j.  The
        order depends on the indices alone, not on the datum."""
        return i & j == j


def constituents(datum: InductionDatum) -> ConstituentPoset:
    """All simple constituents, each with multiplicity one, 2^delta of them.

    A run of Steinberg blocks of total size m offers one merged block per
    mask: the parabolic of GL_m with the given trace on the run's Levi that
    holds free boundary b when bit b is set.  A supersingular run offers
    itself.  The elements take one option per run, in lexicographic order
    with runs left to right, so the first run's mask varies slowest.
    """
    options = []
    for run in _runs(datum.blocks):
        if isinstance(run[0], Supersingular):
            options.append(run)
            continue
        L = StandardParabolic(tuple(b.size for b in run))
        m, free = L.n, L.boundaries
        # the union of the run's parabolic subsets, shifted into GL_m
        inner = {offset + r for offset, b in zip((0,) + free, run) for r in b.Q.delta}
        merged = []
        for mask in range(1 << len(free)):
            chosen = {f for bit, f in enumerate(free) if mask >> bit & 1}
            Q = StandardParabolic.from_delta(m, inner | chosen)
            merged.append(Steinberg(m, Q, run[0].eta))
        options.append(merged)
    elements = []
    for blocks in product(*options):
        P = StandardParabolic(tuple(b.size for b in blocks))
        elements.append(IrreducibleRep(InductionDatum(P, blocks)))
    return ConstituentPoset(tuple(elements))


def param_pair(rep) -> ParamPair:
    """The eigenvalue pair shared by every weight of the representation.

    Supersingular blocks contribute their full block with the central
    character; a Steinberg block of size m contributes m singleton blocks,
    each carrying the twist.
    """
    datum = rep.datum if isinstance(rep, IrreducibleRep) else rep
    comp, chars = [], []
    for blk in datum.blocks:
        if isinstance(blk, Supersingular):
            comp.append(blk.size)
            chars.append(blk.central)
        else:
            comp.extend([1] * blk.size)
            chars.extend([blk.eta] * blk.size)
    return ParamPair(StandardParabolic(tuple(comp)), tuple(chars))


# a poset with more lower sets than this is refused while they are listed, so a
# wide poset (an antichain of 32 has 2^32) fails fast instead of exhausting memory
_MAX_LOWER_SETS = 1 << 20


def lower_sets(leq, k: int):
    """All lower sets of a poset on range(k) given by its order predicate,
    sorted by (size, elements).

    The elements are added in a linear extension (by down-set size); the lower
    sets of each prefix are those of the previous prefix plus, for those
    holding all strict predecessors of the new element, their union with it.
    The cost is O(k * #lower sets), not O(2^k).  Constituent posets are the
    Boolean posets B_delta with k = 2^delta: delta <= 5 (7,581 lower sets) is
    accepted and delta = 6 (7,828,354) is refused before any enumeration.
    """
    if k > 32:
        raise ValueError("poset too large for exhaustive lower-set enumeration")
    below = [sum(1 << i for i in range(k) if i != j and leq(i, j)) for j in range(k)]
    masks = [0]
    for j in sorted(range(k), key=lambda j: below[j].bit_count()):
        bit, need = 1 << j, below[j]
        masks += [m | bit for m in masks if need & m == need]
        if len(masks) > _MAX_LOWER_SETS:
            raise ValueError("poset too large for exhaustive lower-set enumeration")
    out = [frozenset(i for i in range(k) if m >> i & 1) for m in masks]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


class SubmoduleLattice(Record):
    """The submodule lattice of a datum's 2^delta constituents: the lower sets
    of B_delta on their indices, each a sorted tuple; the principal lower set
    at j is the unique submodule with cosocle j."""

    __slots__ = ("sets", "principal", "covers", "socle", "cosocle")

    def __init__(self, sets: tuple, principal: tuple, covers: tuple, socle: tuple,
                 cosocle: tuple):
        object.__setattr__(self, "sets", sets)  # all lower sets, sorted by (size, elements)
        object.__setattr__(self, "principal", principal)  # per constituent index j, its down-set
        object.__setattr__(self, "covers", covers)  # (a, b) in order, sets[b] = sets[a] plus one
        object.__setattr__(self, "socle", socle)  # the minimal constituent, every bit set
        object.__setattr__(self, "cosocle", cosocle)  # the maximal constituent, no bit set

    @property
    def count(self) -> int:
        return len(self.sets)


@lru_cache(maxsize=6)
def boolean_lower_sets(delta: int) -> SubmoduleLattice:
    """The submodule lattice for 2^delta constituents, built once per delta:
    delta = 0..5 is one cache entry each, and delta >= 6 is refused by
    ``lower_sets`` before any enumeration, which adds no entry."""
    k, leq = 1 << delta, ConstituentPoset.leq
    sets = tuple(tuple(sorted(s)) for s in lower_sets(leq, k))
    principal = tuple(tuple(i for i in range(k) if leq(i, j)) for j in range(k))
    # a lower set is covered exactly by the lower sets one element larger;
    # adding a larger j gives a later set in the (size, elements) order, so
    # each set's covers come out in index order
    masks = [sum(1 << i for i in t) for t in sets]
    index = {m: idx for idx, m in enumerate(masks)}
    covers = tuple((a, b) for a, m in enumerate(masks) for j in range(k)
                   if not m >> j & 1 and (b := index.get(m | 1 << j)) is not None)
    return SubmoduleLattice(sets, principal, covers, (k - 1,), (0,))


def submodule_lattice(datum: InductionDatum) -> SubmoduleLattice:
    """The shared lattice of the datum's delta; a size-1 supersingular block is
    refused as ``constituents`` refuses it, without building them."""
    if _has_unit_supersingular(datum):
        raise ValueError("datum is not in canonical form")
    return boolean_lower_sets(delta(datum))
