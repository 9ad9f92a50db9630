import random
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from gln_modp.finite_field import FqField
from gln_modp.classify import (
    ConstituentPoset, InductionDatum, IrreducibleRep, Steinberg, Supersingular,
    constituents, delta, lower_sets, param_pair, submodule_lattice, validate,
)
from gln_modp.eigen import SmoothCharacter, is_supersingular, trivial_character
from gln_modp.root_datum import StandardParabolic, all_parabolics

Q = 3
F9 = FqField(3, 2)
UNITS = [u for u in F9.units()]
GL1 = StandardParabolic.full(1)
ETA = SmoothCharacter(UNITS[0], 0, Q)
ETA1 = SmoothCharacter(UNITS[1], 0, Q)
ETA2 = SmoothCharacter(UNITS[2], 1, Q)


def st1(eta):
    return Steinberg(1, GL1, eta)


def principal_series(chars):
    n = len(chars)
    return InductionDatum(StandardParabolic.torus(n), tuple(st1(c) for c in chars))


def test_validate():
    assert validate(principal_series((ETA1, ETA2)))
    assert not validate(principal_series((ETA1, ETA1)))
    d = InductionDatum(StandardParabolic((2, 1)), (Supersingular(2, "s", ETA), st1(ETA1)))
    assert validate(d)
    bad = InductionDatum(StandardParabolic((1, 1)), (Supersingular(1, "x", ETA), st1(ETA1)))
    assert not validate(bad)
    with pytest.raises(ValueError):
        InductionDatum(StandardParabolic((2, 1)), (st1(ETA), st1(ETA1)))  # size mismatch


def test_delta():
    assert delta(InductionDatum(StandardParabolic((2, 1)),
                                (Supersingular(2, "s", ETA), st1(ETA1)))) == 0
    assert delta(principal_series((ETA, ETA, ETA2))) == 1
    assert delta(principal_series((ETA, ETA, ETA))) == 2


def test_constituents_examples():
    cp = constituents(principal_series((ETA, ETA)))
    assert len(cp) == 2
    assert {(r.datum.P.composition, r.datum.blocks[0].Q.composition)
            for r in cp.elements} == {((2,), (1, 1)), ((2,), (2,))}

    cp = constituents(principal_series((ETA, ETA, ETA2)))
    assert len(cp) == 2
    assert {(r.datum.P.composition, r.datum.blocks[0].Q.composition)
            for r in cp.elements} == {((2, 1), (1, 1)), ((2, 1), (2,))}
    for r in cp.elements:
        assert r.datum.blocks[1].eta == ETA2

    d = InductionDatum(StandardParabolic((2, 1)), (Supersingular(2, "s", ETA), st1(ETA1)))
    cp = constituents(d)
    assert len(cp) == 1 and cp.elements[0].datum == d


def steinberg_choices(datum):
    """The parabolics Q of the single merged Steinberg block of each
    constituent of a datum whose blocks all share one twist."""
    return {r.datum.blocks[0].Q.composition for r in constituents(datum).elements}


def test_steinberg_run_levi_trace_examples():
    # a run sweeps the parabolics of GL_3 whose trace on its Levi (2,1) is
    # the given one: empty, then {alpha_1}
    d = InductionDatum(StandardParabolic((2, 1)),
                       (Steinberg(2, StandardParabolic.torus(2), ETA), st1(ETA)))
    assert steinberg_choices(d) == {(1, 1, 1), (1, 2)}
    d = InductionDatum(StandardParabolic((2, 1)),
                       (Steinberg(2, StandardParabolic.full(2), ETA), st1(ETA)))
    assert steinberg_choices(d) == {(2, 1), (3,)}


def test_steinberg_constituents():
    d = InductionDatum(StandardParabolic.full(3), (Steinberg(3, StandardParabolic((2, 1)), ETA),))
    assert steinberg_choices(d) == {(2, 1)}
    assert steinberg_choices(principal_series((ETA, ETA))) == {(1, 1), (2,)}


def test_steinberg_run_sweeps_parabolics_with_levi_trace():
    for n in (3, 4, 5):
        for M in all_parabolics(n):
            for size in range(len(M.delta) + 1):
                Q = StandardParabolic.from_delta(n, sorted(M.delta)[:size])
                blocks = []
                for block in M.blocks():
                    # the roots of Q inside the block, renumbered from 1
                    inner = {j - block[0] + 1 for j in Q.delta if j + 1 in block}
                    Qb = StandardParabolic.from_delta(len(block), inner)
                    blocks.append(Steinberg(len(block), Qb, ETA))
                cp = constituents(InductionDatum(M, tuple(blocks)))
                assert len(cp) == 2 ** (n - 1 - len(M.delta))
                for r in cp.elements:
                    (blk,) = r.datum.blocks
                    assert blk.Q.delta & M.delta == Q.delta


def test_param_pair():
    ss = IrreducibleRep(InductionDatum(StandardParabolic.full(2),
                                       (Supersingular(2, "s", ETA),)))
    pp = param_pair(ss)
    assert pp.M == StandardParabolic.full(2) and pp.chars == (ETA,)
    assert is_supersingular(pp)

    sp = IrreducibleRep(InductionDatum(StandardParabolic.full(3),
                                       (Steinberg(3, StandardParabolic((2, 1)), ETA1),)))
    pq = param_pair(sp)
    assert pq.M == StandardParabolic.torus(3) and pq.chars == (ETA1,) * 3

    mixed = InductionDatum(StandardParabolic((2, 1)), (Supersingular(2, "s", ETA), st1(ETA1)))
    pm = param_pair(mixed)
    assert pm.M.composition == (2, 1) and pm.chars == (ETA, ETA1)


def test_param_pair_distinguishes_data():
    # different parabolic, same characters
    a = param_pair(InductionDatum(StandardParabolic((2, 1)),
                                  (Supersingular(2, "s", ETA), st1(ETA))))
    b = param_pair(principal_series((ETA, ETA, ETA)))
    assert a != b
    # same parabolic, different character multiset
    c = param_pair(principal_series((ETA, ETA1)))
    d = param_pair(principal_series((ETA, ETA2)))
    assert c != d


def test_supersingular_pair_iff_single_supersingular_block():
    full = StandardParabolic.full(2)
    ss = InductionDatum(full, (Supersingular(2, "s", ETA),))
    assert is_supersingular(param_pair(ss))
    sp = InductionDatum(full, (Steinberg(2, StandardParabolic.torus(2), ETA),))
    assert not is_supersingular(param_pair(sp))
    mixed = InductionDatum(StandardParabolic((2, 1)),
                           (Supersingular(2, "s", ETA), st1(ETA1)))
    assert not is_supersingular(param_pair(mixed))


def test_principal_series_criteria():
    # a principal series is irreducible iff adjacent characters differ
    def irreducible(chars):
        return len(constituents(principal_series(chars))) == 1

    assert irreducible((ETA1, ETA2))
    assert not irreducible((ETA, ETA))
    same_unram = (SmoothCharacter(UNITS[0], 0, Q), SmoothCharacter(UNITS[0], 1, Q))
    assert irreducible(same_unram)
    # equal tame exponents alone do not make it reducible
    distinct_wild = (SmoothCharacter(UNITS[0], 0, Q), SmoothCharacter(UNITS[1], 0, Q))
    assert irreducible(distinct_wild)


def test_trivial_principal_series_lengths_and_lattices():
    one = trivial_character(F9, Q)
    for n, length, count in ((2, 2, 3), (3, 4, 6), (4, 8, 20)):
        d = principal_series((one,) * n)
        cp = constituents(d)
        assert len(cp) == length
        lat = submodule_lattice(d)
        assert lat.count == count
        assert len(lat.socle) == 1 and len(lat.cosocle) == 1
        socle_rep = cp.elements[next(iter(lat.socle))]
        assert socle_rep.datum.blocks[0].Q.composition == (n,)       # trivial quotient type
        cosocle_rep = cp.elements[next(iter(lat.cosocle))]
        assert cosocle_rep.datum.blocks[0].Q.composition == (1,) * n  # full Steinberg


def test_lattice_laws():
    d = principal_series((ETA, ETA, ETA))
    lat, cp = submodule_lattice(d), constituents(d)
    sets = set(map(frozenset, lat.sets))
    assert frozenset() in sets and frozenset(range(len(cp))) in sets
    for a in sets:
        for b in sets:
            assert a | b in sets and a & b in sets
    for j, down in enumerate(lat.principal):
        assert frozenset(down) in sets
        assert max(down, key=lambda i: (cp.leq(j, i), i) == j) is not None
        assert j in down
        for i in down:
            assert cp.leq(i, j)


def test_lower_sets_of_antichain():
    no_order = lambda i, j: i == j
    assert len(lower_sets(no_order, 3)) == 8


def reference_lower_sets(leq, k):
    """Every subset of range(k) that contains the down-set of each of its
    elements, sorted by (size, elements): the exhaustive 2^k filter."""
    down = [frozenset(i for i in range(k) if leq(i, j)) for j in range(k)]
    out = []
    for bits in range(1 << k):
        s = frozenset(i for i in range(k) if bits >> i & 1)
        if all(down[j] <= s for j in s):
            out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


@st.composite
def posets(draw):
    """A random partial order on range(k), k <= 12: a DAG on a shuffled
    labelling (so the labels are not a linear extension), transitively
    closed."""
    k = draw(st.integers(0, 12))
    label = draw(st.permutations(range(k)))
    below = [{j} for j in range(k)]
    for b in range(k):
        for a in range(b):
            if draw(st.booleans()):
                below[label[b]] |= below[label[a]]
    return (lambda i, j: i in below[j]), k


@given(posets())
def test_lower_sets_match_exhaustive_filter(poset):
    leq, k = poset
    assert lower_sets(leq, k) == reference_lower_sets(leq, k)


def test_dedekind_counts_and_lattice_closure():
    one = trivial_character(F9, Q)
    for d, count in enumerate((2, 3, 6, 20, 168, 7581)):
        datum = principal_series((one,) * (d + 1))
        lat = submodule_lattice(datum)
        assert len(constituents(datum)) == 2 ** d and lat.count == count
        sets = set(map(frozenset, lat.sets))
        principal = [frozenset(down) for down in lat.principal]
        assert len(sets) == count
        assert all(principal[j] <= s for s in sets for j in s)
        if d <= 4:
            assert all(a | b in sets and a & b in sets for a in sets for b in sets)
        else:
            # every lower set is a union of principal ones, so closure under
            # joining one principal set gives closure under unions and
            # intersections (57M pairs are too many to list here)
            assert frozenset() in sets
            assert all(s | p in sets for s in sets for p in principal)


def test_lower_sets_refuse_large_posets():
    with pytest.raises(ValueError, match="poset too large"):
        lower_sets(lambda i, j: i <= j, 33)
    with pytest.raises(ValueError, match="poset too large"):
        lower_sets(lambda i, j: i == j, 32)  # an antichain: 2^32 lower sets


def test_lattice_refuses_what_constituents_refuses():
    # a size-1 supersingular block makes every constituent non-canonical; the
    # shared lattice refuses it too, at delta = 0 and at delta = 1
    for datum in (
            InductionDatum(StandardParabolic.torus(2), (Supersingular(1, "s", ETA), st1(ETA1))),
            InductionDatum(StandardParabolic.torus(3),
                           (st1(ETA), st1(ETA), Supersingular(1, "s", ETA1)))):
        for build in (constituents, submodule_lattice):
            with pytest.raises(ValueError, match="datum is not in canonical form"):
                build(datum)


def test_chain_lattice_for_single_run():
    d = principal_series((ETA, ETA, ETA2))
    lat = submodule_lattice(d)
    assert lat.count == 3  # lower sets of a 2-chain


def random_family():
    """Three random data per standard parabolic of GL_n, n = 2..5, with F_9
    characters: blocks of size > 1 are supersingular 40 % of the time."""
    rng = random.Random(9)
    for n in range(2, 6):
        for P in all_parabolics(n):
            comp = P.composition
            for _ in range(3):
                blocks = []
                for size in comp:
                    if size > 1 and rng.random() < 0.4:
                        blocks.append(Supersingular(
                            size, f"s{size}",
                            SmoothCharacter(rng.choice(UNITS), rng.randint(0, 1), Q)))
                    else:
                        sub = rng.sample(range(1, size), k=rng.randint(0, size - 1)) if size > 1 else []
                        blocks.append(Steinberg(
                            size, StandardParabolic.from_delta(size, sub),
                            SmoothCharacter(rng.choice(UNITS), rng.randint(0, 1), Q)))
                yield InductionDatum(P, tuple(blocks))


def test_random_family_counts_distinctness_shared_pair():
    for d in random_family():
        cp = constituents(d)
        assert len(cp) == 2 ** delta(d)
        assert len(set(cp.elements)) == len(cp)
        assert {param_pair(r) for r in cp.elements} == {param_pair(d)}
        for r in cp.elements:
            assert validate(r.datum)


def reference_order(cp):
    """The choice order read from the constituents' data, not their indices:
    i is below j when each Steinberg parabolic of i contains the one in the
    same place of j (the merged runs sit in the same places in every
    constituent)."""
    chosen = [[blk.Q.delta for blk in r.datum.blocks if isinstance(blk, Steinberg)]
              for r in cp.elements]
    return lambda i, j: all(a >= b for a, b in zip(chosen[i], chosen[j]))


def assert_order_matches_reference(datum):
    lat, cp = submodule_lattice(datum), constituents(datum)
    k = len(cp)
    leq = reference_order(cp)
    for j in range(k):
        assert [cp.leq(i, j) for i in range(k)] == [leq(i, j) for i in range(k)]
    assert lat.principal == tuple(tuple(i for i in range(k) if leq(i, j))
                                  for j in range(k))
    # the exhaustive scans for minimal and maximal elements
    assert lat.socle == tuple(j for j in range(k)
                              if not any(leq(i, j) for i in range(k) if i != j))
    assert lat.cosocle == tuple(j for j in range(k)
                                if not any(leq(j, i) for i in range(k) if i != j))


def test_bit_order_matches_the_order_of_the_chosen_parabolics():
    for d in random_family():
        assert_order_matches_reference(d)
    one = trivial_character(F9, Q)
    for n in range(2, 7):
        assert_order_matches_reference(principal_series((one,) * n))
    # two runs with free boundaries, split by a new twist or a supersingular block
    assert_order_matches_reference(principal_series((ETA, ETA, ETA1, ETA1, ETA1)))
    assert_order_matches_reference(InductionDatum(
        StandardParabolic((1, 2, 2, 1, 1)),
        (st1(ETA), Steinberg(2, StandardParabolic.full(2), ETA), Supersingular(2, "s", ETA),
         st1(ETA2), st1(ETA2))))


# The segment walk the runs replaced, kept as the reference: each maximal run
# of equal-twist Steinberg blocks is found by index and packed into a record,
# and the constituents walk the records with a second counter.

def reference_delta(datum):
    return sum(1 for a, b in zip(datum.blocks, datum.blocks[1:])
               if isinstance(a, Steinberg) and isinstance(b, Steinberg) and a.eta == b.eta)


@dataclass(frozen=True)
class SuperBlock:
    m: int
    inner: frozenset
    free: tuple
    eta: SmoothCharacter


def reference_super_blocks(datum):
    segments = []
    i = 0
    blocks = datum.blocks
    while i < len(blocks):
        blk = blocks[i]
        if isinstance(blk, Supersingular):
            segments.append(blk)
            i += 1
            continue
        j = i
        while (j + 1 < len(blocks) and isinstance(blocks[j + 1], Steinberg)
               and blocks[j + 1].eta == blk.eta):
            j += 1
        run = blocks[i:j + 1]
        inner, offset = set(), 0
        for b in run:
            inner |= {offset + r for r in b.Q.delta}
            offset += b.size
        L = StandardParabolic(tuple(b.size for b in run))
        segments.append(SuperBlock(L.n, frozenset(inner), L.boundaries, blk.eta))
        i = j + 1
    return segments


def reference_constituents(datum):
    segments = reference_super_blocks(datum)
    mask_ranges = [range(1 << len(seg.free)) for seg in segments
                   if isinstance(seg, SuperBlock)]
    elements = []
    for masks in product(*mask_ranges):
        blocks = []
        k = 0
        for seg in segments:
            if isinstance(seg, Supersingular):
                blocks.append(seg)
                continue
            extra = {seg.free[b] for b in range(len(seg.free)) if masks[k] >> b & 1}
            Qp = StandardParabolic.from_delta(seg.m, seg.inner | extra)
            blocks.append(Steinberg(seg.m, Qp, seg.eta))
            k += 1
        P = StandardParabolic(tuple(b.size for b in blocks))
        elements.append(IrreducibleRep(InductionDatum(P, tuple(blocks))))
    return ConstituentPoset(tuple(elements))


@st.composite
def mixed_data(draw):
    """Data of one to six blocks, so delta <= 5, mixing supersingular and
    Steinberg blocks.  Twists come from a pool of three and supersingular
    blocks from two labels and two central characters, so equal neighbours
    of both kinds occur, and a supersingular central character can equal a
    neighbouring Steinberg twist."""
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 3))
        if size > 1 and draw(st.booleans()):
            blocks.append(Supersingular(size, draw(st.sampled_from("st")),
                                        draw(st.sampled_from((ETA, ETA1)))))
        else:
            inner = draw(st.sets(st.integers(1, size - 1))) if size > 1 else ()
            blocks.append(Steinberg(size, StandardParabolic.from_delta(size, inner),
                                    draw(st.sampled_from((ETA, ETA1, ETA2)))))
    return InductionDatum(StandardParabolic(tuple(b.size for b in blocks)), tuple(blocks))


SS = Supersingular(2, "s", ETA)


@given(mixed_data())
@example(InductionDatum(StandardParabolic((1, 1, 2, 2, 1, 1)),
                        (st1(ETA), st1(ETA), SS, SS, st1(ETA), st1(ETA))))
def test_runs_match_the_reference_segment_walk(datum):
    assert delta(datum) == reference_delta(datum)
    assert constituents(datum).elements == reference_constituents(datum).elements
