import io
import json
import time
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from gln_modp import cli, oracle
from gln_modp.oracle import (
    TinyWeightModule, _det, _radical_gens, _reduce_mod, _support_hypothesis,
    check_double_coset_support,
    check_invariants_coinvariants, check_iwahori_coset_count,
    check_minuscule_satake, coinvariant_kernel, exterior_power_module,
    gaussian_factorial_ratio, gl_elements, group_order_formula, in_big_cell,
    invariant_space, iwasawa_orbit_counts,
    rref, supported_weight_modules, sym_power_module, verify_gates,
)
from gln_modp.root_datum import StandardParabolic, all_parabolics
from gln_modp.weights import make_weight

B2 = StandardParabolic.torus(2)
B3 = StandardParabolic.torus(3)


def mat_det(A, q):
    n = len(A)
    M = [list(r) for r in A]
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c] % q
        inv = pow(M[c][c], q - 2, q)
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] * inv % q
                M[r] = [(x - f * y) % q for x, y in zip(M[r], M[c])]
    return det % q


def det_twist(construction, b):
    """The reference det^b twist of a construction, a module of its own: the
    gradings shifted by b, and the matrix of g the construction's times
    det(g)^b by the Gaussian ``mat_det``."""
    q = construction.q
    gradings = tuple(tuple(x + b for x in w) for w in construction.gradings)

    def matrix(g):
        detb = pow(mat_det(g, q), b, q)
        return tuple(tuple(x * detb % q for x in row) for row in construction.matrix(g))

    return TinyWeightModule(q, gradings, matrix)


@lru_cache(maxsize=64)
def twisted(n, q, nu):
    """The reference module of highest weight nu: the family's construction
    at nu twisted by det^b, b the last entry of nu."""
    return det_twist(supported_weight_modules(n, q)[nu], nu[-1])


@lru_cache(maxsize=8)
def all_matrices(n, q):
    """Every matrix of M_n(F_q) in lexicographic order, with its Gaussian
    determinant ``mat_det``: the reference for ``_det`` and for the group."""
    out = []
    for entries in product(range(q), repeat=n * n):
        A = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        out.append((A, mat_det(A, q)))
    return tuple(out)


def reference_group(n, q):
    """GL_n(F_q) by the scan of all q^(n^2) matrices through ``mat_det``."""
    return [A for A, det in all_matrices(n, q) if det]


def mat_rank(A, q):
    """The rank of a (possibly empty) matrix by Gaussian elimination."""
    M, rank = [list(r) for r in A], 0
    for c in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], q - 2, q)
        for r in range(rank + 1, len(M)):
            f = M[r][c] * inv % q
            M[r] = [(x - f * y) % q for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=8)
def _bruhat_cells(n, q):
    """The reference Bruhat decomposition: each permutation w, mapped to the
    kappa of ``reference_group`` in Bbar w B (Bbar lower, B upper
    triangular), in lexicographic order.  kappa is grouped by its top-left
    rank profile: the a x b block has rank #{i < a : w(i) < b}, so row a
    first raises the rank of the top-left blocks at b = w(a) + 1."""
    cells = {}
    for kappa in reference_group(n, q):
        ranks = [[mat_rank([row[:b] for row in kappa[:a]], q) for b in range(n + 1)]
                 for a in range(n + 1)]
        w = tuple(next(b for b in range(n) if ranks[a + 1][b + 1] > ranks[a][b + 1])
                  for a in range(n))
        cells.setdefault(w, []).append(kappa)
    return {w: tuple(cell) for w, cell in cells.items()}


def mat_mul(A, B, q):
    n, m, r = len(A), len(B[0]), len(B)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(r)) % q
                       for j in range(m)) for i in range(n))


def crossing_positions(P, upper):
    """The positions (a, b) above P's diagonal blocks, or below them when
    not ``upper``."""
    n = P.n
    return [(a, b) for a in range(n) for b in range(n)
            if (P.block_of(a + 1) < P.block_of(b + 1) if upper
                else P.block_of(a + 1) > P.block_of(b + 1))]


def parabolic_elements(n, q, P, opposite=False):
    """Elements of the block-upper standard parabolic (block-lower when
    ``opposite``): the entries crossing the blocks on the wrong side vanish."""
    forbidden = crossing_positions(P, upper=opposite)
    return [g for g in gl_elements(n, q)
            if all(g[a][b] == 0 for a, b in forbidden)]


def radical_elements(n, q, P, upper):
    """N_P (its opposite when not ``upper``) by brute force: the elements
    that are the identity outside the positions above (below) the blocks."""
    free = set(crossing_positions(P, upper))
    return {g for g in gl_elements(n, q)
            if all(g[a][b] == (a == b) for a in range(n) for b in range(n)
                   if (a, b) not in free)}


def group_closure(gens, n, q):
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = mat_mul(g, s, q)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


def test_radical_gens_generate_the_unipotent_radicals():
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for P in all_parabolics(n):
            for upper in (True, False):
                gens = _radical_gens(P, upper)
                assert len(gens) == len(crossing_positions(P, upper))
                assert group_closure(gens, n, q) == radical_elements(n, q, P, upper)


REFERENCE_CASES = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]


def test_group_enumeration_matches_formula():
    # the row-by-row enumeration gives the scan's elements in the scan's order
    for n, q in REFERENCE_CASES:
        assert list(gl_elements(n, q)) == reference_group(n, q)
        assert len(gl_elements(n, q)) == group_order_formula(n, q)


def test_leibniz_det_matches_the_gaussian_reference():
    # every matrix, singular ones included
    for n, q in REFERENCE_CASES:
        for A, det in all_matrices(n, q):
            assert _det(A, q) == det


def square4(q):
    return st.tuples(*[st.tuples(*[st.integers(0, q - 1)] * 4)] * 4)


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda q: st.tuples(st.just(q), square4(q), square4(q))))
def test_leibniz_det_is_multiplicative(case):
    # 4 x 4: larger than any determinant the gates take or the scans reach
    q, A, B = case
    assert _det(mat_mul(A, B, q), q) == _det(A, q) * _det(B, q) % q
    assert _det(A, q) == mat_det(A, q) and _det(B, q) == mat_det(B, q)


def test_size_and_primality_guards():
    with pytest.raises(ValueError):
        gl_elements(4, 3)
    with pytest.raises(ValueError):
        gl_elements(2, 4)
    with pytest.raises(ValueError):
        iwasawa_orbit_counts(2, 4, 1)
    with pytest.raises(ValueError, match="enumeration guard"):
        iwasawa_orbit_counts(4, 3, 1)
    # the support gate enumerates no kappa, yet keeps the same guard
    B4 = StandardParabolic.torus(4)
    with pytest.raises(ValueError, match="enumeration guard"):
        check_double_coset_support(4, 3, (3, 2, 1, 0), B4, B4)


def test_flag_coset_counts():
    assert gaussian_factorial_ratio(2, B2.composition, 2) == 3
    assert gaussian_factorial_ratio(2, B2.composition, 3) == 4
    assert gaussian_factorial_ratio(3, (2, 1), 2) == 7
    assert gaussian_factorial_ratio(3, B3.composition, 2) == 21


def subspaces(n, q, k):
    """All k-dimensional subspaces of F_q^n as canonical rref row bases,
    built from the free slots right of each pivot set."""
    out = []
    for pivots in combinations(range(n), k):
        free_slots = []
        for r, c in enumerate(pivots):
            free_slots.extend((r, j) for j in range(c + 1, n) if j not in pivots)
        for vals in product(range(q), repeat=len(free_slots)):
            M = [[0] * n for _ in range(k)]
            for r, c in enumerate(pivots):
                M[r][c] = 1
            for (r, j), v in zip(free_slots, vals):
                M[r][j] = v
            out.append(tuple(tuple(r) for r in M))
    return tuple(out)


def act_on_subspace(g, S, q):
    rows = tuple(tuple(sum(g[i][j] * v[j] for j in range(len(v))) % q
                       for i in range(len(g))) for v in S)
    return rref(rows, q)[0]


def reference_orbit_counts(n, q, i):
    """The U-orbits on the i-dimensional subspaces by breadth-first search
    over the elementary generators, each orbit keyed by -1_S of its one
    coordinate subspace e_S."""
    gens = _radical_gens(StandardParabolic.torus(n))
    remaining = set(subspaces(n, q, i))
    counts = {}
    while remaining:
        start = next(iter(remaining))
        orbit = {start}
        frontier = [start]
        while frontier:
            S = frontier.pop()
            for g in gens:
                T = act_on_subspace(g, S, q)
                if T not in orbit:
                    orbit.add(T)
                    frontier.append(T)
        remaining -= orbit
        coord = [S for S in orbit
                 if all(all(v in (0, 1) for v in row) and sum(row) == 1 for row in S)]
        assert len(coord) == 1, "each orbit must contain one coordinate subspace"
        pivots = {row.index(1) for row in coord[0]}
        counts[tuple(-1 if j in pivots else 0 for j in range(n))] = len(orbit)
    return counts


ORBIT_CASES = [(n, q, i) for n, q in [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]
               for i in range(1, n)]


def test_subspace_counts():
    assert len(subspaces(4, 2, 2)) == 35
    assert len(subspaces(3, 3, 1)) == 13


@pytest.mark.parametrize("n, q, i", ORBIT_CASES)
def test_orbit_counts_read_off_the_group_match_the_orbit_search(n, q, i):
    # U built from its rows gives the orbits the generator search finds,
    # and the Grassmannian has [n choose i]_q elements
    assert gaussian_factorial_ratio(n, (i, n - i), q) == len(subspaces(n, q, i))
    assert iwasawa_orbit_counts(n, q, i) == reference_orbit_counts(n, q, i)


def test_verify_gates_builds_each_orbit_table_once():
    # the n Iwahori gates reuse the table of the i = 1 minuscule gate
    iwasawa_orbit_counts.cache_clear()
    verify_gates(3, 3)
    tables = [(n, q, i) for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)] for i in range(1, n)]
    info = iwasawa_orbit_counts.cache_info()
    assert (info.misses, info.currsize, info.hits) == (len(tables), len(tables), 2 + 2 + 3 + 3)
    with pytest.raises(TypeError):
        iwasawa_orbit_counts(3, 3, 1)[(-1, 0, 0)] = 0


def test_iwasawa_orbit_counts():
    assert iwasawa_orbit_counts(2, 3, 1) == {(-1, 0): 1, (0, -1): 3}
    assert iwasawa_orbit_counts(2, 2, 1) == {(-1, 0): 1, (0, -1): 2}
    assert iwasawa_orbit_counts(3, 2, 1) == {(-1, 0, 0): 1, (0, -1, 0): 2, (0, 0, -1): 4}
    counts = iwasawa_orbit_counts(3, 3, 2)
    assert sum(counts.values()) == gaussian_factorial_ratio(3, (2, 1), 3)
    for size in counts.values():
        assert size in {3 ** k for k in range(5)}


def test_minuscule_satake_gate():
    for n, q in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        for i in range(1, n):
            assert check_minuscule_satake(n, q, i)


def test_sym_and_exterior_modules_are_representations():
    for mod in (sym_power_module(2, 3, 2), det_twist(sym_power_module(3, 2, 1), 1),
                exterior_power_module(3, 2, 2), det_twist(exterior_power_module(3, 3, 2), 1)):
        els = gl_elements(len(mod.gradings[0]), mod.q)[:40]
        for g in els[:6]:
            for h in els[5:11]:
                gh = mat_mul(g, h, mod.q)
                assert mod.matrix(gh) == mat_mul(mod.matrix(g), mod.matrix(h), mod.q)


def test_supported_family_contents():
    fam2 = supported_weight_modules(2, 3)
    assert (2, 0) in fam2
    assert fam2[(2, 0)].dim == 3
    fam3 = supported_weight_modules(3, 2)
    assert (1, 1, 0) in fam3 and fam3[(1, 1, 0)].dim == 3
    assert (1, 0, 0) in fam3 and fam3[(1, 0, 0)].dim == 3


FAMILY_CASES = [(2, 3), (2, 5), (3, 2), (3, 3)]


def construction_of(n, q, nu):
    """A fresh copy of the construction that nu twists: nu less its last
    entry b is (a, 0, ..., 0) for Sym^a, or the indicator of the first k
    coordinates for Lambda^k with k >= 2."""
    top = [x - nu[-1] for x in nu]
    if sum(1 for x in top if x) >= 2:
        return exterior_power_module(n, q, sum(top))
    return sym_power_module(n, q, top[0])


@pytest.mark.parametrize("n, q", FAMILY_CASES)
def test_family_top_grading_is_the_highest_weight_line(n, q):
    # the diagonal torus acts on each basis vector of a twist by the
    # character of its grading, and the upper unipotent invariants are the
    # first basis vector's line, so gradings[0] is the twist's highest weight
    torus = [tuple(tuple(t[i] if i == j else 0 for j in range(n)) for i in range(n))
             for t in product(range(1, q), repeat=n)]
    for nu, mod in supported_weight_modules(n, q).items():
        twist = twisted(n, q, nu)
        assert make_weight(twist.gradings[0], q).nu == nu
        for t in torus:
            chars = [prod(pow(t[j][j], w[j], q) for j in range(n)) % q
                     for w in twist.gradings]
            assert twist.matrix(t) == tuple(tuple(c if i == j else 0 for j in range(mod.dim))
                                            for i, c in enumerate(chars))
        e0 = tuple(int(j == 0) for j in range(mod.dim))
        assert invariant_space(twist, StandardParabolic.torus(n)) == (e0,)
        assert invariant_space(mod, StandardParabolic.torus(n)) == (e0,)


@pytest.mark.parametrize("n, q", FAMILY_CASES)
def test_family_matrices_are_det_twists_of_the_constructions(n, q):
    # each value is a construction, listed under its q - 1 twists, and the
    # twist at nu is that construction's det^b twist, b the last entry of nu
    els = gl_elements(n, q)
    sample = els[::max(1, len(els) // 25)]
    family = supported_weight_modules(n, q)
    twists = Counter(id(mod) for mod in family.values())
    assert len(twists) == q + n - 2 and set(twists.values()) == {q - 1}
    for nu, mod in family.items():
        construction, b, twist = construction_of(n, q, nu), nu[-1], twisted(n, q, nu)
        assert mod.gradings == construction.gradings
        assert twist.gradings == tuple(tuple(x + b for x in w)
                                       for w in construction.gradings)
        for g in sample:
            assert mod.matrix(g) == construction.matrix(g)
            detb = pow(mat_det(g, q), b, q)
            assert twist.matrix(g) == tuple(tuple(x * detb % q for x in row)
                                            for row in construction.matrix(g))


def test_each_untwisted_matrix_is_built_once(monkeypatch):
    # count the constructions per (n, q) and the matrices per
    # (construction, g) while the gates run on freshly built families
    constructions, builds = Counter(), Counter()

    def counting(builder):
        def build(n, q, degree):
            mod = builder(n, q, degree)
            constructions[n, q] += 1
            matrix = mod._build

            def counted(g):
                builds[builder.__name__, n, q, degree, g] += 1
                return matrix(g)

            mod._build = counted
            return mod
        return build

    monkeypatch.setattr(oracle, "sym_power_module", counting(sym_power_module))
    monkeypatch.setattr(oracle, "exterior_power_module", counting(exterior_power_module))
    supported_weight_modules.cache_clear()
    try:
        assert verify_gates(2, 5)["ok"]
    finally:
        supported_weight_modules.cache_clear()
    assert constructions == {(2, q): q for q in (2, 3, 5)}  # q + n - 2 at n = 2
    assert builds and max(builds.values()) == 1


def test_verify_gates_reduces_each_construction_once_per_parabolic(monkeypatch):
    # a twist is a label: on a fresh family, invariant_space runs once per
    # (construction, parabolic) and the highest-line check once per
    # construction, however many twists and gates read them
    spaces, lines = Counter(), Counter()
    real_space, real_line = oracle.invariant_space, oracle._highest_line_ok

    def space(mod, P):
        spaces[id(mod), P] += 1
        return real_space(mod, P)

    def line(mod):
        lines[id(mod)] += 1
        return real_line(mod)

    monkeypatch.setattr(oracle, "invariant_space", space)
    monkeypatch.setattr(oracle, "_highest_line_ok", line)
    supported_weight_modules.cache_clear()
    try:
        assert verify_gates(2, 5)["ok"]
        constructions = {id(mod) for q in (2, 3, 5)
                         for mod in supported_weight_modules(2, q).values()}
    finally:
        supported_weight_modules.cache_clear()
    assert len(constructions) == 2 + 3 + 5
    assert spaces == {(c, P): 1 for c in constructions for P in all_parabolics(2)}
    assert lines == {c: 1 for c in constructions}


def test_verify_gates_stops_both_scans_at_the_size_guard(monkeypatch):
    # q^(n^2) grows with n and q, so no pair past the first refused one is
    # looked at: without the stops this would build q^(n^2) for a billion n
    monkeypatch.setattr(oracle, "SIZE_GUARD", 100)
    start = time.perf_counter()
    report = verify_gates(10 ** 9, 10 ** 9)
    assert time.perf_counter() - start < 1
    assert report == verify_gates(2, 3)
    assert [(r["n"], r["q"]) for r in report["order"]] == [(2, 2), (2, 3)]


def test_a_miscounted_group_fails_the_order_gate_alone(monkeypatch):
    # one element short: every order entry fails and no other gate reads G
    calls = Counter()

    def short(n, q):
        calls[n, q] += 1
        return gl_elements(n, q)[1:]

    monkeypatch.setattr(oracle, "gl_elements", short)
    report = verify_gates(3, 3)
    pairs = [(2, 2), (2, 3), (3, 2), (3, 3)]
    assert calls == {pair: 1 for pair in pairs}
    assert [(e["n"], e["q"], e["ok"]) for e in report["order"]] == [
        (n, q, False) for n, q in pairs]
    assert all(e["ok"] for gate in ("minuscule", "iwahori", "invariants", "double_coset")
               for e in report[gate])
    assert report["ok"] is False
    out = io.StringIO()
    assert cli.run({"command": "verify", "params": {"max_n": 3, "max_q": 3}}, out) == 1
    assert json.loads(out.getvalue()) == report


def test_supported_family_is_built_once_and_read_only():
    fam = supported_weight_modules(3, 2)
    assert supported_weight_modules(3, 2) is fam
    with pytest.raises(TypeError):
        fam[(9, 9, 9)] = fam[(1, 0, 0)]


def test_invariants_coinvariants_examples():
    assert check_invariants_coinvariants(2, 3, (2, 0), B2)
    assert check_invariants_coinvariants(2, 2, (0, 0), B2)
    assert check_invariants_coinvariants(3, 2, (1, 0, 0), StandardParabolic((2, 1)))
    with pytest.raises(ValueError):
        check_invariants_coinvariants(3, 3, (2, 1, 0), B3)  # outside the family


@pytest.mark.parametrize("q", [3, 5])
def test_torus_generators_catch_a_det_twist_of_the_matrices_alone(monkeypatch, q):
    # the mutant is a construction whose matrices alone are scaled by det:
    # unipotent elements have det 1, so every radical sees the same
    # subspaces and only the torus check can tell, on diag(c, 1) with c != 1
    real = oracle._module

    def mutant(*key):
        mod = real(*key)
        return TinyWeightModule(mod.q, mod.gradings, det_twist(mod, 1).matrix)

    monkeypatch.setattr(oracle, "_module", mutant)
    for nu in supported_weight_modules(2, q):
        for P in all_parabolics(2):
            mod, bad = real(2, q, nu), mutant(2, q, nu)
            assert invariant_space(bad, P) == invariant_space(mod, P)
            assert coinvariant_kernel(bad, P) == coinvariant_kernel(mod, P)
            assert not bad.highest_line_ok
            assert not check_invariants_coinvariants(2, q, nu, P)
    monkeypatch.setattr(oracle, "_module", real)
    assert all(check_invariants_coinvariants(2, q, nu, P)
               for nu in supported_weight_modules(2, q) for P in all_parabolics(2))


def per_twist_invariants_gate(mod, P):
    """The invariants gate computed on one twisted module, every subspace
    and the torus check built for it alone."""
    n, q = len(mod.gradings[0]), mod.q
    inv = invariant_space(mod, P)
    K, piv = coinvariant_kernel(mod, P)
    if len(inv) != mod.dim - len(K):
        return False
    if len(rref([_reduce_mod(K, piv, v, q) for v in inv], q)[0]) != len(inv):
        return False
    inv_U = invariant_space(mod, StandardParabolic.torus(n))
    if len(inv_U) != 1:
        return False
    for j, c in product(range(n), range(2, q)):
        t = tuple(tuple(c if i == k == j else int(i == k) for k in range(n)) for i in range(n))
        scalar = pow(c, mod.gradings[0][j], q)
        if mod.act(t, inv_U[0]) != tuple(x * scalar % q for x in inv_U[0]):
            return False
    bd = (0,) + P.boundaries + (n,)

    def block_sums(vec):
        return tuple(sum(vec[a:b]) for a, b in zip(bd, bd[1:]))

    qualifying = [j for j, grading in enumerate(mod.gradings)
                  if block_sums(grading) == block_sums(mod.gradings[0])]
    return len(inv) == len(qualifying) and all(
        v[j] == 0 for v in inv for j in range(mod.dim) if j not in qualifying)


def per_twist_support_gate(mod, P, Q):
    """The support gate computed on one twisted module: no permutation
    matrix off the big cell projects V^{N_P} to nonzero coinvariants."""
    n, q = len(mod.gradings[0]), mod.q
    inv = invariant_space(mod, P)
    K, piv = coinvariant_kernel(mod, Q)
    return not any(any(_reduce_mod(K, piv, mod.act(permutation_matrix(w), v), q))
                   for w in permutations(range(n)) if not in_big_cell(w, Q, P)
                   for v in inv)


@pytest.mark.parametrize("n, q", [(2, 3), (2, 5), (2, 7), (3, 2), (3, 3)])
def test_twists_share_the_construction_subspaces_and_verdicts(n, q):
    # every twist, built as a module of its own, has its construction's
    # subspaces at each parabolic and the verdicts the gates now read off
    # the construction, hypothesis triples of the support gate included
    parabolics = all_parabolics(n)
    triples = 0
    for nu, mod in supported_weight_modules(n, q).items():
        twist = twisted(n, q, nu)
        for P in parabolics:
            assert (invariant_space(twist, P), coinvariant_kernel(twist, P)) == mod.subspaces(P)
            assert per_twist_invariants_gate(twist, P) == check_invariants_coinvariants(n, q, nu, P)
            for Q in parabolics:
                if _support_hypothesis(make_weight(nu, q), P, Q):
                    assert (per_twist_support_gate(twist, P, Q)
                            == check_double_coset_support(n, q, nu, P, Q))
                    triples += 1
    report = verify_gates(n, q)
    assert triples == sum((r["n"], r["q"]) == (n, q) for r in report["double_coset"])


def test_double_coset_support_examples():
    assert check_double_coset_support(2, 3, (2, 0), B2, B2)
    assert check_double_coset_support(2, 2, (1, 0), B2, B2)
    assert check_double_coset_support(3, 2, (1, 1, 0), StandardParabolic((2, 1)),
                                      StandardParabolic((2, 1)))
    with pytest.raises(ValueError):
        check_double_coset_support(2, 3, (0, 0), B2, B2)  # regularity hypothesis fails


def test_double_coset_relaxed_hypothesis():
    # stabilizer Levi equals one side exactly: the other regularity may drop
    nu = (1, 1, 0)
    P = StandardParabolic((2, 1))  # equals the stabilizer Levi of nu
    Q = StandardParabolic((1, 2))  # nu is not (1,2)-regular
    assert check_double_coset_support(3, 2, nu, P, Q)


def _rank_in_big_cell(kappa, Q, P, q):
    """Big-cell membership decided on kappa itself: every top-left a x b
    block, a a boundary of Q and b one of P, has rank min(a, b)."""
    return all(len(rref([row[:b] for row in kappa[:a]], q)[0]) == min(a, b)
               for a in Q.boundaries for b in P.boundaries)


def _off_cells(n, q, Q, P):
    """The kappa of every Bruhat cell off the big cell, sorted."""
    return sorted(kappa for w, cell in _bruhat_cells(n, q).items()
                  if not in_big_cell(w, Q, P) for kappa in cell)


def _inversions(w):
    return sum(w[i] > w[j] for i in range(len(w)) for j in range(i + 1, len(w)))


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
def test_bruhat_cells_are_the_bruhat_decomposition(n, q):
    # n! cells of size |B| q^(N - l(w)) partition G, found by the scan of
    # all matrices, each cell in lexicographic order, and every kappa has
    # the top-left block ranks of its w
    G = reference_group(n, q)
    cells = _bruhat_cells(n, q)
    assert sorted(cells) == sorted(permutations(range(n))) and len(cells) == factorial(n)
    N = n * (n - 1) // 2
    for w, cell in cells.items():
        assert len(cell) == (q - 1) ** n * q ** N * q ** (N - _inversions(w))
        assert list(cell) == sorted(cell)
        assert tuple(tuple(int(w[a] == b) for b in range(n)) for a in range(n)) in cell
        for kappa in cell:
            for a in range(1, n):
                for b in range(1, n):
                    rank = len(rref([row[:b] for row in kappa[:a]], q)[0])
                    assert rank == sum(w[i] < b for i in range(a))
    assert sorted(chain.from_iterable(cells.values())) == G


def test_in_big_cell_against_brute_force():
    # membership of each kappa's cell agrees with the product set Qbar * P
    # and with the rank test for every pair of proper parabolics at (2, 2),
    # (2, 3) and (3, 2)
    cases = [(n, q, P, Q) for n, q in [(2, 2), (2, 3), (3, 2)]
             for P in all_parabolics(n) for Q in all_parabolics(n)
             if P.boundaries and Q.boundaries]
    for n, q, P, Q in cases:
        big = set()
        for a in parabolic_elements(n, q, Q, opposite=True):
            for b in parabolic_elements(n, q, P):
                big.add(mat_mul(a, b, q))
        for w, cell in _bruhat_cells(n, q).items():
            for g in cell:
                assert in_big_cell(w, Q, P) == (g in big) == _rank_in_big_cell(g, Q, P, q)


def test_off_big_cell_matches_brute_force():
    # the cells off the big cell hold exactly {kappa : not in the big cell}
    # by the rank test, |G| - |Qbar| |P| / |Qbar meet P| of them
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        G = gl_elements(n, q)
        parabolics = all_parabolics(n)
        upper = {P: parabolic_elements(n, q, P) for P in parabolics}
        lower = {Q: set(parabolic_elements(n, q, Q, opposite=True)) for Q in parabolics}
        for P in parabolics:
            for Q in parabolics:
                off = _off_cells(n, q, Q, P)
                assert off == sorted(g for g in G if not _rank_in_big_cell(g, Q, P, q))
                meet = sum(1 for g in upper[P] if g in lower[Q])
                assert len(off) == len(G) - len(lower[Q]) * len(upper[P]) // meet


def _projection_test(n, q, nu, P, Q):
    """kappa -> whether the projection of kappa * (invariants of the radical
    of P) to the coinvariants of the opposite radical of Q is nonzero, on
    the reference twist of highest weight nu."""
    mod = twisted(n, q, nu)
    inv = invariant_space(mod, P)
    K, piv = coinvariant_kernel(mod, Q)
    return lambda kappa: any(any(_reduce_mod(K, piv, mod.act(kappa, v), q)) for v in inv)


def _full_scan_failures(n, q, nu, P, Q):
    """The support gate written out over all of GL_n(F_q): every kappa whose
    projection is nonzero although it lies outside the big cell, sorted."""
    nonzero = _projection_test(n, q, nu, P, Q)
    return sorted(kappa for kappa in gl_elements(n, q)
                  if nonzero(kappa) and not _rank_in_big_cell(kappa, Q, P, q))


def _support_failures(n, q, nu, P, Q):
    """The brute-force reference for ``check_double_coset_support``: every
    kappa outside the big cell with a nonzero projection, lazily and cell by
    cell in the order of ``_bruhat_cells``, without the regularity
    hypothesis."""
    nonzero = _projection_test(n, q, nu, P, Q)
    off = (cell for w, cell in _bruhat_cells(n, q).items() if not in_big_cell(w, Q, P))
    return (kappa for kappa in chain.from_iterable(off) if nonzero(kappa))


def test_restricted_scan_reports_the_full_scan_failures():
    # nu = (0,0) is not B-regular: every kappa off the big cell fails
    failures = _full_scan_failures(2, 3, (0, 0), B2, B2)
    assert failures == _off_cells(2, 3, B2, B2) and len(failures) == 12
    assert sorted(_support_failures(2, 3, (0, 0), B2, B2)) == failures
    # every triple at (3, 2); those outside the regularity hypothesis can fail
    outside, failing = 0, 0
    for nu in supported_weight_modules(3, 2):
        for P in all_parabolics(3):
            for Q in all_parabolics(3):
                failures = _full_scan_failures(3, 2, nu, P, Q)
                assert sorted(_support_failures(3, 2, nu, P, Q)) == failures
                try:
                    assert check_double_coset_support(3, 2, nu, P, Q) == (not failures)
                except ValueError:
                    outside += 1
                    failing += bool(failures)
    assert (outside, failing) == (25, 17)


def permutation_matrix(w):
    """Row a is e_w(a): the matrix the support gate tests for w's cell."""
    return tuple(tuple(int(b == c) for b in range(len(w))) for c in w)


def cell_constancy_counts(n, q):
    """For every (nu, P, Q), hypothesis or not, and every Bruhat cell, the
    projection is nonzero at w's permutation matrix exactly when it is
    nonzero at each kappa of the cell.  Returns (pairs, nonzero pairs)."""
    pairs = nonzero_pairs = 0
    for nu in supported_weight_modules(n, q):
        for P in all_parabolics(n):
            for Q in all_parabolics(n):
                nonzero = _projection_test(n, q, nu, P, Q)
                for w, cell in _bruhat_cells(n, q).items():
                    at_w = nonzero(permutation_matrix(w))
                    assert all(nonzero(kappa) == at_w for kappa in cell), (nu, P, Q, w)
                    pairs += 1
                    nonzero_pairs += at_w
    return pairs, nonzero_pairs


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_projection_is_constant_on_each_bruhat_cell(n, q):
    # Qbar kappa P holds the whole cell of kappa, so its permutation matrix
    # decides the cell; each cell is visited once per triple
    pairs, _ = cell_constancy_counts(n, q)
    triples = len(supported_weight_modules(n, q)) * len(all_parabolics(n)) ** 2
    assert pairs == triples * factorial(n)


def test_reduced_gate_gives_the_full_scan_verdict_at_3_3():
    # every hypothesis triple at (3, 3): one matrix per cell off the big
    # cell against every kappa of those cells
    checked = 0
    for nu in supported_weight_modules(3, 3):
        V = make_weight(nu, 3)
        for P in all_parabolics(3):
            for Q in all_parabolics(3):
                if _support_hypothesis(V, P, Q):
                    full = next(_support_failures(3, 3, nu, P, Q), None) is None
                    assert check_double_coset_support(3, 3, nu, P, Q) == full
                    checked += 1
    report = verify_gates(3, 3)["double_coset"]
    assert checked == sum((r["n"], r["q"]) == (3, 3) for r in report)


def test_iwahori_coset_counts():
    assert check_iwahori_coset_count(2, 3, 1)
    assert check_iwahori_coset_count(3, 2, 1)
    assert check_iwahori_coset_count(3, 2, 3)   # the line e_1, a fixed point
    assert check_iwahori_coset_count(4, 2, 2)
    assert check_iwahori_coset_count(3, 3, 2)


def reference_slot_size(n, q, i):
    """The lines of F_q^n whose last nonzero coordinate is n - i + 1,
    counted from every vector: each line has q - 1 nonzero vectors."""
    last = n - i
    vectors = sum(1 for v in product(range(q), repeat=n)
                  if v[last] and not any(v[last + 1:]))
    assert vectors % (q - 1) == 0
    return vectors // (q - 1)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_iwahori_slot_sizes_match_a_line_count(n, q):
    # slot i's cosets are the U-orbit of the line e_(n-i+1)
    for i in range(1, n + 1):
        mu = tuple(-1 if j == n - i else 0 for j in range(n))
        assert iwasawa_orbit_counts(n, q, 1)[mu] == reference_slot_size(n, q, i)
        assert check_iwahori_coset_count(n, q, i)


def test_iwahori_gate_guards():
    with pytest.raises(ValueError, match="enumeration guard"):
        check_iwahori_coset_count(4, 3, 1)
    for i in (0, 3):
        with pytest.raises(ValueError, match="index out of range"):
            check_iwahori_coset_count(2, 3, i)
    with pytest.raises(ValueError):
        check_iwahori_coset_count(1, 2, 1)
