from collections import Counter
from itertools import product
from math import prod

import pytest

from gln_modp import oracle
from gln_modp.oracle import (
    _off_big_cell, _radical_gens, _reduce_mod, _support_failures,
    check_double_coset_support,
    check_invariants_coinvariants, check_iwahori_coset_count,
    check_minuscule_satake, coinvariant_kernel, det_twist, exterior_power_module,
    gaussian_factorial_ratio, gl_elements, group_order_formula, in_big_cell,
    invariant_space, iwasawa_orbit_counts, mat_det, subspaces,
    supported_weight_modules, sym_power_module, verify_gates,
)
from gln_modp.root_datum import StandardParabolic, all_parabolics
from gln_modp.weights import make_weight

B2 = StandardParabolic.torus(2)
B3 = StandardParabolic.torus(3)


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
                gens = _radical_gens(P, q, upper)
                assert len(gens) == len(crossing_positions(P, upper)) * (q - 1)
                assert group_closure(gens, n, q) == radical_elements(n, q, P, upper)


def test_group_enumeration_matches_formula():
    for n, q in [(2, 2), (2, 3), (3, 2), (2, 5)]:
        assert len(gl_elements(n, q)) == group_order_formula(n, q)


def test_size_and_primality_guards():
    with pytest.raises(ValueError):
        gl_elements(4, 3)
    with pytest.raises(ValueError):
        gl_elements(2, 4)
    with pytest.raises(ValueError):
        iwasawa_orbit_counts(2, 4, 1)
    with pytest.raises(ValueError, match="enumeration guard"):
        iwasawa_orbit_counts(4, 3, 1)


def test_flag_coset_counts():
    assert gaussian_factorial_ratio(2, B2.composition, 2) == 3
    assert gaussian_factorial_ratio(2, B2.composition, 3) == 4
    assert gaussian_factorial_ratio(3, (2, 1), 2) == 7
    assert gaussian_factorial_ratio(3, B3.composition, 2) == 21


def test_subspace_counts():
    assert len(subspaces(4, 2, 2)) == 35
    assert len(subspaces(3, 3, 1)) == 13


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


def construction_of(mod):
    """A fresh copy of the untwisted construction that ``mod`` twists: its
    top grading less b is (a, 0, ..., 0) for Sym^a, or the indicator of
    the first k coordinates for Lambda^k with k >= 2."""
    n, q = len(mod.gradings[0]), mod.q
    top = [x - mod.b for x in mod.gradings[0]]
    if sum(1 for x in top if x) >= 2:
        return exterior_power_module(n, q, sum(top))
    return sym_power_module(n, q, top[0])


@pytest.mark.parametrize("n, q", FAMILY_CASES)
def test_family_top_grading_is_the_highest_weight_line(n, q):
    # the diagonal torus acts on each basis vector by the character of its
    # grading, and the upper unipotent invariants are the first basis
    # vector's line, so gradings[0] is the highest weight of the module
    torus = [tuple(tuple(t[i] if i == j else 0 for j in range(n)) for i in range(n))
             for t in product(range(1, q), repeat=n)]
    for nu, mod in supported_weight_modules(n, q).items():
        assert make_weight(mod.gradings[0], q).nu == nu
        for t in torus:
            chars = [prod(pow(t[j][j], w[j], q) for j in range(n)) % q
                     for w in mod.gradings]
            assert mod.matrix(t) == tuple(tuple(c if i == j else 0 for j in range(mod.dim))
                                          for i, c in enumerate(chars))
        e0 = tuple(int(j == 0) for j in range(mod.dim))
        assert invariant_space(mod, _radical_gens(StandardParabolic.torus(n), q)) == (e0,)


@pytest.mark.parametrize("n, q", FAMILY_CASES)
def test_family_matrices_are_det_twists_of_the_constructions(n, q):
    els = gl_elements(n, q)
    sample = els[::max(1, len(els) // 25)]
    for mod in supported_weight_modules(n, q).values():
        construction = construction_of(mod)
        assert mod.gradings == tuple(tuple(x + mod.b for x in w)
                                     for w in construction.gradings)
        for g in sample:
            detb = pow(mat_det(g, q), mod.b, q)
            assert mod.matrix(g) == tuple(tuple(x * detb % q for x in row)
                                          for row in construction.matrix(g))


def test_each_untwisted_matrix_is_built_once(monkeypatch):
    # count the constructions per (n, q) and the untwisted matrices per
    # (construction, g) while the gates run on freshly built families
    constructions, builds = Counter(), Counter()

    def counting(builder):
        def build(n, q, degree):
            mod = builder(n, q, degree)
            constructions[n, q] += 1
            untwisted = mod._untwisted

            def counted(g):
                builds[builder.__name__, n, q, degree, g] += 1
                return untwisted(g)

            mod._untwisted = counted
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


def test_in_big_cell_against_brute_force():
    # membership agrees with the product set Qbar * P for every pair of
    # proper parabolics at (2, 2), (2, 3) and (3, 2)
    cases = [(n, q, P, Q) for n, q in [(2, 2), (2, 3), (3, 2)]
             for P in all_parabolics(n) for Q in all_parabolics(n)
             if P.boundaries and Q.boundaries]
    for n, q, P, Q in cases:
        big = set()
        for a in parabolic_elements(n, q, Q, opposite=True):
            for b in parabolic_elements(n, q, P):
                big.add(mat_mul(a, b, q))
        for g in gl_elements(n, q):
            assert in_big_cell(g, Q, P, q) == (g in big)


def test_off_big_cell_matches_brute_force():
    # the restricted scan set is exactly {kappa : not in_big_cell}, and its
    # size is |G| - |Qbar| |P| / |Qbar meet P|
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        G = gl_elements(n, q)
        parabolics = all_parabolics(n)
        upper = {P: parabolic_elements(n, q, P) for P in parabolics}
        lower = {Q: set(parabolic_elements(n, q, Q, opposite=True)) for Q in parabolics}
        for P in parabolics:
            for Q in parabolics:
                off = _off_big_cell(n, q, Q, P)
                assert off == tuple(g for g in G if not in_big_cell(g, Q, P, q))
                meet = sum(1 for g in upper[P] if g in lower[Q])
                assert len(off) == len(G) - len(lower[Q]) * len(upper[P]) // meet


def _full_scan_failures(n, q, nu, P, Q):
    """The support gate written out over all of GL_n(F_q): every kappa whose
    projection is nonzero although it lies outside the big cell."""
    mod = supported_weight_modules(n, q)[nu]
    inv = invariant_space(mod, _radical_gens(P, q))
    K, piv = coinvariant_kernel(mod, _radical_gens(Q, q, upper=False))
    failures = []
    for kappa in gl_elements(n, q):
        nonzero = any(any(_reduce_mod(K, piv, mod.act(kappa, v), q)) for v in inv)
        if nonzero and not in_big_cell(kappa, Q, P, q):
            failures.append(kappa)
    return failures


def test_restricted_scan_reports_the_full_scan_failures():
    # nu = (0,0) is not B-regular: every kappa off the big cell fails
    failures = _full_scan_failures(2, 3, (0, 0), B2, B2)
    assert failures == list(_off_big_cell(2, 3, B2, B2)) and len(failures) == 12
    assert list(_support_failures(2, 3, (0, 0), B2, B2)) == failures
    # every triple at (3, 2); those outside the regularity hypothesis can fail
    outside, failing = 0, 0
    for nu in supported_weight_modules(3, 2):
        for P in all_parabolics(3):
            for Q in all_parabolics(3):
                failures = _full_scan_failures(3, 2, nu, P, Q)
                assert list(_support_failures(3, 2, nu, P, Q)) == failures
                try:
                    assert check_double_coset_support(3, 2, nu, P, Q) == (not failures)
                except ValueError:
                    outside += 1
                    failing += bool(failures)
    assert (outside, failing) == (25, 17)


def test_iwahori_coset_counts():
    assert check_iwahori_coset_count(2, 3, 1)
    assert check_iwahori_coset_count(3, 2, 1)
    assert check_iwahori_coset_count(3, 2, 3)   # empty parameter row
    assert check_iwahori_coset_count(4, 2, 2)
    assert check_iwahori_coset_count(3, 3, 2)
