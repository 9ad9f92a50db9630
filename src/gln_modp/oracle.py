"""Independent brute-force ground truth over the finite groups GL_n(F_q).

Everything here is exact integer arithmetic mod a prime q: group elements
are tuples of row tuples, subspaces are canonical reduced row-echelon bases,
and representations are explicit matrix modules built from symmetric and
exterior powers of the standard module (the cases whose Weyl modules are
already irreducible).  Size guards are hard errors: an oracle that samples
is not an oracle.  Only prime q is supported; every gate downstream runs at
prime q, and plain residue arithmetic keeps the exhaustive loops fast.

The double-coset support gate claims that a projection is nonzero only on
the big cell.  Whether it vanishes is constant on each double coset
Qbar kappa P, which holds whole Bruhat cells, so one permutation matrix per
cell off the big cell gives the verdict of the scan over the whole group.
A family entry is a construction, Sym^a or Lambda^k, listed under the
highest weight nu of each of its q-1 det^b twists: nu's last entry is b, and
b enters no gate.  Each of the q+n-2 is built once per (n, q) and computes a
matrix, its subspaces at a parabolic and its highest-line check once.
Each gate builds only what it acts with: the order gate alone enumerates
GL_n(F_q); the upper unitriangular group U is built from its rows; the
radicals and the torus act through generators.  Determinants are Leibniz sums.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations, product, takewhile
from math import prod
from operator import getitem
from types import MappingProxyType

from .finite_field import FqField, is_prime
from .hecke import basis_element, satake_T_to_tau
from .root_datum import (
    StandardParabolic, all_parabolics, fundamental_antidominant_coweight, stab_levi)
from .weights import make_weight, is_M_regular

SIZE_GUARD = 10 ** 6
# (n, q) pairs whose groups and module families stay cached
_CACHED_GROUPS = 8


def _require_prime(q: int):
    if not is_prime(q):
        raise ValueError(f"oracle requires a prime residue field size, got q={q}")


def _too_large(n: int, q: int) -> bool:
    """The size guard on q^(n^2), the size of M_n(F_q): it bounds |GL_n(F_q)|
    and decides which (n, q) pairs ``verify_gates`` runs."""
    return q ** (n * n) > SIZE_GUARD


def _require_enumerable(n: int, q: int):
    _require_prime(q)
    if _too_large(n, q):
        raise ValueError(f"GL_{n}(F_{q}) exceeds the enumeration guard")


def group_order_formula(n: int, q: int) -> int:
    return prod(q ** n - q ** a for a in range(n))


# -- dense linear algebra over F_q (q prime), matrices as row tuples --------

@lru_cache(maxsize=8)
def _signed_permutations(n: int):
    """Each permutation of range(n) with its sign, (-1)^(inversions)."""
    return tuple((sigma, (-1) ** sum(a > b for a, b in combinations(sigma, 2)))
                 for sigma in permutations(range(n)))


def _det(A, q):
    """det A mod q by the Leibniz formula, n! products with no pivot and no
    division: the minors of Lambda^k, none above 3 x 3 in ``verify_gates``."""
    return sum(sign * prod(map(getitem, A, sigma))
               for sigma, sign in _signed_permutations(len(A))) % q


def rref(rows, q):
    """Reduced row echelon form; returns (canonical nonzero rows, pivots)."""
    M = [list(r) for r in rows]
    ncols = len(M[0]) if M else 0
    pivots, rank = [], 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], q - 2, q)
        M[rank] = [x * inv % q for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][c]:
                f = M[r][c]
                M[r] = [(x - f * y) % q for x, y in zip(M[r], M[rank])]
        pivots.append(c)
        rank += 1
    return tuple(tuple(r) for r in M[:rank]), tuple(pivots)


def nullspace(rows, q, ncols):
    """Basis of the right kernel of the matrix given by ``rows``."""
    R, pivots = rref(rows, q)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in zip(R, pivots):
            v[c] = (-r[f]) % q
        basis.append(tuple(v))
    return tuple(basis)


def _reduce_mod(R, pivots, v, q):
    """Reduce a vector modulo the row space of an rref basis."""
    v = list(v)
    for r, c in zip(R, pivots):
        if v[c]:
            f = v[c]
            v = [(x - f * y) % q for x, y in zip(v, r)]
    return tuple(v)


# -- group and coset enumeration --------------------------------------------

@lru_cache(maxsize=_CACHED_GROUPS)
def gl_elements(n: int, q: int):
    """All of GL_n(F_q) in lexicographic order, built row by row as in the
    count of its order: row a is one of the q^n - q^a rows outside the span
    of the rows above.  Only the order gate enumerates the group."""
    _require_enumerable(n, q)
    out = []

    def extend(rows):
        if len(rows) == n:
            out.append(rows)
            return
        R, pivots = rref(rows, q)
        for row in product(range(q), repeat=n):
            if any(_reduce_mod(R, pivots, row, q)):
                extend(rows + (row,))

    extend(())
    return tuple(out)


def gaussian_factorial_ratio(n: int, parts, q: int) -> int:
    """The q-multinomial coefficient [n]_q! / prod [n_i]_q!, the number of
    flags of type ``parts`` in F_q^n: |GL_n(F_q)| / |P| for the parabolic P
    of ``parts``, |P| = prod |GL_{n_i}(F_q)| * q^((n^2 - sum n_i^2) / 2)."""
    levi = prod(group_order_formula(m, q) for m in parts)
    radical = q ** ((n * n - sum(m * m for m in parts)) // 2)
    return group_order_formula(n, q) // (levi * radical)


def _radical_gens(P: StandardParabolic, upper: bool = True):
    """Elementary generators E_ab(1) of the unipotent radical of P: the
    positions (a, b) above P's diagonal blocks, or below them for the
    opposite radical when not ``upper``, row by row.  At prime q,
    E_ab(c) = E_ab(1)^c, so these generate the radical and share its joint
    fixed space and its span{(g - 1)v}; q = p^f would need c over an
    F_p-basis of F_q.  The radical of the Borel, P = torus, is the full
    upper unipotent group."""
    n = P.n
    block = [P.block_of(j + 1) for j in range(n)]
    return [tuple(tuple(int(i == j or (i, j) == (a, b)) for j in range(n))
                  for i in range(n))
            for a in range(n) for b in range(n)
            if (block[a] < block[b] if upper else block[a] > block[b])]


@lru_cache(maxsize=_CACHED_GROUPS)
def iwasawa_orbit_counts(n: int, q: int, i: int):
    """Orbit sizes of the upper unitriangular group U on the i-dimensional
    subspaces, a read-only map keyed by the coweight -1_S of the coordinate
    subspace e_S in each orbit.  U is built from its rows, e_a plus entries
    right of the diagonal, q^(n(n-1)/2) elements, and the orbit of e_S is
    the set of rref bases of the spans of the columns S of u over u in U.
    Their union has sum |orbit| = [n choose i]_q elements, so the orbits
    partition the Grassmannian and each holds one coordinate subspace
    (Bruhat); each size is a power of q."""
    _require_enumerable(n, q)
    if not 1 <= i <= n - 1:
        raise ValueError("index out of range")
    U = list(product(*[[(0,) * a + (1,) + r for r in product(range(q), repeat=n - a - 1)]
                       for a in range(n)]))
    orbits = {tuple(-1 if j in S else 0 for j in range(n)):
              {rref([[row[c] for row in u] for c in S], q)[0] for u in U}
              for S in combinations(range(n), i)}
    counts = {mu: len(orbit) for mu, orbit in orbits.items()}
    total = len(set().union(*orbits.values()))
    assert total == sum(counts.values()) == gaussian_factorial_ratio(n, (i, n - i), q)
    return MappingProxyType(counts)


def check_minuscule_satake(n: int, q: int, i: int) -> bool:
    """Reduce the orbit counts mod p and compare with the two-basis change:
    the only nonzero residue must be 1 at the antidominant key, matching the
    single-term expansion of the corresponding T-basis element."""
    counts = iwasawa_orbit_counts(n, q, i)
    lam = fundamental_antidominant_coweight(n, i)
    for mu, size in counts.items():
        expected = 1 if mu == lam else 0
        if size % q != expected:
            return False
        # every orbit size is a power of q of the expected Schubert dimension
        pivots = sorted(j for j, v in enumerate(mu) if v == -1)
        if size != q ** sum(s - r for r, s in enumerate(pivots)):
            return False
    field = FqField(q)
    triv = make_weight((0,) * n, q)
    expansion = satake_T_to_tau(basis_element(triv, "T", lam, field))
    return expansion.terms == {lam: field.one}


# -- explicit tiny weight modules --------------------------------------------

class TinyWeightModule:
    """An explicit matrix model of a construction, Sym^a or Lambda^k of the
    standard module, irreducible at prime q; its det^b twists share every
    gate verdict, so the gates read the construction alone."""

    def __init__(self, q: int, gradings: tuple, _build):
        self.q = q
        self.gradings = gradings  # integer weight of each basis vector; the first
                                  # spans the highest-weight line
        self._build = _build      # callable g -> row tuples of g's matrix
        self._cache = {}
        self._subspaces = {}  # P -> (V^{N_P}, coinvariant kernel at P)

    @property
    def dim(self) -> int:
        return len(self.gradings)

    def matrix(self, g):
        """Column-convention matrix of g on the module, built once per g."""
        M = self._cache.get(g)
        if M is None:
            M = self._cache[g] = self._build(g)
        return M

    def act(self, g, v):
        return tuple(sum(x * y for x, y in zip(row, v)) % self.q for row in self.matrix(g))

    def subspaces(self, P: StandardParabolic):
        """``invariant_space`` and ``coinvariant_kernel`` at P, built once;
        det is 1 on the radicals, so they are every twist's."""
        if P not in self._subspaces:
            self._subspaces[P] = invariant_space(self, P), coinvariant_kernel(self, P)
        return self._subspaces[P]

    @cached_property
    def highest_line_ok(self) -> bool:
        """``_highest_line_ok``, run once."""
        return _highest_line_ok(self)


def sym_power_module(n: int, q: int, a: int) -> TinyWeightModule:
    """Sym^a of the standard module, irreducible for a <= q-1 at prime q,
    on the degree-a monomials graded by their exponents."""
    _require_prime(q)
    if not 0 <= a <= q - 1:
        raise ValueError("symmetric power outside the irreducible range")
    monos = sorted((m for m in product(range(a + 1), repeat=n) if sum(m) == a),
                   reverse=True)

    def matrix(g):
        # column m holds the coefficients of prod_j (g e_j)^(m_j)
        cols = []
        for m in monos:
            acc = {(0,) * n: 1}
            for j in [j for j, e in enumerate(m) for _ in range(e)]:
                nxt = {}
                for mono, c in acc.items():
                    for i in range(n):
                        key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                        nxt[key] = (nxt.get(key, 0) + c * g[i][j]) % q
                acc = nxt
            cols.append([acc.get(mono, 0) for mono in monos])
        return tuple(zip(*cols))

    return TinyWeightModule(q, tuple(monos), matrix)


def exterior_power_module(n: int, q: int, k: int) -> TinyWeightModule:
    """The k-th exterior power of the standard module (minuscule, always
    irreducible), on the k-subsets graded by their indicators: g's minors."""
    _require_prime(q)
    if not 1 <= k <= n:
        raise ValueError("exterior power degree out of range")
    subsets = sorted(combinations(range(n), k))

    def matrix(g):
        # the entry at (T, S) is the minor of g on rows T and columns S
        return tuple(tuple(_det([[g[r][c] for c in S] for r in T], q)
                           for S in subsets) for T in subsets)

    gradings = tuple(tuple(int(j in S) for j in range(n)) for S in subsets)
    return TinyWeightModule(q, gradings, matrix)


@lru_cache(maxsize=_CACHED_GROUPS)
def supported_weight_modules(n: int, q: int):
    """The supported family: all symmetric powers in the irreducible range
    and all exterior powers, twisted by determinant powers.  Returns a
    read-only map from the canonical highest weight nu of each twist, whose
    last entry is b, to its construction; all q+n-2 are built once per (n, q)."""
    _require_prime(q)
    constructions = ([sym_power_module(n, q, a) for a in range(q)]
                     + [exterior_power_module(n, q, k) for k in range(2, n)])
    return MappingProxyType({make_weight(tuple(x + b for x in c.gradings[0]), q).nu: c
                             for b in range(q - 1) for c in constructions})


def _module(n: int, q: int, nu) -> TinyWeightModule:
    """The construction whose twist has highest weight nu."""
    mod = supported_weight_modules(n, q).get(make_weight(tuple(nu), q).nu)
    if mod is None:
        raise ValueError(f"nu={nu} is outside the supported family")
    return mod


def _minus_one(module: TinyWeightModule, g):
    """The rows of the matrix of g - 1 on the module."""
    q = module.q
    return [tuple((x - (i == j)) % q for j, x in enumerate(row))
            for i, row in enumerate(module.matrix(g))]


def invariant_space(module: TinyWeightModule, P: StandardParabolic):
    """Basis of V^{N_P}, the invariants of the unipotent radical of P: the
    joint fixed space of its elementary generators."""
    rows = [row for g in _radical_gens(P) for row in _minus_one(module, g)]
    return nullspace(rows, module.q, module.dim)


def coinvariant_kernel(module: TinyWeightModule, Q: StandardParabolic):
    """rref basis and pivots of span{(u - 1)v : u in the opposite radical of
    Q}, spanned on its elementary generators: the kernel of the projection
    onto the coinvariants."""
    gens = _radical_gens(Q, upper=False)
    return rref([col for g in gens for col in zip(*_minus_one(module, g))], module.q)


def _highest_line_ok(mod: TinyWeightModule) -> bool:
    """The full-unipotent invariants are one line, carrying the T(F_q)-character
    of gradings[0].  The diag(1, ..., c, ..., 1) generate T(F_q) and both
    sides are homomorphisms, so they decide it; a det^b twist scales both
    sides by c^b."""
    q, n = mod.q, len(mod.gradings[0])
    inv_U = mod.subspaces(StandardParabolic.torus(n))[0]
    if len(inv_U) != 1:
        return False
    w = inv_U[0]
    for j, c in product(range(n), range(2, q)):
        t = tuple(tuple(c if i == k == j else int(i == k) for k in range(n)) for i in range(n))
        scalar = pow(c, mod.gradings[0][j], q)
        if mod.act(t, w) != tuple(x * scalar % q for x in w):
            return False
    return True


def check_invariants_coinvariants(n: int, q: int, nu, P: StandardParabolic) -> bool:
    """Finite-group gate: for the module of highest weight nu, the invariants
    of the unipotent radical map isomorphically onto the coinvariants of the
    opposite radical, the full-unipotent invariants are one-dimensional,
    carry the T(k)-character of nu, and the invariant space is exactly the
    sum of the graded pieces congruent to nu modulo the block root lattice."""
    mod = _module(n, q, nu)
    inv, (K, piv) = mod.subspaces(P)
    if len(inv) != mod.dim - len(K):
        return False
    reduced = [_reduce_mod(K, piv, v, q) for v in inv]
    if len(rref(reduced, q)[0]) != len(inv) or not mod.highest_line_ok:
        return False

    # graded description: invariants = sum of pieces with nu - grading in Z Phi_M
    bd = (0,) + P.boundaries + (n,)
    def block_sums(vec):
        return tuple(sum(vec[a:b]) for a, b in zip(bd, bd[1:]))
    target = block_sums(mod.gradings[0])
    qualifying = [j for j, grading in enumerate(mod.gradings)
                  if block_sums(grading) == target]
    return len(inv) == len(qualifying) and all(
        v[j] == 0 for v in inv for j in range(mod.dim) if j not in qualifying)


def in_big_cell(w, Q: StandardParabolic, P: StandardParabolic) -> bool:
    """Whether the Bruhat cell of w lies in the big cell (opposite of Q) * P:
    the top-left a x b blocks at Q's and P's boundaries have rank min(a, b)."""
    return all(sum(w[i] < b for i in range(a)) == min(a, b)
               for a in Q.boundaries for b in P.boundaries)


def check_double_coset_support(n: int, q: int, nu, P: StandardParabolic,
                               Q: StandardParabolic) -> bool:
    """Finite-group gate: whenever the projection of kappa * (invariants of
    the radical of P) to the coinvariants of the opposite radical of Q is
    nonzero, kappa lies in the big cell (opposite of Q) * P.

    Requires the weight to be regular for the Levis of both P and Q, except
    that one hypothesis may be dropped when the stabilizer Levi equals the
    other one exactly.

    Whether the projection vanishes is constant on each double coset
    Qbar kappa P: Qbar normalizes the opposite radical of Q, so it preserves
    the projection's kernel, and P preserves the invariants of its radical.
    Each Bruhat cell Bbar w B lies in Qbar w P, so the permutation matrix of
    w (row a is e_w(a)) decides its cell: only the cells off the big cell
    are tested, one matrix each, and no kappa of the group is enumerated.
    On a det^b twist, each matrix acts only (+-1)^b times as on the construction.
    """
    _require_enumerable(n, q)
    V = make_weight(tuple(nu), q)
    if not _support_hypothesis(V, P, Q):
        raise ValueError("regularity hypothesis violated for this (nu, P, Q)")
    mod = _module(n, q, V.nu)
    inv, (K, piv) = mod.subspaces(P)[0], mod.subspaces(Q)[1]
    off = (tuple(tuple(int(b == c) for b in range(n)) for c in w)
           for w in permutations(range(n)) if not in_big_cell(w, Q, P))
    return not any(any(_reduce_mod(K, piv, mod.act(kappa, v), q))
                   for kappa in off for v in inv)


def _support_hypothesis(V, P: StandardParabolic, Q: StandardParabolic) -> bool:
    """V is regular for the Levis of both P and Q, or its stabilizer Levi is
    one of them."""
    return (is_M_regular(V, P) and is_M_regular(V, Q)) or stab_levi(V.nu) in (P, Q)


# -- Iwahori-level coset count -----------------------------------------------

def check_iwahori_coset_count(n: int, q: int, i: int) -> bool:
    """Count the Iwahori cosets in slot i of the spherical-vector relation
    v = sum_i S_i...S_(n-1) Pi v.  Reduced mod the uniformizer they are the
    U-orbit of the line e_(n-i+1) in P^(n-1), counted on U itself by
    ``iwasawa_orbit_counts``, and slot i must hold q^(n-i) of them.  That
    call asserts the orbits partition the [n]_q lines, so the slots do too."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    mu = tuple(-1 if j == n - i else 0 for j in range(n))
    return iwasawa_orbit_counts(n, q, 1)[mu] == q ** (n - i)


# -- umbrella ------------------------------------------------------------------

def verify_gates(max_n: int, max_q: int):
    """Run every oracle gate up to the given bounds; any False is a build
    breaker.  Returns a structured report.  The size guard grows with n and
    q, so both scans stop at the first pair it refuses."""
    report = {"order": [], "minuscule": [], "iwahori": [],
              "invariants": [], "double_coset": [], "ok": True}

    def record(gate, ok, **key):
        # one verdict at the loops' current (n, q)
        report[gate].append({"n": n, "q": q, **key, "ok": ok})
        report["ok"] &= ok

    small = takewhile(lambda q: not _too_large(2, q), range(2, max_q + 1))
    primes = [q for q in small if is_prime(q)]
    for n in takewhile(lambda n: not _too_large(n, 2), range(2, max_n + 1)):
        for q in takewhile(lambda q: not _too_large(n, q), primes):
            record("order", len(gl_elements(n, q)) == group_order_formula(n, q))
            for i in range(1, n):
                record("minuscule", check_minuscule_satake(n, q, i), i=i)
            for i in range(1, n + 1):
                record("iwahori", check_iwahori_coset_count(n, q, i), i=i)
            for nu in sorted(supported_weight_modules(n, q)):
                for P in all_parabolics(n):
                    record("invariants", check_invariants_coinvariants(n, q, nu, P),
                           nu=list(nu), P=list(P.composition))
                V = make_weight(nu, q)
                for P in all_parabolics(n):
                    for Q in all_parabolics(n):
                        if _support_hypothesis(V, P, Q):
                            record("double_coset", check_double_coset_support(n, q, nu, P, Q),
                                   nu=list(nu), P=list(P.composition), Q=list(Q.composition))
    return report
