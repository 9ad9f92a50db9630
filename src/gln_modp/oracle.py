"""Independent brute-force ground truth over the finite groups GL_n(F_q).

Everything here is exact integer arithmetic mod a prime q: group elements
are tuples of row tuples, subspaces are canonical reduced row-echelon bases,
and representations are explicit matrix modules built from symmetric and
exterior powers of the standard module (the cases whose Weyl modules are
already irreducible).  Size guards are hard errors: an oracle that samples
is not an oracle.  Only prime q is supported; every gate downstream runs at
prime q, and plain residue arithmetic keeps the exhaustive loops fast.

The gates stay exhaustive over every element that can decide them, and
skip only the elements that cannot.  The double-coset support gate claims
that a projection is nonzero only on the big cell, so a kappa inside the
big cell can never refute it: the gate scans the complement of the big cell,
enumerated once per (n, q, Q, P), and its verdict is that of the full scan.
Each module is the det^b twist of one of q+n-2 constructions (Sym^a and
Lambda^k), built once per (n, q): the matrix of a group element on a
construction is computed once and shared by its twists and by every gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .finite_field import is_prime
from .root_datum import StandardParabolic, all_parabolics, stab_levi
from .weights import make_weight, is_M_regular

SIZE_GUARD = 10 ** 6
# (n, q) pairs whose groups and module families stay cached
_CACHED_GROUPS = 8


def _require_prime(q: int):
    if not is_prime(q):
        raise ValueError(f"oracle requires a prime residue field size, got q={q}")


def _too_large(n: int, q: int) -> bool:
    """The size guard: enumerating GL_n(F_q) scans all q^(n^2) matrices, and
    |GL_n(F_q)| < q^(n^2), so this bound alone decides."""
    return q ** (n * n) > SIZE_GUARD


def _require_enumerable(n: int, q: int):
    _require_prime(q)
    if _too_large(n, q):
        raise ValueError(f"GL_{n}(F_{q}) exceeds the enumeration guard")


def group_order_formula(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


# -- dense linear algebra over F_q (q prime), matrices as row tuples --------

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


def mat_rank(rows, q) -> int:
    return len(rref(rows, q)[0])


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
    """All of GL_n(F_q), with a hard size guard."""
    _require_enumerable(n, q)
    out = []
    for entries in product(range(q), repeat=n * n):
        A = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        if mat_det(A, q):
            out.append(A)
    assert len(out) == group_order_formula(n, q)
    return tuple(out)


def gaussian_factorial_ratio(n: int, parts, q: int) -> int:
    """The q-multinomial coefficient [n]_q! / prod [n_i]_q!."""
    def fact(k):
        out = 1
        for a in range(1, k + 1):
            out *= (q ** a - 1) // (q - 1)
        return out
    denom = 1
    for m in parts:
        denom *= fact(m)
    return fact(n) // denom


def subspaces(n: int, q: int, k: int):
    """All k-dimensional subspaces of F_q^n as canonical rref row bases."""
    _require_prime(q)
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


def _act_on_subspace(g, S, q):
    rows = tuple(tuple(sum(g[i][j] * v[j] for j in range(len(v))) % q
                       for i in range(len(g))) for v in S)
    return rref(rows, q)[0]


def _radical_gens(P: StandardParabolic, q: int, upper: bool = True):
    """Elementary generators E_ab(c), c over F_q^*, of the unipotent radical
    of P: the positions (a, b) above P's diagonal blocks, or below them for
    the opposite radical when not ``upper``, row by row.  The radical of the
    Borel, P = torus, is the full upper unipotent group."""
    n = P.n
    block = [P.block_of(j + 1) for j in range(n)]
    gens = []
    for a in range(n):
        for b in range(n):
            if block[a] < block[b] if upper else block[a] > block[b]:
                for c in range(1, q):
                    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
                    g[a][b] = c
                    gens.append(tuple(tuple(r) for r in g))
    return gens


def iwasawa_orbit_counts(n: int, q: int, i: int):
    """Orbit sizes of the full upper unipotent group on the i-dimensional
    subspaces, keyed by the coweight -1_S of the unique coordinate subspace
    in each orbit.  Totals match the flag count; each size is a power of q."""
    _require_enumerable(n, q)
    if not 1 <= i <= n - 1:
        raise ValueError("index out of range")
    gens = _radical_gens(StandardParabolic.torus(n), q)
    remaining = set(subspaces(n, q, i))
    counts = {}
    while remaining:
        start = next(iter(remaining))
        orbit = {start}
        frontier = [start]
        while frontier:
            S = frontier.pop()
            for g in gens:
                T = _act_on_subspace(g, S, q)
                if T not in orbit:
                    orbit.add(T)
                    frontier.append(T)
        remaining -= orbit
        coord = [S for S in orbit
                 if all(all(v in (0, 1) for v in row) and sum(row) == 1 for row in S)]
        assert len(coord) == 1, "each orbit must contain one coordinate subspace"
        pivots = {row.index(1) for row in coord[0]}
        mu = tuple(-1 if j in pivots else 0 for j in range(n))
        counts[mu] = len(orbit)
    total = gaussian_factorial_ratio(n, (i, n - i), q)
    assert sum(counts.values()) == total
    return counts


def check_minuscule_satake(n: int, q: int, i: int) -> bool:
    """Reduce the orbit counts mod p and compare with the two-basis change:
    the only nonzero residue must be 1 at the antidominant key, matching the
    single-term expansion of the corresponding T-basis element."""
    from .finite_field import FqField
    from .hecke import basis_element, satake_T_to_tau
    from .root_datum import fundamental_antidominant_coweight

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

@dataclass
class TinyWeightModule:
    """An explicit matrix model of an irreducible GL_n(F_q)-module.  A
    construction (Sym^a or Lambda^k) has b = 0; ``det_twist`` makes the rest."""

    q: int
    gradings: tuple     # integer weight of each basis vector; the first
                        # spans the highest-weight line
    b: int              # the module is twisted by det^b
    _untwisted: object  # callable g -> row tuples of g's untwisted matrix

    def __post_init__(self):
        self._cache = {}

    @property
    def dim(self) -> int:
        return len(self.gradings)

    def matrix(self, g):
        """Column-convention matrix of g on the module: det(g)^b times the
        untwisted matrix."""
        M = self._cache.get(g)
        if M is None:
            M = self._untwisted(g)
            if self.b:
                q = self.q
                detb = pow(mat_det(g, q), self.b, q)
                M = tuple(tuple(x * detb % q for x in row) for row in M)
            self._cache[g] = M
        return M

    def act(self, g, v):
        return tuple(sum(x * y for x, y in zip(row, v)) % self.q for row in self.matrix(g))


def det_twist(construction: TinyWeightModule, b: int) -> TinyWeightModule:
    """The construction twisted by det^b: gradings shifted by b, cached
    matrices scaled by det(g)^b.  The b = 0 twist is the construction."""
    if not b:
        return construction
    gradings = tuple(tuple(x + b for x in w) for w in construction.gradings)
    return TinyWeightModule(construction.q, gradings, b, construction.matrix)


def sym_power_module(n: int, q: int, a: int) -> TinyWeightModule:
    """Sym^a of the standard module, irreducible for a <= q-1 at prime q,
    on the degree-a monomials graded by their exponents."""
    _require_prime(q)
    if not 0 <= a <= q - 1:
        raise ValueError("symmetric power outside the irreducible range")
    monos = sorted((m for m in product(range(a + 1), repeat=n) if sum(m) == a),
                   reverse=True)

    def untwisted(g):
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

    return TinyWeightModule(q, tuple(monos), 0, untwisted)


def exterior_power_module(n: int, q: int, k: int) -> TinyWeightModule:
    """The k-th exterior power of the standard module (minuscule, always
    irreducible), on the k-subsets graded by their indicators."""
    _require_prime(q)
    if not 1 <= k <= n:
        raise ValueError("exterior power degree out of range")
    subsets = sorted(combinations(range(n), k))

    def untwisted(g):
        # the entry at (T, S) is the minor of g on rows T and columns S
        return tuple(tuple(mat_det([[g[r][c] for c in S] for r in T], q)
                           for S in subsets) for T in subsets)

    gradings = tuple(tuple(int(j in S) for j in range(n)) for S in subsets)
    return TinyWeightModule(q, gradings, 0, untwisted)


@lru_cache(maxsize=_CACHED_GROUPS)
def supported_weight_modules(n: int, q: int):
    """The supported family: all symmetric powers in the irreducible range
    and all exterior powers, twisted by determinant powers.  Returns a
    read-only mapping from the canonical highest weight to the module, built
    once per (n, q) from q+n-2 constructions whose twists share their cache."""
    _require_prime(q)
    constructions = ([sym_power_module(n, q, a) for a in range(q)]
                     + [exterior_power_module(n, q, k) for k in range(2, n)])
    out = {}
    for b in range(q - 1):
        for construction in constructions:
            mod = det_twist(construction, b)
            out.setdefault(make_weight(mod.gradings[0], q).nu, mod)
    return MappingProxyType(out)


def _module(n: int, q: int, nu) -> TinyWeightModule:
    """The module of the supported family with highest weight nu."""
    mod = supported_weight_modules(n, q).get(make_weight(tuple(nu), q).nu)
    if mod is None:
        raise ValueError(f"nu={nu} is outside the supported family")
    return mod


def _minus_one(module: TinyWeightModule, g):
    """The rows of the matrix of g - 1 on the module."""
    q = module.q
    return [tuple((x - (i == j)) % q for j, x in enumerate(row))
            for i, row in enumerate(module.matrix(g))]


def invariant_space(module: TinyWeightModule, gens):
    """Basis of the joint fixed space of the generators."""
    rows = [row for g in gens for row in _minus_one(module, g)]
    return nullspace(rows, module.q, module.dim)


def coinvariant_kernel(module: TinyWeightModule, gens):
    """rref basis and pivots of span{(g - 1)v}: the kernel of the projection
    onto the coinvariants."""
    return rref([col for g in gens for col in zip(*_minus_one(module, g))], module.q)


def check_invariants_coinvariants(n: int, q: int, nu, P: StandardParabolic) -> bool:
    """Finite-group gate: for the module of highest weight nu, the invariants
    of the unipotent radical map isomorphically onto the coinvariants of the
    opposite radical, the full-unipotent invariants are one-dimensional,
    carry the T(k)-character of nu, and the invariant space is exactly the
    sum of the graded pieces congruent to nu modulo the block root lattice."""
    mod = _module(n, q, nu)

    inv = invariant_space(mod, _radical_gens(P, q))
    K, piv = coinvariant_kernel(mod, _radical_gens(P, q, upper=False))
    if len(inv) != mod.dim - len(K):
        return False
    reduced = [_reduce_mod(K, piv, v, q) for v in inv]
    if mat_rank(reduced, q) != len(inv):
        return False

    # full-unipotent invariants: one line, carrying the character of nu
    inv_U = invariant_space(mod, _radical_gens(StandardParabolic.torus(n), q))
    if len(inv_U) != 1:
        return False
    w = inv_U[0]
    for t in product(range(1, q), repeat=n):
        diag = tuple(tuple(t[i] if i == j else 0 for j in range(n)) for i in range(n))
        tw = mod.act(diag, w)
        scalar = 1
        for tj, nj in zip(t, mod.gradings[0]):
            scalar = scalar * pow(tj, nj, q) % q
        if tw != tuple(x * scalar % q for x in w):
            return False

    # graded description: invariants = sum of pieces with nu - grading in Z Phi_M
    bd = (0,) + P.boundaries + (n,)
    def block_sums(vec):
        return tuple(sum(vec[a:b]) for a, b in zip(bd, bd[1:]))
    target = block_sums(mod.gradings[0])
    qualifying = [j for j, grading in enumerate(mod.gradings)
                  if block_sums(grading) == target]
    if len(inv) != len(qualifying):
        return False
    ok_support = all(all(v[j] == 0 for j in range(mod.dim) if j not in qualifying)
                     for v in inv)
    return ok_support


def in_big_cell(kappa, Q: StandardParabolic, P: StandardParabolic, q: int) -> bool:
    """Membership of kappa in (opposite parabolic of Q) * P, decided by
    transversality: for boundaries a of Q and b of P the spans kappa*V_b and
    the coordinate complement W_a must intersect generically.  Stacking the
    first b columns of kappa with the last n - a coordinate vectors gives
    rank (n - a) + rank of the top-left a x b block, so the condition is
    that every such block has rank min(a, b)."""
    return all(mat_rank([row[:b] for row in kappa[:a]], q) == min(a, b)
               for a in Q.boundaries for b in P.boundaries)


@lru_cache(maxsize=128)
def _off_big_cell(n: int, q: int, Q: StandardParabolic, P: StandardParabolic):
    """The kappa in GL_n(F_q) outside the big cell (opposite of Q) * P, in
    the order of ``gl_elements``."""
    return tuple(kappa for kappa in gl_elements(n, q)
                 if not in_big_cell(kappa, Q, P, q))


def check_double_coset_support(n: int, q: int, nu, P: StandardParabolic,
                               Q: StandardParabolic) -> bool:
    """Finite-group gate: whenever the projection of kappa * (invariants of
    the radical of P) to the coinvariants of the opposite radical of Q is
    nonzero, kappa lies in the big cell (opposite of Q) * P.

    Requires the weight to be regular for the Levis of both P and Q, except
    that one hypothesis may be dropped when the stabilizer Levi equals the
    other one exactly.

    Only the kappa outside the big cell are scanned: a kappa in the big cell
    satisfies the claim whatever its projection is, so skipping it leaves
    the verdict of the scan over all of GL_n(F_q) unchanged.
    """
    V = make_weight(tuple(nu), q)
    if not _support_hypothesis(V, P, Q):
        raise ValueError("regularity hypothesis violated for this (nu, P, Q)")
    return next(_support_failures(n, q, V.nu, P, Q), None) is None


def _support_hypothesis(V, P: StandardParabolic, Q: StandardParabolic) -> bool:
    """V is regular for the Levis of both P and Q, or its stabilizer Levi is
    one of them."""
    return (is_M_regular(V, P) and is_M_regular(V, Q)) or stab_levi(V.nu) in (P, Q)


def _support_failures(n: int, q: int, nu, P: StandardParabolic,
                      Q: StandardParabolic):
    """Every kappa outside the big cell with a nonzero projection, lazily
    and in the order of ``gl_elements``: the support gate without its
    regularity hypothesis."""
    mod = _module(n, q, nu)
    inv = invariant_space(mod, _radical_gens(P, q))
    K, piv = coinvariant_kernel(mod, _radical_gens(Q, q, upper=False))

    for kappa in _off_big_cell(n, q, Q, P):
        if any(any(_reduce_mod(K, piv, mod.act(kappa, v), q)) for v in inv):
            yield kappa


# -- Iwahori-level coset pattern ---------------------------------------------

def _mono_mul(x, y):
    """Product of monomial matrices with uniformizer valuations: apply y then
    x; each is (sigma, d) with column b mapping to row sigma[b], valuation d[b]."""
    sx, dx = x
    sy, dy = y
    sigma = tuple(sx[sy[b]] for b in range(len(sx)))
    d = tuple(dy[b] + dx[sy[b]] for b in range(len(sx)))
    return sigma, d


def check_iwahori_coset_count(n: int, q: int, i: int) -> bool:
    """Validate the one-sided coset pattern behind the spherical-vector
    relation: the parameter family at slot i has exactly q^{n-i} members,
    its members lie in distinct Iwahori cosets (the conjugated elementary
    entries acquire valuation -1), and the slot sizes over all i sum to the
    line-flag count."""
    _require_prime(q)
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    # monomial matrix of the slot operator: simple reflections then rotation
    mono = (tuple(range(n)), (0,) * n)
    for k in range(i, n):
        perm = list(range(n))
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
        mono = _mono_mul(mono, (tuple(perm), (0,) * n))
    rot = (tuple([n - 1] + list(range(n - 1))), (1,) + (0,) * (n - 1))
    mono = _mono_mul(mono, rot)
    sigma, d = mono
    # the product must be the expected monomial shape: column 1 -> row i
    if sigma[0] != i - 1 or d[0] != 1 or any(d[b] for b in range(1, n)):
        return False

    # parameter family: identity plus row i entries in columns i+1..n over F_q
    family = set()
    for vals in product(range(q), repeat=n - i):
        u = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for off, v in enumerate(vals):
            u[i - 1][i + off] = v
        if any(any(u[r][c] for c in range(r)) for r in range(n)):
            return False
        family.add(tuple(tuple(r) for r in u))
    if len(family) != q ** (n - i):
        return False

    # disjointness: conjugating a row-i elementary entry drops its valuation
    inv_sigma = [0] * n
    for b, r in enumerate(sigma):
        inv_sigma[r] = b
    for j in range(i, n):  # columns i+1..n, zero-based j
        v = d[inv_sigma[j]] - d[inv_sigma[i - 1]]
        if v > -1:
            return False

    total = sum(q ** (n - k) for k in range(1, n + 1))
    return total == gaussian_factorial_ratio(n, (1, n - 1), q)


# -- umbrella ------------------------------------------------------------------

def verify_gates(max_n: int, max_q: int):
    """Run every oracle gate up to the given bounds; any False is a build
    breaker.  Returns a structured report."""
    report = {"order": [], "minuscule": [], "iwahori": [],
              "invariants": [], "double_coset": [], "ok": True}
    primes = [p for p in range(2, max_q + 1) if is_prime(p)]
    for n in range(2, max_n + 1):
        for q in primes:
            if _too_large(n, q):
                continue
            assert len(gl_elements(n, q)) == group_order_formula(n, q)
            report["order"].append({"n": n, "q": q, "ok": True})
            for i in range(1, n):
                ok = check_minuscule_satake(n, q, i)
                report["minuscule"].append({"n": n, "q": q, "i": i, "ok": ok})
                report["ok"] &= ok
            for i in range(1, n + 1):
                ok = check_iwahori_coset_count(n, q, i)
                report["iwahori"].append({"n": n, "q": q, "i": i, "ok": ok})
                report["ok"] &= ok
            mods = supported_weight_modules(n, q)
            for nu in sorted(mods):
                for P in all_parabolics(n):
                    ok = check_invariants_coinvariants(n, q, nu, P)
                    report["invariants"].append(
                        {"n": n, "q": q, "nu": list(nu), "P": list(P.composition), "ok": ok})
                    report["ok"] &= ok
                V = make_weight(nu, q)
                for P in all_parabolics(n):
                    for Q in all_parabolics(n):
                        if _support_hypothesis(V, P, Q):
                            ok = check_double_coset_support(n, q, nu, P, Q)
                            report["double_coset"].append(
                                {"n": n, "q": q, "nu": list(nu),
                                 "P": list(P.composition), "Q": list(Q.composition), "ok": ok})
                            report["ok"] &= ok
    return report
