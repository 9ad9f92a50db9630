"""Type-A root datum conventions for GL_n, coweight orders, and parabolics.

Conventions are fixed once and for all:

* cocharacters and characters of the diagonal torus are integer n-tuples;
* the simple roots are alpha_i = e_i - e_{i+1} for i = 1, ..., n-1
  (1-based indices throughout), and alpha_i^vee is the same vector;
* the pairing is the dot product, so <lam, alpha_i> = lam_i - lam_{i+1};
* antidominant means weakly increasing, dominant weakly decreasing
  (the Borel is upper triangular).

Coweights and weights are plain integer tuples.  A standard parabolic is
recorded by its Levi block composition (n_1, ..., n_r); the corresponding
subset of simple roots is everything except the block boundaries.
"""

from __future__ import annotations

from itertools import combinations

from ._record import Record


def is_antidominant(v) -> bool:
    return all(v[i] <= v[i + 1] for i in range(len(v) - 1))


def pairing(lam, i: int) -> int:
    """<lam, alpha_i> = lam_i - lam_{i+1} for the i-th simple (co)root."""
    if not 1 <= i <= len(lam) - 1:
        raise ValueError(f"simple root index {i} out of range for n={len(lam)}")
    return lam[i - 1] - lam[i]


def add(v, w):
    return tuple(a + b for a, b in zip(v, w))


def simple_coroot(n: int, i: int):
    """alpha_i^vee = e_i - e_{i+1}."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    return tuple(1 if j == i - 1 else -1 if j == i else 0 for j in range(n))


def fundamental_antidominant_coweight(n: int, i: int):
    """The antidominant coweight (-1,...,-1,0,...,0) with i entries -1.

    Satisfies <lam, alpha_j> = -delta_{ij}; its negative is minuscule.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    return (-1,) * i + (0,) * (n - i)


def fundamental_weight(n: int, i: int):
    """omega_i = (1,...,1,0,...,0) with i ones; <omega_i, alpha_j^vee> = delta_ij."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    return (1,) * i + (0,) * (n - i)


class StandardParabolic(Record):
    """A standard parabolic of GL_n, stored as a composition of n.

    The derived simple-root subset ``delta`` consists of all i in 1..n-1
    that are not block boundaries; composition <-> subset is a bijection.
    """

    __slots__ = ("composition",)

    def __init__(self, composition: tuple):
        if not composition or any(c < 1 for c in composition):
            raise ValueError("composition parts must be positive")
        object.__setattr__(self, "composition", tuple(composition))

    @classmethod
    def full(cls, n: int) -> "StandardParabolic":
        return cls((n,))

    @classmethod
    def torus(cls, n: int) -> "StandardParabolic":
        return cls((1,) * n)

    @classmethod
    def from_delta(cls, n: int, subset) -> "StandardParabolic":
        subset = set(subset)
        if any(not 1 <= i <= n - 1 for i in subset):
            raise ValueError("simple root index out of range")
        boundaries = [i for i in range(1, n) if i not in subset]
        comp, prev = [], 0
        for b in boundaries + [n]:
            comp.append(b - prev)
            prev = b
        return cls(tuple(comp))

    @property
    def n(self) -> int:
        return sum(self.composition)

    @property
    def boundaries(self) -> tuple:
        """Partial sums n_1, n_1+n_2, ... excluding n itself."""
        out, acc = [], 0
        for c in self.composition[:-1]:
            acc += c
            out.append(acc)
        return tuple(out)

    @property
    def delta(self) -> frozenset:
        """Simple-root indices of the Levi (complement of the boundaries)."""
        bd = set(self.boundaries)
        return frozenset(i for i in range(1, self.n) if i not in bd)

    def blocks(self):
        """Ranges of 1-based coordinate indices, one per Levi block."""
        out, start = [], 1
        for c in self.composition:
            out.append(range(start, start + c))
            start += c
        return out

    def block_of(self, j: int) -> int:
        """0-based index of the block containing coordinate j (1-based)."""
        acc = 0
        for b, c in enumerate(self.composition):
            acc += c
            if j <= acc:
                return b
        raise ValueError(f"coordinate {j} out of range")

    def contains(self, other: "StandardParabolic") -> bool:
        """True iff ``other`` is a sub-Levi of self (Delta_other inside Delta_self)."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return other.delta <= self.delta

    def __repr__(self):
        return f"P{self.composition}"


def all_parabolics(n: int):
    """All 2^(n-1) standard parabolics of GL_n, by decreasing Delta size."""
    out = []
    roots = list(range(1, n))
    for k in range(n - 1, -1, -1):
        for subset in combinations(roots, k):
            out.append(StandardParabolic.from_delta(n, subset))
    return tuple(out)


def leq_M(mu, lam, M: StandardParabolic) -> bool:
    """True iff lam - mu is a nonnegative integer combination of the simple
    coroots of M.

    Decided by partial sums p_i of lam - mu: these are the coroot
    coefficients, so all must be >= 0, the total must vanish, and p_i must
    vanish at every i outside Delta_M.
    """
    if len(mu) != len(lam):
        raise ValueError("length mismatch")
    if len(mu) != M.n:
        raise ValueError("rank mismatch with parabolic")
    delta = M.delta
    ps = 0
    for i in range(1, len(mu)):
        ps += lam[i - 1] - mu[i - 1]
        if ps < 0 or (ps > 0 and i not in delta):
            return False
    return ps + lam[-1] - mu[-1] == 0


# each leaf of the search is a member, so listing stops once an interval exceeds this
_MAX_INTERVAL = 1 << 16


def interval_above(mu, M: StandardParabolic):
    """All antidominant lam with lam >=_M mu, in lexicographic order.

    Built entry by entry from the coroot coordinates of lam - mu, its
    partial sums: they stay >= 0 and vanish at the end of every Levi block
    (outside Delta_M).  Every prefix built extends to a member: in its
    block, take each later entry as small as both lower bounds allow and
    give the last entry the rest of the block sum."""
    if not is_antidominant(mu):
        raise ValueError(f"{mu} is not antidominant")
    n = len(mu)
    # ends[t]: one past the last coordinate of the Levi block holding t
    ends = [block[-1] for block in M.blocks() for _ in block]
    rests = [sum(mu[t:ends[t]]) for t in range(n)]
    out = []

    def extend(prefix, last, p):
        # p: the coroot coefficient of lam - mu at alpha_t, the prefix's
        # sum of lam_j - mu_j
        t = len(prefix)
        if t == n:
            out.append(prefix)
            if len(out) > _MAX_INTERVAL:
                raise ValueError("interval too large for exhaustive enumeration")
            return
        # lam_t >= lam_{t-1}, p stays >= 0, and the block's entries from t
        # on, each >= lam_t, sum to rests[t] - p (so p is 0 at its end)
        lo = max(last, mu[t] - p)
        hi = (rests[t] - p) // (ends[t] - t)
        for v in range(lo, hi + 1):
            extend(prefix + (v,), v, p + v - mu[t])

    extend((), mu[0], 0)
    return tuple(out)


def stab_levi(nu) -> StandardParabolic:
    """The Levi M with Delta_M = {alpha_i : <nu, alpha_i^vee> = 0}, so that
    W_M is the stabilizer of nu."""
    n = len(nu)
    return StandardParabolic.from_delta(
        n, [i for i in range(1, n) if pairing(nu, i) == 0])
