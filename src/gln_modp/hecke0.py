"""The extended affine 0-Hecke algebra of type A at characteristic p.

Elements of the extended affine symmetric group are held in window notation:
an integer tuple (f(1), ..., f(n)) with pairwise distinct residues mod n,
extended by f(i+n) = f(i) + n.  The rotation generator Pi has window
(2, 3, ..., n+1); the translation by a coweight lam has window (i + n*lam_i).
The group is taken modulo the central element Pi^n, whose image in the
algebra is a configurable scalar zeta (default 1, the value forced on a
vector with trivial central character); multiplications count how often
they wrap through Pi^n so the scalar can be applied.  An element is its
window itself, the representative whose rotation degree sum(f(i) - i)/n
lies in [0, n-1]; windows from outside the library are checked where they
enter, at ``Hecke0Algebra.element`` and ``Hecke0Algebra.basis``.

The group product is composition in diagram order: (x*y) applies x first.
With this convention the defining relations hold literally:

    S_i^2 = -S_i,  S_i S_j = S_j S_i (|i-j| > 1),
    S_k S_{k+1} S_k = S_{k+1} S_k S_{k+1},  S_k Pi = Pi S_{k+1},

and the basis multiplication closes with a single signed term,
T_w T_{w'} = (-1)^(l(w)+l(w')-l(w*w')) T_{w*w'}, where * is the Demazure
(absorbing) product.  It is computed letter by letter over a reduced word of
the left factor w, which in the derivation engine is a generator or a
rotation (length at most 4 for n <= 5) while the right factor is long; see
``signed_product``.

Length is the affine inversion count

    l(f) = sum over a<b of  max(0, ceil((f(a)-f(b))/n))
                          + max(0, ceil((f(b)-f(a))/n) - 1),

both wrapped and unwrapped inversion families.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from functools import lru_cache

from .finite_field import FqElem, FqField, accumulate


def _rotation(window) -> int:
    """Rotation degree sum(f(i) - i) / n: the power of Pi in the
    decomposition by the sum-zero affine subgroup."""
    n = len(window)
    return (sum(window) - n * (n + 1) // 2) // n


def _check_window(w, n: int) -> None:
    """Reject a window from outside the library that is not a canonical
    element of rank n.  Distinct residues make sum(w) = sum(1..n) mod n, so
    the rotation degree is always an integer."""
    if len(w) != n:
        raise ValueError(f"{w} has rank {len(w)}, expected {n}")
    if len({v % n for v in w}) != n:
        raise ValueError(f"{w} is not a valid window (residues must be distinct)")
    if not 0 <= _rotation(w) <= n - 1:
        raise ValueError(
            f"{w} is not canonical (rotation degree outside [0, n-1]); "
            "shift the window by a multiple of n")


# derive n = 5 leaves about 12k windows here at cap 25 and 20k at cap 60
@lru_cache(maxsize=1 << 17)
def _length(window) -> int:
    n = len(window)
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            d = window[a] - window[b]
            up = -(-d // n)        # ceil(d/n)
            down = -(d // n)       # ceil(-d/n)
            total += max(0, up) + max(0, down - 1)
    return total


def _canonicalize(window):
    """Normalize the rotation degree into [0, n-1]; return (window, wraps)
    where wraps counts the removed central factors Pi^n."""
    n = len(window)
    wraps = _rotation(window) // n  # floor division: canonical degree lands in [0, n-1]
    return tuple(v - n * wraps for v in window), wraps


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def simple(n: int, k: int) -> tuple:
    """The affine simple reflection s_k, 0 <= k <= n-1 (k = 0 is the affine
    one); swaps the value classes k and k+1 mod n."""
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range for n={n}")
    if k == 0:
        return tuple([0] + list(range(2, n)) + [n + 1])
    w = list(range(1, n + 1))
    w[k - 1], w[k] = w[k], w[k - 1]
    return tuple(w)


def rotation(n: int, k: int = 1) -> tuple:
    """Pi^k: the window (1+k, 2+k, ..., n+k), canonicalized."""
    return _canonicalize(tuple(i + k for i in range(1, n + 1)))[0]


def translation(lam) -> tuple:
    """The translation element of a coweight: f(i) = i + n*lam_i (canonical
    representative mod the center)."""
    n = len(lam)
    return _canonicalize(tuple(i + 1 + n * lam[i] for i in range(n)))[0]


def _operator_window(n: int, j: int) -> tuple:
    """S_j S_{j+1} ... S_{n-1} Pi (Pi itself when j = n): the window
    (2, ..., j, n+1, j+1, ..., n) of Pi with the value n+1 moved to slot j."""
    w = list(range(2, n + 1))
    w.insert(j - 1, n + 1)
    return tuple(w)


def _value_positions(window) -> list:
    """pos[v] for v = 0..n: the position i with f(i) = v on the window line.

    Descent criterion: x * s_k swaps the values k and k+1 (mod n), so
    l(x * s_k) < l(x) exactly when value k+1 already sits left of value k,
    pos[k+1] < pos[k]; the swap changes no inversion but the one between
    those two value classes."""
    n = len(window)
    pos = [0] * (n + 1)
    for i, v in enumerate(window, 1):
        r = (v - 1) % n + 1
        pos[r] = i + r - v
    pos[0] = pos[n] - n
    return pos


def reduced_word(x: tuple):
    """A reduced word for the sum-zero part: returns (letters, rot) with
    x = s_{letters[0]} * ... * s_{letters[-1]} * Pi^rot in diagram order.
    Deterministic: always peels the smallest descent; s_k swaps pos[k], pos[k+1]."""
    n = len(x)
    rot = _rotation(x)
    pos = _value_positions(tuple(v - rot for v in x))
    letters = []
    while (k := next((k for k in range(n) if pos[k + 1] < pos[k]), None)) is not None:
        letters.append(k)
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
        if k == 0:
            pos[n] = pos[0] + n
        elif k == n - 1:
            pos[0] = pos[n] - n
    return letters[::-1], rot


# only generators, rotations and short operator words occur as left factors
# (12 windows for derive n = 4, 16 for n = 5)
@lru_cache(maxsize=1024)
def _left_word(window):
    """Reduced word of the element with this window as (letters last-first,
    rot), for walking it from the right."""
    letters, rot = reduced_word(window)
    return tuple(reversed(letters)), rot


def signed_product(x: tuple, y: tuple):
    """The 0-Hecke (Demazure) product T_x T_y = sign * zeta^wraps * T_z.

    Walks a reduced word of the left factor x = s_a1 ... s_am Pi^rot, which
    is short wherever products are hot, so T_x T_y = T_{s_a1} ... T_{s_am}
    T_{Pi^rot y}.  It starts from the window of Pi^rot y, i -> y(i + rot),
    and applies the letters last-first as position swaps: s_k * w swaps
    w[k-1] and w[k], and s_0 * w = (w[n-1] - n, w[1:n-1], w[0] + n).  A letter
    is taken when the length rises, i.e. when w(k) < w(k+1) with
    w(0) = w(n) - n, and absorbed with a sign -1 otherwise.

    By associativity of the Demazure product this equals walking a word of
    y from x letter by letter (the reference in the tests): z is the same
    element, the sign is (-1)^(l(x)+l(y)-l(z)) because each absorbed letter
    is one length lost, and the rotation degree of z before canonicalization
    is deg x + deg y, so wraps = floor((deg x + deg y) / n).  Returns
    (sign, wraps, z).
    """
    n = len(y)
    if len(x) != n:
        raise ValueError("rank mismatch")
    letters, rot = _left_word(x)
    z = list(y[rot:] + tuple(v + n for v in y[:rot]))
    sign = 1
    for k in letters:
        d = 0 if k else n       # for s_0, z[k - 1] is z[n-1] and w(0) = w(n) - n
        a, b = z[k - 1] - d, z[k]
        if a < b:
            z[k - 1], z[k] = b + d, a
        else:
            sign = -sign
    win, wraps = _canonicalize(z)
    return sign, wraps, win


class Hecke0Element:
    """A finite formal sum of basis elements T_w with scalar coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Hecke0Algebra", terms):
        clean = {}
        for w, c in dict(terms).items():
            c = algebra.field(c)
            if c:
                clean[w] = c
        self.algebra = algebra
        self.terms = clean

    def __eq__(self, other):
        return (isinstance(other, Hecke0Element) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(out, w, c)
        return Hecke0Element(self.algebra, out)

    def __neg__(self):
        return Hecke0Element(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.algebra.multiply(self, other)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*T{w}" for w, c in sorted(self.terms.items()))


class Hecke0Algebra:
    """Context object holding the rank, scalar field, and central value."""

    def __init__(self, n: int, field: FqField, zeta: FqElem | int = 1):
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.n = n
        self.field = field
        self.zeta = field(zeta)
        if not self.zeta:
            raise ValueError("zeta must be invertible")
        # sign * zeta^wraps by (sign, wraps).  For canonical x, y, signed_product
        # starts from Pi^(deg x) y, of degree deg x + deg y in [0, 2n-2], and its
        # letters are position swaps, which keep the window sum: wraps is 0 or 1.
        self._scalars = {(1, 0): field.one, (-1, 0): -field.one,
                         (1, 1): self.zeta, (-1, 1): -self.zeta}

    def element(self, terms) -> Hecke0Element:
        terms = dict(terms)
        for w in terms:
            _check_window(w, self.n)
        return Hecke0Element(self, terms)

    def basis(self, w: tuple) -> Hecke0Element:
        _check_window(w, self.n)
        return Hecke0Element(self, {w: self.field.one})

    @property
    def one(self) -> Hecke0Element:
        return self.basis(identity(self.n))

    def S(self, k: int) -> Hecke0Element:
        return self.basis(simple(self.n, k))

    def Pi(self, k: int = 1) -> Hecke0Element:
        return self.basis(rotation(self.n, k))

    def multiply(self, a: Hecke0Element, b: Hecke0Element) -> Hecke0Element:
        out = {}
        for x, cx in a.terms.items():
            for y, cy in b.terms.items():
                sign, wraps, z = signed_product(x, y)
                accumulate(out, z, cx * cy * self._scalars[sign, wraps])
        return Hecke0Element(self, out)

    def word_product(self, letters, rot: int = 0) -> Hecke0Element:
        """Product of T_{s_k} over the letters, then rot factors of T_Pi."""
        acc = self.one
        for k in letters:
            acc = acc * self.S(k)
        for _ in range(rot):
            acc = acc * self.Pi()
        return acc

    def srange(self, a: int, b: int) -> Hecke0Element:
        """S_a S_{a+1} ... S_b (identity when a > b)."""
        return self.word_product(list(range(a, b + 1)))


def _default_field() -> FqField:
    # odd characteristic keeps the signs faithful in tests
    return FqField(3)


def verify_braid_and_rotation(n: int, field: FqField | None = None) -> bool:
    """Check the quadratic, commuting, braid, and rotation relations, and
    centrality of Pi^n, via signed Demazure products."""
    H = Hecke0Algebra(n, field or _default_field())
    ok = True
    for i in range(1, n):
        ok &= H.S(i) * H.S(i) == -H.S(i)
        for j in range(1, n):
            if abs(i - j) > 1:
                ok &= H.S(i) * H.S(j) == H.S(j) * H.S(i)
    for k in range(1, n - 1):
        ok &= H.S(k) * H.S(k + 1) * H.S(k) == H.S(k + 1) * H.S(k) * H.S(k + 1)
        ok &= H.S(k) * H.Pi() == H.Pi() * H.S(k + 1)
    pin = H.word_product([], n)
    ok &= pin == H.element({identity(n): H.zeta})
    for i in range(1, n):
        ok &= pin * H.S(i) == H.S(i) * pin
    return bool(ok)


def verify_word_shift_identity(n: int, field: FqField | None = None) -> bool:
    """Check S_{i..j} S_{k..(l-1)} = S_{(k+1)..l} S_{i..j} for all
    1 <= i <= k <= l <= j <= n-1 (the middle factor is empty when l = k)."""
    H = Hecke0Algebra(n, field or _default_field())
    for i in range(1, n):
        for k in range(i, n):
            for l in range(k, n):
                for j in range(l, n):
                    lhs = H.srange(i, j) * H.srange(k, l - 1)
                    rhs = H.srange(k + 1, l) * H.srange(i, j)
                    if lhs != rhs:
                        return False
    return True


def verify_translation_power(n: int, i: int, field: FqField | None = None) -> bool:
    """Check that (S_{i..(n-1)} Pi)^i is the single unsigned basis element of
    the translation by (1,...,1,0,...,0) (i ones), of length i*(n-i)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range")
    H = Hecke0Algebra(n, field or _default_field())
    step = H.srange(i, n - 1) * H.Pi()
    acc = H.one
    for _ in range(i):
        acc = acc * step
    t = translation((1,) * i + (0,) * (n - i))
    if _length(t) != i * (n - i):
        return False
    return acc == H.basis(t)


# ---------------------------------------------------------------------------
# Spherical-vector module and the rotation-invariance derivation engine.
#
# The module is spanned by symbols T_x v for x with no finite right descent
# (a reduced expression ending in a finite generator kills v, since each
# finite S_k annihilates a vector fixed by the maximal compact).  On top of
# that the engine imposes the coset-decomposition relation
#
#     v  =  sum over i of  S_{i..(n-1)} Pi v
#
# and, as an explicit external hypothesis, that each translation operator
# U_i acts nilpotently.  From idempotency identities U_i^2 v = U_i v proved
# by bounded linear algebra over left translates of the relations, the engine
# concludes U_i v = 0 step by step and finally reduces v - Pi v to zero.
# ---------------------------------------------------------------------------


class DerivationCapExceeded(Exception):
    """Raised when the translate cap is exhausted before a target reduces;
    carries the partial report (inconclusive, not a refutation)."""

    def __init__(self, report):
        super().__init__(f"translate length cap {report.cap} exhausted")
        self.report = report


@dataclass(frozen=True)
class DerivationStep:
    index: int
    operator: str
    idempotency_round: int
    vanishing_round: int
    trace: tuple
    axiom: str
    derived: tuple


@dataclass
class DerivationReport:
    """The fields are the keys of the JSON report."""

    n: int
    cap: int
    status: str = "running"
    steps: list = dc_field(default_factory=list)
    final_round: int = -1
    minimal_sufficient_cap: int = 0
    conclusion: str = ""

    def to_json(self):
        return asdict(self)


def has_finite_descent(x: tuple) -> bool:
    """Whether l(x * s_k) < l(x) for some finite generator k = 1..n-1, read
    off the value positions (see ``_value_positions``) without any length."""
    pos = _value_positions(x)
    return any(pos[k + 1] < pos[k] for k in range(1, len(x)))


def render_word(x: tuple) -> str:
    """Readable word for an element: letters of a reduced word of the
    sum-zero part followed by the rotation power."""
    letters, rot = reduced_word(x)
    body = "".join(f"S_{k}" for k in letters)
    if rot == 1:
        body += "Π"
    elif rot:
        body += f"Π^{rot}"
    return body or "1"


class _ModuleEngine:
    """Sparse row reduction over the normal-form module symbols, with
    breadth-first generation of generator translates of the relations."""

    def __init__(self, algebra: Hecke0Algebra, cap: int):
        self.H = algebra
        self.cap = cap
        self.rows = {}          # pivot symbol -> (row dict, depth)
        self.frontier = []      # rows inserted at the current depth
        self.depth = 0
        self.gens = [simple(algebra.n, k) for k in range(algebra.n)]
        self.rots = [rotation(algebra.n, k) for k in range(1, algebra.n)]

    @staticmethod
    def _key(x: tuple):
        return (_length(x), x)

    def apply(self, g: tuple, vec):
        """Left action of T_g on a module vector, projecting away symbols
        with finite right descents."""
        out = {}
        for sym, c in vec.items():
            sign, wraps, z = signed_product(g, sym)
            if not has_finite_descent(z):
                accumulate(out, z, c * self.H._scalars[sign, wraps])
        return out

    def reduce(self, vec):
        """Fully reduce against the echelon rows; returns (remainder, depth
        of the deepest row used).

        A row holds only symbols below its pivot, so each pop is strictly
        below the one before: the remainder's keys come out in decreasing
        ``_key`` order, its first key the largest."""
        work = dict(vec)
        out = {}
        used = 0
        while work:
            key = max(work, key=self._key)
            c = work.pop(key)
            if key in self.rows:
                row, d = self.rows[key]
                used = max(used, d)
                for sym, rc in row.items():
                    if sym != key:
                        accumulate(work, sym, -(c * rc))
            else:
                out[key] = c
        return out, used

    def insert(self, vec, depth: int) -> bool:
        rem, _ = self.reduce(vec)
        if not rem:
            return False
        pivot = next(iter(rem))
        inv = rem[pivot].inverse()
        row = {sym: c * inv for sym, c in rem.items()}
        self.rows[pivot] = (row, depth)
        self.frontier.append((row, depth))
        return True

    def add_relation(self, vec, depth: int = 0):
        """Insert a relation together with its free rotation translates."""
        self.insert(vec, depth)
        for r in self.rots:
            self.insert(self.apply(r, vec), depth)

    def expand_once(self):
        """One saturation round: translate every frontier row by each
        length-one generator (rotations are attached for free)."""
        self.depth += 1
        old, self.frontier = self.frontier, []
        for row, d in old:
            for g in self.gens:
                self.add_relation(self.apply(g, row), d + 1)

    def ensure_zero(self, vec) -> int:
        """Saturate until the vector reduces to zero; returns the depth of
        the deepest translate used by the successful reduction."""
        while True:
            rem, used = self.reduce(vec)
            if not rem:
                return used
            if self.depth >= self.cap or not self.frontier:
                raise _CapSignal()
            self.expand_once()


class _CapSignal(Exception):
    pass


def derive_rotation_invariance(n: int, length_cap: int | None = None,
                               field: FqField | None = None,
                               zeta=1) -> DerivationReport:
    """Derive, in the spherical-vector module, that the translation
    operators U_i all kill the vector and hence that v = Pi v.

    For each i in increasing order the engine proves the idempotency
    U_i^2 v = U_i v by reducing against left translates T_w r of the current
    relations with l(w) <= ``length_cap``, by default max(n^2, 20); with the
    nilpotence hypothesis (external input, never derived) this yields
    U_i v = 0.  The report carries a per-step trace and the minimal
    sufficient translate length; an exhausted cap raises
    DerivationCapExceeded with the inconclusive partial report attached.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    length_cap = max(n * n, 20) if length_cap is None else length_cap
    if length_cap < n * n:
        raise ValueError(f"length cap must be at least n^2 = {n * n}")
    H = Hecke0Algebra(n, field or _default_field(), zeta)
    engine = _ModuleEngine(H, length_cap)
    report = DerivationReport(n=n, cap=length_cap)

    one = H.field.one
    v = {identity(n): one}

    z_ops = {j: _operator_window(n, j) for j in range(1, n + 1)}
    for j, z in z_ops.items():
        assert not has_finite_descent(z), (j, z)

    def idempotency_defect(g: tuple):
        """T_g T_g v - T_g v as a module vector."""
        gv = engine.apply(g, v)
        out = engine.apply(g, gv)
        for sym, c in gv.items():
            accumulate(out, sym, -c)
        return out

    def op_name(j: int) -> str:
        return "".join(f"S_{k}" for k in range(j, n)) + "Π"

    # the coset-decomposition relation: sum_j S_{j..(n-1)} Pi v - v = 0
    rel = {}
    for j in range(1, n + 1):
        accumulate(rel, z_ops[j], one)
    accumulate(rel, identity(n), -one)
    engine.add_relation(rel)

    cap_used = 0
    try:
        for i in range(1, n):
            z = z_ops[i]
            u_elem = translation((1,) * i + (0,) * (n - i))
            assert not has_finite_descent(u_elem)

            r1 = engine.ensure_zero(idempotency_defect(z))
            r1u = engine.ensure_zero(idempotency_defect(u_elem))

            # external hypothesis: U_i nilpotent; with idempotency this kills U_i v
            engine.add_relation({u_elem: one})
            r2 = engine.ensure_zero({z: one})
            engine.add_relation({z: one})

            # trace in the shape of the step-by-step hand computation
            name = op_name(i)
            tail = " - ".join(f"{op_name(j)}v" for j in range(i + 1, n + 1))
            line1 = f"({name})²v = {name}(v - {tail})"
            cross, all_die = [], True
            for j in range(i + 1, n + 1):
                sign, _, prod = signed_product(z, z_ops[j])
                cross.append(("-" if sign > 0 else "+") + f" {render_word(prod)}v")
                all_die = all_die and has_finite_descent(prod)
            line2 = f"= {name}v " + " ".join(cross)
            line3 = f"= {name}v" if all_die else f"= {name}v (mod earlier relations)"
            rounds = max(r1, r1u, r2)
            cap_used = max(cap_used, rounds)
            report.steps.append(DerivationStep(
                index=i,
                operator=name,
                idempotency_round=max(r1, r1u),
                vanishing_round=r2,
                trace=(line1, line2, line3),
                axiom=f"U_{i} acts nilpotently (hypothesis), so idempotency forces U_{i}v = 0",
                derived=(f"U_{i}v = 0", f"{name}v = 0"),
            ))

        final = {identity(n): one}
        for sym, c in engine.apply(rotation(n), v).items():
            accumulate(final, sym, -c)
        rf = engine.ensure_zero(final)
        cap_used = max(cap_used, rf)
        report.final_round = rf
        report.minimal_sufficient_cap = cap_used
        report.status = "derived"
        report.conclusion = "v = Πv"
        return report
    except _CapSignal:
        report.status = "inconclusive"
        report.conclusion = (
            "cap exhausted before reduction; no conclusion (not a refutation)")
        report.minimal_sufficient_cap = cap_used
        raise DerivationCapExceeded(report) from None
