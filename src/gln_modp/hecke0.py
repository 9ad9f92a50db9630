"""The extended affine 0-Hecke algebra of type A at characteristic p.

Elements of the extended affine symmetric group are held in window notation:
an integer tuple (f(1), ..., f(n)) with pairwise distinct residues mod n,
extended by f(i+n) = f(i) + n.  The rotation generator Pi has window
(2, 3, ..., n+1); the translation by a coweight lam has window (i + n*lam_i).
The group is taken modulo the central element Pi^n, which acts as 1: the
derivation's module has trivial central character, and a nontrivial
central value would make it collapse.  An element is its window itself, the
representative whose rotation degree sum(f(i) - i)/n lies in [0, n-1], as
``identity``, ``simple``, ``rotation`` and ``translation`` build it.

The group product is composition in diagram order: (x*y) applies x first.
With this convention the defining relations hold literally:

    S_i^2 = -S_i,  S_i S_j = S_j S_i (|i-j| > 1),
    S_k S_{k+1} S_k = S_{k+1} S_k S_{k+1},  S_k Pi = Pi S_{k+1},

and the basis multiplication closes with a single signed term,
T_w T_{w'} = (-1)^(l(w)+l(w')-l(w*w')) T_{w*w'}, where * is the Demazure
(absorbing) product.  It is computed letter by letter over a reduced word of
the left factor w, which is short while the right factor is long; see
``signed_product``.  The derivation engine acts only through the closed
forms of its generator and rotation translates, and walks its operators
S_{j..(n-1)} Pi and the U_i (length at most 6 for n <= 5) through them
letter by letter.  Every identity the program checks compares two products
of basis elements, each of which is +-T_w over the integers, so ``_chain``
returns the pair (defect parity, window): equal pairs mean equality over Z,
and hence over every F_q, F_2 included.  The derivation engine's relations
have coefficients +-1, so it computes with ints mod p.

Length is the affine inversion count

    l(f) = sum over a<b of  max(0, ceil((f(a)-f(b))/n))
                          + max(0, ceil((f(b)-f(a))/n) - 1),

both wrapped and unwrapped inversion families.  It is never recounted:
``signed_product`` returns the defect l(x) + l(y) - l(z), the number of
absorbed letters, and the derivation engine packs each module symbol
(length, window) into one int key, in that order, from closed forms
(l(S_j ... S_{n-1} Pi) = n - j, l(U_i) = i(n - i)), one more per letter taken.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from ._record import Record
from .finite_field import FqField


def _rotation(window) -> int:
    """Rotation degree sum(f(i) - i) / n: the power of Pi in the
    decomposition by the sum-zero affine subgroup."""
    n = len(window)
    return (sum(window) - n * (n + 1) // 2) // n


def _canonicalize(window):
    """Normalize the rotation degree into [0, n-1] by removing whole
    central factors Pi^n = 1."""
    n = len(window)
    turns = _rotation(window) // n  # floor division: canonical degree lands in [0, n-1]
    return tuple(v - n * turns for v in window)


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
    return _canonicalize(tuple(i + k for i in range(1, n + 1)))


def translation(lam) -> tuple:
    """The translation element of a coweight: f(i) = i + n*lam_i (canonical
    representative mod the center)."""
    n = len(lam)
    return _canonicalize(tuple(i + 1 + n * lam[i] for i in range(n)))


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


# the left factors are the verify checks' generators and rotations and the
# derivation's operators S_{i..(n-1)} Pi and U_i (5 windows for n = 4, 7 for n = 5)
@lru_cache(maxsize=1024)
def _left_word(window):
    """Reduced word of the element with this window as (letters last-first,
    rot), for walking it from the right."""
    letters, rot = reduced_word(window)
    return tuple(reversed(letters)), rot


def signed_product(x: tuple, y: tuple):
    """The 0-Hecke (Demazure) product T_x T_y = (-1)^defect * T_z.

    Walks a reduced word of the left factor x = s_a1 ... s_am Pi^rot, which
    is short wherever products are hot, so T_x T_y = T_{s_a1} ... T_{s_am}
    T_{Pi^rot y}.  It starts from the window of Pi^rot y, i -> y(i + rot),
    and applies the letters last-first as position swaps: s_k * w swaps
    w[k-1] and w[k], and s_0 * w = (w[n-1] - n, w[1:n-1], w[0] + n).  A letter
    is taken when the length rises, i.e. when w(k) < w(k+1) with
    w(0) = w(n) - n, and absorbed otherwise.

    By associativity of the Demazure product this equals walking a word of
    y from x letter by letter (the reference in the tests): z is the same
    element, each absorbed letter is one length lost, so the number of them
    is the defect l(x) + l(y) - l(z).  The window reached has rotation degree
    deg x + deg y in [0, 2n-2]; a whole turn Pi^n = 1 is removed when that
    is n or more.  Returns (defect, z).
    """
    n = len(y)
    if len(x) != n:
        raise ValueError("rank mismatch")
    letters, rot = _left_word(x)
    z = list(y[rot:] + tuple(v + n for v in y[:rot]))
    defect = 0
    for k in letters:
        d = 0 if k else n       # for s_0, z[k - 1] is z[n-1] and w(0) = w(n) - n
        a, b = z[k - 1] - d, z[k]
        if a < b:
            z[k - 1], z[k] = b + d, a
        else:
            defect += 1
    turns = (sum(z) - n * (n + 1) // 2) // (n * n)   # floor(deg z / n), as in _canonicalize
    return defect, tuple(v - n * turns for v in z) if turns else tuple(z)


def _chain(*windows):
    """The product T_w1 T_w2 ... T_wk of basis elements over Z, as (defect
    parity, window): it is (-1)^parity T_window.  It multiplies from the
    right, so each product's left factor is one of the given windows."""
    defect, z = 0, windows[-1]
    for w in reversed(windows[:-1]):
        d, z = signed_product(w, z)
        defect += d
    return defect & 1, z


def _require_rank(n: int, what: str, max_rank: int) -> None:
    if n < 2:
        raise ValueError("rank must be at least 2")
    if n > max_rank:
        raise ValueError(f"{what} is measured up to rank {max_rank}; rank {n} is refused")


# the largest rank measured to derive: n = 5 at cap 30 takes about 0.06 s in
# process; n = 6 needs cap 55 and takes about 2.7 s at 122 MB peak RSS
_DERIVE_MAX_RANK = 5
# the largest rank each verify_* check accepts: word_shift grows like n^6
# and takes under a second at n = 20 in process
_VERIFY_MAX_RANK = 20


def verify_braid_and_rotation(n: int) -> bool:
    """Check the quadratic, commuting, braid, and rotation relations,
    Pi^n = 1 and its centrality, via signed Demazure products."""
    _require_rank(n, "verify", _VERIFY_MAX_RANK)
    S, pi = [simple(n, k) for k in range(n)], rotation(n)
    ok = True
    for i in range(1, n):
        ok &= _chain(S[i], S[i]) == (1, S[i])
        for j in range(1, n):
            if abs(i - j) > 1:
                ok &= _chain(S[i], S[j]) == _chain(S[j], S[i])
    for k in range(1, n - 1):
        ok &= _chain(S[k], S[k + 1], S[k]) == _chain(S[k + 1], S[k], S[k + 1])
        ok &= _chain(S[k], pi) == _chain(pi, S[k + 1])
    pin = (pi,) * n
    ok &= _chain(*pin) == (0, identity(n))
    for i in range(1, n):
        ok &= _chain(*pin, S[i]) == _chain(S[i], *pin)
    return bool(ok)


def verify_word_shift_identity(n: int) -> bool:
    """Check S_{i..j} S_{k..(l-1)} = S_{(k+1)..l} S_{i..j} for all
    1 <= i <= k <= l <= j <= n-1 (the middle factor is empty when l = k)."""
    _require_rank(n, "verify", _VERIFY_MAX_RANK)
    S = [simple(n, k) for k in range(n)]
    for i in range(1, n):
        for k in range(i, n):
            for l in range(k, n):
                for j in range(l, n):
                    if _chain(*S[i:j + 1], *S[k:l]) != _chain(*S[k + 1:l + 1], *S[i:j + 1]):
                        return False
    return True


def verify_translation_power(n: int, i: int) -> bool:
    """Check that (S_{i..(n-1)} Pi)^i is the single unsigned basis element of
    the translation by (1,...,1,0,...,0) (i ones), of length i*(n-i)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range")
    _require_rank(n, "verify", _VERIFY_MAX_RANK)
    step = [simple(n, k) for k in range(i, n)] + [rotation(n)]
    t = translation((1,) * i + (0,) * (n - i))
    if len(reduced_word(t)[0]) != i * (n - i):
        return False
    return _chain(*step * i) == (0, t)


# ---------------------------------------------------------------------------
# Spherical-vector module and the rotation-invariance derivation engine.
#
# The module is spanned by symbols T_x v for x with no finite right descent
# (a reduced expression ending in a finite generator kills v, since each
# finite S_k annihilates a vector fixed by the maximal compact); symbols
# are ordered by (l(x), x).  On top of that the engine imposes the
# coset-decomposition relation
#
#     v  =  sum over i of  S_{i..(n-1)} Pi v
#
# and, as an explicit external hypothesis, that each translation operator
# U_i acts nilpotently.  From idempotency identities U_i^2 v = U_i v proved
# by bounded linear algebra over left translates of the relations, the engine
# concludes U_i v = 0 step by step and finally reduces v - Pi v to zero.
# ---------------------------------------------------------------------------


class DerivationCapExceeded(Exception):
    """Raised when the translate cap or the row budget runs out before a target
    reduces; carries the partial report (inconclusive, not a refutation)."""

    def __init__(self, report, message=None):
        super().__init__(message or f"translate length cap {report.cap} exhausted")
        self.report = report


class DerivationStep(Record):
    __slots__ = ("index", "operator", "idempotency_round", "vanishing_round", "trace", "axiom",
                 "derived")

    def __init__(self, index: int, operator: str, idempotency_round: int, vanishing_round: int,
                 trace: tuple, axiom: str, derived: tuple):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "idempotency_round", idempotency_round)
        object.__setattr__(self, "vanishing_round", vanishing_round)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "axiom", axiom)
        object.__setattr__(self, "derived", derived)


class DerivationReport:
    """The attributes, in order, are the keys of the JSON report."""

    def __init__(self, n: int, cap: int, status: str = "running", steps: list | None = None,
                 final_round: int = -1, minimal_sufficient_cap: int = 0, conclusion: str = ""):
        self.n = n
        self.cap = cap
        self.status = status
        self.steps = [] if steps is None else steps
        self.final_round = final_round
        self.minimal_sufficient_cap = minimal_sufficient_cap
        self.conclusion = conclusion

    def to_json(self):
        return {**vars(self), "steps": [{f: getattr(s, f) for f in s._fields} for s in self.steps]}


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


def _accumulate(terms: dict, key, c: int, p: int) -> None:
    """terms[key] += c mod p (c nonzero mod p), dropping the entry when it cancels."""
    total = (terms.get(key, 0) + c) % p
    if total:
        terms[key] = total
    else:
        del terms[key]


# the most rows a derivation keeps, per rank: four times those of the derivation
# (5, 50, 783 and 17,664 rows at n = 2..5, at every cap that derives and every p;
# 519,887 at n = 6 with the rank guard raised), so a wrong closed form stops fast
_ROW_BUDGET = {n: 4 * rows for n, rows in ((2, 5), (3, 50), (4, 783), (5, 17_664), (6, 519_887))}


class _ModuleEngine:
    """Sparse row reduction over the normal-form module symbols T_x v, with
    breadth-first generation of generator translates of the relations.

    A symbol's key is one int ordered as the pair (l(x), x): l in the top
    bits, then each window entry plus 2^(w-1) as a w-bit digit, the first
    highest, then the rotation degree (below 8 under the rank guard) in the
    low 3 bits, which never breaks a tie.  Coefficients are ints in [1, p-1].
    The engine acts only through two closed forms, with no product and no
    descent scan: ``generator_translate`` (T_{s_k}, one letter) and ``rotate``
    (T_{Pi^a}, a relabelling); ``apply`` walks other left factors' reduced
    words through them.  Rules A (``add_relation``) and B and the absorbed
    translates (``expand_once``) skip only inserts that would reduce to zero
    and change no state, so the rows are the full saturation's.

    Rows by reference: while the pivot set P is Pi-stable (``stable``), a kept
    row r whose pivot l is strictly longer than its other keys maps each pivot
    Pi^a l (0 < a < n) to (r, a, depth); ``reduce`` builds Pi^a r, keys
    decreasing, on first read and stores it in place.  It is the row that
    inserting Pi^a vec keeps: rule A keeps the span S Pi-stable, and ``insert``
    keeps the unique normalised vector of vec + S with no key in P, which
    Pi^a r is: Pi^a P = P; a key Pi^b l (b < a) of Pi^a r makes Pi^(b-a) l a
    key of r as long as l, so l, yet Pi^c moves the rotation degree (0 < c < n);
    Pi keeps the length, the top field, so Pi^a l leads, coefficient 1; and P
    stays Pi-stable, as Pi^n = 1.  Any other kept row inserts each Pi^a vec at
    once and clears ``stable``; a derivation does that for one relation at most."""

    def __init__(self, n: int, cap: int, p: int):
        self.n = n
        self.cap = cap
        self.p = p
        self.rows = {}          # pivot key -> (row dict r, a, depth): the row Pi^a r
        self.stable = True      # whether the pivot set is Pi-stable, so rows go by reference
        self.frontier = []      # relation rows inserted at the current depth
        self.depth = 0
        self.budget = _ROW_BUDGET[n]
        self.absorbed = False   # whether the last generator translate absorbed every symbol
        # By Shi's formula l(x) = sum over i<j of |floor((x(j) - x(i))/n)|, a
        # window's max - min is at most n(l + 1), and its mean is (n + 1)/2 + deg;
        # lengths stay at most cap + n^2, so |x(i)| <= n(cap + n^2 + 3) < 2^(w-1).
        w = (n * (cap + n * n + 3)).bit_length() + 1
        self.width, self.offset, self.top = w, 1 << (w - 1), 3 + n * w  # length unit: 1 << top
        shift = [3 + w * (n - 1 - i) for i in range(n)]     # entry i's digit
        ones = ((1 << n * w) - 1) // ((1 << w) - 1) << 3    # a 1 in every digit
        # s_k compares the entries at k - 1 and k; for s_0 the last entry, less n, and the first
        self._pairs = [(shift[k - 1], shift[k], 0 if k else n,
                        (1 << shift[k - 1]) - (1 << shift[k])) for k in range(n)]
        # Pi^a moves the first a digits last: n more on them if deg + a < n, else n less on the rest
        self._turns = [(3 + w * (n - a), (1 << w * a) - 1, (1 << w * (n - a)) - 1, 3 + w * a,
                        n - a, n * (ones & (1 << 3 + w * a) - 1) + a,
                        a - n - n * (ones >> 3 + w * a << 3 + w * a)) for a in range(n)]

    def symbol(self, l: int, x: tuple) -> int:
        """The key of the symbol T_x v, with l = l(x)."""
        key = l
        for v in x:
            key = key << self.width | v + self.offset
        return key << 3 | _rotation(x)

    def apply(self, g: tuple, vec):
        """T_g on a module vector: ``rotate`` by g's rotation, then translate by
        the letters of g's reduced word, last first.  The symbols with a finite
        right descent span a left submodule, so dropping them per letter is exact."""
        letters, rot = _left_word(g)
        vec = self.rotate(rot, vec)
        for k in letters:
            vec = self.generator_translate(k, vec)
        return vec

    def generator_translate(self, k: int, vec):
        """T_{s_k} on a module vector, as ``signed_product`` takes one letter:
        the pair a < b that it compares is swapped by one add (digits exchanged,
        length + 1), otherwise absorbed (T_{s_k} T_y = -T_y).  y has no finite
        right descent, so by the exchange condition s_k y has one, s_j, exactly
        when s_k y = y s_j: b = a + 1 with j = a mod n finite, and the symbol dies.
        Sets ``absorbed`` when every symbol was absorbed, so the result is -vec."""
        out, p, n = {}, self.p, self.n
        left, right, turn, swap = self._pairs[k]
        mask, unit, finite = (1 << self.width) - 1, 1 << self.top, self.offset % n
        absorbed = True
        for key, c in vec.items():
            a, b = (key >> left & mask) - turn, key >> right & mask
            if a > b:
                _accumulate(out, key, p - c, p)
            else:
                absorbed = False
                if b != a + 1 or a % n == finite:
                    _accumulate(out, key + (b - a) * swap + unit, c, p)
        self.absorbed = absorbed
        return out

    def rotate(self, a: int, vec):
        """T_{Pi^a} on a module vector: l(Pi) = 0, so T_{Pi^a} T_y =
        T_{Pi^a y} keeps the length and the right descents of y.  A bijection
        on symbols, so the keys keep their order."""
        out, top = {}, self.top
        head, head_mask, rest_mask, rest, edge, up, down = self._turns[a]
        for key, c in vec.items():
            out[(key >> top << top) + ((key >> 3 & rest_mask) << rest) + (key & 7)
                + ((key >> head & head_mask) << 3) + (up if key & 7 < edge else down)] = c
        return out

    def reduce(self, vec):
        """Fully reduce against the echelon rows; returns (remainder, depth
        of the deepest row used).

        A row holds only symbols below its pivot, so each pop is strictly
        below the one before: the remainder's keys come out in decreasing
        order, its first key the largest."""
        work = dict(vec)
        out, p, rows = {}, self.p, self.rows
        used = 0
        while work:
            key = max(work)
            c = work.pop(key)
            if key in rows:
                row, a, d = rows[key]
                if a:       # the row Pi^a r, recorded by reference: build it once
                    row = dict(sorted(self.rotate(a, row).items(), reverse=True))
                    rows[key] = (row, 0, d)
                used = max(used, d)
                for sym, rc in islice(row.items(), 1, None):   # the pivot comes first
                    _accumulate(work, sym, -c * rc, p)
            else:
                out[key] = c
        return out, used

    def insert(self, vec, depth: int):
        """Keep vec's reduced remainder as a row; returns it, or None if vec is in the span."""
        rem, _ = self.reduce(vec)
        if not rem:
            return None
        pivot = next(iter(rem))
        p = self.p
        inv = pow(rem[pivot], p - 2, p)
        row = {sym: c * inv % p for sym, c in rem.items()}
        self.rows[pivot] = (row, 0, depth)
        return row

    def add_relation(self, vec, depth: int = 0):
        """Insert a relation and its free rotation translates; only its own
        row joins the frontier.  Each call inserts a whole Pi-orbit and Pi^n = 1,
        so the span is Pi-stable here: if vec reduces to zero, so does every
        Pi^k vec, and none is formed (rule A).  The orbit's other rows go by
        reference as the class docstring says, or else are inserted now."""
        if (row := self.insert(vec, depth)) is not None:
            self.frontier.append((row, depth))
            keys, top, rows = iter(row), self.top, self.rows
            pivot, second = next(keys), next(keys, -1)    # -1 sorts below every length
            if self.stable and second >> top < pivot >> top:
                for a in range(1, self.n):      # the pivot Pi^a l, by rotate's formula
                    head, head_mask, rest_mask, rest, edge, up, down = self._turns[a]
                    rows[(pivot >> top << top) + ((pivot >> 3 & rest_mask) << rest) + (pivot & 7)
                         + ((pivot >> head & head_mask) << 3)
                         + (up if pivot & 7 < edge else down)] = (row, a, depth)
            else:
                self.stable = False
                for a in range(1, self.n):
                    self.insert(self.rotate(a, vec), depth)
            if len(rows) > self.budget:
                raise _Exhausted("row budget", f"row budget of {self.budget} rows exhausted")

    def expand_once(self):
        """One saturation round: translate every frontier row by each
        length-one generator (rotations are attached for free).  Rows kept
        from Pi^a f are not in the frontier (rule B): S_k Pi = Pi S_{k+1}, so
        S_k Pi^a f is Pi^a S_j f for some j, and f's row comes first, so those
        translates and their rotations are in the span by their turn.  An
        absorbed translate is -f, in the span as well, and is not inserted."""
        self.depth += 1
        old, self.frontier = self.frontier, []
        for row, d in old:
            for k in range(self.n):
                translate = self.generator_translate(k, row)
                if not self.absorbed:
                    self.add_relation(translate, d + 1)

    def ensure_zero(self, vec) -> int:
        """Saturate until the vector reduces to zero; returns the depth of
        the deepest translate used by the successful reduction."""
        while True:
            rem, used = self.reduce(vec)
            if not rem:
                return used
            if self.depth >= self.cap or not self.frontier:
                raise _Exhausted("cap")
            self.expand_once()


class _Exhausted(Exception):
    """A limit ran out before a target reduced: its arguments are the limit's
    name and, for the row budget, the message of DerivationCapExceeded."""


def derive_rotation_invariance(n: int, length_cap: int | None = None,
                               field: FqField | None = None) -> DerivationReport:
    """Derive, in the spherical-vector module, that the translation
    operators U_i all kill the vector and hence that v = Pi v.

    For each i in increasing order the engine proves the idempotency
    U_i^2 v = U_i v by reducing against left translates T_w r of the current
    relations with l(w) <= ``length_cap``, by default max(n^2, 20); with the
    nilpotence hypothesis (external input, never derived) this yields
    U_i v = 0.  The report carries a per-step trace and, as
    ``minimal_sufficient_cap``, the deepest insertion round among the rows
    the reductions used; rows do not inherit the rounds of the rows that
    reduced them, so it can lie below the smallest working cap (ROADMAP
    item 1).  An exhausted cap, or more rows than the engine's budget for
    the rank, raises DerivationCapExceeded with the inconclusive partial
    report attached; a rank above 5 raises ValueError.
    ``field`` supplies only its characteristic p (3 by default), so the
    report is the same for every F_{p^m}.
    """
    _require_rank(n, "derive", _DERIVE_MAX_RANK)
    length_cap = max(n * n, 20) if length_cap is None else length_cap
    if length_cap < n * n:
        raise ValueError(f"length cap must be at least n^2 = {n * n}")
    p = field.p if field else 3
    engine = _ModuleEngine(n, length_cap, p)
    report = DerivationReport(n=n, cap=length_cap)

    z_ops = {j: _operator_window(n, j) for j in range(1, n + 1)}
    for j, z in z_ops.items():
        assert not has_finite_descent(z), (j, z)

    def idempotency_defect(g, key):
        """T_g T_g v - T_g v as a module vector, where T_g v is the symbol key."""
        out = engine.apply(g, {key: 1})
        _accumulate(out, key, -1, p)
        return out

    # the coset-decomposition relation: sum_j S_{j..(n-1)} Pi v - v = 0,
    # where l(S_{j..(n-1)} Pi) = n - j
    v = engine.symbol(0, identity(n))
    rel = {engine.symbol(n - j, z_ops[j]): 1 for j in range(1, n + 1)}
    rel[v] = p - 1
    engine.add_relation(rel)

    cap_used = 0
    try:
        for i in range(1, n):
            z = z_ops[i]
            u_elem = translation((1,) * i + (0,) * (n - i))     # U_i, of length i(n - i)
            assert not has_finite_descent(u_elem)
            zv, uv = engine.symbol(n - i, z), engine.symbol(i * (n - i), u_elem)

            r1 = engine.ensure_zero(idempotency_defect(z, zv))
            r1u = engine.ensure_zero(idempotency_defect(u_elem, uv))

            # external hypothesis: U_i nilpotent; with idempotency this kills U_i v
            engine.add_relation({uv: 1})
            r2 = engine.ensure_zero({zv: 1})
            engine.add_relation({zv: 1})

            # trace in the shape of the step-by-step hand computation
            name = render_word(z)
            tail = " - ".join(f"{render_word(z_ops[j])}v" for j in range(i + 1, n + 1))
            line1 = f"({name})²v = {name}(v - {tail})"
            cross, all_die = [], True
            for j in range(i + 1, n + 1):
                defect, prod = signed_product(z, z_ops[j])
                cross.append(("+" if defect & 1 else "-") + f" {render_word(prod)}v")
                all_die = all_die and has_finite_descent(prod)
            line2 = f"= {name}v " + " ".join(cross)
            line3 = f"= {name}v" if all_die else f"= {name}v (mod earlier relations)"
            cap_used = max(cap_used, r1, r1u, r2)
            report.steps.append(DerivationStep(
                index=i,
                operator=name,
                idempotency_round=max(r1, r1u),
                vanishing_round=r2,
                trace=(line1, line2, line3),
                axiom=f"U_{i} acts nilpotently (hypothesis), so idempotency forces U_{i}v = 0",
                derived=(f"U_{i}v = 0", f"{name}v = 0"),
            ))

        rf = engine.ensure_zero({v: 1, engine.symbol(0, rotation(n)): p - 1})  # v - Πv
        cap_used = max(cap_used, rf)
        report.final_round = rf
        report.minimal_sufficient_cap = cap_used
        report.status = "derived"
        report.conclusion = "v = Πv"
        return report
    except _Exhausted as stop:
        limit, *message = stop.args
        report.status = "inconclusive"
        report.conclusion = (
            f"{limit} exhausted before reduction; no conclusion (not a refutation)")
        report.minimal_sufficient_cap = cap_used
        raise DerivationCapExceeded(report, *message) from None
