"""Exact arithmetic in finite fields F_{p^m}.

A field is presented by a prime p and a monic irreducible modulus polynomial
over F_p.  Elements are coefficient vectors in the modulus basis
(c_0 + c_1*x + ... + c_{m-1}*x^{m-1}), so equality is decidable and printing
is exact.  Only tiny fields are ever needed here (coefficients of Satake
expansions, roots of unity for characters), so all arithmetic is schoolbook
and an inverse is a Fermat power.

Polynomials over F_p appear only internally and are held as tuples of ints
with the leading coefficient last; the zero polynomial is the empty tuple.
Every divisor is monic: a modulus, or a trial divisor of one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ._record import Record


@lru_cache(maxsize=64)
def _smallest_factor(n: int) -> int:
    """The smallest prime factor of 2 <= n < 2^32, by trial division: at most
    65,536 divisors, so a larger n is refused instead of taking minutes.
    Cached: the CLI, ``FqField`` and ``WeightClass`` factor a job's q once."""
    if n >= 1 << 32:
        raise ValueError(f"{n} is too large to factor (at most 2^32 - 1)")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(p: int) -> bool:
    return p >= 2 and _smallest_factor(p) == p


def prime_radical(q: int) -> int:
    """The prime p with q = p^f; raises if q is not a prime power."""
    if q < 2:
        raise ValueError("q must be >= 2")
    p, rest = _smallest_factor(q), q
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p


def accumulate(terms: dict, key, c) -> None:
    """terms[key] += c in a sparse dict, dropping the entry when it cancels."""
    total = terms[key] + c if key in terms else c
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def _trim(poly):
    i = len(poly)
    while i > 0 and poly[i - 1] == 0:
        i -= 1
    return tuple(poly[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, b, p):
    """The remainder of a modulo the monic b, top coefficient down."""
    a = list(a)
    db = len(b) - 1
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db]
        if c:
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
    return _trim(a[:db])


def poly_is_irreducible(poly, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    poly = _trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in product(range(p), repeat=d):
            g = lower + (1,)
            if not _poly_mod(poly, g, p):
                return False
    return True


# larger extensions are refused: a modulus search trial-divides p^m candidates
_MAX_EXTENSION = 1 << 16


# one entry per extension field in use
@lru_cache(maxsize=64)
def default_modulus(p: int, m: int):
    """Smallest (lexicographic) monic irreducible of degree m over F_p."""
    if m == 1:
        return (0, 1)
    for lower in product(range(p), repeat=m):
        cand = lower + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FqField(Record):
    """The field F_{p^m} = F_p[x] / (modulus)."""

    _fields = ("p", "m", "modulus")
    __slots__ = _fields + ("size", "zero", "one")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > 1 and (m > 16 or p ** m > _MAX_EXTENSION):  # 2^17 > 2^16
            raise ValueError(f"F_{{{p}^{m}}} exceeds the 2^16-element extension guard")
        if modulus is None:
            modulus = default_modulus(p, m)  # monic and irreducible by construction
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "size", p ** m)
        object.__setattr__(self, "zero", FqElem(self, (0,) * m))
        object.__setattr__(self, "one", FqElem(self, (1,) + (0,) * (m - 1)))

    def __call__(self, value) -> "FqElem":
        if isinstance(value, FqElem):
            if value.field is not self and value.field != self:
                raise ValueError("element of a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.m - 1)
            return FqElem(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        coeffs = coeffs + (0,) * (self.m - len(coeffs))
        return FqElem(self, coeffs)

    def parse(self, text: str) -> "FqElem":
        return self(tuple(int(t) for t in text.split(",")))

    def elements(self):
        for coeffs in product(range(self.p), repeat=self.m):
            yield FqElem(self, coeffs)

    def units(self):
        return (x for x in self.elements() if x)


class FqElem(Record):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def _check(self, other) -> "FqElem":
        if isinstance(other, FqElem):
            if other.field is self.field or other.field == self.field:
                return other
        elif isinstance(other, int):
            return self.field(other)
        raise ValueError("mixed-field arithmetic")

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        field = self.field
        p = field.p
        if field.m == 1:
            return FqElem(field, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod_ = _poly_mul(_trim(self.coeffs), _trim(other.coeffs), p)
        rem = _poly_mod(prod_, field.modulus, p)
        rem = rem + (0,) * (field.m - len(rem))
        return FqElem(field, rem)

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        """By Fermat: x^(q-2) inverts x != 0 in F_q."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if field.m == 1:
            return FqElem(field, (pow(self.coeffs[0], field.p - 2, field.p),))
        return self ** (field.size - 2)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"Fq({self})"
