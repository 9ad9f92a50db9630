import hashlib
import io
import json
import random
import time

import pytest
from hypothesis import given, strategies as st

import gln_modp.hecke0 as h0mod
from gln_modp import cli
from gln_modp.finite_field import FqField
from gln_modp.hecke0 import (
    DerivationCapExceeded, _canonicalize, _chain, _operator_window, _rotation,
    derive_rotation_invariance, has_finite_descent, identity, reduced_word,
    rotation, signed_product, simple, translation, verify_braid_and_rotation,
    verify_translation_power, verify_word_shift_identity,
)


def _length(window):
    """The affine inversion count of the module docstring: the reference the
    carried lengths and defects are checked against."""
    n = len(window)
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            d = window[a] - window[b]
            up = -(-d // n)        # ceil(d/n)
            down = -(d // n)       # ceil(-d/n)
            total += max(0, up) + max(0, down - 1)
    return total


def value(x, i):
    """f(i) for any integer i, via n-periodicity."""
    n = len(x)
    r = (i - 1) % n
    return x[r] + (i - 1 - r)


def group_mul(x, y):
    """Product in diagram order (x first), modulo Pi^n."""
    assert len(x) == len(y)
    return _canonicalize(tuple(value(y, value(x, i)) for i in range(1, len(x) + 1)))


def rand_perm(rng, n):
    x = identity(n)
    for _ in range(rng.randint(0, 6)):
        x = group_mul(x, simple(n, rng.randrange(n)))
    if rng.random() < 0.5:
        x = group_mul(x, rotation(n, rng.randint(1, n - 1)))
    return x


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
def test_distinct_residues_give_integral_degree(case):
    residues, shifts = case
    n = len(residues)
    w = tuple(r + n * s for r, s in zip(residues, shifts))
    assert n * _rotation(w) == sum(w) - sum(range(1, n + 1))


@st.composite
def canonical_window_pairs(draw):
    n = draw(st.integers(2, 6))

    def window():
        residues = draw(st.permutations(range(1, n + 1)))
        shifts = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return _canonicalize(tuple(r + n * s for r, s in zip(residues, shifts)))

    return window(), window()


@given(canonical_window_pairs())
def test_defect_of_canonical_window_products(pair):
    x, y = pair
    defect, z = signed_product(x, y)
    assert _rotation(z) in range(len(x))
    assert defect == _length(x) + _length(y) - _length(z)


def test_operator_windows_are_word_products():
    for n in range(2, 7):
        for j in range(1, n + 1):
            x = identity(n)
            for k in range(j, n):
                x = group_mul(x, simple(n, k))
            x = group_mul(x, rotation(n))
            assert x == _operator_window(n, j)
            assert _length(x) == n - j
            assert not has_finite_descent(x)


def test_lengths():
    assert _length(identity(4)) == 0
    assert _length(rotation(5)) == 0
    assert _length(simple(3, 0)) == 1
    assert _length(simple(3, 2)) == 1
    assert _length(translation((1, 0))) == 1
    assert _length(translation((0, 1))) == 1   # wrapped inversion family
    assert _length(translation((2, 0))) == 2
    assert _length(translation((1, 1, 0))) == 2
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            t = translation((1,) * i + (0,) * (n - i))
            assert _length(t) == i * (n - i)


def test_relations():
    for n in (2, 3, 4, 5):
        assert verify_braid_and_rotation(n)
        assert verify_word_shift_identity(n)
        for i in range(1, n):
            assert verify_translation_power(n, i)


def test_verify_checks_accept_rank_20_and_refuse_rank_21():
    # word_shift, the n^6 check, is left out at rank 20: it alone takes ~0.8 s
    assert verify_braid_and_rotation(20)
    assert all(verify_translation_power(20, i) for i in range(1, 20))
    message = "^verify is measured up to rank 20; rank 21 is refused$"
    for check in (verify_braid_and_rotation, verify_word_shift_identity,
                  lambda n: verify_translation_power(n, 1)):
        with pytest.raises(ValueError, match=message):
            check(21)


def test_relations_char2(monkeypatch):
    # the identities are checked over Z: S_i S_i = +S_i, a sign error that a
    # check over F_2 would miss, fails the relations
    def unsigned_square(x, y):
        defect, z = signed_product(x, y)
        return (0, z) if x == y else (defect, z)

    assert verify_braid_and_rotation(3)
    monkeypatch.setattr(h0mod, "signed_product", unsigned_square)
    assert not verify_braid_and_rotation(3)


def test_quadratic_contraction():
    for n in (2, 3, 4, 5):
        for k in range(n):
            s = simple(n, k)
            assert signed_product(s, s) == (1, s)
            assert _chain(s, s, s) == (0, s)


def test_rotation_power_is_one_and_central():
    for n in (2, 3, 4, 5):
        pin = (rotation(n),) * n
        assert _chain(*pin) == (0, identity(n))
        for k in range(n):
            assert _chain(*pin, simple(n, k)) == _chain(simple(n, k), *pin) == (0, simple(n, k))
        for k in range(1, n):
            assert signed_product(rotation(n, k), rotation(n, n - k)) == (0, identity(n))


def test_sign_is_defect_parity():
    # T_a is the product of the generators of a reduced word of a, unsigned;
    # multiplying T_b by them one at a time loses the same letters
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(80):
            a, b = rand_perm(rng, n), rand_perm(rng, n)
            defect, z = signed_product(a, b)
            assert defect == _length(a) + _length(b) - _length(z)
            letters, rot = reduced_word(a)
            assert 0 <= defect <= len(letters)
            word = [simple(n, k) for k in letters] + [rotation(n)] * rot
            assert _chain(identity(n), *word) == (0, a)
            assert _chain(*word, b) == (defect & 1, z)


def test_associativity_and_unit():
    # d(a, b) + d(ab, c) = d(b, c) + d(a, bc), both with the window abc
    rng = random.Random(4)
    for n in (2, 3, 4):
        for _ in range(40):
            a, b, c = (rand_perm(rng, n) for _ in range(3))
            d_ab, ab = signed_product(a, b)
            d_ab_c, left = signed_product(ab, c)
            d_bc, bc = signed_product(b, c)
            d_a_bc, right = signed_product(a, bc)
            assert (d_ab + d_ab_c, left) == (d_bc + d_a_bc, right)
            assert signed_product(a, identity(n)) == signed_product(identity(n), a) == (0, a)


def test_rotation_conjugates_generators():
    for n in (2, 3, 4, 5):
        pi = rotation(n)
        for k in range(n):
            assert signed_product(pi, simple(n, k)) == signed_product(simple(n, (k - 1) % n), pi)
            assert signed_product(pi, simple(n, k))[0] == 0


def test_reduced_word_spells_the_element():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(30):
            x = rand_perm(rng, n)
            letters, rot = reduced_word(x)
            assert len(letters) == _length(x)
            word = [simple(n, k) for k in letters] + [rotation(n)] * rot
            assert _chain(identity(n), *word) == (0, x)


def test_translation_power_example():
    # (S_2 Pi)^2 is the translation by (1,1,0), of length 2, with sign +1
    s2, pi = simple(3, 2), rotation(3)
    assert _chain(s2, pi, s2, pi) == (0, translation((1, 1, 0)))


def test_finite_descent_detection():
    assert has_finite_descent(simple(3, 1))
    assert not has_finite_descent(identity(3))
    assert not has_finite_descent(rotation(3))
    assert not has_finite_descent(translation((1, 0, 0)))


def test_derivation_success():
    for n in (2, 3, 4):
        rep = derive_rotation_invariance(n, max(n * n, 20))
        assert rep.status == "derived"
        assert rep.conclusion == "v = Πv"
        assert len(rep.steps) == n - 1
        assert rep.minimal_sufficient_cap <= rep.cap


@pytest.mark.parametrize("n", [3, 4])
def test_reduce_returns_keys_in_decreasing_order(monkeypatch, n):
    # insert takes the first key of reduce's remainder as the pivot; every
    # key is an int that unpacks to (length, window), the window's true
    # length, in the order of those pairs
    reduce, sizes, engines = h0mod._ModuleEngine.reduce, [], set()

    def checked(self, vec):
        assert all(type(key) is int for key in vec), vec
        rem, used = reduce(self, vec)
        keys = list(rem)
        pairs = [_unpack(self, key) for key in keys]
        assert all(a > b for a, b in zip(keys, keys[1:])), pairs
        assert all(a > b for a, b in zip(pairs, pairs[1:])), pairs
        assert all(l == _length(x) for l, x in pairs), pairs
        sizes.append(len(rem))
        engines.add(self)
        return rem, used

    monkeypatch.setattr(h0mod._ModuleEngine, "reduce", checked)
    assert derive_rotation_invariance(n, max(n * n, 20)).status == "derived"
    assert max(sizes) > 1
    (engine,) = engines
    assert len(engine.rows) > 1
    assert all(l == _length(x) for l, x in (_unpack(engine, key) for key in engine.rows))
    symbols = [key for row, _ in list(engine.rows.values()) + engine.frontier for key in row]
    assert all(type(key) is int for key in list(engine.rows) + symbols)


def test_derivation_report_depends_only_on_the_rank():
    # the relations have coefficients +-1, so the engine works in the prime
    # field; in characteristic 2 the signs vanish and the report still agrees
    fields = [FqField(2), FqField(3), FqField(5), FqField(2, 2), FqField(3, 2)]
    for n, cases in ((2, fields), (3, fields), (4, [FqField(2), FqField(3, 2)])):
        expect = derive_rotation_invariance(n, field=FqField(3)).to_json()
        for field in cases:
            assert derive_rotation_invariance(n, field=field).to_json() == expect, (n, field)


def _descent_free(x):
    """x with its finite right descents peeled off, one length at a time:
    the shortest element of x W_0, a module symbol's window."""
    n = len(x)
    while (j := next((j for j in range(1, n)
                      if _length(_times_simple(x, j)) < _length(x)), None)) is not None:
        x = _times_simple(x, j)
    return x


def _tuple_generator_translate(n, p, k, vec):
    """T_{s_k} on a vector keyed by (length, window) pairs: the engine's
    generator translate on unpacked symbols, the reference for its packed one."""
    out = {}
    for (l, y), c in vec.items():
        a, b = (y[k - 1], y[k]) if k else (y[-1] - n, y[0])
        if a > b:
            h0mod._accumulate(out, (l, y), p - c, p)
        elif b != a + 1 or a % n == 0:
            z = y[:k - 1] + (b, a) + y[k + 1:] if k else (a,) + y[1:-1] + (b + n,)
            h0mod._accumulate(out, (l + 1, z), c, p)
    return out


def _tuple_rotate(n, a, vec):
    """T_{Pi^a} on a vector keyed by (length, window) pairs: the engine's
    rotate on unpacked symbols, the reference for its packed one."""
    out = {}
    turn = n * (n + 1) // 2 + (n - a) * n   # sum(y) at deg y = n - a
    for (l, y), c in vec.items():
        if sum(y) < turn:
            out[l, y[a:] + tuple(v + n for v in y[:a])] = c
        else:                               # deg y + a >= n: one turn Pi^n = 1 off
            out[l, tuple(v - n for v in y[a:]) + y[:a]] = c
    return out


def _unpack(engine, key):
    """The (length, window) pair of a packed symbol key; its low 3 bits must
    be the window's rotation degree."""
    mask, window, rest = (1 << engine.width) - 1, [], key >> 3
    for _ in range(engine.n):
        window.append((rest & mask) - engine.offset)
        rest >>= engine.width
    window = tuple(reversed(window))
    assert key & 7 == _rotation(window), (key, window)
    return rest, window


def _unpacked(engine, vec):
    """A module vector with its keys unpacked, in the same order."""
    return {_unpack(engine, key): c for key, c in vec.items()}


def _product_verdict(g, key, p):
    """T_g applied to the module symbol key = (l(y), y) through signed_product
    and has_finite_descent: the reference for the engine's closed forms."""
    defect, z = signed_product(g, key[1])
    if has_finite_descent(z):
        return {}
    return {(key[0] + _length(g) - defect, z): p - 1 if defect & 1 else 1}


def _applied(g, vec, p):
    """T_g on a module vector through ``_product_verdict``, symbol by symbol in
    the vector's key order, each result added mod p."""
    out = {}
    for key, c in vec.items():
        for sym, d in _product_verdict(g, key, p).items():
            h0mod._accumulate(out, sym, c * d, p)
    return out


def test_closed_form_translates_match_signed_product():
    # every k, s_0 included, and every rotation power on random symbols,
    # packed and through the tuple reference; each branch of the generator
    # form occurs, the two that the exchange condition tells apart included:
    # b = a + 1 dies unless a = 0 mod n.  Cap 12 sizes the digits for
    # lengths up to 12 + n^2.
    rng, p = random.Random(15), 5
    branches = {"absorbed": 0, "swapped": 0, "dies": 0, "affine_neighbours": 0}
    for n in (2, 3, 4, 5, 6):
        engine = h0mod._ModuleEngine(n, 12, p)
        for _ in range(300):
            y = _descent_free(_long_perm(rng, n, 12))
            key = (_length(y), y)
            packed = {engine.symbol(*key): 1}
            for k in range(n):
                out = _unpacked(engine, engine.generator_translate(k, packed))
                assert out == _product_verdict(simple(n, k), key, p), (k, y)
                assert _tuple_generator_translate(n, p, k, {key: 1}) == out, (k, y)
                a, b = (y[k - 1], y[k]) if k else (y[-1] - n, y[0])
                branches["absorbed" if a > b else "swapped" if out else "dies"] += 1
                branches["affine_neighbours"] += b == a + 1 and a % n == 0
            for a in range(1, n):
                out = _unpacked(engine, engine.rotate(a, packed))
                assert out == _product_verdict(rotation(n, a), key, p), (a, y)
                assert _tuple_rotate(n, a, {key: 1}) == out, (a, y)
    assert min(branches.values()) > 100, branches


@pytest.mark.parametrize("n", [3, 4])
def test_engine_translates_match_signed_product(monkeypatch, n):
    # every generator and rotation translate a derivation forms, key order
    # included, equals the product path on the same vector
    generator_translate, rotate = h0mod._ModuleEngine.generator_translate, h0mod._ModuleEngine.rotate
    symbols = []

    def checked_generator(self, k, vec):
        out = generator_translate(self, k, vec)
        expect = _applied(simple(n, k), _unpacked(self, vec), self.p)
        assert list(_unpacked(self, out).items()) == list(expect.items()), (k, vec)
        symbols.extend(vec)
        return out

    def checked_rotate(self, a, vec):
        out = rotate(self, a, vec)
        expect = _applied(rotation(n, a), _unpacked(self, vec), self.p)
        assert list(_unpacked(self, out).items()) == list(expect.items()), (a, vec)
        symbols.extend(vec)
        return out

    monkeypatch.setattr(h0mod._ModuleEngine, "generator_translate", checked_generator)
    monkeypatch.setattr(h0mod._ModuleEngine, "rotate", checked_rotate)
    assert derive_rotation_invariance(n).status == "derived"
    assert len(symbols) > 100


def test_engine_apply_matches_signed_product():
    # apply walks the operators S_{i..(n-1)}Pi and U_i through the closed
    # forms; on random descent-free symbols it equals the product path.
    # Cap 12 sizes the digits for lengths up to 12 + n^2.
    rng, p = random.Random(29), 5
    for n in (2, 3, 4, 5):
        engine = h0mod._ModuleEngine(n, 12, p)
        ops = [_operator_window(n, i) for i in range(1, n + 1)]
        ops += [translation((1,) * i + (0,) * (n - i)) for i in range(1, n)]
        for _ in range(60):
            y = _descent_free(_long_perm(rng, n, 12))
            key = (_length(y), y)
            for g in ops:
                out = engine.apply(g, {engine.symbol(*key): 1})
                assert _unpacked(engine, out) == _product_verdict(g, key, p), (g, y)


@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_packed_symbols_match_the_tuple_reference(n, rng):
    # two random symbols and their Pi-orbits, so every rotation degree and
    # both branches of rotate, the degree wrap included: the packed keys
    # unpack to the pairs, sort as the pairs do, and translate and rotate
    # as the tuple reference does
    p = 5
    engine = h0mod._ModuleEngine(n, 12, p)
    pairs = []
    for _ in range(2):
        y = _descent_free(_long_perm(rng, n, 12))
        pairs += [next(iter(_tuple_rotate(n, a, {(_length(y), y): 1}))) for a in range(n)]
    keys = [engine.symbol(*pair) for pair in pairs]
    assert [_unpack(engine, key) for key in keys] == pairs
    assert sorted(range(2 * n), key=keys.__getitem__) == sorted(range(2 * n), key=pairs.__getitem__)
    for pair, key in zip(pairs, keys):
        for k in range(n):
            out = _unpacked(engine, engine.generator_translate(k, {key: 1}))
            assert out == _tuple_generator_translate(n, p, k, {pair: 1}), (k, pair)
        for a in range(1, n):
            out = _unpacked(engine, engine.rotate(a, {key: 1}))
            assert out == _tuple_rotate(n, a, {pair: 1}), (a, pair)


@pytest.mark.parametrize("n,cap", [(2, None), (3, None), (4, None), (5, None), (5, 30)])
def test_derivation_windows_stay_within_the_digit_bound(monkeypatch, n, cap):
    # every symbol a derivation forms has l <= cap + n^2 and |x(i)| <= n(l + 3),
    # the bound that sizes the digits, below the digit offset; each translate
    # is formed again by the tuple reference from the pairs its input keys
    # were formed from, and each key must unpack to its pair
    generator_translate, rotate = h0mod._ModuleEngine.generator_translate, h0mod._ModuleEngine.rotate
    symbol, truth = h0mod._ModuleEngine.symbol, {}

    def formed(self, key, pair):
        l, x = pair
        assert truth.setdefault(key, pair) == pair == _unpack(self, key), (key, pair)
        assert max(map(abs, x)) <= n * (l + 3) <= n * (self.cap + n * n + 3) < self.offset, pair

    def recording(form, reference):
        def wrapped(self, j, vec):
            out = form(self, j, vec)
            expect = reference(self, j, {truth[key]: c for key, c in vec.items()})
            assert list(out.values()) == list(expect.values()), (j, vec)
            for key, pair in zip(out, expect):
                formed(self, key, pair)
            return out
        return wrapped

    def recording_symbol(self, l, x):
        key = symbol(self, l, x)
        formed(self, key, (l, x))
        return key

    monkeypatch.setattr(h0mod._ModuleEngine, "generator_translate", recording(
        generator_translate, lambda self, k, vec: _tuple_generator_translate(n, self.p, k, vec)))
    monkeypatch.setattr(h0mod._ModuleEngine, "rotate", recording(
        rotate, lambda self, a, vec: _tuple_rotate(n, a, vec)))
    monkeypatch.setattr(h0mod._ModuleEngine, "symbol", recording_symbol)
    try:
        derive_rotation_invariance(n, cap)
    except DerivationCapExceeded:
        assert (n, cap) == (5, None)
    assert len(truth) > n


def test_huge_cap_only_widens_the_digits():
    # a huge cap only widens the digits: the report is the default cap's
    default = derive_rotation_invariance(3).to_json()
    huge = derive_rotation_invariance(3, 10**6).to_json()
    assert (default.pop("cap"), huge.pop("cap")) == (20, 10**6)
    assert huge == default


def test_derive_multiplies_only_operators_and_translations(monkeypatch):
    # the engine acts through the closed forms alone; the only products left
    # are the trace's n - i cross terms per step: 3 + 2 + 1 at n = 4
    n, calls = 4, []

    def recording(x, y):
        calls.append(x)
        return signed_product(x, y)

    monkeypatch.setattr(h0mod, "signed_product", recording)
    assert derive_rotation_invariance(n).status == "derived"
    others = {_operator_window(n, j) for j in range(1, n + 1)}
    others |= {translation((1,) * i + (0,) * (n - i)) for i in range(1, n)}
    assert len(calls) == 6
    assert set(calls) <= others


class _Unskipped(h0mod._ModuleEngine):
    """The engine without the skip of absorbed translates: each generator
    translate is inserted.  Each one the engine would skip is counted, after
    checking that it is -f and reduces to zero against the rows so far."""

    skipped = 0

    def expand_once(self):
        self.depth += 1
        old, self.frontier = self.frontier, []
        for row, d in old:
            for k in range(self.n):
                translate = self.generator_translate(k, row)
                if self.absorbed:
                    assert translate == {key: self.p - c for key, c in row.items()}, (k, row)
                    assert not self.reduce(translate)[0], (k, row)
                    self.skipped += 1
                self.add_relation(translate, d + 1)


class _FullSaturation(_Unskipped):
    """The saturation without rules A and B and without the skip of absorbed
    translates: every translate is inserted, and every kept row enters the
    frontier."""

    def add_relation(self, vec, depth=0):
        for v in [vec] + [self.rotate(a, vec) for a in range(1, self.n)]:
            if (row := self.insert(v, depth)) is not None:
                self.frontier.append((row, depth))


def _derive_recording(monkeypatch, engine_class, n, cap):
    """(report JSON, engine, insert calls) of one derivation on engine_class."""
    engines, calls = [], []

    class Recording(engine_class):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

        def insert(self, vec, depth):
            calls.append(depth)
            return super().insert(vec, depth)

    with monkeypatch.context() as m:
        m.setattr(h0mod, "_ModuleEngine", Recording)
        try:
            report = derive_rotation_invariance(n, cap)
        except DerivationCapExceeded as exc:
            report = exc.report
    (engine,) = engines
    return report.to_json(), engine, len(calls)


@pytest.mark.parametrize("n,cap", [(2, None), (3, None), (4, None), (4, 16)])
def test_skipped_translates_change_nothing(monkeypatch, n, cap):
    # rules A and B skip only inserts that reduce to zero: the rows, their
    # depths and order, and the report equal those of the full saturation
    full, full_engine, full_calls = _derive_recording(monkeypatch, _FullSaturation, n, cap)
    ship, ship_engine, ship_calls = _derive_recording(monkeypatch, h0mod._ModuleEngine, n, cap)
    assert list(ship_engine.rows.items()) == list(full_engine.rows.items())
    assert ship == full
    assert ship_calls < full_calls


# absorbed generator translates per derivation, by (n, cap)
ABSORBED = {(2, None): 0, (3, None): 5, (4, None): 185, (4, 16): 185, (5, 30): 5718,
            (5, None): 2944}


@pytest.mark.parametrize("n,cap", list(ABSORBED))
def test_absorbed_translates_reduce_to_zero(monkeypatch, n, cap):
    # an absorbed translate of a frontier row f is -f: on the engine that
    # still inserts it, each one reduces to zero and adds no row, and the rows
    # and the report are the skipping engine's, with one insert less per skip
    full, full_engine, full_calls = _derive_recording(monkeypatch, _Unskipped, n, cap)
    ship, ship_engine, ship_calls = _derive_recording(monkeypatch, h0mod._ModuleEngine, n, cap)
    assert full_engine.skipped == ABSORBED[n, cap]
    assert list(ship_engine.rows.items()) == list(full_engine.rows.items())
    assert ship == full
    assert ship_calls == full_calls - full_engine.skipped


@pytest.mark.parametrize("n", [3, 4])
def test_row_span_is_rotation_stable(monkeypatch, n):
    # rule A's premise: every rotation translate of every row reduces to zero
    _, engine, _ = _derive_recording(monkeypatch, h0mod._ModuleEngine, n, None)
    assert len(engine.rows) > 10
    for row, _ in engine.rows.values():
        for k in range(1, n):
            assert not engine.reduce(engine.apply(rotation(n, k), row))[0], (row, k)


def test_derivation_trace_n2():
    rep = derive_rotation_invariance(2, 4)
    assert rep.steps[0].trace == (
        "(S_1Π)²v = S_1Π(v - Πv)",
        "= S_1Πv - S_1v",
        "= S_1Πv",
    )


def test_derivation_deterministic():
    a = derive_rotation_invariance(3, 9).to_json()
    b = derive_rotation_invariance(3, 9).to_json()
    assert a == b


def test_derivation_default_cap():
    for n in (2, 3, 4):
        assert derive_rotation_invariance(n).cap == max(n * n, 20)


def test_derivation_precondition():
    with pytest.raises(ValueError):
        derive_rotation_invariance(3, 8)  # cap below n^2


def test_cap_exceeded_reports_inconclusive(monkeypatch):
    import gln_modp.hecke0 as h0mod

    def refuse(self, vec):
        raise h0mod._Exhausted("cap")

    monkeypatch.setattr(h0mod._ModuleEngine, "ensure_zero", refuse)
    with pytest.raises(DerivationCapExceeded) as exc:
        h0mod.derive_rotation_invariance(2, 4)
    assert exc.value.report.status == "inconclusive"
    assert exc.value.report.conclusion == (
        "cap exhausted before reduction; no conclusion (not a refutation)")
    assert str(exc.value) == "translate length cap 4 exhausted"


def _wrong_death_test(self, k, vec):
    """``generator_translate`` with the death test read off the packed digit
    (a % n == 0) instead of the entry: a wrong closed form that never derives
    v = Pi v at n = 3 and a huge cap, and grows by about 1,300 rows a round."""
    out, p, n = {}, self.p, self.n
    left, right, turn, swap = self._pairs[k]
    mask, unit = (1 << self.width) - 1, 1 << self.top
    for key, c in vec.items():
        a, b = (key >> left & mask) - turn, key >> right & mask
        if a > b:
            h0mod._accumulate(out, key, p - c, p)
        elif b != a + 1 or a % n == 0:
            h0mod._accumulate(out, key + (b - a) * swap + unit, c, p)
    return out


def test_a_runaway_derivation_stops_at_the_row_budget(monkeypatch):
    monkeypatch.setattr(h0mod._ModuleEngine, "generator_translate", _wrong_death_test)
    start = time.perf_counter()
    with pytest.raises(DerivationCapExceeded) as exc:
        derive_rotation_invariance(3, 10**6)
    report = exc.value.report
    assert str(exc.value) == "row budget of 200 rows exhausted"
    assert (report.status, report.conclusion) == (
        "inconclusive",
        "row budget exhausted before reduction; no conclusion (not a refutation)")
    code, text = _cli_derive(n=3, cap=10**6)
    assert (code, json.loads(text)) == (1, {"report": report.to_json(), "error": {
        "kind": "domain", "message": "row budget of 200 rows exhausted"}})
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("n,cap", [(2, None), (3, None), (4, None), (5, 30)])
def test_row_budget_is_four_times_the_measured_rows(monkeypatch, n, cap):
    report, engine, _ = _derive_recording(monkeypatch, h0mod._ModuleEngine, n, cap)
    assert report["status"] == "derived"
    assert 4 * len(engine.rows) == engine.budget == h0mod._ROW_BUDGET[n]


# -- reference: the right-word walk, from the length definition alone ---------

def _times_simple(x, k):
    """x * s_k in diagram order: s_k swaps the value classes k and k+1 mod n."""
    n = len(x)

    def act(v):
        if v % n == k % n:
            return v + 1
        if v % n == (k + 1) % n:
            return v - 1
        return v

    return tuple(act(v) for v in x)


def _reference_reduced_word(x):
    """Peel the smallest k with l(u * s_k) < l(u), comparing lengths."""
    rot = _rotation(x)
    u = tuple(v - rot for v in x)
    letters = []
    while _length(u):
        k = next(k for k in range(len(x)) if _length(_times_simple(u, k)) < _length(u))
        letters.append(k)
        u = _times_simple(u, k)
    return letters[::-1], rot


def _reference_signed_product(x, y):
    """T_x T_y by walking a reduced word of the right factor y from x, then
    multiplying by y's rotation and removing whole turns Pi^n = 1."""
    n = len(x)
    letters, rot = _reference_reduced_word(y)
    z, defect = x, 0
    for k in letters:
        nxt = _times_simple(z, k)
        if _length(nxt) > _length(z):
            z = nxt
        else:
            defect += 1
    raw = tuple(v + rot for v in z)
    turns = sum(raw[i] - (i + 1) for i in range(n)) // n // n
    return defect, tuple(v - n * turns for v in raw)


def _long_perm(rng, n, max_len):
    """A random element of length at most max_len, built from the generators
    and a random rotation."""
    x = identity(n)
    for _ in range(rng.randint(0, 3 * max_len)):
        nxt = group_mul(x, simple(n, rng.randrange(n)))
        if _length(nxt) <= max_len:
            x = nxt
    return group_mul(x, rotation(n, rng.randrange(n)))


def _short_factors(n):
    """Identity, every generator (s_0 included), every rotation Pi^k, the
    derivation's operators S_{j..(n-1)} Pi and its translations."""
    out = [identity(n)] + [simple(n, k) for k in range(n)]
    out += [rotation(n, k) for k in range(1, n)]
    out += [_operator_window(n, j) for j in range(1, n + 1)]
    out += [translation((1,) * i + (0,) * (n - i)) for i in range(1, n)]
    return out


def test_reduced_word_matches_length_peeling():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(150):
            x = _long_perm(rng, n, 15)
            assert reduced_word(x) == _reference_reduced_word(x)


def test_signed_product_matches_right_word_reference():
    rng = random.Random(12)
    for n in (2, 3, 4, 5):
        shorts = _short_factors(n)
        for _ in range(300):
            x = rng.choice(shorts) if rng.random() < 0.5 else _long_perm(rng, n, 6)
            y = _long_perm(rng, n, 15)
            assert signed_product(x, y) == _reference_signed_product(x, y), (x, y)


@pytest.mark.parametrize("n,cap,longest", [(3, 20, 7), (4, 16, 15)])
def test_engine_products_match_right_word_reference(monkeypatch, n, cap, longest):
    """Every (generator or rotation) x (module symbol) translate the engine
    forms at n = 3, and a fixed sample of them at n = 4, against the
    right-word walk and the length-based descent."""
    generator_translate, rotate = h0mod._ModuleEngine.generator_translate, h0mod._ModuleEngine.rotate
    seen = {}

    def recording(form, factor):
        def wrapped(self, j, vec):
            for key in vec:
                out = _unpacked(self, form(self, j, {key: 1}))
                seen.setdefault((factor(n, j), _unpack(self, key)), (out, self.p))
            return form(self, j, vec)
        return wrapped

    monkeypatch.setattr(h0mod._ModuleEngine, "generator_translate",
                        recording(generator_translate, simple))
    monkeypatch.setattr(h0mod._ModuleEngine, "rotate", recording(rotate, rotation))
    try:
        derive_rotation_invariance(n, cap)
    except DerivationCapExceeded:
        pass
    pairs = sorted(seen)
    assert max(_length(y) for _, (_, y) in pairs) >= longest
    if len(pairs) > 1500:
        pairs = random.Random(13).sample(pairs, 1500)
    for x, (l, y) in pairs:
        out, p = seen[x, (l, y)]
        defect, z = _reference_signed_product(x, y)
        dies = any(_length(_times_simple(z, k)) < _length(z) for k in range(1, n))
        expect = {} if dies else {(l + _length(x) - defect, z): p - 1 if defect & 1 else 1}
        assert out == expect, (x, y)


def test_finite_descent_matches_length_definition():
    rng = random.Random(14)
    hits = 0
    for n in (2, 3, 4, 5):
        for _ in range(600):
            x = _long_perm(rng, n, 15)
            expect = any(_length(_times_simple(x, k)) < _length(x) for k in range(1, n))
            assert has_finite_descent(x) == expect, x
            hits += expect
    assert 0 < hits < 2400


# sha256 of the ``hecke0 derive`` JSON at the CLI default cap, as the
# right-word engine printed it.  ``minimal_sufficient_cap`` is pinned as it is
# reported today (1, 3, 6), although the smallest working caps are larger; the
# fix of its depth propagation must update these pins deliberately.
DERIVE_PINS = {
    2: (1, "edb1047bb5f6b7b1e54a78fc2e9de98bbc368fa81b21053ec7d677734afbed04"),
    3: (3, "085fca85da0e2ab538125ca86c70b16909e0532db403aff15708d052f7829102"),
    4: (6, "531f0979b59e79885dd0d770df3cbf0054e57c60d94c3e14957e711a320c0e15"),
}


def _cli_derive(**params):
    """(exit code, output) of a ``hecke0 derive`` job over F_3."""
    out = io.StringIO()
    code = cli.run({"command": "hecke0", "scalar_field": {"p": 3, "m": 1},
                    "params": {"action": "derive", **params}}, out)
    return code, out.getvalue()


@pytest.mark.parametrize("n", sorted(DERIVE_PINS))
def test_derive_output_is_pinned(n):
    code, text = _cli_derive(n=n)
    cap, digest = DERIVE_PINS[n]
    assert code == 0
    assert json.loads(text)["minimal_sufficient_cap"] == cap
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# n = 5: cap 30 derives; the CLI default cap max(n^2, 20) = 25 is inconclusive
# and exits 1 with the partial report.  Both digests were taken from the engine
# that inserted every rotation translate and translated every kept row.
DERIVE_N5_PINS = {
    30: (0, "8506dbe70c06afe9f32ca719f8dc90d219a0262610c95d0506f6a6e56acfd6d4"),
    None: (1, "a1a6be818ef13afc110322aa435dad42499499abf7eeadcea724aa68f86adbea"),
}


@pytest.mark.parametrize("cap", [30, None])
def test_derive_n5_output_is_pinned(cap):
    code, text = _cli_derive(n=5, **({"cap": cap} if cap else {}))
    expect_code, digest = DERIVE_N5_PINS[cap]
    assert code == expect_code
    assert hashlib.sha256(text.encode()).hexdigest() == digest
