import hashlib
import io
import json
import random

import pytest
from hypothesis import given, strategies as st

import gln_modp.hecke0 as h0mod
from gln_modp import cli
from gln_modp.finite_field import FqField
from gln_modp.hecke0 import (
    DerivationCapExceeded, Hecke0Algebra, _canonicalize, _length,
    _operator_window, _rotation, derive_rotation_invariance,
    has_finite_descent, identity, reduced_word, rotation, signed_product,
    simple, translation, verify_braid_and_rotation, verify_translation_power,
    verify_word_shift_identity,
)

F3 = FqField(3)


def value(x, i):
    """f(i) for any integer i, via n-periodicity."""
    n = len(x)
    r = (i - 1) % n
    return x[r] + (i - 1 - r)


def group_mul(x, y):
    """Product in diagram order (x first): returns (result, wraps)."""
    assert len(x) == len(y)
    return _canonicalize(tuple(value(y, value(x, i)) for i in range(1, len(x) + 1)))


def rand_perm(rng, n):
    x = identity(n)
    for _ in range(rng.randint(0, 6)):
        x, _ = group_mul(x, simple(n, rng.randrange(n)))
    if rng.random() < 0.5:
        x, _ = group_mul(x, rotation(n, rng.randint(1, n - 1)))
    return x


def test_window_validation():
    H = Hecke0Algebra(2, F3)
    for window in ((1, 3),      # residues collide
                   (3, 4),      # rotation degree 2, outside [0, 1]
                   (1, 2, 3)):  # wrong rank
        with pytest.raises(ValueError):
            H.basis(window)
        with pytest.raises(ValueError):
            H.element({window: 1})
    assert _rotation((3, 2)) == 1
    assert H.basis((3, 2)) == H.element({(3, 2): 1})


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
        return _canonicalize(tuple(r + n * s for r, s in zip(residues, shifts)))[0]

    return window(), window()


@given(canonical_window_pairs())
def test_products_of_canonical_windows_wrap_at_most_once(pair):
    # Hecke0Algebra's four product scalars +-1, +-zeta rely on this
    x, y = pair
    assert signed_product(x, y)[1] in (0, 1)


def test_operator_windows_are_word_products():
    for n in range(2, 7):
        for j in range(1, n + 1):
            x = identity(n)
            for k in range(j, n):
                x, _ = group_mul(x, simple(n, k))
            x, wraps = group_mul(x, rotation(n))
            assert (x, wraps) == (_operator_window(n, j), 0)
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


def test_relations_char2():
    # the identities are characteristic independent
    F2 = FqField(2)
    assert verify_braid_and_rotation(3, F2)
    assert verify_word_shift_identity(4, F2)


def test_quadratic_contraction():
    H = Hecke0Algebra(2, F3)
    assert H.S(1) * H.S(1) == -H.S(1)
    acc = H.one
    for _ in range(2):
        acc = acc * H.Pi()
    assert acc == H.one  # Pi^n = 1 at the default central value


def test_nontrivial_center_scalar():
    F5 = FqField(5)
    H = Hecke0Algebra(3, F5, zeta=2)
    acc = H.one
    for _ in range(3):
        acc = acc * H.Pi()
    assert acc == H.element({identity(3): F5(2)})


def test_sign_is_defect_parity():
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(80):
            a, b = rand_perm(rng, n), rand_perm(rng, n)
            sign, wraps, z = signed_product(a, b)
            defect = _length(a) + _length(b) - _length(z)
            assert defect >= 0
            assert sign == (-1) ** defect
            if defect == 0:
                assert sign == 1


def test_associativity_and_unit():
    rng = random.Random(4)
    for n in (2, 3, 4):
        H = Hecke0Algebra(n, F3)
        for _ in range(40):
            a, b, c = (H.basis(rand_perm(rng, n)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * H.one == a and H.one * a == a


def test_rotation_conjugates_generators():
    for n in (2, 3, 4, 5):
        H = Hecke0Algebra(n, F3)
        for k in range(n):
            assert H.Pi() * H.basis(simple(n, k)) == H.basis(simple(n, (k - 1) % n)) * H.Pi()


def test_reduced_word_spells_the_element():
    rng = random.Random(5)
    for n in (2, 3, 4):
        H = Hecke0Algebra(n, F3)
        for _ in range(30):
            x = rand_perm(rng, n)
            letters, rot = reduced_word(x)
            assert len(letters) == _length(x)
            assert H.word_product(letters, rot) == H.basis(x)


def test_translation_power_example():
    # (S_2 Pi)^2 is the translation by (1,1,0), of length 2, with sign +1
    H = Hecke0Algebra(3, F3)
    e = H.S(2) * H.Pi()
    assert e * e == H.basis(translation((1, 1, 0)))


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
    # insert takes the first key of reduce's remainder as the pivot
    reduce, sizes = h0mod._ModuleEngine.reduce, []

    def checked(self, vec):
        rem, used = reduce(self, vec)
        keys = [self._key(x) for x in rem]
        assert all(a > b for a, b in zip(keys, keys[1:])), keys
        sizes.append(len(rem))
        return rem, used

    monkeypatch.setattr(h0mod._ModuleEngine, "reduce", checked)
    assert derive_rotation_invariance(n, max(n * n, 20)).status == "derived"
    assert max(sizes) > 1


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


def test_derivation_with_nontrivial_center_collapses():
    # with zeta != 1 the relations force (zeta - 1) v = 0, so the quotient
    # module vanishes and the conclusion holds vacuously; the engine's
    # certificate is still sound
    F5 = FqField(5)
    rep = derive_rotation_invariance(2, 6, F5, zeta=2)
    assert rep.status == "derived"


def test_cap_exceeded_reports_inconclusive(monkeypatch):
    import gln_modp.hecke0 as h0mod

    def refuse(self, vec):
        raise h0mod._CapSignal()

    monkeypatch.setattr(h0mod._ModuleEngine, "ensure_zero", refuse)
    with pytest.raises(DerivationCapExceeded) as exc:
        h0mod.derive_rotation_invariance(2, 4)
    assert exc.value.report.status == "inconclusive"
    assert "not a refutation" in exc.value.report.conclusion


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
    multiplying by y's rotation and removing whole turns Pi^n."""
    n = len(x)
    letters, rot = _reference_reduced_word(y)
    z, sign = x, 1
    for k in letters:
        nxt = _times_simple(z, k)
        if _length(nxt) > _length(z):
            z = nxt
        else:
            sign = -sign
    raw = tuple(v + rot for v in z)
    wraps = sum(raw[i] - (i + 1) for i in range(n)) // n // n
    return sign, wraps, tuple(v - n * wraps for v in raw)


def _long_perm(rng, n, max_len):
    """A random element of length at most max_len, built from the generators
    and a random rotation."""
    x = identity(n)
    for _ in range(rng.randint(0, 3 * max_len)):
        nxt, _ = group_mul(x, simple(n, rng.randrange(n)))
        if _length(nxt) <= max_len:
            x = nxt
    x, _ = group_mul(x, rotation(n, rng.randrange(n)))
    return x


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
            sign, wraps, z = signed_product(x, y)
            assert (sign, wraps, z) == _reference_signed_product(x, y), (x, y)


@pytest.mark.parametrize("n,cap,longest", [(3, 20, 7), (4, 16, 15)])
def test_engine_products_match_right_word_reference(monkeypatch, n, cap, longest):
    """Every (generator or rotation or operator) x (module symbol) product the
    engine forms at n = 3, and a fixed sample of them at n = 4."""
    seen = {}

    def recording(x, y):
        out = signed_product(x, y)
        seen.setdefault((x, y), out)
        return out

    monkeypatch.setattr(h0mod, "signed_product", recording)
    try:
        derive_rotation_invariance(n, cap)
    except DerivationCapExceeded:
        pass
    pairs = sorted(seen)
    assert max(_length(y) for _, y in pairs) >= longest
    if len(pairs) > 1500:
        pairs = random.Random(13).sample(pairs, 1500)
    for x, y in pairs:
        sign, wraps, z = seen[x, y]
        assert (sign, wraps, z) == _reference_signed_product(x, y), (x, y)


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


@pytest.mark.parametrize("n", sorted(DERIVE_PINS))
def test_derive_output_is_pinned(n):
    out = io.StringIO()
    code = cli.run({"command": "hecke0", "scalar_field": {"p": 3, "m": 1},
                    "params": {"action": "derive", "n": n}}, out)
    text = out.getvalue()
    cap, digest = DERIVE_PINS[n]
    assert code == 0
    assert json.loads(text)["minimal_sufficient_cap"] == cap
    assert hashlib.sha256(text.encode()).hexdigest() == digest
