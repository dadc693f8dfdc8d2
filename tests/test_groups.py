import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from fricke.errors import DomainError, InternalCheckError, InvalidGroupError, ParameterError
from fricke import groups
from fricke.exactnum import INFINITY, ProjPoint, point_of, prime_factors, reduce_point
from fricke.groups import (
    COMMUTATOR_WORD,
    ElementClass,
    LAMBDA_WORDS,
    PARABOLIC_WORD,
    ProjMatrix,
    apply,
    arithmeticity_screen,
    classify_element,
    fixed_points,
    lambda_generators,
    make_group,
    mat_inv,
    mat_mul,
    matrix_from_rows,
    normalize_matrix,
    parabolic_at_infinity,
    word_matrix,
)
from fricke.words import LETTERS, concat, invert_word, is_reduced, parity

FLAGSHIP = make_group(Fraction(6, 11), 6)


def random_valid_group(rng, bound=50):
    while True:
        u2 = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        t = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        if 0 < u2 < t - 1:
            return make_group(u2, 2 * t)


def random_word(rng, max_len=8):
    w = ""
    for _ in range(rng.randint(0, max_len)):
        w = concat(w, rng.choice("AaBb"))
    return w


# ---------------------------------------------------------------- matrices

def test_normalize_matrix():
    assert normalize_matrix(2, 4, 6, 14) == ProjMatrix(1, 2, 3, 7)
    assert normalize_matrix(-1, 0, 0, -1) == ProjMatrix(1, 0, 0, 1)
    assert normalize_matrix(0, -1, 1, 0) == ProjMatrix(0, 1, -1, 0)
    with pytest.raises(ParameterError):
        normalize_matrix(1, 0, 0, -1)  # negative determinant
    with pytest.raises(ParameterError):
        normalize_matrix(0, 0, 0, 0)


# ---------------------------------------------------------------- construction

def test_flagship_generators():
    assert FLAGSHIP.gen1 == ProjMatrix(22, 6, 11, 11)
    assert FLAGSHIP.gen2 == ProjMatrix(6, 6, 11, 27)
    assert FLAGSHIP.two_t == 6
    assert FLAGSHIP.t == 3


def test_valid_boundary_group():
    g = make_group(Fraction(1, 4), 4)  # 0 < 1/4 < 1
    assert g.t == 2


def test_invalid_parameters_name_the_inequality():
    with pytest.raises(InvalidGroupError, match="u2 < t - 1"):
        make_group(1, 4)
    with pytest.raises(InvalidGroupError, match="0 < u2"):
        make_group(Fraction(-1, 2), 6)


# ---------------------------------------------------------------- words

def test_word_matrix_generator_and_identity():
    assert word_matrix(FLAGSHIP, "A") == FLAGSHIP.gen1
    assert word_matrix(FLAGSHIP, "Aa") == ProjMatrix(1, 0, 0, 1)
    assert word_matrix(FLAGSHIP, "") == ProjMatrix(1, 0, 0, 1)
    with pytest.raises(ParameterError, match="invalid generator letter 'x'"):
        word_matrix(FLAGSHIP, "AxB")


def test_word_matrix_is_projectively_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        g = random_valid_group(rng)
        w1, w2 = random_word(rng), random_word(rng)
        assert word_matrix(g, concat(w1, w2)) == mat_mul(
            word_matrix(g, w1), word_matrix(g, w2)
        )


def test_commutator_is_parabolic_fixing_u2():
    m = word_matrix(FLAGSHIP, COMMUTATOR_WORD)
    assert classify_element(m) is ElementClass.PARABOLIC
    assert fixed_points(m).points == (point_of(FLAGSHIP.u2),)


# ---------------------------------------------------------------- action

def test_apply_examples():
    assert apply(FLAGSHIP.gen1, INFINITY) == point_of(2)  # t - 1
    assert apply(FLAGSHIP.gen2, INFINITY) == point_of(Fraction(6, 11))  # u2
    assert apply(FLAGSHIP.gen2, point_of(0)) == point_of(Fraction(2, 9))


def test_action_law_and_inverses():
    rng = random.Random(11)
    for _ in range(50):
        g = random_valid_group(rng)
        w1, w2 = random_word(rng), random_word(rng)
        x = reduce_point(rng.randint(-30, 30), rng.randint(0, 30) or 1)
        lhs = apply(word_matrix(g, concat(w1, w2)), x)
        rhs = apply(word_matrix(g, w1), apply(word_matrix(g, w2), x))
        assert lhs == rhs
        m = word_matrix(g, w1)
        assert apply(m, apply(mat_inv(m), x)) == x


# ---------------------------------------------------------------- classification

def test_generators_are_hyperbolic_for_random_parameters():
    rng = random.Random(2025)
    for _ in range(200):
        g = random_valid_group(rng)
        assert classify_element(g.gen1) is ElementClass.HYPERBOLIC
        assert classify_element(g.gen2) is ElementClass.HYPERBOLIC


def test_classify_examples():
    assert classify_element(ProjMatrix(0, 1, -1, 0)) is ElementClass.ELLIPTIC
    assert classify_element(ProjMatrix(1, 0, 0, 1)) is ElementClass.IDENTITY
    inv_parabolic = word_matrix(FLAGSHIP, "AbaB")
    assert classify_element(inv_parabolic) is ElementClass.PARABOLIC


# ---------------------------------------------------------------- fixed points

def test_fixed_points_of_parabolic_word_is_infinity():
    m = word_matrix(FLAGSHIP, PARABOLIC_WORD)
    res = fixed_points(m)
    assert res.kind == "single"
    assert res.points == (INFINITY,)


def test_fixed_points_flagship_gen1_irrational():
    assert fixed_points(FLAGSHIP.gen1).kind == "irrational_pair"


def test_fixed_points_rational_pair_is_sound():
    g = make_group(Fraction(1, 4), 4)
    res = fixed_points(g.gen1)
    assert res.kind == "rational_pair"
    for pt in res.points:
        assert apply(g.gen1, pt) == pt
    assert set(res.points) == {ProjPoint(1, 2), ProjPoint(-1, 2)}


def test_fixed_points_identity_error():
    with pytest.raises(DomainError):
        fixed_points(ProjMatrix(1, 0, 0, 1))


def test_fixed_points_sound_on_random_words():
    rng = random.Random(13)
    checked = 0
    for _ in range(800):
        g = random_valid_group(rng, bound=9)
        w = random_word(rng, 6)
        m = word_matrix(g, w)
        if classify_element(m) is ElementClass.IDENTITY:
            continue
        res = fixed_points(m)
        for pt in res.points:
            checked += 1
            assert apply(m, pt) == pt
    assert checked > 30


# ---------------------------------------------------------------- parabolic data

def test_parabolic_translation_exact():
    rng = random.Random(99)
    for _ in range(200):
        g = random_valid_group(rng)
        word, shift = parabolic_at_infinity(g)
        assert word == "bABa"
        assert shift == -g.two_t
        m = word_matrix(g, word)
        assert apply(m, INFINITY) == INFINITY
        comm = word_matrix(g, COMMUTATOR_WORD)
        assert classify_element(comm) is ElementClass.PARABOLIC
        assert fixed_points(comm).points == (point_of(g.u2),)


def test_flagship_translations():
    assert parabolic_at_infinity(FLAGSHIP)[1] == -6
    assert parabolic_at_infinity(make_group(Fraction(1, 4), 4))[1] == -4


# ---------------------------------------------------------------- parity kernel

def test_lambda_generators():
    gens = lambda_generators()
    assert len(gens) == 5
    assert "AA" in gens
    assert all(parity(w) == (0, 0) for w in gens)


def test_support_primes():
    assert make_group(1, 6).support_primes == frozenset()
    assert FLAGSHIP.support_primes == frozenset({2})
    assert 3 in make_group(Fraction(1, 4), 4).support_primes


def _support_primes_oracle(g):
    """The per-entry definition: the primes of every entry's denominator."""
    primes: set[int] = set()
    for w in LAMBDA_WORDS:
        m = word_matrix(g, w)
        det = m.det()
        s = isqrt(det)
        if s * s != det:
            raise InternalCheckError(
                f"kernel generator {w} has non-square determinant {det}"
            )
        for entry in m:
            primes.update(prime_factors(Fraction(entry, s).denominator))
    return frozenset(primes)


def test_support_primes_match_per_entry_denominators():
    rng = random.Random(4242)
    groups = [random_valid_group(rng, bound=1000) for _ in range(200)]
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 31):
                for d in (1, 2, 3, 5):
                    u2, two_t = Fraction(a, b), Fraction(c, d)
                    if u2 < two_t / 2 - 1:
                        groups.append(make_group(u2, two_t))
    assert len(groups) > 1000
    for g in groups:
        assert g.support_primes == _support_primes_oracle(g), g.name


def test_support_primes_factor_each_distinct_root_once(monkeypatch):
    # all five kernel generators have sqrt(det) = 6634088129359774771923961
    calls = []

    def counting(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(groups, "prime_factors", counting)
    g = make_group(Fraction(1, 3317044064679887385961981), 6)
    assert calls == [6634088129359774771923961]
    assert g.support_primes == frozenset(prime_factors(calls[0]))


def test_group_is_read_only():
    g = make_group(Fraction(6, 11), 6)
    for field in ("u2", "support_primes", "letters"):
        with pytest.raises(AttributeError):
            setattr(g, field, getattr(g, field))
        with pytest.raises(AttributeError):
            delattr(g, field)
    assert g == FLAGSHIP and g.letters == FLAGSHIP.letters


# ---------------------------------------------------------------- screen

def test_screen_flagship():
    res = arithmeticity_screen(FLAGSHIP)
    assert res.status == "not_arithmetic"
    assert res.witness == "AA"
    assert res.value == Fraction(4489, 256)


def test_screen_modular_subgroup_inconclusive():
    res = arithmeticity_screen(make_group(1, 6))
    assert res.status == "inconclusive"
    assert res.witness is None


def test_screen_small_denominator():
    res = arithmeticity_screen(make_group(Fraction(1, 4), 4))
    assert res.status == "not_arithmetic"
    assert res.value.denominator > 1


def test_screen_scans_only_parity_kernel_words():
    # every word the screen can cite lies in the parity kernel
    res = arithmeticity_screen(FLAGSHIP)
    assert res.witness is None or parity(res.witness) == (0, 0)


def _screen_oracle(g, max_len):
    """The word walk the closed form replaced: the first parity-kernel word
    of length <= max_len, by length and then letter order A < a < B < b,
    with a non-integral tr^2/det, as a ScreenResult."""
    for n in range(1, max_len + 1):
        for letters in itertools.product(LETTERS, repeat=n):
            w = "".join(letters)
            if not is_reduced(w) or parity(w) != (0, 0):
                continue
            m = word_matrix(g, w)
            q = Fraction(m.trace() ** 2, m.det())
            if q.denominator != 1:
                return groups.ScreenResult("not_arithmetic", witness=w, value=q)
    return groups.ScreenResult("inconclusive")


def test_screen_matches_the_word_walk():
    # BB certifies (5/3, 6): x^2 = 27 and y^2 = 81/5. Both values are
    # integers on (1, 6) and (1/4, 5), so no kernel word certifies them.
    named = [(Fraction(5, 3), 6), (1, 6), (Fraction(1, 4), 5)]
    for u2, two_t in named:
        g = make_group(u2, two_t)
        assert arithmeticity_screen(g) == _screen_oracle(g, 8), g.name
    assert arithmeticity_screen(make_group(Fraction(5, 3), 6)) == (
        "not_arithmetic", "BB", Fraction(5041, 25))
    rng = random.Random(20)
    witnesses = {}
    while len(witnesses) < 300:
        two_t = Fraction(rng.randint(5, 80), rng.choice((1, 2, 3, 4, 5, 7)))
        u2 = Fraction(rng.randint(1, 50), rng.randint(1, 9))
        if not 0 < u2 < two_t / 2 - 1:
            continue
        g = make_group(u2, two_t)
        res = arithmeticity_screen(g)
        assert res == _screen_oracle(g, 6), g.name
        witnesses[g] = res.witness
    assert set(witnesses.values()) == {"AA", "BB", None}


def test_inverse_word_matrix_agrees():
    rng = random.Random(5)
    for _ in range(30):
        g = random_valid_group(rng)
        w = random_word(rng)
        assert word_matrix(g, invert_word(w)) == mat_inv(word_matrix(g, w))


def test_matrix_from_rows_clears_denominators():
    m = matrix_from_rows(Fraction(2), Fraction(6, 11), 1, 1)
    assert m == ProjMatrix(22, 6, 11, 11)

