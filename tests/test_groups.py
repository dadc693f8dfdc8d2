import random
from fractions import Fraction

import pytest

from fricke.errors import DomainError, InvalidGroupError, ParameterError
from fricke.exactnum import INFINITY, ProjPoint, point_of, reduce_point
from fricke.groups import (
    COMMUTATOR_WORD,
    ElementClass,
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
    parse_matrix,
    word_matrix,
)
from fricke.words import concat, invert_word, parity, reduced_words

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


def test_matrix_round_trip():
    m = ProjMatrix(22, 6, 11, 11)
    assert parse_matrix(str(m)) == m
    assert parse_matrix("[[44, 12], [22, 22]]") == m
    with pytest.raises(ParameterError):
        parse_matrix("[[1,0],[0,-1]]")
    with pytest.raises(ParameterError):
        parse_matrix("[1,0,0,1]")


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


# ---------------------------------------------------------------- screen

def test_screen_flagship():
    res = arithmeticity_screen(FLAGSHIP, 2)
    assert res.status == "not_arithmetic"
    assert res.witness == "AA"
    assert res.value == Fraction(4489, 256)


def test_screen_modular_subgroup_inconclusive():
    res = arithmeticity_screen(make_group(1, 6), 6)
    assert res.status == "inconclusive"
    assert res.witness is None


def test_screen_small_denominator():
    res = arithmeticity_screen(make_group(Fraction(1, 4), 4), 2)
    assert res.status == "not_arithmetic"
    assert res.value.denominator > 1


def test_screen_scans_only_parity_kernel_words():
    # every word the screen can cite lies in the parity kernel
    res = arithmeticity_screen(FLAGSHIP, 4)
    assert res.witness is None or parity(res.witness) == (0, 0)


def test_inverse_word_matrix_agrees():
    rng = random.Random(5)
    for _ in range(30):
        g = random_valid_group(rng)
        w = random_word(rng)
        assert word_matrix(g, invert_word(w)) == mat_inv(word_matrix(g, w))


def test_matrix_from_rows_clears_denominators():
    m = matrix_from_rows(Fraction(2), Fraction(6, 11), 1, 1)
    assert m == ProjMatrix(22, 6, 11, 11)


def test_reduced_words_parity_filter_order():
    kernel = [w for w in reduced_words(2, min_len=1) if parity(w) == (0, 0)]
    assert kernel[0] == "AA"
