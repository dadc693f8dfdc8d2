import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from fricke.errors import DomainError, ParameterError
from fricke.exactnum import (
    INFINITY,
    ProjPoint,
    ball_trace_contains,
    format_rational,
    is_prime,
    parse_point,
    parse_rational,
    point_of,
    prime_factors,
    reduce_point,
    residue_mod_pk,
    vp,
    vp_pair,
)

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
).filter(lambda x: x != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


# ---------------------------------------------------------------- primality

def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_larger():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert not is_prime(341)  # Fermat pseudoprime base 2


# Carmichael numbers, strong pseudoprimes to many prime bases, and the least
# strong pseudoprime to the twelve bases 2..37
PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 3215031751,
                3825123056546413051, 318665857834031151167461]


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.integers(min_value=-5, max_value=10 ** 6),
        st.integers(min_value=10 ** 18 - 10 ** 4, max_value=10 ** 18 + 10 ** 4),
        st.integers(min_value=2, max_value=10 ** 18).map(lambda n: sympy.nextprime(n)),
        st.sampled_from(PSEUDOPRIMES),
    ))
    def agrees(n):
        assert is_prime(n) == sympy.isprime(n), n

    agrees()
    for n in PSEUDOPRIMES + [10 ** 18 + 3, 10 ** 18 + 9, 10 ** 18 - 11]:
        assert is_prime(n) == sympy.isprime(n), n


PSI_13 = 3317044064679887385961981   # 1287836182261 * 2575672364521


def test_is_prime_rejects_psi_13():
    assert not is_prime(PSI_13)
    assert not is_prime(1287836182261 * 2575672364521)


def test_is_prime_agrees_with_sympy_past_the_miller_rabin_bound():
    sympy = pytest.importorskip("sympy")
    big = st.integers(min_value=PSI_13, max_value=10 ** 40)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        big,
        big.map(lambda n: sympy.nextprime(n)),
        st.tuples(st.integers(10 ** 12, 10 ** 20), st.integers(10 ** 12, 10 ** 20)).map(
            lambda pq: sympy.nextprime(pq[0]) * sympy.nextprime(pq[1])
        ),
        big.map(lambda n: sympy.nextprime(isqrt(n)) ** 2),
    ))
    def agrees(n):
        assert is_prime(n) == sympy.isprime(n), n

    agrees()


def test_prime_factors():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}
    assert prime_factors(-14) == {2: 1, 7: 1}


def test_prime_factors_splits_large_semiprimes():
    assert prime_factors(1000000016000000063) == {1000000007: 1, 1000000009: 1}
    assert prime_factors(101 ** 5 * 10007 ** 2) == {101: 5, 10007: 2}


def test_prime_factors_gives_up_past_the_step_limit():
    # two 16-digit primes: far more Pollard-Brent steps than the limit allows
    n = 1000000000000037 * 1000000000000091
    with pytest.raises(ParameterError, match=str(n)):
        prime_factors(n)


def test_prime_factors_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20071)
    inputs = [rng.randint(2, 10 ** 18) for _ in range(150)]
    for _ in range(100):
        a, b = rng.randint(3, 9), rng.randint(3, 9)
        p = sympy.nextprime(rng.randint(10 ** (a - 1), 10 ** a))
        q = sympy.nextprime(rng.randint(10 ** (b - 1), 10 ** b))
        inputs.append(p * q * rng.choice((1, 2, 97, 101, p)))
    for n in inputs:
        factors = prime_factors(n)
        assert factors == sympy.factorint(n), n
        assert list(factors) == sorted(factors)


# ---------------------------------------------------------------- valuation

def test_vp_examples():
    assert vp(Fraction(6, 11), 2) == 1
    assert vp(Fraction(6, 11), 11) == -1
    assert vp(Fraction(1, 15), 5) == -1


def test_vp_errors():
    with pytest.raises(DomainError):
        vp(Fraction(0), 3)
    with pytest.raises(ParameterError):
        vp(Fraction(1, 2), 4)
    # 0 and infinity have no valuation
    for p in (2, 3, 7):
        for n, d in ((0, 1), (1, 0)):
            with pytest.raises(DomainError):
                vp_pair(n, d, p)


def test_vp_pair_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(min_value=-10 ** 12, max_value=10 ** 12).filter(bool),
        st.integers(min_value=1, max_value=10 ** 12),
        st.sampled_from([2, 3, 5, 7, 11, 13, 101, 65537, 10 ** 9 + 7]),
        st.integers(min_value=-30, max_value=30),
    )
    def agrees(n, d, p, k):
        # scale by p^k so that large valuations of either sign occur
        n, d = (n * p ** k, d) if k >= 0 else (n, d * p ** -k)
        h = gcd(n, d)
        n, d = n // h, d // h
        expected = sympy.multiplicity(p, abs(n)) - sympy.multiplicity(p, d)
        assert vp_pair(n, d, p) == expected, (n, d, p)

    agrees()


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_vp_is_additive(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


@given(nonzero_rationals, nonzero_rationals, small_primes)
def test_vp_ultrametric(x, y, p):
    if x + y != 0:
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


# ---------------------------------------------------------------- residues

def test_residue_examples():
    assert residue_mod_pk(Fraction(6, 11), 3, 1) == 0
    assert residue_mod_pk(Fraction(1, 5), 3, 1) == 2
    assert residue_mod_pk(Fraction(1, 7), 3, 1) == 1


def test_residue_not_integral():
    with pytest.raises(DomainError):
        residue_mod_pk(Fraction(1, 3), 3, 1)


def test_residue_matches_modular_inverse_oracle():
    # independent oracle: search the multiplicative inverse by brute force
    for x in [Fraction(1, 5), Fraction(7, 4), Fraction(22, 7), Fraction(-3, 8)]:
        for p, k in [(3, 1), (3, 2), (5, 1), (5, 3)]:
            if vp(x, p) < 0:
                continue
            m = p**k
            inv = next(i for i in range(m) if i * x.denominator % m == 1)
            assert residue_mod_pk(x, p, k) == x.numerator * inv % m


@given(nonzero_rationals, small_primes, st.integers(1, 4), st.integers(1, 4))
def test_residue_tower_compatibility(x, p, j, k):
    if j <= k and vp(x, p) >= 0:
        assert residue_mod_pk(x, p, k) % p**j == residue_mod_pk(x, p, j)


# ---------------------------------------------------------------- points

def test_reduce_point_examples():
    assert reduce_point(6, -4) == ProjPoint(-3, 2)
    assert reduce_point(5, 0) == ProjPoint(1, 0) == INFINITY
    assert reduce_point(-3, -6) == ProjPoint(1, 2)


def test_reduce_point_idempotent():
    for a, c in [(6, -4), (5, 0), (-3, -6), (0, 7), (9, 12)]:
        p = reduce_point(a, c)
        assert reduce_point(p.a, p.c) == p


def test_reduce_point_zero():
    with pytest.raises(DomainError):
        reduce_point(0, 0)


def test_point_round_trips():
    for text in ["inf", "0", "-3/2", "7", "22/7"]:
        assert str(parse_point(text)) == text
    assert point_of(Fraction(2, 4)) == ProjPoint(1, 2)
    with pytest.raises(DomainError):
        INFINITY.to_rational()


# ---------------------------------------------------------------- ball traces

def test_ball_trace_examples():
    assert ball_trace_contains(Fraction(1, 3), 2, Fraction(7, 3))
    assert not ball_trace_contains(0, 1, Fraction(1, 2))
    assert ball_trace_contains(Fraction(1, 4), Fraction(3, 2), Fraction(13, 4))


def test_ball_trace_zero_modulus():
    with pytest.raises(ParameterError):
        ball_trace_contains(0, 0, 1)


@given(
    st.fractions(max_denominator=60, min_value=-60, max_value=60),
    st.fractions(max_denominator=60, min_value=-60, max_value=60).filter(lambda m: m != 0),
    st.integers(-50, 50),
)
def test_ball_trace_is_exactly_the_translation_orbit(x, m, k):
    # one inclusion: every x + km is in the trace
    assert ball_trace_contains(x, m, x + k * m)
    # the other: anything in the trace differs from x by an integer multiple
    y = x + k * m + m / 2  # m/2 is never in mZ
    assert not ball_trace_contains(x, m, y)


# ---------------------------------------------------------------- formatting

def test_rational_round_trips():
    for text in ["6/11", "-2/3", "5", "0"]:
        assert format_rational(parse_rational(text)) == text
    for bad in ("abc", "1/0", "1e999999999", "2E-3"):
        with pytest.raises(ParameterError):
            parse_rational(bad)
