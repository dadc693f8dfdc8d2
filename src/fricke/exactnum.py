"""Exact rational arithmetic helpers: p-adic valuations, residues, points of P1(Q) and P1(Z/n).

Every quantity in this package is an exact integer or `fractions.Fraction`;
no floating point is used anywhere. Rationals are kept reduced with positive
denominator (Fraction guarantees this), so the valuation of a/b splits as
v_p(a) - v_p(b) with at most one term nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .errors import DomainError, ParameterError

Rational = Fraction

# ---------------------------------------------------------------------------
# primality and factorization (deterministic, desk scale)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Miller-Rabin with the first 13 prime bases is deterministic below
# 3317044064679887385961981 (about 3.3 * 10**24), the least strong pseudoprime
# to all of them; the first 12 stop at 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BELOW = 3317044064679887385961981


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, n odd and not a square.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. With n + 1 = d * 2^s, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s. Baillie and Wagstaff, Math.
    Comp. 35 (1980) 1391-1417.
    """
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n   # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V   # twice U_(k+1), V_(k+1)
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: trial division, then Miller-Rabin.

    Exact below 3.3 * 10**24. Above it a strong Lucas test follows the
    Miller-Rabin rounds, which makes it the Baillie-PSW test: no composite
    is known to pass it, but that is not proven.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_DETERMINISTIC_BELOW:
        return True
    return isqrt(n) ** 2 != n and _is_strong_lucas_probable_prime(n)


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ParameterError(f"{p!r} is not prime")
    return p


# Pollard-Brent steps allowed per factorization before giving up. Enough to
# split, with room to spare, any cofactor whose least prime factor is below
# about 10**10 (the expected count is near 1.25 * sqrt(p)).
RHO_STEP_LIMIT = 1 << 20
_RHO_BATCH = 128   # steps per batched gcd


def _brent_split(n: int, c: int, budget: int) -> tuple[int, int]:
    """Pollard's rho with Brent's cycle search on x -> x^2 + c mod n, from 2.

    Returns (d, steps) with d a divisor of the composite n: 1 < d < n on
    success, d == n when this c fails, and d == 1 when the step budget ran
    out first. Brent, BIT 20 (1980) 176-184.
    """
    y, r, q, d, steps = 2, 1, 1, 1, 0
    while d == 1:
        if steps + r > budget:
            return 1, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and d == 1:
            if steps >= budget:
                return 1, steps
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            d = gcd(q, n)
            steps += min(_RHO_BATCH, r - k)
            k += _RHO_BATCH
        r *= 2
    if d == n:  # the batch overshot: replay it one step at a time
        while True:
            ys = (ys * ys + c) % n
            d = gcd(abs(x - ys), n)
            if d > 1:
                break
    return d, steps


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of |n|, in ascending order; {} for n in {0, 1, -1}.

    Trial division by the small primes, then is_prime and Pollard-Brent
    (with the fixed increments c = 1, 2, ...) on what is left. Raises
    ParameterError naming the cofactor when RHO_STEP_LIMIT steps do not
    split it.
    """
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    budget = RHO_STEP_LIMIT
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, c = m, 0
        while d == m:
            c += 1
            d, steps = _brent_split(m, c, budget)
            budget -= steps
            if d == 1:
                raise ParameterError(
                    f"cannot factor {m}: no factor found in about "
                    f"{RHO_STEP_LIMIT} Pollard-Brent steps"
                )
        stack += [d, m // d]
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# valuations and residues
# ---------------------------------------------------------------------------

def vp_pair(n: int, d: int, p: int) -> int:
    """v_p(n/d) of a reduced pair, n != 0, p prime: v_p(n) or else -v_p(d)."""
    if n == 0 or d == 0:
        raise DomainError("valuation of 0 or infinity is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    if v:
        return v
    while d % p == 0:
        d //= p
        v -= 1
    return v


def vp(x: Rational | int, p: int) -> int:
    """p-adic valuation of a nonzero rational: v_p(num) - v_p(den)."""
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        raise DomainError("valuation of 0 is undefined")
    return vp_pair(x.numerator, x.denominator, p)


def residue_mod_pk(x: Rational | int, p: int, k: int = 1) -> int:
    """Residue of a p-integral rational modulo p**k, in [0, p**k)."""
    require_prime(p)
    if k < 1:
        raise ParameterError(f"precision k must be >= 1, got {k}")
    x = Fraction(x)
    if x != 0 and vp(x, p) < 0:
        raise DomainError(f"{x} is not integral at {p}")
    m = p ** k
    return x.numerator * pow(x.denominator, -1, m) % m


# ---------------------------------------------------------------------------
# the rational projective line
# ---------------------------------------------------------------------------

class ProjPoint(NamedTuple):
    """A point (a : c) of P1(Q) in lowest terms, canonical sign on c.

    The point at infinity is (1 : 0); finite points have c > 0.
    """

    a: int
    c: int

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def to_rational(self) -> Fraction:
        if self.c == 0:
            raise DomainError("infinity is not a rational number")
        return Fraction(self.a, self.c)

    def __str__(self) -> str:
        if self.c == 0:
            return "inf"
        if self.c == 1:
            return str(self.a)
        return f"{self.a}/{self.c}"


INFINITY = ProjPoint(1, 0)


def reduce_point(a: int, c: int) -> ProjPoint:
    """Reduce a pair of integers to the canonical representative of (a : c)."""
    if a == 0 and c == 0:
        raise DomainError("(0 : 0) is not a point of P1(Q)")
    g = gcd(abs(a), abs(c))
    a //= g
    c //= g
    if c < 0 or (c == 0 and a < 0):
        a, c = -a, -c
    return ProjPoint(a, c)


def point_of(x: Rational | int) -> ProjPoint:
    x = Fraction(x)
    return ProjPoint(x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# P1(Z/n): canonical representatives
# ---------------------------------------------------------------------------

def _chart(a: int, c: int, n: int) -> tuple[int, int]:
    """Chart (g, e) of the point (a : c) of P1(Z/n): g = gcd(a, n) and
    e = c*(a/g)^-1 mod n/g, for a, c taken mod n with gcd(a, c, n) = 1.

    (a : c) = (g : x) exactly for the x = e mod n/g with gcd(x, g) = 1. The
    units u with u*a = g mod n are the unit lifts of (a/g)^-1 mod n/g, which
    exist; each has u*c = e mod n/g and gcd(u*c, g) = gcd(a, c, n) = 1.
    Conversely, fix one such u, y = u*c and such an x. For p^k || n let t = 1
    mod p^k if p does not divide g (then p^k | n/g, so x = y mod p^k), else
    t = x/y mod p^k (x, y are prime to g), which is 1 mod the p-part of n/g.
    By CRT t is a unit mod n with t*g = g and t*y = x: t*u takes (a : c) to (g : x).
    """
    a, c = a % n, c % n
    if gcd(a, c, n) != 1:
        raise ParameterError(f"({a} : {c}) is not primitive mod {n}")
    g = gcd(a, n)
    return g, c * pow(a // g, -1, n // g) % (n // g)


def _least_point(g: int, e: int, n: int) -> tuple[int, int]:
    """Least pair of the point with chart (g, e): its first coordinates all have
    gcd g with n, and its pairs with first coordinate g are the (g, x) of _chart."""
    return g % n, next(x for x in range(e, n, n // g) if gcd(x, g) == 1)


def p1_reduce(a: int, c: int, n: int) -> tuple[int, int]:
    """Canonical representative of the point (a : c) of P1(Z/n).

    Requires gcd(a, c, n) = 1. The representative has first coordinate a
    divisor g of n and is the least pair in its unit-scaling class.
    """
    if n < 1:
        raise ParameterError(f"level must be >= 1, got {n}")
    return _least_point(*_chart(a, c, n), n)


# ---------------------------------------------------------------------------
# adelic ball traces on Q
# ---------------------------------------------------------------------------

def ball_trace_contains(x: Rational | int, m: Rational | int, y: Rational | int) -> bool:
    """Whether y lies in x + mZ, the rational trace of the adelic ball x + m*Zhat."""
    m = Fraction(m)
    if m == 0:
        raise ParameterError("ball modulus m must be nonzero")
    return ((Fraction(y) - Fraction(x)) / m).denominator == 1


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' into a Fraction."""
    if "e" in text.lower():  # Fraction("1e999999999") builds 10**999999999 for hours
        raise ParameterError(f"cannot parse rational from {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse rational from {text!r}") from exc


def format_rational(x: Rational | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_point(text: str) -> ProjPoint:
    """Parse 'inf', 'a' or 'a/c' into a point of P1(Q)."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    return point_of(parse_rational(text))


# ---------------------------------------------------------------------------
# read-only value classes
# ---------------------------------------------------------------------------

class ReadOnly:
    """Base of the immutable value classes.

    A subclass lists its fields in __slots__ and is built from their values
    in that order. Equality and hash compare the type and _key(), which is
    every field unless a subclass drops trailing ones; repr shows _key().
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")

    __delattr__ = __setattr__
