"""Cusp orbit enumeration, cusp/special point testing, and density probes.

The cusp set of a group here is the orbit of infinity. Finite cusps are
stored by their canonical representative modulo the translation by 2t,
reduced into [0, 2t), as an integer pair (num, den). One letter step,
_letter_step, applies a generator to such a pair and reduces the image
modulo 2t = p/q with one integer floor division and one gcd; cusp_bfs and
cusp_test both use it. Witness words are adjusted by powers of the
parabolic word so that they map infinity to the stored representative
exactly; cusp_bfs builds them lazily from parent pointers (see orbitstore),
and the probes read only the integer columns until they have a hit.

Positive probe answers (Found, Cusp, Special) are sound and re-verified
before being returned; negative answers (NotFoundAtDepth, Unknown) are
evidence bounded by the search depth, never proof.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Iterable

from .errors import InternalCheckError, ParameterError
from .exactnum import (
    INFINITY,
    ProjPoint,
    Rational,
    ball_trace_contains,
    format_rational,
    reduce_point,
    require_prime,
    vp,
)
from .groups import (
    ElementClass,
    FrickeGroup,
    apply,
    classify_element,
    mat_mul,
    word_matrix,
    IDENTITY,
)
from .orbitstore import (  # CuspRecord and the cache functions are re-exported
    BfsResult,
    PARITY_FLIP,
    PARITY_TAGS,
    CuspRecord,
    _translation_word,
    append_bfs_cache,
    load_cached_bfs,
)
from .words import INVERSE, LETTERS, Word, concat, invert_word

DEFAULT_NODE_BUDGET = 250_000


# ---------------------------------------------------------------------------
# translation reduction
# ---------------------------------------------------------------------------

def _letter_step(
    m: tuple[int, int, int, int], p: int, q: int, xn: int, xd: int
) -> tuple[int, int, int] | None:
    """Apply the letter matrix m to xn/xd (infinity is 1/0) and reduce the
    image modulo the translation 2t = p/q.

    Returns None when the image is infinity, else (rn, rd, k) with the image
    equal to rn/rd + k*2t, rn/rd in lowest terms, rd > 0 and rn/rd in [0, 2t).
    """
    a, b, c, d = m
    yn = a * xn + b * xd
    yd = c * xn + d * xd
    if yd == 0:
        return None
    if yd < 0:
        yn, yd = -yn, -yd
    # floor(y / 2t) and y - k*2t over the common denominator yd*q
    k = yn * q // (yd * p)
    rn = yn * q - k * p * yd
    rd = yd * q
    h = gcd(rn, rd)
    return rn // h, rd // h, k


# ---------------------------------------------------------------------------
# breadth-first cusp enumeration
# ---------------------------------------------------------------------------

def _letter_pairs(g: FrickeGroup) -> list[tuple[str, tuple[int, int, int, int]]]:
    return [(ch, tuple(g.letter_matrix(ch))) for ch in LETTERS]


def cusp_bfs(
    g: FrickeGroup,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> BfsResult:
    """Breadth-first closure of {infinity} under the four generator letters.

    Points are canonically reduced modulo the translation. Output order is
    deterministic (discovery order, letters in the order A, a, B, b). A
    budget stop marks the result truncated. Runs whose parameters match a
    cached run exactly are loaded from the cache instead of recomputed;
    every other run is computed (or taken from the in-process memo of
    recent runs) and appended to the cache. Witness words are built lazily
    from parent pointers (see BfsResult).
    """
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    if budget < 1:
        raise ParameterError(f"budget must be >= 1, got {budget}")
    if cache_path:
        cached = load_cached_bfs(cache_path, g, depth, budget)
        if cached is not None:
            return cached
    result = _computed_bfs(g, depth, budget)
    if cache_path:
        append_bfs_cache(cache_path, result)
    return result


# results are immutable, so the memo of recent runs can share them
@lru_cache(maxsize=3)
def _computed_bfs(g: FrickeGroup, depth: int, budget: int) -> BfsResult:
    steps = [(ch, m, PARITY_FLIP[ch]) for ch, m in _letter_pairs(g)]
    p, q = g.two_t.numerator, g.two_t.denominator
    nums, dens, depths, tags = [1], [0], [0], [0]
    parents, letters, shifts = [-1], [""], [0]
    # key: (num, den) of the reduced representative; infinity is (1, 0)
    seen: dict[tuple[int, int], int] = {(1, 0): 0}
    truncated = False
    lo, hi = 0, 1  # the records of the previous level

    for level in range(1, depth + 1):
        if truncated or lo == hi:
            break
        for i in range(lo, hi):
            if truncated:
                break
            xn, xd, wp = nums[i], dens[i], tags[i]
            for ch, m, flip in steps:
                step = _letter_step(m, p, q, xn, xd)
                if step is None:
                    continue  # back to infinity, already recorded
                rn, rd, k = step
                key = (rn, rd)
                tag = wp ^ flip
                prev = seen.get(key)
                if prev is not None:
                    if prev != tag:
                        raise InternalCheckError(
                            f"cusp {format_rational(Fraction(rn, rd))} reached with "
                            f"parities {PARITY_TAGS[prev]} and {PARITY_TAGS[tag]}"
                        )
                    continue
                if len(nums) >= budget:
                    truncated = True
                    break
                seen[key] = tag
                nums.append(rn)
                dens.append(rd)
                depths.append(level)
                tags.append(tag)
                parents.append(i)
                letters.append(ch)
                shifts.append(k)
        lo, hi = hi, len(nums)

    return BfsResult(
        g.u2, g.two_t, depth, budget, truncated, nums, dens, depths, tags,
        [""] + [None] * (len(nums) - 1), parents, letters, shifts,
    )


# ---------------------------------------------------------------------------
# cusp membership testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuspTestResult:
    """kind is 'cusp' (witness maps infinity to the point), 'special'
    (witness is hyperbolic and fixes the point), or 'unknown'."""

    kind: str
    witness: Word | None = None
    depth: int = 0


def cusp_test(
    g: FrickeGroup,
    x: ProjPoint,
    depth: int,
    budget: int = 100_000,
) -> CuspTestResult:
    """Best-first search from x toward infinity.

    States are translation-reduced; the priority is the denominator of the
    state, so the search follows a height descent. A letter takes a state s
    to infinity through a translate when s - j*2t is the letter's pole for
    some j, so each letter's pole is reduced modulo 2t once. Two distinct
    arrival words at one state compose to a stabilizer of x; a hyperbolic
    stabilizer makes x a special point.
    """
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    if x.is_infinity:
        return CuspTestResult("cusp", witness="", depth=0)

    p, q = g.two_t.numerator, g.two_t.denominator
    steps = []
    for ch, m in _letter_pairs(g):
        pole, j = None, 0
        if m[2]:
            # the pole -d/c of the letter is rep - j*2t
            rn, rd, k = _letter_step(IDENTITY, p, q, -m[3], m[2])
            pole, j = (rn, rd), -k
        steps.append((ch, m, pole, j))
    n0, d0, k0 = _letter_step(IDENTITY, p, q, x.a, x.c)
    w0 = _translation_word(k0)
    # state key -> arrival word (maps x to the state exactly)
    seen: dict[tuple[int, int], Word] = {(n0, d0): w0}
    counter = 0
    heap: list[tuple[int, int, int, int, Word]] = [(d0, 0, counter, n0, w0)]
    nodes = 0
    while heap and nodes < budget:
        sd, d, _, sn, w = heapq.heappop(heap)
        if d >= depth:
            continue
        nodes += 1
        for ch, m, pole, j in steps:
            if (sn, sd) == pole:
                # w' maps x to infinity through the translate s - j*2t
                witness = invert_word(concat(ch, _translation_word(j), w))
                if apply(word_matrix(g, witness), INFINITY) != x:
                    raise InternalCheckError("cusp witness failed verification")
                return CuspTestResult("cusp", witness=witness, depth=d + 1)
            rn, rd, k = _letter_step(m, p, q, sn, sd)  # finite: s is not the pole
            key = (rn, rd)
            w2 = concat(_translation_word(k), ch, w)
            w1 = seen.get(key)
            if w1 is not None:
                stab = concat(invert_word(w1), w2)
                if stab:
                    mat = word_matrix(g, stab)
                    if (
                        classify_element(mat) is ElementClass.HYPERBOLIC
                        and apply(mat, x) == x
                    ):
                        return CuspTestResult("special", witness=stab, depth=d + 1)
                continue
            seen[key] = w2
            counter += 1
            heapq.heappush(heap, (rd, d + 1, counter, rn, w2))
    return CuspTestResult("unknown", depth=depth)


# ---------------------------------------------------------------------------
# special point scan
# ---------------------------------------------------------------------------

_LETTER_RANK = {ch: i for i, ch in enumerate(LETTERS)}


def _word_key(w: Word) -> tuple:
    return (len(w), tuple(_LETTER_RANK[ch] for ch in w))


def special_point_scan(g: FrickeGroup, max_len: int) -> list[tuple[ProjPoint, Word]]:
    """Rational fixed points of hyperbolic words up to the given length.

    Enumerates cyclically reduced words, keeps hyperbolic elements whose
    fixed-point pair is rational, and returns (point, word) pairs sorted by
    point, deduplicated keeping the shortest witness. Monotone in max_len.
    """
    if max_len < 1:
        raise ParameterError(f"scan length must be >= 1, got {max_len}")
    letters = [(ch, g.letter_matrix(ch)) for ch in LETTERS]
    best: dict[ProjPoint, Word] = {}

    def record(pt: ProjPoint, word: str) -> None:
        if not pt.is_infinity:
            old = best.get(pt)
            if old is None or _word_key(word) < _word_key(old):
                best[pt] = word

    def visit(word: str, m) -> None:
        if INVERSE[word[0]] != word[-1]:
            disc = (m.a - m.d) ** 2 + 4 * m.b * m.c
            if disc > 0:
                s = isqrt(disc)
                if s * s == disc:
                    if m.c != 0:
                        record(reduce_point(m.a - m.d + s, 2 * m.c), word)
                        record(reduce_point(m.a - m.d - s, 2 * m.c), word)
                    else:
                        record(reduce_point(m.b, m.d - m.a), word)

    def rec(word: str, m, remaining: int) -> None:
        for ch, lm in letters:
            if word and INVERSE[word[-1]] == ch:
                continue
            w2 = word + ch
            m2 = mat_mul(m, lm)
            visit(w2, m2)
            if remaining > 1:
                rec(w2, m2, remaining - 1)

    rec("", IDENTITY, max_len)
    return sorted(best.items(), key=lambda item: (_word_key(item[1]), item[0]))


# ---------------------------------------------------------------------------
# density probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    """found=True answers are verified exactly before being returned."""

    found: bool
    cusp: Fraction | None = None
    offset: int | None = None
    base_point: Fraction | None = None
    witness: Word | None = None
    depth: int = 0
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.found

    def to_dict(self) -> dict:
        out = {"found": self.found, "depth": self.depth, "truncated": self.truncated}
        if self.found:
            out["cusp"] = format_rational(self.cusp)
            out["offset"] = self.offset
            out["base_point"] = format_rational(self.base_point)
            out["witness"] = self.witness
        return out


def _first_hit(
    bfs: BfsResult,
    offset: Callable[[int, int], int | None],
    recheck: Callable[[Fraction], bool],
) -> ProbeResult:
    """The first cusp c0 + k*2t in enumeration order that a probe accepts.

    offset(num, den) solves for the translation multiple k of the record
    num/den, or returns None when no translate of it is a hit; the hit is
    rechecked exactly before it is returned.
    """
    for i, cn, cd in bfs.finite_pairs():
        k = offset(cn, cd)
        if k is None:
            continue
        c0 = Fraction(cn, cd)
        cusp = c0 + k * bfs.two_t
        if not recheck(cusp):
            raise InternalCheckError("probe produced an unverified hit")
        return ProbeResult(
            found=True,
            cusp=cusp,
            offset=k,
            base_point=c0,
            witness=bfs.witness(i),
            depth=bfs.depth,
            truncated=bfs.truncated,
        )
    return ProbeResult(found=False, depth=bfs.depth, truncated=bfs.truncated)


def _rational_lattice_gcd(m: Fraction, t: Fraction) -> Fraction:
    """Positive generator of the subgroup mZ + tZ of Q."""
    return Fraction(
        gcd(abs(m.numerator) * t.denominator, abs(t.numerator) * m.denominator),
        m.denominator * t.denominator,
    )


def adelic_probe(
    g: FrickeGroup,
    x: Rational,
    m: Rational,
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> ProbeResult:
    """Search the cusp set for a member of the adelic ball trace x + mZ.

    For each enumerated cusp c0 the full translation class c0 + 2tZ is
    tested exactly: a solution of c0 + k*2t in x + mZ exists iff c0 - x
    lies in mZ + 2tZ. The first hit in enumeration order is returned.
    """
    x = Fraction(x)
    m = Fraction(m)
    if m == 0:
        raise ParameterError("ball modulus m must be nonzero")
    bfs = cusp_bfs(g, depth, budget, cache_path)
    lattice = _rational_lattice_gcd(m, g.two_t)
    s = g.two_t / m
    a, b = s.numerator, s.denominator
    xn, xd = x.numerator, x.denominator
    ln, ld = lattice.numerator, lattice.denominator

    def offset(cn: int, cd: int) -> int | None:
        # (c0 - x) / lattice = (cn*xd - xn*cd) * ld / (cd*xd*ln) is an integer
        if (cn * xd - xn * cd) * ld % (cd * xd * ln):
            return None
        r = (Fraction(cn, cd) - x) / m
        e, f = r.numerator, r.denominator
        # f divides b here; solve k*a/b = -e/f (mod 1)
        return 0 if b == 1 else (-(e * (b // f)) * pow(a, -1, b)) % b

    return _first_hit(bfs, offset, lambda cusp: ball_trace_contains(x, m, cusp))


def _crt(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences with pairwise coprime moduli."""
    r0, m0 = 0, 1
    for r, m in pairs:
        if m == 1:
            continue
        inv = pow(m0, -1, m)
        r0 = r0 + m0 * ((r - r0) * inv % m)
        m0 *= m
    return r0 % m0, m0


def normalize_targets(targets: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: dict[int, int] = {}
    for p, k in targets:
        require_prime(p)
        if k < 1:
            raise ParameterError(f"target precision must be >= 1, got {k}")
        merged[p] = max(merged.get(p, 0), k)
    if not merged:
        raise ParameterError("at least one (prime, precision) target is required")
    return sorted(merged.items())


def padic_probe(
    g: FrickeGroup,
    y: Rational,
    targets: Iterable[tuple[int, int]],
    depth: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cache_path: str | None = None,
) -> ProbeResult:
    """Search cusps and their translates for c with v_p(c - y) >= k for all
    targets (p, k) simultaneously.

    For each cusp representative c0 the offset j with c = c0 + j*2t is
    found by solving one congruence per target prime and combining them;
    the valuations of the winner are re-verified exactly.
    """
    y = Fraction(y)
    targets = normalize_targets(targets)
    bfs = cusp_bfs(g, depth, budget, cache_path)
    a, b = g.two_t.numerator, g.two_t.denominator
    yn, yd = y.numerator, y.denominator

    def offset(cn: int, cd: int) -> int | None:
        # c0 - y = e/f in lowest terms, f > 0
        e, f = cn * yd - yn * cd, cd * yd
        h = gcd(e, f)
        e, f = e // h, f // h
        A = a * f
        B = e * b
        congruences: list[tuple[int, int]] = []
        for p, k in targets:
            fb = f * b
            vfb = 0
            while fb % p == 0:
                fb //= p
                vfb += 1
            K = k + vfb
            alpha = 0
            Ar = abs(A)
            while Ar % p == 0 and alpha < K:
                Ar //= p
                alpha += 1
            if alpha >= K:
                if B % p ** K != 0:
                    return None
                continue
            pa = p ** alpha
            if B % pa != 0:
                return None
            mod = p ** (K - alpha)
            j = (-(B // pa) * pow((A // pa) % mod, -1, mod)) % mod
            congruences.append((j, mod))
        return _crt(congruences)[0]

    def recheck(cusp: Fraction) -> bool:
        z = cusp - y
        return z == 0 or all(vp(z, p) >= k for p, k in targets)

    return _first_hit(bfs, offset, recheck)
