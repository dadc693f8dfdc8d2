"""Valuation-and-congruence predicates on nonzero rationals.

A predicate is a boolean tree over two kinds of atoms, true or false at a
nonzero rational x:

  * valuation atoms  vp(p) REL bound   on v_p(x), plus the parity forms
    odd(vp) / even(vp) and the shorthand neg(vp) for v_p(x) < 0;
  * residue atoms    res(p, k, {r, ...})   meaning x mod p**k lies in the
    set; false whenever x is not integral at p.

Combined with and / or / not / xor. The concrete syntax is parenthesized
text, e.g. "xor(neg(v3), neg(v5))" or "and(vp(2)<=-2, res(3,1,{0,2}))";
parse_predicate and str() round-trip. The nodes are data: compile_predicate
gives their one meaning, a closure on reduced integer pairs, and
eval_predicate applies it to a rational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

from .errors import DomainError, ParameterError
from .exactnum import ReadOnly, require_prime, vp_pair

_RELATIONS = ("<=", "<", "=", ">=", ">", "odd", "even")


class Predicate(ReadOnly):
    """Base class of the immutable predicate nodes.

    A subclass lists its fields in __slots__ and prints itself in the
    syntax parse_predicate reads; compile_predicate gives it its meaning.
    Nodes are equal by type and fields, so and(P, Q) differs from or(P, Q).
    """

    __slots__ = ()


class ValAtom(Predicate):
    __slots__ = ("p", "rel", "bound")

    def __init__(self, p: int, rel: str, bound: int = 0):
        require_prime(p)
        if rel not in _RELATIONS:
            raise ParameterError(f"unknown valuation relation {rel!r}")
        if rel in ("odd", "even") and bound != 0:
            raise ParameterError(f"{rel}(v{p}) takes no bound, got {bound}")
        super().__init__(p, rel, bound)

    def __str__(self) -> str:
        if self.rel == "<" and self.bound == 0:
            return f"neg(v{self.p})"
        if self.rel in ("odd", "even"):
            return f"{self.rel}(v{self.p})"
        return f"vp({self.p}){self.rel}{self.bound}"


def neg_valuation(p: int) -> ValAtom:
    """The atom v_p(x) < 0."""
    return ValAtom(p, "<", 0)


class ResAtom(Predicate):
    __slots__ = ("p", "k", "allowed")

    def __init__(self, p: int, k: int, allowed: frozenset[int]):
        require_prime(p)
        if k < 1:
            raise ParameterError(f"residue precision must be >= 1, got {k}")
        if not allowed:
            raise ParameterError(f"residue set mod {p}^{k} must not be empty")
        m = p ** k
        if not all(0 <= r < m for r in allowed):
            raise ParameterError(f"residues must lie in [0, {m})")
        super().__init__(p, k, allowed)

    def __str__(self) -> str:
        inner = ",".join(str(r) for r in sorted(self.allowed))
        return f"res({self.p},{self.k},{{{inner}}})"


class Not(Predicate):
    __slots__ = ("child",)

    def __str__(self) -> str:
        return f"not({self.child})"


class And(Predicate):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Predicate, ...]):
        if not parts:
            raise ParameterError("and() takes at least one part")
        super().__init__(parts)

    def __str__(self) -> str:
        return "and(" + ", ".join(str(p) for p in self.parts) + ")"


class Or(Predicate):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Predicate, ...]):
        if not parts:
            raise ParameterError("or() takes at least one part")
        super().__init__(parts)

    def __str__(self) -> str:
        return "or(" + ", ".join(str(p) for p in self.parts) + ")"


class Xor(Predicate):
    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return f"xor({self.left}, {self.right})"


def exactly_one_negative(p: int, q: int) -> Xor:
    """The set of nonzero x where exactly one of v_p(x), v_q(x) is negative."""
    return Xor(neg_valuation(p), neg_valuation(q))


def eval_predicate(pred: Predicate, x: Fraction | int) -> bool:
    """Evaluate on a nonzero rational; 0 is outside the domain."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("predicates are defined on nonzero rationals only")
    return compile_predicate(pred)(x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_VP_RE = re.compile(r"vp\((\d+)\)(<=|>=|<|>|=)(-?\d+)$")
_TAG_RE = re.compile(r"(neg|odd|even)\(v(\d+)\)$")
_RES_RE = re.compile(r"res\((\d+),(\d+),\{([\d,]*)\}\)$")


def _split_args(body: str) -> list[str]:
    args, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(body[start:i])
            start = i + 1
    args.append(body[start:])
    return [a.strip() for a in args]


def parse_predicate(text: str) -> Predicate:
    """Inverse of str() on predicates."""
    s = text.strip()
    for tag, cls in (("and(", And), ("or(", Or)):
        if s.startswith(tag) and s.endswith(")"):
            parts = tuple(parse_predicate(a) for a in _split_args(s[len(tag):-1]))
            return cls(parts)
    if s.startswith("not(") and s.endswith(")"):
        return Not(parse_predicate(s[4:-1]))
    if s.startswith("xor(") and s.endswith(")"):
        args = _split_args(s[4:-1])
        if len(args) != 2:
            raise ParameterError(f"xor takes exactly two arguments: {text!r}")
        return Xor(parse_predicate(args[0]), parse_predicate(args[1]))
    m = _TAG_RE.match(s)
    if m:
        tag, p = m.group(1), int(m.group(2))
        if tag == "neg":
            return neg_valuation(p)
        return ValAtom(p, tag)
    m = _VP_RE.match(s)
    if m:
        return ValAtom(int(m.group(1)), m.group(2), int(m.group(3)))
    m = _RES_RE.match(s)
    if m:
        residues = frozenset(int(r) for r in m.group(3).split(",") if r != "")
        return ResAtom(int(m.group(1)), int(m.group(2)), residues)
    raise ParameterError(f"cannot parse predicate {text!r}")


# ---------------------------------------------------------------------------
# compiled form for hot loops
# ---------------------------------------------------------------------------

def _at_most(p: int, c: int, negate: bool = False) -> Callable[[int, int], bool]:
    # v_p(n/d) <= c on a reduced pair, or v_p(n/d) > c when negated
    if c < 0:
        m = p ** -c
        return (lambda n, d: d % m != 0) if negate else (lambda n, d: d % m == 0)
    m = p ** (c + 1)
    return (lambda n, d: n % m == 0) if negate else (lambda n, d: n % m != 0)


def compile_predicate(pred: Predicate) -> Callable[[int, int], bool]:
    """Compile to a closure on reduced integer pairs (num, den), num != 0.

    p divides at most one of num, den, so v_p <= c is den % p^-c == 0 for
    c < 0 and num % p^(c+1) != 0 for c >= 0; v_p >= c is the negation of
    v_p <= c - 1, and <, > and = follow. Only odd and even compute v_p.
    """
    if isinstance(pred, ValAtom):
        p, rel, bound = pred.p, pred.rel, pred.bound
        if rel in ("<=", "<"):
            return _at_most(p, bound if rel == "<=" else bound - 1)
        if rel in (">=", ">"):
            return _at_most(p, bound - 1 if rel == ">=" else bound, negate=True)
        if rel == "=":
            lo, hi = _at_most(p, bound - 1, negate=True), _at_most(p, bound)
            return lambda n, d: lo(n, d) and hi(n, d)
        if rel == "odd":
            return lambda n, d: vp_pair(n, d, p) % 2 == 1
        return lambda n, d: vp_pair(n, d, p) % 2 == 0
    if isinstance(pred, ResAtom):
        p, m, allowed = pred.p, pred.p ** pred.k, pred.allowed

        def res_check(n: int, d: int) -> bool:
            if d % p == 0:
                return False
            return n * pow(d, -1, m) % m in allowed

        return res_check
    if isinstance(pred, Not):
        f = compile_predicate(pred.child)
        return lambda n, d: not f(n, d)
    if isinstance(pred, And):
        fs = [compile_predicate(p) for p in pred.parts]
        return lambda n, d: all(f(n, d) for f in fs)
    if isinstance(pred, Or):
        fs = [compile_predicate(p) for p in pred.parts]
        return lambda n, d: any(f(n, d) for f in fs)
    if isinstance(pred, Xor):
        fl, fr = compile_predicate(pred.left), compile_predicate(pred.right)
        return lambda n, d: fl(n, d) != fr(n, d)
    raise ParameterError(f"cannot compile predicate of type {type(pred).__name__}")
