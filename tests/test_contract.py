"""Contract probes over generated input, and a guard on the package source.

Every generated CLI call ends in exit code 0, 2 or 3, writes no traceback
and returns within CALL_SECONDS. Every generated predicate prints and
parses back to itself, evaluates alike through eval_predicate and its
compiled form, and is decided by decide_set or refused with a
ParameterError; and and or refuse an empty list of parts. Every generated
orbit label is computed and printed, or refused with a ParameterError,
within CALL_SECONDS, and so is every generated P1(Z/N) reduction and listing
of the P1(Z/N) points or the labels at one level. A CLI query on an orbit
cache whose matching header has a bad records= or truncated= value, or is
cut off, ends in exit code 2 without a traceback within CALL_SECONDS.
recheck_witness returns a bool or raises ParameterError on every generated
witness. orbit_closure closes the cusp orbit at every generated level from
1 up to a 4,096-bit prime power, at the level or its largest divisor under
ORBIT_CLOSURE_MAX_POINTS, answers None at a level that shares a prime with
S, or refuses a level below 1, within CALL_SECONDS. The source guard keeps
src/fricke free of floats and of imports from outside the standard library.
"""

import ast
import contextlib
import io
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fricke.cli import main
from fricke.congruence import enumerate_labels, label_of_pair, p1_points, p1_reduce
from fricke.errors import ParameterError
from fricke.exactnum import INFINITY, ProjPoint
from fricke.groups import make_group
from fricke.invariance import decide_set
from fricke.obstruct import (
    INTEGER_T_VIOLATION,
    SPECIAL_POINT,
    SQUARE_OBSTRUCTION,
    TWO_PRIME_OBSTRUCTION,
    Witness,
    recheck_witness,
)
from fricke.exactnum import prime_factors
from fricke.orbitsearch import DEFAULT_NODE_BUDGET, ORBIT_CLOSURE_MAX_POINTS, orbit_closure
from fricke.predicates import (
    And,
    Not,
    Or,
    ResAtom,
    ValAtom,
    Xor,
    compile_predicate,
    eval_predicate,
    parse_predicate,
)

CALL_SECONDS = 5  # generous: a call drawn here takes at most about 1 s
SRC = Path(__file__).resolve().parents[1] / "src" / "fricke"


def _flag(legal, malformed):
    """A flag value: one in eight is malformed or extreme."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(malformed) if i == 0 else legal)


def _rational(numerators, denominators):
    return _flag(
        st.builds(lambda n, d: f"{n}/{d}", numerators, denominators),
        ["", " ", "abc", "1//2", "1/0", "-3/2", "0", "1.5", "1e999999999", "1/" + "9" * 40,
         str(10 ** 50), "inf"],
    )


# a group needs 0 < u2 < t - 1, which most drawn pairs meet
U2 = _rational(st.integers(1, 4), st.integers(1, 16))
TWOT = _rational(st.integers(11, 40), st.integers(1, 2))
RATIONAL = _rational(st.integers(-30, 30), st.integers(1, 30))
COUNT = _flag(st.integers(0, 6).map(str), ["", "x", "2.5", "-1", "16", str(10 ** 40)])
BUDGET = _flag(st.integers(1, 3000).map(str), ["", "x", "0x10", "-2", "0"])
LEVEL = _flag(st.integers(1, 40).map(str), ["", "x", "0", "257", str(10 ** 30)])
PRIMES = _flag(
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 1000003]), min_size=1, max_size=4)
    .map(lambda ps: ",".join(map(str, ps))),
    ["", "x", ",", "3,,5", "2,2", "4", "1", "-3", "2,3,5,7,11,13,17"],
)
SEEDS = _flag(st.sampled_from(["inf,0", "inf", "0", "1/2,inf"]), ["", "x", "1/0", "inf,inf"])
TARGETS = _flag(
    st.lists(st.tuples(st.sampled_from([2, 3, 7]), st.integers(1, 4)), min_size=1, max_size=2)
    .map(lambda ts: ",".join(f"{p}:{k}" for p, k in ts)),
    ["", "7", ":", "7:0", "4:2", "7:100000", "x:y", "7:3:1"],
)
FLAVOR = _flag(st.sampled_from(["gamma", "gamma0"]), ["", "gamma1"])


def _command(words, flags):
    flags = {"u2": U2, "twot": TWOT, **flags,
             "format": st.sampled_from(["human", "structured"])}
    # --flag=value, so that a value starting with "-" stays a value
    return st.fixed_dictionaries(flags).map(
        lambda values: [*words, *(f"--{k}={v}" for k, v in values.items())])


def _negative_word(words, flag, flags):
    """A command whose flag takes a negative rational as a separate word, "--m -3/4"."""
    return st.tuples(_command(words, flags), st.integers(1, 30), st.integers(1, 30)).map(
        lambda c: [*c[0], flag, f"-{c[1]}/{c[2]}"])


COMMANDS = st.one_of(
    _command(["classify"], {"special-budget": COUNT}),
    _command(["probe", "adelic"], {"x": RATIONAL, "m": RATIONAL, "depth": COUNT, "budget": BUDGET}),
    _command(["probe", "padic"],
             {"y": RATIONAL, "targets": TARGETS, "depth": COUNT, "budget": BUDGET}),
    _command(["scan", "congruence"],
             {"flavor": FLAVOR, "N": LEVEL, "j": COUNT,
              "depth": COUNT, "budget": BUDGET}),
    _command(["scan", "special"], {"maxlen": COUNT}),
    _command(["scan", "mine"], {"primes": PRIMES, "depth": COUNT, "seeds": SEEDS}),
    _negative_word(["probe", "adelic"], "--m", {"x": RATIONAL, "depth": COUNT, "budget": BUDGET}),
    _negative_word(["probe", "padic"], "--y",
                   {"targets": TARGETS, "depth": COUNT, "budget": BUDGET}),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(COMMANDS)
def test_cli_ends_in_an_exit_code_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed flag with exit code 2
            code = exc.code
    assert time.monotonic() - started < CALL_SECONDS, argv
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert "expected one argument" not in err.getvalue(), argv  # a value read as an option


@st.composite
def _atoms(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    if draw(st.booleans()):
        rel = draw(st.sampled_from(["<=", "<", "=", ">=", ">", "odd", "even"]))
        if rel in ("odd", "even"):
            return ValAtom(p, rel)
        return ValAtom(p, rel, draw(_flag(st.integers(-3, 3), [-40, -33, 33, 1000])))
    k = draw(st.integers(1, 3))
    return ResAtom(p, k, frozenset(draw(st.sets(st.integers(0, p ** k - 1),
                                                 min_size=1, max_size=3))))


PREDICATES = st.recursive(
    _atoms(),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(lambda parts: And(tuple(parts)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda parts: Or(tuple(parts)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(Xor, sub, sub),
    ),
    max_leaves=6,
)
NONZERO = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6).filter(
    lambda x: x != 0)
GROUPS = [make_group(Fraction(1, 15), 8), make_group(Fraction(1, 4), 4),
          make_group(Fraction(6, 11), 6)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(PREDICATES, NONZERO)
def test_predicates_round_trip_and_evaluate_alike(pred, x):
    assert parse_predicate(str(pred)) == pred
    assert eval_predicate(pred, x) == compile_predicate(pred)(x.numerator, x.denominator)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([And, Or]), st.lists(PREDICATES, max_size=3))
def test_and_or_take_at_least_one_part(cls, parts):
    if not parts:
        with pytest.raises(ParameterError):
            cls(())
        return
    pred = cls(tuple(parts))
    assert parse_predicate(str(pred)) == pred


@settings(derandomize=True, max_examples=60, deadline=None)
@given(PREDICATES, st.sampled_from(GROUPS))
def test_decide_set_decides_or_refuses(pred, g):
    started = time.monotonic()
    try:
        decided = decide_set(pred, g)
    except ParameterError:
        decided = None
    assert time.monotonic() - started < CALL_SECONDS, str(pred)
    assert decided is None or all(isinstance(flag, bool) for flag in decided)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_flag(st.sampled_from(["gamma", "gamma0"]), ["", "gamma1", "GAMMA"]),
       st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6),
       _flag(st.integers(1, 300) | st.integers(1, 10 ** 6),
             [-1, 0, 95_040, 10 ** 5, 10 ** 5 + 1, 720_720, 10 ** 6, 10 ** 30]))
@example("gamma0", 10 ** 7, 1, 10 ** 14)
def test_labels_are_computed_or_refused(flavor, num, den, n):
    started = time.monotonic()
    try:
        label = label_of_pair(flavor, num, den, n)
        assert (label.flavor, label.level) == (flavor, n)
        assert str(label).endswith(f" mod {n}")
    except ParameterError:
        pass
    assert time.monotonic() - started < CALL_SECONDS, (flavor, num, den, n)
    for call, args in ((p1_reduce, (num, den, n)), (p1_points, (n,)),
                       (enumerate_labels, (flavor, n))):
        started = time.monotonic()
        try:
            call(*args)
        except ParameterError:
            pass
        assert time.monotonic() - started < CALL_SECONDS, (call.__name__, args)


def _psi(n):
    return prod(p ** (e - 1) * (p + 1) for p, e in prime_factors(n).items())


# 2^4095, 3^2584 and 1000003^204 have 4,096, 4,096 and 4,081 bits
BIG_LEVELS = [2 ** 4095, 3 ** 2584, 1000003 ** 204, 5 ** 3 * 7 ** 1400, 10 ** 30,
              2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29, 257, 343, 1331]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(GROUPS + [make_group(1, 6)]),
       _flag(st.integers(1, 300), [0, -3, *BIG_LEVELS]), st.booleans())
def test_orbit_closure_closes_or_refuses(g, level, vectors):
    started = time.monotonic()
    try:
        closure = orbit_closure(g, level, vectors)
    except ParameterError:
        assert level < 1
        closure = ()
    assert time.monotonic() - started < CALL_SECONDS, (g.name, level, vectors)
    if closure is None:
        assert gcd(level, prod(g.support_primes)) > 1
    elif closure != ():
        d = closure.level
        assert level % d == 0 and _psi(d) <= ORBIT_CLOSURE_MAX_POINTS
        if d != level:  # the largest divisor under the cap; psi(n) >= n
            assert level > ORBIT_CLOSURE_MAX_POINTS or _psi(level) > ORBIT_CLOSURE_MAX_POINTS
            assert all(_psi(e) > ORBIT_CLOSURE_MAX_POINTS
                       for e in range(d + 1, ORBIT_CLOSURE_MAX_POINTS + 1) if level % e == 0)
        assert closure.parents and all(key in closure for key in closure.parents)


CACHE_QUERIES = [
    ["probe", "adelic", "--x", "0", "--m", "6"],
    ["probe", "padic", "--y", "1/3", "--targets", "3:2"],
    # level 4 shares 2 with S = {2}: the scan searches, so it reads the cache
    ["scan", "congruence", "--flavor", "gamma0", "--N", "4"],
]
# a depth-2 run of (6/11, 6) has 19 records, one line each after the first
RECORD_LINES = "".join(f"0\t{ch}\n" for ch in "AaBb") + "1\tA\n" * 14
BAD_TRUNCATED = ["", "2", "7", "-1", "01", "00", "true", "9" * 30]
BAD_RECORDS = ["", "0", "-1", "-19", "18", "20", "019", "+19", " 19", "1_9", "19x", "9" * 23,
               "9" * 5000]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(CACHE_QUERIES),
       st.one_of(st.tuples(st.sampled_from(BAD_TRUNCATED), st.sampled_from(["19", *BAD_RECORDS])),
                 st.tuples(st.sampled_from(["0", "1"]), st.sampled_from(BAD_RECORDS))),
       st.integers(0, 3))
def test_cli_refuses_a_bad_cache_header(query, values, cut):
    truncated, records = values
    header = (f"#orbit u2=6/11 twot=6 depth=2 budget={DEFAULT_NODE_BUDGET} "
              f"truncated={truncated} records={records}\n")
    # cut > 0 ends the file inside the header, that many characters early
    text = header[:-cut] if cut else header + RECORD_LINES
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orbits.cache"
        path.write_text(text, encoding="ascii")
        argv = [*query, "--u2", "6/11", "--twot", "6", "--depth", "2", "--cache", str(path)]
        out, err = io.StringIO(), io.StringIO()
        started = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert time.monotonic() - started < CALL_SECONDS, argv
    assert code == 2, (text[-80:], err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


WITNESSES = st.builds(
    Witness,
    detail=st.just(""),
    predicate=st.none(),
    kind=_flag(st.sampled_from([SQUARE_OBSTRUCTION, TWO_PRIME_OBSTRUCTION, INTEGER_T_VIOLATION,
                                SPECIAL_POINT]), ["", "special", "SQUARE_OBSTRUCTION"]),
    primes=st.lists(st.sampled_from([2, 3, 5, 11, 97, 0, -3, 4, 10 ** 30]), max_size=3)
    .map(tuple),
    word=st.none() | st.text("AaBbx", max_size=10),
    point=st.none() | st.just(INFINITY)
    | st.builds(ProjPoint, st.integers(-20, 20), st.integers(-5, 20)),
    clause=st.none() | st.sampled_from(["a", "b", "c", "", "d"]),
    branch=st.none() | st.integers(-1, 3),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(WITNESSES, st.sampled_from(GROUPS + [make_group(1, 6)]))
def test_recheck_witness_answers_or_refuses(w, g):
    started = time.monotonic()
    try:
        assert isinstance(recheck_witness(g, w), bool)
    except ParameterError:
        pass
    assert time.monotonic() - started < CALL_SECONDS, w


def test_package_source_is_float_free_and_stdlib_only():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{where}: float literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{where}: call to float")
            elif isinstance(node, ast.Import):
                found += [f"{where}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] not in sys.stdlib_module_names]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] not in sys.stdlib_module_names):
                found.append(f"{where}: from {node.module} import")
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, found
