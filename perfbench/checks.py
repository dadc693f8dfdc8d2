"""Correctness checks of query outputs, made from outside through fricke's
public API.

Each check reads only the result keys it names, so later versions may add
output fields. A check returns None when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction

from fricke import (
    INFINITY,
    apply,
    ball_trace_contains,
    make_group,
    parse_predicate,
    verify_invariance,
    vp,
    word_matrix,
)
from fricke.exactnum import parse_point, point_of
from fricke.obstruct import SPECIAL_POINT, Witness, recheck_witness

# samples of the independent invariance re-check of each mined predicate
RECHECK_SAMPLES = 500


def _group(config: dict):
    return make_group(Fraction(config["u2"]), Fraction(config["twot"]))


def _witness_maps_infinity_to(g, word: str, point) -> bool:
    return apply(word_matrix(g, word), INFINITY) == point


def _verified_hit(out: dict) -> tuple:
    res = out["result"]
    if not res["found"]:
        return None, "expected a hit"
    g = _group(out["config"])
    cusp, base = Fraction(res["cusp"]), Fraction(res["base_point"])
    if cusp != base + res["offset"] * g.two_t:
        return None, "cusp is not base_point + offset * 2t"
    if not _witness_maps_infinity_to(g, res["witness"], point_of(base)):
        return None, "witness does not map inf to base_point"
    return cusp, None


def padic_hit(out: dict, params: dict) -> str | None:
    cusp, err = _verified_hit(out)
    if err:
        return err
    z = cusp - Fraction(params["y"])
    for p, k in params["targets"]:
        if z != 0 and vp(z, p) < k:
            return f"v_{p}(cusp - y) < {k}"
    return None


def adelic_hit(out: dict, params: dict) -> str | None:
    cusp, err = _verified_hit(out)
    if err:
        return err
    if not ball_trace_contains(Fraction(params["x"]), Fraction(params["m"]), cusp):
        return "cusp is not in x + mZ"
    return None


def probe_miss(out: dict, params: dict) -> str | None:
    return "expected no hit" if out["result"]["found"] else None


def unhit_count(out: dict, params: dict) -> str | None:
    res = out["result"]
    got = (res["total_labels"], res["hit_count"], len(res["unhit"]))
    want = (params["total"], params["hit"], params["total"] - params["hit"])
    return None if got == want else f"labels/hit/unhit {got}, expected {want}"


def unhit_exact(out: dict, params: dict) -> str | None:
    got = out["result"]["unhit"]
    return None if got == params["unhit"] else f"unhit {got}, expected {params['unhit']}"


def _special_point_ok(g, word: str, point: str) -> bool:
    return recheck_witness(g, Witness(kind=SPECIAL_POINT, word=word, point=parse_point(point)))


def special_points(out: dict, params: dict) -> str | None:
    res = out["result"]
    g = _group(out["config"])
    if res["count"] != len(res["points"]) or not res["points"]:
        return "count does not match the point list, or no points"
    for item in res["points"]:
        if not _special_point_ok(g, item["word"], item["point"]):
            return f"{item['point']} is not fixed by the hyperbolic word {item['word']}"
    return None


def classify(out: dict, params: dict) -> str | None:
    res = out["result"]
    if res["conclusion"] != params["conclusion"]:
        return f"conclusion {res['conclusion']}"
    g = _group(out["config"])
    for w in res["obstructions"]:
        witness = Witness(
            kind=w["kind"],
            primes=tuple(w["primes"]),
            word=w.get("word"),
            point=parse_point(w["point"]) if "point" in w else None,
            clause=w.get("clause"),
            branch=w.get("branch"),
        )
        if not recheck_witness(g, witness):
            return f"witness {w['kind']} does not recheck"
    return None


def mined(out: dict, params: dict) -> str | None:
    res = out["result"]
    found = res["predicates"]
    if params.get("must_contain") and params["must_contain"] not in found:
        return f"{params['must_contain']} not mined"
    g = _group(out["config"])
    for i, text in enumerate(found):
        # a fresh sample stream, independent of the one the miner used
        if not verify_invariance(parse_predicate(text), g, RECHECK_SAMPLES, seed=10**6 + i):
            return f"{text} fails an independent invariance re-check"
    return None


def cusp_test(out: dict, params: dict, args: list[str]) -> str | None:
    u2, twot, x = args[:3]
    g = make_group(Fraction(u2), Fraction(twot))
    point = parse_point(x)
    kind = out["kind"]
    if kind == "cusp":
        ok = _witness_maps_infinity_to(g, out["witness"], point)
        return None if ok else "cusp witness does not map inf to the point"
    if kind == "special":
        if params["is_cusp"]:
            return "a cusp reported as a special point"
        ok = _special_point_ok(g, out["witness"], x)
        return None if ok else "special witness does not fix the point"
    return None if kind == "unknown" else f"unknown kind {kind!r}"


CHECKS = {
    "padic_hit": padic_hit,
    "adelic_hit": adelic_hit,
    "probe_miss": probe_miss,
    "unhit_count": unhit_count,
    "unhit_exact": unhit_exact,
    "special_points": special_points,
    "classify": classify,
    "mined": mined,
}


def check(query, out: dict) -> str | None:
    if query.check == "cusp_test":
        return cusp_test(out, query.params, query.args)
    return CHECKS[query.check](out, query.params)


def comparable(out: dict) -> dict:
    """The output with its timing fields removed."""
    return {k: v for k, v in out.items() if k != "timing_ms"}
