"""Command-line interface: classify, probe (adelic|padic), scan (congruence|special|mine).

Exit codes: 0 for a computed verdict / Found / completed scan, 2 for invalid
input, 3 for a probe that exhausted its budget without finding anything
(evidence, not proof). Structured output is a single JSON document with a
stable field order; byte-identical runs are byte-identical reports except
for the timing_ms field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import FrickeError, ParameterError
from .exactnum import format_rational, parse_point, parse_rational
from .groups import make_group
from .obstruct import classify, mine_invariants
from .orbitsearch import (
    DEFAULT_NODE_BUDGET,
    adelic_probe,
    padic_probe,
    special_point_scan,
)
from .congruence import miss_scan

CACHE_ENV = "FRICKE_CACHE"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _add_group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--u2", required=True, help="first parameter, e.g. 6/11")
    p.add_argument("--twot", required=True, help="second parameter 2t, e.g. 6")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    p.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        dest="fmt",
        help="human table or structured JSON",
    )
    p.add_argument(
        "--cache",
        default=None,
        help=f"orbit cache file (default: ${CACHE_ENV} if set)",
    )


def _cache_path(args) -> str | None:
    if args.cache:
        return args.cache
    return os.environ.get(CACHE_ENV) or None


def _run(args) -> int:
    """Build the group, run one command and emit its report.

    A command handler adds its own config keys after u2 and twot and
    returns (result, human lines after the group line, exit code); seed is
    always the last config key.
    """
    started = time.monotonic_ns()
    g = make_group(parse_rational(args.u2), parse_rational(args.twot))
    config = {"u2": format_rational(g.u2), "twot": format_rational(g.two_t)}
    result, lines, code = args.handler(args, g, config)
    config["seed"] = args.seed
    command = args.command if args.command == "classify" else f"{args.command} {args.mode}"
    report = {
        "tool": "fricke",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
        "timing_ms": (time.monotonic_ns() - started) // 1_000_000,
    }
    if args.fmt == "structured":
        print(json.dumps(report, indent=2))
    else:
        print(f"group {g.name}")
        for line in lines:
            print(line)
    return code


def _parse_targets(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        try:
            p, k = part.split(":")
            out.append((int(p), int(k)))
        except ValueError as exc:
            raise ParameterError(
                f"targets must look like '7:3,2:2', got {text!r}"
            ) from exc
    return out


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args, g, config):
    verdict = classify(g, args.special_budget, screen_budget=args.screen_budget)
    config.update(special_budget=args.special_budget, screen_budget=args.screen_budget)
    lines = [
        f"conclusion                  {verdict.conclusion}",
        f"density in finite products  {str(verdict.density_all_finite_products).lower()}",
    ]
    screen = verdict.arithmetic_screen
    if screen.is_negative_certificate:
        lines.append(
            f"arithmetic screen           not_arithmetic"
            f"  witness {screen.witness}  tr^2/det {format_rational(screen.value)}"
        )
    else:
        lines.append("arithmetic screen           inconclusive")
    lines.append(f"support primes              {sorted(g.support_primes) or '{}'}")
    if verdict.obstructions:
        lines.append("obstructions:")
        for w in verdict.obstructions:
            lines.append(f"  - {w.kind}: {w.detail}")
            if w.predicate is not None:
                lines.append(f"      invariant set {w.predicate}")
    else:
        lines.append("obstructions:               none found")
    return verdict.to_dict(), lines, 0


def _cmd_probe(args, g, config):
    cache = _cache_path(args)
    if args.mode == "adelic":
        x = parse_rational(args.x)
        m = parse_rational(args.m)
        result = adelic_probe(g, x, m, args.depth, args.budget, cache)
        config.update(x=format_rational(x), m=format_rational(m))
    else:
        y = parse_rational(args.y)
        targets = _parse_targets(args.targets)
        result = padic_probe(g, y, targets, args.depth, args.budget, cache)
        config.update(y=format_rational(y), targets=[f"{p}:{k}" for p, k in targets])
    config.update(depth=args.depth, budget=args.budget)
    if result.found:
        lines = [
            f"found cusp {format_rational(result.cusp)}"
            f" = {format_rational(result.base_point)} + {result.offset} * 2t",
            f"witness word {result.witness or '<empty>'}",
        ]
    else:
        lines = [
            f"not found at depth {args.depth}"
            + (" (budget exhausted)" if result.truncated else ""),
            "negative result is evidence only",
        ]
    return result.to_dict(), lines, 0 if result.found else 3


def _cmd_congruence(args, g, config):
    miss = miss_scan(
        g, args.flavor, args.N, args.j, args.depth, args.budget, _cache_path(args)
    )
    config.update(
        flavor=args.flavor, N=args.N, j=args.j, depth=args.depth, budget=args.budget
    )
    payload = miss.to_dict()
    lines = [
        f"labels at level {miss.level} ({args.flavor}): "
        f"{payload['total_labels']} total, {payload['hit_count']} hit",
    ]
    if miss.truncated:
        lines.append("warning: orbit enumeration truncated by budget")
    if miss.unhit:
        lines.append("unhit labels:")
        lines.extend(f"  - {lbl}" for lbl in payload["unhit"])
    else:
        lines.append("unhit labels:  none")
    return payload, lines, 0


def _cmd_special(args, g, config):
    pairs = special_point_scan(g, args.maxlen)
    config["maxlen"] = args.maxlen
    payload = {
        "count": len(pairs),
        "points": [{"point": str(pt), "word": w} for pt, w in pairs],
    }
    lines = [f"special points up to length {args.maxlen}: {len(pairs)}"]
    lines.extend(f"  {pt}  fixed by {w}" for pt, w in pairs)
    return payload, lines, 0


def _cmd_mine(args, g, config):
    seeds = [parse_point(s) for s in args.seeds.split(",")]
    primes = _parse_ints(args.primes)
    mined = mine_invariants(g, seeds, primes, args.depth, seed=args.seed)
    config.update(seeds=[str(s) for s in seeds], primes=primes, depth=args.depth)
    payload = {"count": len(mined), "predicates": [str(p) for p in mined]}
    lines = [f"mined invariant sets: {len(mined)}"]
    lines.extend(f"  {p}" for p in mined)
    return payload, lines, 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fricke",
        description="exact-arithmetic cusp-set toolkit for rational Fricke groups",
    )
    parser.add_argument("--version", action="version", version=f"fricke {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="run all obstruction checks on one group")
    _add_group_args(p_cls)
    p_cls.add_argument("--special-budget", type=int, default=8,
                       help="word-length bound of the special point scan")
    p_cls.add_argument("--screen-budget", type=int, default=4,
                       help="word-length bound of the arithmeticity screen")
    _add_common_args(p_cls)
    p_cls.set_defaults(handler=_cmd_classify)

    p_probe = sub.add_parser("probe", help="density probes in adelic or p-adic targets")
    probe_sub = p_probe.add_subparsers(dest="mode", required=True)
    for mode in ("adelic", "padic"):
        pp = probe_sub.add_parser(mode)
        _add_group_args(pp)
        if mode == "adelic":
            pp.add_argument("--x", required=True, help="ball center")
            pp.add_argument("--m", required=True, help="ball modulus")
        else:
            pp.add_argument("--y", required=True, help="target rational")
            pp.add_argument("--targets", required=True,
                            help="prime:precision list, e.g. 7:3,2:2")
        pp.add_argument("--depth", type=int, default=10)
        pp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
        _add_common_args(pp)
        pp.set_defaults(handler=_cmd_probe, mode=mode)

    p_scan = sub.add_parser("scan", help="congruence miss scans, special points, mining")
    scan_sub = p_scan.add_subparsers(dest="mode", required=True)

    sc = scan_sub.add_parser("congruence")
    _add_group_args(sc)
    sc.add_argument("--flavor", choices=("gamma", "gamma0"), required=True)
    sc.add_argument("--N", type=int, required=True)
    sc.add_argument("--j", type=int, default=1)
    sc.add_argument("--depth", type=int, default=8)
    sc.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    _add_common_args(sc)
    sc.set_defaults(handler=_cmd_congruence, mode="congruence")

    sp = scan_sub.add_parser("special")
    _add_group_args(sp)
    sp.add_argument("--maxlen", type=int, required=True)
    _add_common_args(sp)
    sp.set_defaults(handler=_cmd_special, mode="special")

    sm = scan_sub.add_parser("mine")
    _add_group_args(sm)
    sm.add_argument("--primes", required=True, help="comma-separated primes")
    sm.add_argument("--depth", type=int, default=5)
    sm.add_argument("--seeds", default="inf,0", help="comma-separated seed points")
    _add_common_args(sm)
    sm.set_defaults(handler=_cmd_mine, mode="mine")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except FrickeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
