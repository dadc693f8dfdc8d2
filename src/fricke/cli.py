"""Command-line interface: classify, probe (adelic|padic), scan (congruence|special|mine).

Exit codes: 0 for a computed verdict / Found / completed scan, 1 when the
reader closed stdout before the report was written, 2 for invalid input, 3
for a probe that found nothing: either a proven miss (the ball's point mod
the targets' level is outside the cusp orbit there, and no search ran) or a
search that exhausted its depth or budget (evidence, not proof). A query
decided by the cusp orbit mod its level opens no --cache file. A probe
search opens it, creating it if missing, and stops at its first hit, which
reports truncated false and appends no run. Structured output is a single
JSON document with a stable field order; byte-identical runs are
byte-identical reports except for the timing_ms field.

Every query is a fresh process, so the obstruction, point test, orbit and
congruence layers are registered lazily: each module's code runs on its
first attribute use, and a query executes only the layers it calls.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import sys
import time

from . import __version__
from .errors import FrickeError, ParameterError
from .exactnum import format_rational, parse_point, parse_rational
from .groups import make_group

EXIT_STDOUT_CLOSED = 1


def _lazy_layer(name: str):
    """The module fricke.<name>, registered in sys.modules; unless it was
    imported already, its code runs on the first access to an attribute."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


obstruct = _lazy_layer("obstruct")
pointsearch = _lazy_layer("pointsearch")
orbitsearch = _lazy_layer("orbitsearch")
congruence = _lazy_layer("congruence")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reads a word such as -3/4 as a negative rational value, not as an
    option; subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"{self._negative_number_matcher.pattern}|^-\d+/\d+$"
        )


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


def _add_cache_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", help="orbit cache file")


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
    verdict = obstruct.classify(g, args.special_budget)
    config["special_budget"] = args.special_budget
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
    budget = orbitsearch.DEFAULT_NODE_BUDGET if args.budget is None else args.budget
    if args.mode == "adelic":
        x = parse_rational(args.x)
        m = parse_rational(args.m)
        result = orbitsearch.adelic_probe(g, x, m, args.depth, budget, args.cache)
        config.update(x=format_rational(x), m=format_rational(m))
    else:
        y = parse_rational(args.y)
        targets = _parse_targets(args.targets)
        result = orbitsearch.padic_probe(g, y, targets, args.depth, budget, args.cache)
        config.update(y=format_rational(y), targets=[f"{p}:{k}" for p, k in targets])
    config.update(depth=args.depth, budget=budget)
    if result.found:
        lines = [
            f"found cusp {format_rational(result.cusp)}"
            f" = {format_rational(result.base_point)} + {result.offset} * 2t",
            f"witness word {result.witness or '<empty>'}",
        ]
    elif result.proven:
        lines = [
            f"not found: the ball lies in the point ({result.point[0]}:{result.point[1]}) mod"
            f" {result.level}, which no cusp reaches",
            "negative result is proven by the cusp orbit mod the level; no search ran",
        ]
    else:
        lines = [
            f"not found at depth {args.depth}"
            + (" (budget exhausted)" if result.truncated else ""),
            "negative result is evidence only",
        ]
    return result.to_dict(), lines, 0 if result.found else 3


def _cmd_congruence(args, g, config):
    budget = orbitsearch.DEFAULT_NODE_BUDGET if args.budget is None else args.budget
    miss = congruence.miss_scan(g, args.flavor, args.N, args.j, args.depth, budget, args.cache)
    config.update(flavor=args.flavor, N=args.N, j=args.j, depth=args.depth, budget=budget)
    payload = miss.to_dict()
    lines = [
        f"labels at level {miss.level} ({args.flavor}): "
        f"{payload['total_labels']} total, {payload['hit_count']} hit",
    ]
    if miss.decided:
        lines.append(f"decided by the cusp orbit mod {miss.level}; no search ran")
    if miss.truncated:
        lines.append("warning: orbit enumeration truncated by budget")
    if miss.unhit:
        proven = set(payload["proven_unhit"])
        lines.append("unhit labels:")
        lines.extend(f"  - {lbl}" + (" (proven)" if lbl in proven else "")
                     for lbl in payload["unhit"])
        if len(proven) < len(miss.unhit):
            lines.append("unhit labels not marked proven are evidence only")
    else:
        lines.append("unhit labels:  none")
    return payload, lines, 0


def _cmd_special(args, g, config):
    pairs = pointsearch.special_point_scan(g, args.maxlen)
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
    mined = obstruct.mine_invariants(g, seeds, primes)
    config.update(seeds=[str(s) for s in seeds], primes=primes, depth=args.depth)
    payload = {"count": len(mined), "predicates": [str(p) for p in mined]}
    lines = [f"mined invariant sets: {len(mined)}"]
    lines.extend(f"  {p}" for p in mined)
    return payload, lines, 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fricke",
        description="exact-arithmetic cusp-set toolkit for rational Fricke groups",
    )
    parser.add_argument("--version", action="version", version=f"fricke {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="run all obstruction checks on one group")
    _add_group_args(p_cls)
    p_cls.add_argument("--special-budget", type=int, default=8,
                       help="word-length bound of the special point scan")
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
        # the handlers fill in the default budget, so that building the
        # parser does not execute orbitsearch
        pp.add_argument("--budget", type=int)
        _add_common_args(pp)
        _add_cache_arg(pp)
        pp.set_defaults(handler=_cmd_probe, mode=mode)

    p_scan = sub.add_parser("scan", help="congruence miss scans, special points, mining")
    scan_sub = p_scan.add_subparsers(dest="mode", required=True)

    sc = scan_sub.add_parser("congruence")
    _add_group_args(sc)
    sc.add_argument("--flavor", choices=("gamma", "gamma0"), required=True)
    sc.add_argument("--N", type=int, required=True)
    sc.add_argument("--j", type=int, default=1)
    sc.add_argument("--depth", type=int, default=8)
    sc.add_argument("--budget", type=int)
    _add_common_args(sc)
    _add_cache_arg(sc)
    sc.set_defaults(handler=_cmd_congruence, mode="congruence")

    sp = scan_sub.add_parser("special")
    _add_group_args(sp)
    sp.add_argument("--maxlen", type=int, required=True)
    _add_common_args(sp)
    sp.set_defaults(handler=_cmd_special, mode="special")

    sm = scan_sub.add_parser("mine")
    _add_group_args(sm)
    sm.add_argument("--primes", required=True, help="comma-separated primes")
    sm.add_argument("--depth", type=int, default=5, help="echoed into the report, like --seed")
    sm.add_argument("--seeds", default="inf,0", help="comma-separated seed points")
    _add_common_args(sm)
    sm.set_defaults(handler=_cmd_mine, mode="mine")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except FrickeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`fricke ... | head -1`); point
        # stdout at devnull so that the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
