"""One benchmark query process.

    child.py [--trace FILE --query N] cli FRICKE_ARGV...
    child.py [--trace FILE --query N] cusp_test U2 TWOT X DEPTH BUDGET
    child.py setup U2:TWOT...

`cli` runs `fricke.cli.main(argv)`; the untraced benchmark runs CLI queries
as `python -m fricke.cli` instead and uses this driver only for traced runs.
`cusp_test` makes one library call and prints its result as JSON. `setup`
imports fricke and builds the groups, the set-up cost of a fresh process.
With --trace, every layer is wrapped (see tracer.py) before the call and
the spans are written to FILE when the process exits.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def _cusp_test(u2: str, twot: str, x: str, depth: str, budget: str) -> int:
    from fricke import make_group, cusp_test
    from fricke.exactnum import parse_point

    g = make_group(Fraction(u2), Fraction(twot))
    result = cusp_test(g, parse_point(x), int(depth), int(budget))
    print(json.dumps({"kind": result.kind, "witness": result.witness, "depth": result.depth}))
    return 0


def _setup(pairs: list[str]) -> int:
    from fricke import make_group

    for pair in pairs:
        u2, twot = pair.split(":")
        make_group(Fraction(u2), Fraction(twot))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "--trace":
        from tracer import Tracer

        Tracer(int(argv[3]), argv[1]).install()
        argv = argv[4:]
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        import fricke.cli

        return fricke.cli.main(rest)
    if mode == "cusp_test":
        return _cusp_test(*rest)
    if mode == "setup":
        return _setup(rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
