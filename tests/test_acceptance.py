"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Parameters (seeds, counts, depths) come from the bundled registry.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

from fricke.cli import main as cli_main
from fricke.congruence import (
    GAMMA,
    GAMMA0,
    enumerate_labels,
    gamma_label,
    label_of_pair,
    miss_scan,
    p1_reduce,
)
from fricke.exactnum import INFINITY, ball_trace_contains, point_of, reduce_point, vp
from fricke.groups import (
    COMMUTATOR_WORD,
    ElementClass,
    apply,
    arithmeticity_screen,
    classify_element,
    fixed_points,
    make_group,
    parabolic_at_infinity,
    word_matrix,
)
from fricke.obstruct import (
    NOT_PSEUDOMODULAR,
    check_density_criterion,
    check_integer_t_conditions,
    check_square_obstruction,
    check_two_prime_obstruction,
    classify,
    relevant_primes,
    verify_invariance,
)
from fricke.orbitsearch import adelic_probe, cusp_bfs, padic_probe, special_point_scan
from fricke.registry import known_cases
from fricke.words import parity

CASES = known_cases()


def _announce(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


# -------------------------------------------------------------------------
# 1. square-obstruction sweep, exact, under one second
# -------------------------------------------------------------------------

def test_criterion_01_square_sweep():
    cfg = CASES["square_denominator_sweep"]
    started = time.perf_counter()
    cases = 0
    ok = True
    for p in cfg["primes"]:
        for t in range(cfg["t_min"], cfg["t_max"] + 1):
            g = make_group(Fraction(1, p * p), 2 * t)
            verdict = classify(g, special_budget=2)
            cases += 1
            witnesses = [
                w
                for w in verdict.obstructions
                if w.kind == "square_obstruction" and w.primes == (p,) and w.branch == 1
            ]
            if verdict.conclusion != NOT_PSEUDOMODULAR or not witnesses:
                ok = False
    elapsed = time.perf_counter() - started
    _announce(
        1,
        ok and cases == 28 and elapsed < 1.0,
        f"{cases} prime-square cases classified with branch-1 witnesses "
        f"in {elapsed:.2f}s",
    )


# -------------------------------------------------------------------------
# 2. two-prime sweep with invariant-set verification
# -------------------------------------------------------------------------

def test_criterion_02_two_prime_sweep():
    cfg = CASES["two_prime_sweep"]
    ok = True
    checked = 0
    for (p, q), t in itertools.product(cfg["prime_pairs"], cfg["t_values"]):
        u2 = Fraction(1, p * q)
        if not 0 < u2 < t - 1:
            continue
        g = make_group(u2, 2 * t)
        w = check_two_prime_obstruction(g, p, q)
        if w is None or str(w.predicate) != f"xor(neg(v{min(p,q)}), neg(v{max(p,q)}))":
            ok = False
            continue
        res = verify_invariance(w.predicate, g, cfg["samples"], seed=cfg["seed"])
        checked += 1
        if not res.passed:
            ok = False
    _announce(
        2,
        ok and checked == 9,
        f"{checked} two-prime cases verified at {cfg['samples']} samples, "
        f"seed {cfg['seed']}",
    )


# -------------------------------------------------------------------------
# 3. parabolic identities on random parameters, exact equality
# -------------------------------------------------------------------------

def test_criterion_03_parabolic_identities():
    cfg = CASES["parabolic_run"]
    rng = random.Random(cfg["seed"])
    bound = cfg["bound"]
    ok = True
    count = 0
    while count < cfg["count"]:
        u2 = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        t = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        if not 0 < u2 < t - 1:
            continue
        count += 1
        g = make_group(u2, 2 * t)
        word, shift = parabolic_at_infinity(g)
        m = word_matrix(g, word)
        comm = word_matrix(g, COMMUTATOR_WORD)
        if not (
            classify_element(m) is ElementClass.PARABOLIC
            and apply(m, INFINITY) == INFINITY
            and shift == -2 * t
            and classify_element(comm) is ElementClass.PARABOLIC
            and fixed_points(comm).points == (point_of(u2),)
        ):
            ok = False
    _announce(3, ok, f"{count} random groups satisfy the parabolic identities exactly")


# -------------------------------------------------------------------------
# 4. flagship group: clean checks, special point 1/4, screen certificate
# -------------------------------------------------------------------------

def test_criterion_04_flagship():
    cfg = CASES["flagship"]
    g = make_group(Fraction(cfg["u2"]), Fraction(cfg["twot"]))
    target = point_of(Fraction(cfg["special_point"]))

    clean = all(check_square_obstruction(g, p) is None for p in relevant_primes(g))
    clean &= all(
        check_two_prime_obstruction(g, p, q) is None
        for p, q in itertools.combinations(relevant_primes(g), 2)
    )
    report = check_integer_t_conditions(g)
    clean &= report.applicable and report.witnesses == ()
    clean &= check_density_criterion(g)

    found_len = None
    transcript = []
    for max_len in range(1, cfg["special_max_len"] + 1):
        pairs = special_point_scan(g, max_len)
        transcript.append(f"  scan length {max_len}: {len(pairs)} points")
        if any(pt == target for pt, _ in pairs):
            found_len = max_len
            break
    if found_len is None:
        print("special point scan transcript:")
        print("\n".join(transcript))

    screen = arithmeticity_screen(g)
    screen_ok = (
        screen.status == "not_arithmetic"
        and screen.witness == cfg["screen_witness"]
        and screen.value == Fraction(cfg["screen_value"])
    )
    _announce(
        4,
        clean and found_len is not None and screen_ok,
        f"flagship clean on all checks, density true, special point "
        f"{cfg['special_point']} found at length {found_len}, screen witness "
        f"{screen.witness} with value {screen.value}",
    )


# -------------------------------------------------------------------------
# 5. density probes: p-adic targets and adelic balls, all found
# -------------------------------------------------------------------------

def test_criterion_05_density_probes():
    pcfg = CASES["padic_probe_run"]
    g1 = make_group(Fraction(pcfg["u2"]), Fraction(pcfg["twot"]))
    rng = random.Random(pcfg["seed"])
    padic_found = 0
    for _ in range(pcfg["count"]):
        p = rng.choice(pcfg["primes"])
        k = rng.randint(1, pcfg["max_precision"])
        y = Fraction(
            rng.randint(-pcfg["center_bound"], pcfg["center_bound"]),
            rng.randint(1, pcfg["center_bound"]),
        )
        res = padic_probe(g1, y, [(p, k)], depth=pcfg["depth"])
        if res.found:
            diff = res.cusp - y
            assert diff == 0 or vp(diff, p) >= k
            padic_found += 1

    acfg = CASES["adelic_probe_run"]
    g2 = make_group(Fraction(acfg["u2"]), Fraction(acfg["twot"]))
    rng = random.Random(acfg["seed"])
    adelic_found = 0
    for _ in range(acfg["count"]):
        while True:
            x = Fraction(rng.randint(-acfg["bound"], acfg["bound"]),
                         rng.randint(1, acfg["bound"]))
            m = Fraction(rng.randint(-acfg["bound"], acfg["bound"]),
                         rng.randint(1, acfg["bound"]))
            if m != 0:
                break
        res = adelic_probe(g2, x, m, depth=acfg["depth"])
        if res.found:
            assert ball_trace_contains(x, m, res.cusp)
            adelic_found += 1

    _announce(
        5,
        padic_found == pcfg["count"] and adelic_found == acfg["count"],
        f"p-adic probes {padic_found}/{pcfg['count']} found at depth "
        f"{pcfg['depth']}; adelic probes {adelic_found}/{acfg['count']} "
        f"found at depth {acfg['depth']}",
    )


# -------------------------------------------------------------------------
# 6. congruence oracles: label invariance and exact label counts
# -------------------------------------------------------------------------

def test_criterion_06_congruence_oracles():
    cfg = CASES["congruence_oracles"]
    rng = random.Random(cfg["seed"])
    ok = True
    for n in cfg["invariance_levels"]:
        for _ in range(cfg["matrices_per_level"]):
            a, b = rng.randint(-1, 1), rng.randint(-1, 1)
            if rng.random() < 0.5:
                m = (1 + n * n * a * b, n * a, n * b, 1)
            else:
                m = (1, n * a, n * b, 1 + n * n * a * b)
            assert m[0] * m[3] - m[1] * m[2] == 1
            x = reduce_point(rng.randint(-50, 50), rng.randint(0, 50) or 1)
            y = reduce_point(m[0] * x.a + m[1] * x.c, m[2] * x.a + m[3] * x.c)
            if gamma_label(x, n) != gamma_label(y, n):
                ok = False

    counts_ok = True
    for level_s, expected in cfg["label_counts"].items():
        level = int(level_s)
        labels = enumerate_labels(GAMMA, level)
        brute = set()
        for a in range(level):
            for c in range(level):
                if gcd(gcd(a, c), level) == 1:
                    brute.add(frozenset({(a, c), ((-a) % level, (-c) % level)}))
        if not (len(labels) == expected == len(brute)):
            counts_ok = False
    _announce(
        6,
        ok and counts_ok,
        f"label invariance held for {cfg['matrices_per_level']} matrices at "
        f"levels {cfg['invariance_levels']}; counts {cfg['label_counts']} "
        f"match brute enumeration",
    )


# -------------------------------------------------------------------------
# 7. miss-scan evidence at the lower-triangular flavor
# -------------------------------------------------------------------------

def _gamma0_labels_missed_mod(g, level):
    """gamma0 labels at `level` that no cusp of g can carry.

    When every letter's determinant is prime to the level, each word reduces
    to an invertible projective map of P1(Z/level), and a cusp w(inf) in
    lowest terms reduces to the image of (1:0) under it (the gcd of its
    entries divides det w). The translates c + k*2t are cusps too. So every
    cusp lies in the orbit of (1:0) under the letters reduced mod the level,
    and a gamma0 label, which depends only on the P1(Z/level) point, that
    meets none of that orbit is provably unhit.
    """
    for ch, m in g.letters.items():
        assert gcd(m.det(), level) == 1, f"letter {ch} is not invertible mod {level}"
    start = p1_reduce(1, 0, level)
    orbit = {start}
    stack = [start]
    while stack:
        a, c = stack.pop()
        for m in g.letters.values():
            image = p1_reduce(m.a * a + m.b * c, m.c * a + m.d * c, level)
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    reached = {label_of_pair(GAMMA0, a, c, level) for a, c in orbit}
    return {lbl for lbl in enumerate_labels(GAMMA0, level) if lbl not in reached}


def test_criterion_07_miss_scan_evidence():
    cfg = CASES["miss_scan_run"]
    assert cfg["flavor"] == GAMMA0
    g = make_group(Fraction(cfg["u2"]), Fraction(cfg["twot"]))
    ok = True
    details = []
    for j in cfg["j_values"]:
        report = miss_scan(g, cfg["flavor"], cfg["N"], j, depth=cfg["depth"])
        deeper = miss_scan(g, cfg["flavor"], cfg["N"], j, depth=cfg["stability_depth"])
        missed = _gamma0_labels_missed_mod(g, report.level)
        nonempty = len(report.unhit) > 0
        stable = set(report.unhit) == set(deeper.unhit)
        exact = set(report.unhit) == missed == set(deeper.unhit)
        # a run cut at the record budget stops short of its depth, so the
        # line says which of the two compared runs was cut
        details.append(
            f"j={j}: unhit {len(report.unhit)}/{len(report.hit) + len(report.unhit)}"
            f" at depth {cfg['depth']} (truncated {report.truncated}),"
            f" {len(deeper.unhit)} at depth {cfg['stability_depth']}"
            f" (truncated {deeper.truncated}), {len(missed)} provably missed"
        )
        if not (nonempty and stable and exact):
            ok = False
    _announce(
        7,
        ok,
        f"gamma0 miss scan at N={cfg['N']}, j in {cfg['j_values']}: "
        + "; ".join(details),
    )


def test_gamma0_closure_agrees_with_the_letter_orbit_oracle():
    # miss_scan decides gamma0 at every level prime to S from the cusp orbit
    # of the parity kernel; where every letter is invertible mod the level,
    # criterion 07's oracle closes (1:0) under the letters instead
    compared = missed = 0
    for u2, two_t in [(Fraction(1, 4), 18), (Fraction(6, 11), 6), (Fraction(1, 4), 4),
                      (Fraction(1, 15), 8), (Fraction(1, 16), 8), (Fraction(5, 3), 6),
                      (Fraction(1, 4), Fraction(9, 2)), (Fraction(2, 3), Fraction(11, 2))]:
        g = make_group(u2, two_t)
        for level in range(2, 60):
            if any(gcd(m.det(), level) != 1 for m in g.letters.values()):
                continue
            report = miss_scan(g, GAMMA0, level, 1, depth=2)
            assert report.decided
            assert set(report.unhit) == _gamma0_labels_missed_mod(g, level), (g.name, level)
            compared += 1
            missed += len(report.unhit)
    assert compared > 50 and missed >= 16


# -------------------------------------------------------------------------
# 8. four parity classes among cusp witnesses, no conflicts
# -------------------------------------------------------------------------

def test_criterion_08_four_parity_classes():
    cfg = CASES["parity_run"]
    g = make_group(Fraction(cfg["u2"]), Fraction(cfg["twot"]))
    res = cusp_bfs(g, cfg["depth"])
    tags = set()
    seen_points = {}
    ok = not res.truncated
    for rec in res.records:
        tags.add(rec.parity_tag)
        if parity(rec.witness) != rec.parity_tag:
            ok = False
        if seen_points.setdefault(rec.point, rec.parity_tag) != rec.parity_tag:
            ok = False
    ok = ok and tags == {(0, 0), (0, 1), (1, 0), (1, 1)}
    _announce(
        8,
        ok,
        f"depth-{cfg['depth']} enumeration of {len(res.records)} cusps realizes "
        f"exactly the parity tags {sorted(tags)} with no conflicts",
    )


# -------------------------------------------------------------------------
# 9. ball-trace identity on random triples, exact
# -------------------------------------------------------------------------

def test_criterion_09_ball_trace_identity():
    cfg = CASES["ball_trace_run"]
    rng = random.Random(cfg["seed"])
    bound = cfg["bound"]
    ok = True
    for _ in range(cfg["count"]):
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        m = Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
        k = rng.randint(-bound, bound)
        if not ball_trace_contains(x, m, x + k * m):
            ok = False
        if ball_trace_contains(x, m, x + k * m + m / 2):
            ok = False
    _announce(9, ok, f"{cfg['count']} seeded triples satisfy the trace identity")


# -------------------------------------------------------------------------
# 10. byte-identical structured reports on re-runs
# -------------------------------------------------------------------------

REPRO_COMMANDS = [
    ["classify", "--u2", "6/11", "--twot", "6", "--special-budget", "6"],
    ["classify", "--u2", "1/4", "--twot", "4", "--special-budget", "2"],
    ["probe", "adelic", "--u2", "1", "--twot", "6", "--x", "1/3", "--m", "9",
     "--depth", "8"],
    ["probe", "padic", "--u2", "6/11", "--twot", "6", "--y", "1/4",
     "--targets", "7:3", "--depth", "6"],
    ["scan", "congruence", "--u2", "1/4", "--twot", "4", "--flavor", "gamma",
     "--N", "2", "--j", "2", "--depth", "8"],
    ["scan", "special", "--u2", "6/11", "--twot", "6", "--maxlen", "6"],
    ["scan", "mine", "--u2", "1/15", "--twot", "4", "--primes", "3,5",
     "--depth", "4", "--seed", "5"],
]


def test_criterion_10_reproducibility(capsys):
    def run(argv):
        code = cli_main(argv + ["--format", "structured"])
        out = capsys.readouterr().out
        report = json.loads(out)
        del report["timing_ms"]
        return code, json.dumps(report, indent=2)

    ok = True
    for argv in REPRO_COMMANDS:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        if not (code1 == code2 and out1 == out2):
            ok = False
    with capsys.disabled():
        _announce(
            10,
            ok,
            f"{len(REPRO_COMMANDS)} commands re-ran byte-identically "
            f"(timing field excluded)",
        )
