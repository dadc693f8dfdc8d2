import ast
import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import fricke
from fricke.cli import EXIT_STDOUT_CLOSED, main
from fricke.congruence import MISS_SCAN_MAX_LEVEL
from fricke.obstruct import MINER_MAX_PRIMES
from fricke.orbitsearch import PADIC_MAX_MODULUS_BITS, SPECIAL_SCAN_MAX_LEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def structured(out):
    report = json.loads(out)
    assert report["tool"] == "fricke"
    return report


def strip_timing(out):
    return "\n".join(
        line for line in out.splitlines() if not line.lstrip().startswith('"timing_ms"')
    )


# ---------------------------------------------------------------- classify

def test_classify_square_family(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--u2", "1/4", "--twot", "4",
        "--special-budget", "2", "--format", "structured",
    )
    assert code == 0
    report = structured(out)
    assert report["result"]["conclusion"] == "not_pseudomodular"
    kinds = {w["kind"] for w in report["result"]["obstructions"]}
    assert "square_obstruction" in kinds


def test_classify_flagship(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--u2", "6/11", "--twot", "6",
        "--special-budget", "12", "--format", "structured",
    )
    assert code == 0
    report = structured(out)
    assert report["result"]["conclusion"] == "not_pseudomodular"
    assert report["result"]["density_all_finite_products"] is True
    kinds = {w["kind"] for w in report["result"]["obstructions"]}
    assert kinds == {"special_point"}
    screen = report["result"]["arithmetic_screen"]
    assert screen == {"status": "not_arithmetic", "witness": "AA", "value": "4489/256"}


def test_classify_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--u2", "1", "--twot", "4")
    assert code == 2
    assert "u2 < t - 1" in err


def test_classify_malformed_rational_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--u2", "x/y", "--twot", "4")
    assert code == 2


def test_classify_negative_special_budget_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--u2", "6/11", "--twot", "6", "--special-budget", "-2",
    )
    assert code == 2
    assert out == ""
    assert "special budget must be >= 0" in err


def test_special_scan_lengths_past_the_cap_exit_2(capsys):
    too_long = str(SPECIAL_SCAN_MAX_LEN + 1)
    for argv in (["classify", "--special-budget", too_long],
                 ["scan", "special", "--maxlen", too_long]):
        code, out, err = run_cli(capsys, *argv, "--u2", "6/11", "--twot", "6")
        assert code == 2
        assert out == ""
        assert "scan length must be in" in err


def test_classify_takes_no_screen_budget(capsys):
    # the screen is decided by AA and BB, so it has no length to bound
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--u2", "1", "--twot", "6", "--screen-budget", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --screen-budget" in capsys.readouterr().err


def test_scan_mine_depth_is_inert(capsys):
    # the miner decides each candidate exactly, so --depth is only echoed
    outs = []
    for depth in ("1", "9", "10"):
        for fmt in ("human", "structured"):
            code, out, err = run_cli(
                capsys, "scan", "mine", "--u2", "1/15", "--twot", "8", "--primes", "3,5",
                "--depth", depth, "--format", fmt,
            )
            assert (code, err) == (0, "")
            outs.append(re.sub(r'"(timing_ms|depth)": \d+', "", out))
    assert outs[0::2] == outs[:1] * 3 and outs[1::2] == outs[1:2] * 3
    assert "xor(neg(v3), neg(v5))" in outs[0]


def test_scan_mine_too_many_primes_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "scan", "mine", "--u2", "1/15", "--twot", "8",
        "--primes", "2,3,5,7,11,13,17", "--depth", "3",
    )
    assert code == 2
    assert out == ""
    assert f"at most {MINER_MAX_PRIMES} distinct primes, got 7" in err


def test_only_orbit_commands_take_cache(capsys):
    # classify, scan special and scan mine enumerate no orbits
    for argv in (["classify"], ["scan", "special", "--maxlen", "2"],
                 ["scan", "mine", "--primes", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--u2", "1/4", "--twot", "4", "--cache", "orbits.cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err


def test_classify_large_semiprime_denominator_finishes():
    # the denominator is 1000000007 * 1000000009; trial division up to its
    # square root took minutes
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run(
        [sys.executable, "-m", "fricke.cli", "classify", "--u2", "1/1000000016000000063",
         "--twot", "8", "--format", "structured"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    kinds = {w["kind"]: w["primes"] for w in structured(proc.stdout)["result"]["obstructions"]}
    assert kinds["two_prime_obstruction"] == [1000000007, 1000000009]


def test_classify_unfactorable_denominator_exit_2(capsys):
    n = 1000000000000037 * 1000000000000091
    code, out, err = run_cli(capsys, "classify", "--u2", f"1/{n}", "--twot", "8")
    assert code == 2
    assert out == ""
    assert f"cannot factor {n}" in err


def test_classify_strong_pseudoprime_denominator_exit_2(capsys):
    # the least strong pseudoprime to the 13 Miller-Rabin bases is composite,
    # so clause (a) applies, and Pollard-Brent cannot split it within the limit
    n = 3317044064679887385961981
    code, out, err = run_cli(capsys, "classify", "--u2", f"1/{n}", "--twot", "6")
    assert code == 2
    assert out == ""
    assert f"cannot factor {n}" in err


# ---------------------------------------------------------------- probes

def test_probe_adelic_found(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "adelic", "--u2", "1", "--twot", "6",
        "--x", "1/3", "--m", "9", "--depth", "8", "--format", "structured",
    )
    assert code == 0
    report = structured(out)
    assert report["result"]["found"] is True


def test_probe_padic_found(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "padic", "--u2", "6/11", "--twot", "6",
        "--y", "1/4", "--targets", "7:3", "--depth", "6", "--format", "structured",
    )
    assert code == 0
    assert structured(out)["result"]["found"] is True


def test_probe_padic_not_found_exit_3(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "padic", "--u2", "1/4", "--twot", "4",
        "--y", "1/2", "--targets", "2:4", "--depth", "6", "--format", "structured",
    )
    assert code == 3
    assert structured(out)["result"]["found"] is False


def test_probe_bad_targets_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "probe", "padic", "--u2", "6/11", "--twot", "6",
        "--y", "1/4", "--targets", "7-3",
    )
    assert code == 2


def test_probe_adelic_zero_modulus_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "probe", "adelic", "--u2", "1", "--twot", "6",
        "--x", "1/3", "--m", "0",
    )
    assert code == 2
    assert "nonzero" in err


# ---------------------------------------------------------------- scans

def test_scan_congruence(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "congruence", "--u2", "1/4", "--twot", "4",
        "--flavor", "gamma", "--N", "2", "--j", "2", "--depth", "8",
        "--format", "structured",
    )
    assert code == 0
    report = structured(out)
    assert report["result"]["unhit"] == ["(1,2) mod 4"]


def test_scan_special_includes_quarter(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "special", "--u2", "6/11", "--twot", "6",
        "--maxlen", "6", "--format", "structured",
    )
    assert code == 0
    points = {entry["point"] for entry in structured(out)["result"]["points"]}
    assert "1/4" in points


def test_scan_mine_finds_xor(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "mine", "--u2", "1/15", "--twot", "8",
        "--primes", "3,5", "--depth", "5", "--format", "structured",
    )
    assert code == 0
    preds = structured(out)["result"]["predicates"]
    assert "xor(neg(v3), neg(v5))" in preds
    # every reported predicate parses back through the grammar
    from fricke.predicates import parse_predicate

    for text in preds:
        assert str(parse_predicate(text)) == text


# ---------------------------------------------------------------- round trips

def test_structured_output_round_trips(capsys):
    _, out, _ = run_cli(
        capsys, "classify", "--u2", "6/11", "--twot", "6",
        "--special-budget", "6", "--format", "structured",
    )
    report = json.loads(out)
    assert json.dumps(report, indent=2) == out.rstrip("\n")


def test_reproducible_structured_output(capsys):
    args = (
        "scan", "mine", "--u2", "1/15", "--twot", "4", "--primes", "3,5",
        "--depth", "4", "--seed", "9", "--format", "structured",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(out1) == strip_timing(out2)


# ---------------------------------------------------------------- cache

def test_cache_flag_reuse(capsys, tmp_path):
    cache = tmp_path / "orbits.cache"
    args = (
        "probe", "padic", "--u2", "6/11", "--twot", "6", "--y", "1/4", "--targets", "7:3",
        "--depth", "5", "--cache", str(cache), "--format", "structured",
    )
    _, out1, _ = run_cli(capsys, *args)
    assert cache.exists()
    size_after_first = cache.stat().st_size
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(out1) == strip_timing(out2)
    # second run resumed from the cache instead of appending a new section
    assert cache.stat().st_size == size_after_first


def test_cache_file_not_ascii_exit_2(capsys, tmp_path):
    cache = tmp_path / "orbits.cache"
    cache.write_bytes(b"\xff\n")
    code, out, err = run_cli(
        capsys, "probe", "padic", "--u2", "6/11", "--twot", "6",
        "--y", "1/4", "--targets", "7:2", "--depth", "3", "--cache", str(cache),
    )
    assert code == 2
    assert out == ""
    assert "cannot read orbit cache" in err


def test_cache_path_is_a_directory_exit_2(capsys, tmp_path):
    # level 3 shares 3 with S = {3}: the scan searches, so it opens the cache
    code, out, err = run_cli(
        capsys, "scan", "congruence", "--u2", "1/4", "--twot", "4",
        "--flavor", "gamma", "--N", "3", "--depth", "3", "--cache", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert "cannot read orbit cache" in err


def test_cache_path_in_missing_directory_exit_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "probe", "adelic", "--u2", "1", "--twot", "6", "--x", "1/3",
        "--m", "9", "--depth", "3", "--cache", str(tmp_path / "missing" / "orbits.cache"),
    )
    assert code == 2
    assert out == ""
    assert "cannot write orbit cache" in err


def test_a_decided_query_leaves_the_cache_alone(capsys, tmp_path):
    # the orbit workload's three (1/4, 4) misses are decided by the cusp
    # orbit mod 8 or mod 4: none reads or writes the cache, even a garbled
    # one, and a cache file that does not exist is not created
    garbled = tmp_path / "garbled.cache"
    garbled.write_bytes(b"#orbit u2=1/4 twot=4 depth=10 budget=20000 truncated=7\n\xff")
    missing = tmp_path / "missing.cache"
    queries = [
        (["probe", "padic", "--u2", "1/4", "--twot", "4", "--y=7/10", "--targets", "2:3",
          "--depth", "12", "--budget", "20000"], 3),
        (["probe", "adelic", "--u2", "1/4", "--twot", "4", "--x=-1/6", "--m", "8",
          "--depth", "10", "--budget", "20000"], 3),
        (["scan", "congruence", "--u2", "1/4", "--twot", "4", "--flavor", "gamma",
          "--N", "2", "--j", "2", "--depth", "10", "--budget", "20000"], 0),
    ]
    for argv, want in queries:
        for path in (garbled, missing):
            code, out, err = run_cli(capsys, *argv, "--cache", str(path), "--format", "structured")
            assert (code, err) == (want, "")
            result = json.loads(out)["result"]
            assert result.get("proven") or result.get("decided")
    assert garbled.read_bytes().endswith(b"truncated=7\n\xff") and not missing.exists()


# ---------------------------------------------------------------- golden output

# One small command line per command with its exit code, human output and
# structured output (timing_ms set to 0), plus the benchmark's two scan mine
# queries (an "id" keeps their test names apart from the smaller case). A
# change that keeps the CLI's behaviour leaves every byte of them unchanged.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
with open(GOLDEN_PATH, encoding="ascii") as fh:
    GOLDEN = json.load(fh)


def _golden_id(case):
    if "id" in case:
        return case["id"]
    words = [w for w in case["argv"][:2] if not w.startswith("--")]
    return "-".join(words + [case["argv"][case["argv"].index("--u2") + 1]])


@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_golden_output(capsys, case):
    for fmt in ("human", "structured"):
        code, out, err = run_cli(capsys, *case["argv"], "--format", fmt)
        if fmt == "structured":
            out = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out)
        assert (code, out, err) == (case["exit"], case[fmt], "")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.skipif(
    shutil.which("fricke") is None, reason="the fricke console script is not on PATH"
)
def test_console_script_is_installed():
    proc = subprocess.run(
        ["fricke", "classify", "--u2", "1/4", "--twot", "4",
         "--special-budget", "2", "--format", "structured"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["conclusion"] == "not_pseudomodular"


def _source_pythonpath():
    # the imported source tree, installed or not
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(fricke.__file__)))
    return os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))


def test_python_dash_m_fricke_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run(
        [sys.executable, "-m", "fricke", "classify", "--u2", "1/4", "--twot", "4",
         "--format", "structured"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert structured(proc.stdout)["result"]["conclusion"] == "not_pseudomodular"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every query is a fresh process, so each module the package imports
    # is paid for on every query
    code = (
        "import sys; before = set(sys.modules); import fricke.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fricke.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_the_cli_loads_every_traced_function_but_not_the_decider():
    # perfbench/tracer.py wraps each (module, function) of its SPANS table,
    # looked up in sys.modules after `import fricke.cli`; invariance is
    # imported only where a set is decided, so orbit queries never compile it
    tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                          "tracer.py")
    with open(tracer, encoding="utf-8") as fh:
        spans = next(node.value for node in ast.parse(fh.read()).body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "SPANS")
    pairs = sorted(ast.literal_eval(spans))
    assert ("orbitsearch", "load_cached_bfs") in pairs
    code = (
        "import json, sys; import fricke.cli; "
        f"print(json.dumps([[m, f] for m, f in {pairs!r} "
        "if not callable(getattr(sys.modules.get('fricke.' + m), f, None))])); "
        "print('fricke.invariance' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    unresolved, decider_loaded = proc.stdout.splitlines()
    assert json.loads(unresolved) == []
    assert decider_loaded == "False"


# every command builds a group, so these layers execute in every query
EAGER_LAYERS = {"fricke", "fricke.cli", "fricke.errors", "fricke.exactnum", "fricke.groups",
                "fricke.words"}


@pytest.mark.parametrize("argv, layers", [
    ([], set()),
    (["probe", "adelic", "--u2", "1", "--twot", "6", "--x", "1/3", "--m", "9", "--depth", "4"],
     {"orbitsearch"}),
    (["scan", "congruence", "--u2", "1/4", "--twot", "4", "--flavor", "gamma", "--N", "2",
      "--depth", "4"], {"congruence", "orbitsearch"}),
    (["classify", "--u2", "1/4", "--twot", "4", "--special-budget", "2"],
     {"obstruct", "predicates", "orbitsearch"}),
    (["scan", "special", "--u2", "6/11", "--twot", "6", "--maxlen", "3"], {"orbitsearch"}),
    (["scan", "mine", "--u2", "1/15", "--twot", "8", "--primes", "3,5"],
     {"obstruct", "predicates", "invariance"}),
], ids=["import-only", "probe", "scan-congruence", "classify", "scan-special", "scan-mine"])
def test_each_command_executes_only_the_layers_it_uses(argv, layers):
    # a lazily registered module is in sys.modules under another type until
    # its code runs, and asking its type does not run it
    code = (
        "import contextlib, io, json, sys, types\n"
        "import fricke.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert fricke.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(m for m, mod in sys.modules.items()\n"
        "                        if m.startswith('fricke') and type(mod) is types.ModuleType)))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fricke'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    executed, registered = map(json.loads, proc.stdout.splitlines())
    assert set(executed) == EAGER_LAYERS | {f"fricke.{m}" for m in layers}
    assert {"fricke.obstruct", "fricke.orbitsearch", "fricke.congruence"} <= set(registered)


@pytest.mark.parametrize("fmt, first", [("human", "group (6/11, 6)\n"), ("structured", "{\n")])
def test_a_reader_closing_stdout_early_gets_no_traceback(fmt, first):
    # the report lists 24,064 unhit labels, some 500 kB, far more than
    # a pipe holds, so writing it fails once the reader has gone
    argv = [sys.executable, "-m", "fricke.cli", "scan", "congruence", "--u2", "6/11",
            "--twot", "6", "--flavor", "gamma", "--N", "256", "--depth", "1", "--format", fmt]
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    assert proc.stdout.readline() == first
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_STDOUT_CLOSED
    assert "Traceback" not in err and "Exception ignored" not in err, err


LEVEL_CAP = f"must be at most {MISS_SCAN_MAX_LEVEL}"
MODULUS_BOUND = (
    f"sum of precision * bit length of prime over the targets must be "
    f"at most {PADIC_MAX_MODULUS_BITS}"
)


@pytest.mark.parametrize("argv, error", [
    (["scan", "congruence", "--flavor", "gamma", "--N", "800"], f"level 800^1 {LEVEL_CAP}"),
    (["scan", "congruence", "--flavor", "gamma0", "--N", "6400"], f"level 6400^1 {LEVEL_CAP}"),
    (["scan", "congruence", "--flavor", "gamma", "--N", "2", "--j", "12"], f"level 2^12 {LEVEL_CAP}"),
    (["scan", "congruence", "--flavor", "gamma", "--N", "2", "--j", "1000000000"],
     f"level 2^1000000000 {LEVEL_CAP}"),
    (["probe", "padic", "--y", "1/4", "--targets", "7:100000", "--depth", "6"],
     f"{MODULUS_BOUND}, got 300000"),
    (["scan", "congruence", "--flavor", "gamma", "--N", "256", "--depth", "10"],
     "227849 records x period 128 = 29164672 translate steps must be at most 4000000"),
], ids=["gamma-800", "gamma0-6400", "gamma-2^12", "gamma-2^1000000000", "padic-7^100000",
        "gamma-256-depth-10"])
def test_large_levels_and_precisions_exit_2_at_once(argv, error):
    # without the caps the gamma scan at level 800 ran for 19 s, the larger
    # levels for longer, the probe ended in a traceback after 9 s, and the
    # level-256 scan at depth 10 labelled for 21 s
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run(
        [sys.executable, "-m", "fricke.cli", *argv, "--u2", "6/11", "--twot", "6"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")


def test_every_export_is_the_defining_modules_object():
    for name in fricke.__all__:
        module = importlib.import_module(f"fricke.{fricke._EXPORTS[name]}")
        obj = getattr(fricke, name)
        assert obj is getattr(module, name), name
        # a function or class is exported from the module that defines it
        if getattr(obj, "__module__", "").startswith("fricke."):
            assert obj.__module__ == module.__name__, name
    assert len(set(fricke.__all__)) == len(fricke.__all__) == 46
    with pytest.raises(AttributeError):
        fricke.reduced_words


def test_exports_follow_a_rebinding_in_their_module(monkeypatch):
    # the benchmark tracer wraps functions by rebinding them in their modules
    from fricke import groups

    assert fricke.make_group is groups.make_group
    monkeypatch.setattr(groups, "make_group", len)
    assert fricke.make_group is len


def test_importing_make_group_loads_no_later_layer():
    code = (
        "import sys; from fricke import make_group; "
        "print(' '.join(m for m in sys.modules if m.startswith('fricke')))"
    )
    env = dict(os.environ, PYTHONPATH=_source_pythonpath())
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fricke.groups" in loaded
    assert not loaded & {"fricke.obstruct", "fricke.predicates", "fricke.congruence", "fricke.cli"}


def test_output_is_independent_of_hash_randomization():
    pythonpath = _source_pythonpath()
    argv = [sys.executable, "-m", "fricke.cli", "scan", "special", "--u2", "6/11",
            "--twot", "6", "--maxlen", "5", "--format", "structured"]
    outs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(strip_timing(proc.stdout))
    assert outs[0] == outs[1]
