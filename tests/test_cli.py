import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import fricke
from fricke.cli import main


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

def test_cache_env_var_and_reuse(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "orbits.cache"
    monkeypatch.setenv("FRICKE_CACHE", str(cache))
    args = (
        "probe", "padic", "--u2", "6/11", "--twot", "6",
        "--y", "1/4", "--targets", "7:3", "--depth", "5", "--format", "structured",
    )
    _, out1, _ = run_cli(capsys, *args)
    assert cache.exists()
    size_after_first = cache.stat().st_size
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(out1) == strip_timing(out2)
    # second run resumed from the cache instead of appending a new section
    assert cache.stat().st_size == size_after_first


def test_cache_flag_overrides_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FRICKE_CACHE", str(tmp_path / "unused.cache"))
    explicit = tmp_path / "explicit.cache"
    run_cli(
        capsys, "probe", "padic", "--u2", "6/11", "--twot", "6",
        "--y", "1/4", "--targets", "7:2", "--depth", "4",
        "--cache", str(explicit),
    )
    assert explicit.exists()
    assert not (tmp_path / "unused.cache").exists()


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
    code, out, err = run_cli(
        capsys, "scan", "congruence", "--u2", "1/4", "--twot", "4",
        "--flavor", "gamma", "--N", "2", "--depth", "3", "--cache", str(tmp_path),
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


# ---------------------------------------------------------------- golden output

# One small command line per command with its exit code, human output and
# structured output (timing_ms set to 0). A change that keeps the CLI's
# behaviour leaves every byte of them unchanged.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
with open(GOLDEN_PATH, encoding="ascii") as fh:
    GOLDEN = json.load(fh)


def _golden_id(case):
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
