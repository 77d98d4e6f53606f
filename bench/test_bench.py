"""Tests of the benchmark itself (not collected by the package's test suite).

    python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rigidform  # noqa: E402
from rigidform import certificates, cli, scenarios  # noqa: E402
from spans import COUNTERS, Tracer  # noqa: E402
from run import focus, hd_weights, quantiles  # noqa: E402
from workloads import admissibility_problem  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tracer_wraps_every_binding_and_folds_self_time():
    original = certificates.restricted_sym_form
    scn = scenarios.builtin_scenario("fig4-nonpersistent")
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = certificates.restricted_sym_form
        assert wrapped is not original
        assert cli.restricted_sym_form is wrapped and rigidform.restricted_sym_form is wrapped
        certificates.persistence_check(scn.orientation, 2, seed=12345)
        spans = list(tracer.spans)
        totals = defaultdict(int)
        tracer.fold(totals)
    finally:
        tracer.uninstall()
    assert certificates.restricted_sym_form is original and cli.restricted_sym_form is original

    root = spans[0]
    assert root[0] == "certificates.persistence_check" and root[3] == -1
    children = [s for s in spans if s[3] == 0]
    assert children and all(s[0] == "rigidity.is_generically_rigid" for s in children)
    busy = sum(end - start for _, start, end, _, _ in children)
    assert totals["certificates.persistence_check.self_s"] == pytest.approx(root[2] - root[1] - busy)
    assert totals["certificates.persistence.reductions_checked"] == 9
    assert totals["certificates.persistence.rigidity_tests"] == len(children)
    assert totals["rigidity.generic_rank.misses"] == totals["rigidity.generic_rank.calls"]


def test_pinned_admissibility_allows_one_ill_conditioned_sample():
    good, weak = (0.5, 2.0, True, 0.5), (1e-9, 2.0, False, 1e-9)
    passed = ("pass", 1e-7, [good] * 5)
    one_weak = ("fail", 1e-7, [weak] + [good] * 4)
    two_weak = ("fail", 1e-7, [weak] * 2 + [good] * 3)
    assert admissibility_problem("directed", (passed, passed), expect_pass=True) is None
    assert admissibility_problem("directed", (one_weak, passed), expect_pass=True) is None
    assert "2 of 5" in admissibility_problem("directed", (two_weak, passed), expect_pass=True)
    assert admissibility_problem("directed", (two_weak, passed)) is None
    assert "algebraic failed" in admissibility_problem("directed", (passed, one_weak))


def test_percentiles_weigh_the_ops_near_their_rank():
    weights = hd_weights(63, 0.5)
    assert weights.sum() == pytest.approx(1.0) and int(weights.argmax()) == 31
    best = [0.01 * (k + 1) for k in range(63)]
    p50, tail, percentile, p50_op, tail_op = quantiles(best)
    assert (p50_op, tail_op) == (31, 52) and percentile == pytest.approx(100 * 53 / 64)
    assert p50 == pytest.approx(best[31]) and abs(tail - best[52]) < 0.005
    passes = focus(best)
    assert {31, 52} <= set(passes) and 62 not in passes and 0 not in passes
    assert passes.count(26) == round(best[52] / best[26]) and passes.count(52) == 1


@pytest.mark.parametrize("workload", ["builtin-cli", "large-formation", "certify"])
def test_counts_repeat_on_one_seed(workload):
    results = []
    for _ in range(2):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append(result["metrics"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(results[0]) == {m["name"] for m in spec["per_layer"]}
    counts = [name for name in results[0] if name.endswith(".calls")] + list(COUNTERS)
    for name in counts:
        assert results[0][name]["value"] == results[1][name]["value"], name


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
