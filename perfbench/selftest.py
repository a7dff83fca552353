"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

They run every workload through the launcher and check the output format
against BENCHMARK.json, that a seed fixes the inputs, that traced counts
repeat exactly, and that the benchmark refuses to run without the source
tree.  The file is not named test_*.py, so the repository's own test run
does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def launch(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_launcher():
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_is_correct(workload):
    res = last_json(launch(workload, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["pass_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = last_json(launch("suite-all", trace=1))
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", NAMES)
def test_seed_fixes_inputs(workload):
    make_inputs = workloads.WORKLOADS[workload][0]
    assert repr(make_inputs(5, True)) == repr(make_inputs(5, True))
    assert repr(make_inputs(5, True)) != repr(make_inputs(6, True))


def traced_pass(workload, tmp_path):
    make_inputs, run, check = workloads.WORKLOADS[workload]
    inputs = make_inputs(7, True)
    t = tracer.Tracer().install()
    try:
        outputs = run(inputs, str(tmp_path))
    finally:
        t.uninstall()
    assert check(inputs, outputs).failed == 0
    return tracer.layer_metrics(t)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(workload, tmp_path):
    first = traced_pass(workload, tmp_path)
    second = traced_pass(workload, tmp_path)
    assert tracer.exact_counts(first) == tracer.exact_counts(second)
    assert any(tracer.exact_counts(first).values())


def test_pushout_does_no_polynomial_products(tmp_path):
    m = traced_pass("pushout-classify", tmp_path)
    assert m["numeric.poly_mul.calls"] == 0
    assert m["fatou_bieberbach.omega_membership.calls"] > 0


def test_pool_thread_spans_are_children_of_the_experiment(tmp_path):
    # verify_disk_estimate runs on a ThreadPoolExecutor worker inside
    # run_experiment; its time must not count as experiment self time
    m = traced_pass("suite-all", tmp_path)
    assert m["obstacle.verify_disk_estimate.calls"] > 0
    assert m["experiment.self_s"] <= (m["experiment.run_experiment.s"]
                                      - m["obstacle.verify_disk_estimate.s"])


def test_untraced_pass_installs_nothing():
    from contactfb import numeric, obstacle
    before = (numeric.CPolynomial.__mul__, obstacle.certify_avoidance)
    t = tracer.Tracer().install()
    assert numeric.CPolynomial.__mul__ is not before[0]
    t.uninstall()
    assert (numeric.CPolynomial.__mul__, obstacle.certify_avoidance) == before


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = launch("lemma-sampler", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
