"""Smoke test of the end-to-end benchmark (not part of tier-1: pytest's
``testpaths`` is ``tests``; run with ``pytest benchmarks/e2e``)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from catalog import WORKLOADS, plan, zipf_quotas  # noqa: E402


def test_quick_run_emits_exactly_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(WORKLOADS)
    for workload, metrics in result["metrics"].items():
        assert set(metrics) == declared, workload
        assert metrics["bench.fail_ratio"]["value"] == 0
        for name in ("setup_s", "e2e_s", "vcycles_per_s", "peak_rss_mb"):
            assert metrics[name]["value"] > 0, (workload, name)
        if WORKLOADS[workload].warm:
            assert metrics["compiler.cache_misses"]["value"] == 0


def test_plan_depends_on_the_seed_and_on_nothing_else():
    for workload in WORKLOADS.values():
        once = json.dumps(plan(workload, 5), sort_keys=True)
        again = json.dumps(plan(workload, 5), sort_keys=True)
        assert once == again
    for name in ("cold-oneshot", "serve-closed"):
        workload = WORKLOADS[name]
        assert plan(workload, 5) != plan(workload, 6)
        # ...but the work is the same multiset on every seed.
        assert sorted(plan(workload, 5)["ops"]) \
            == sorted(plan(workload, 6)["ops"])
    serve = WORKLOADS["serve-closed"]
    for seed in (5, 6):
        jobs = [op for tenant in plan(serve, seed)["tenants"]
                for op in tenant["jobs"]]
        assert len(jobs) == serve.jobs
        assert plan(serve, seed)["quotas"] == dict(
            zip(serve.ops, zipf_quotas(len(serve.ops), serve.jobs)))


def test_zipf_quotas_are_a_fixed_skewed_multiset():
    quotas = zipf_quotas(8, 400)
    assert sum(quotas) == 400
    assert quotas == sorted(quotas, reverse=True) and quotas[0] > 100
