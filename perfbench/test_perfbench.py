"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They run a few of the cheapest commands; the end-to-end test makes one
short benchmark run of about ten seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts the repository's src/ on sys.path)
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from cqtcheck import cli, presentation, tensor  # noqa: E402

SLQ2_AT_1 = workloads.WORKLOADS["specialized"][0]
MOR_AT_1 = workloads.WORKLOADS["specialized"][4]


def _verdict(cmd, code, text):
    return workloads.parse_verdict(cmd.kind, code, text)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_commands_are_the_documented_ones():
    assert SLQ2_AT_1.argv() == ["check", "builtin:slq2", "--eval", "t=1"]
    assert MOR_AT_1.argv() == ["mor", "builtin:slq2", "w w w", "w w w",
                               "--depth", "3", "--eval", "t=1"]
    assert [len(c) for c in workloads.WORKLOADS.values()] == [6, 18, 2]


def test_real_output_matches_expected_verdicts():
    for cmd in (SLQ2_AT_1, MOR_AT_1):
        code, text = child.run_command(cmd)
        assert _verdict(cmd, code, text) == cmd.expect


def test_wrong_tally_is_a_failure():
    code, text = child.run_command(SLQ2_AT_1)
    assert "CT candidates: 2" in text
    wrong = text.replace("CT candidates: 2", "CT candidates: 3")
    got = [[v.exit, v.tallies, v.mor_dim, v.poincare]
           for v in (_verdict(SLQ2_AT_1, code, text),
                     _verdict(SLQ2_AT_1, code, wrong))]
    assert run.check_verdicts([SLQ2_AT_1] * 2, got) == [SLQ2_AT_1.label()]


def test_wrong_mor_dimension_is_a_failure():
    code, text = child.run_command(MOR_AT_1)
    wrong = text.replace("witnessed dimension 5", "witnessed dimension 4")
    v = _verdict(MOR_AT_1, code, wrong)
    assert run.check_verdicts([MOR_AT_1], [[v.exit, v.tallies, v.mor_dim,
                                            v.poincare]]) == [MOR_AT_1.label()]


def test_error_exit_is_a_failure():
    cmd = workloads.Command("check", "builtin:no-such-datum",
                            workloads.Verdict(0))
    code, text = child.run_command(cmd)
    assert code == 2
    assert run.check_verdicts([cmd], [[code, None, None, None]]) == [cmd.label()]


def test_pass_samples_the_host_during_every_command():
    wall, results, times, probes = child.run_pass([SLQ2_AT_1, MOR_AT_1])
    assert len(results) == len(times) == len(probes) == 2
    assert wall == sum(times) and all(p > 0 for p in probes)
    assert run.at_reference(3.0, 2 * run.REFERENCE_PROBE_S) == 1.5


def test_sampler_leaves_the_probes_out():
    with child.HostSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.2:
            pass
    # the loop's own clock runs on through the two probes inside it
    assert 1.0 < sampler.seconds < 1.2
    low, high = sorted([sampler.probe_s, child.host_probe()])
    assert high / low < 3


@pytest.fixture
def traced_pass():
    sampler = child.HostSampler()
    tr = tracer.Tracer(clock=sampler.clock)
    original_kron = tensor.kron
    layers.install(tr)
    try:
        # wrapped in every namespace that imported the function by name
        assert presentation.kron is not original_kron
        assert cli.saturate is not presentation.saturate.__wrapped__
        wall, results, _, probes = child.run_pass([SLQ2_AT_1, MOR_AT_1], tr,
                                                  sampler)
    finally:
        tr.uninstall()
    assert tensor.kron is original_kron and presentation.kron is original_kron
    assert len(probes) == 1 and sampler.paused > 0
    assert wall == pytest.approx(sampler.seconds, rel=1e-3)
    return tr, wall, results


def test_self_times_add_up_to_traced_wall(traced_pass):
    tr, wall, results = traced_pass
    m = layers.metrics(tr)
    self_sum = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert m["trace.wall_s"] == wall
    assert self_sum == pytest.approx(wall, rel=1e-9)
    assert all(m[f"{layer}.self_s"] >= 0 for layer in layers.LAYERS)


def test_traced_counts(traced_pass):
    tr, _, results = traced_pass
    m = layers.metrics(tr)
    assert [code for code, _ in results] == [0, 0]
    assert m["presentation.saturate.calls"] == 2
    assert m["cqt.classify.candidates"] == 2  # L1..L4 merge pairwise at q = 1
    assert m["dsl.parse.calls"] == 0
    assert m["scalars.mul.calls"] > 0 and m["tensor.matmul.calls"] > 0
    assert 0 < m["tensor.matmul.density"] < 1
    assert len(tr.spans) > 0
    assert {s[1] for s in tr.spans} >= {"bench.pass", "cli.dispatch", "cli.mor"}
    assert "tensor.entry" not in {s[1] for s in tr.spans}


def test_recursive_calls_are_timed_once():
    tr = tracer.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tr.timed("x.fact", fact)
    with tr.span("bench.pass"):
        assert wrapped(5) == 120
    assert tr.calls["x.fact"] == 5
    assert [s[1] for s in tr.spans] == ["x.fact", "bench.pass"]


def test_metric_names_match_benchmark_json(traced_pass):
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    traced = set(layers.metrics(traced_pass[0])) | {"trace.overhead_ratio"}
    assert traced == {m["name"] for m in spec["per_layer"]}


def test_run_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "specialized",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 18
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_share 0 ratio") for line in lines)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
