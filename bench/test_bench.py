"""Tests of the benchmark itself: input generator, oracle, tracer and output.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import workloads
from workloads import CANDIDATES, ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

from lamprigid import cli, jsonio  # noqa: E402
from lamprigid.fppoly import FpPoly  # noqa: E402
from lamprigid.laurent_modules import decompose  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

ORACLE = workloads.load_oracle()
DISGUISED = WORKLOADS["certify-disguised"]


def _texts(seed: int) -> dict[str, str]:
    return {c.candidate: c.argv[1] for c in workloads.build_calls(DISGUISED, seed, ORACLE)}


def test_disguise_is_reproducible():
    assert _texts(3) == _texts(3)


def test_other_seed_other_presentation_same_invariants():
    first, second = _texts(3), _texts(4)
    for name in CANDIDATES:
        assert first[name] != second[name]
        bundled = decompose(jsonio.parse_candidate(workloads.load_bundled(name)).presentation)
        for text in (first[name], second[name]):
            candidate = json.loads(text)
            assert candidate["presentation"]["generators"] == workloads.DISGUISE_GENERATORS
            dec = decompose(jsonio.parse_candidate(candidate).presentation)
            assert dec == bundled
            assert jsonio.decomposition_to_json(dec) == {
                k: v for k, v in ORACLE["8"][name]["decomposition"].items()
                if k != "torsion_orders"}


@pytest.mark.parametrize("bound", sorted(ORACLE))
def test_oracle_matches_documented_outcomes(bound):
    entries = ORACLE[bound]
    for name in ("free_rank1", "free_rank2_p3", "mixed_free_torsion"):
        assert entries[name]["exit_code"] == 0 and entries[name]["certified"] is True
        assert entries[name]["qu_comparison"]["equal"] is True
    torsion = entries["torsion_only"]
    assert torsion["exit_code"] == 1 and torsion["failed_stage"] == "rank_check"
    assert torsion["qu_comparison"]["witness"]["class"]["order"] == 8


def test_bundled_workloads_send_the_bundled_candidates():
    for name in ("certify-b8", "certify-b16"):
        calls = workloads.build_calls(WORKLOADS[name], 7, ORACLE)
        assert [c.candidate for c in calls] == list(CANDIDATES)
        for call in calls:
            assert json.loads(call.argv[1]) == workloads.load_bundled(call.candidate)
            assert call.argv[3] == str(WORKLOADS[name].qu_bound)


def test_speed_sampler_ticks_in_the_measuring_thread_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.took) >= 2 and 0 < sampler.spent < end - start
    ref = sampler.reference_between(start, end)
    assert min(sampler.took) <= ref <= max(sampler.took)
    assert speed.scaled(2.0, ref) == pytest.approx(2.0 * speed.REFERENCE_S / ref)


def test_oracle_rejects_a_wrong_answer():
    expected = ORACLE["8"]["torsion_only"]
    report = {"certified": True, "failed_stage": None,
              "decomposition": expected["decomposition"],
              "qu_comparison": expected["qu_comparison"]}
    assert workloads.check_call(expected, 0, json.dumps(report)) is not None
    assert workloads.check_call(expected, 1, "not json") is not None


def test_tracer_counts_every_wrapped_name_and_keeps_report_bytes():
    _, calls, expected = run.setup(DISGUISED, seed=1)
    loop = run.Loop(cli, calls, expected)
    loop.run(0)
    reference = dict(loop.reports)
    originals = (cli.main, cli.certify, FpPoly.__dict__["__rmul__"])
    tr = tracer.Tracer()
    tr.install()
    try:
        loop.run(0, tracer=tr, reference=reference)
    finally:
        tr.uninstall()
    assert loop.failures == []
    assert (cli.main, cli.certify, FpPoly.__dict__["__rmul__"]) == originals
    summary = tr.summary()
    for layer, span, *_ in tracer.SPANS:
        assert summary.calls[f"{layer}.{span}"] > 0, span
    for layer, counter, *_ in tracer.COUNTERS:
        assert tr.counters[f"{layer}.{counter}"][0] > 0, counter


def test_snf_calls_per_request_on_disguised():
    _, calls, expected = run.setup(DISGUISED, seed=2)
    loop = run.Loop(cli, calls, expected)
    tr = tracer.Tracer()
    tr.install()
    try:
        loop.run(0, tracer=tr)
    finally:
        tr.uninstall()
    per_request = tr.summary().calls_by_request
    for request, call in enumerate(calls):
        snfs = per_request[request]["polymatrix.smith_normal_form"]
        assert snfs == (3 if call.candidate == "torsion_only" else 7)


def _result_line(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = _result_line(ROOT, "--workload", "certify-disguised", "--seed", "5",
                        "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = _result_line(tmp_path, "--workload", "certify-disguised", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
