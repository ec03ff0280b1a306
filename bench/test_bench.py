"""Tests of the benchmark itself: seeded inputs, and checks that fail
when the library gives a wrong answer."""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from fusscat import brackets, canonical, cone
from fusscat.caps import SearchCapExceeded

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_jobs(workload):
    first = workloads.make_jobs(workload, 7)
    assert first == workloads.make_jobs(workload, 7)
    assert first[:200] != workloads.make_jobs(workload, 8)[:200]


def _failures(jobs):
    checker = workloads.Checker()
    out = []
    for job in jobs:
        try:
            answer, error = workloads.execute(job), None
        except Exception as exc:
            answer, error = None, exc
        out.append(checker.failure(job, answer, error))
    return out


def test_real_answers_pass():
    jobs = [j for w in ("brackets", "cone-census", "canonical-hilbert")
            for j in workloads.make_jobs(w, 3)[:40]]
    assert _failures(jobs) == [None] * len(jobs)


def test_wrong_bracket_is_a_failure(monkeypatch):
    gfc = brackets.gfc

    def off_by_one(n, t, p, method="det", max_volume=None):
        value = gfc(n, t, p, method, max_volume)
        return value + 1 if method == "dp" else value

    monkeypatch.setattr(brackets, "gfc", off_by_one)
    jobs = workloads.make_jobs("brackets", 3)[:20]
    assert all(_failures(jobs))


def test_dropped_normal_is_a_failure():
    job = ("census", (1, 1), (1, 1))
    report = workloads.execute(job)
    assert workloads.Checker().failure(job, report, None) is None
    dropped = dict(report, normal_count=report["normal_count"] - 1)
    assert workloads.Checker().failure(job, dropped, None)


def test_search_cap_is_a_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise SearchCapExceeded(10, 1)

    monkeypatch.setattr(canonical, "minimal_generators_search", refuse)
    jobs = [j for j in workloads.make_jobs("canonical-hilbert", 3) if j[0] == "search"][:3]
    reasons = _failures(jobs)
    assert all(r.startswith("SearchCapExceeded") for r in reasons)


def test_cli_exit_codes_count_only_where_expected():
    checker = workloads.Checker()
    refused = next(j for j in workloads.make_jobs("cli", 1) if j[2] == 2)
    answer = workloads.execute(refused)
    assert answer[0] == 2 and checker.failure(refused, answer, None) is None
    ok = ("cli", ("gfc", "--n", "3", "--t", "1", "--p", "3"), 0, "gfc")
    assert checker.failure(ok, answer, None)
    with_traceback = (2, "", answer[2] + "Traceback (most recent call last):\n")
    assert checker.failure(refused, with_traceback, None)
    invalid = next(j for j in workloads.make_jobs("cli", 1) if j[2] == 1)
    assert checker.failure(invalid, answer, None)


def test_tracer_attributes_rank_calls_and_restores():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.execute(("census", (2, 1), (1, 2)))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert cone.rank_exact.__module__ == "fusscat.exactmat"
    assert metrics["exactmat.rank_exact.calls_from_extreme"] > 0
    assert metrics["exactmat.rank_exact.calls"] == sum(
        metrics[f"exactmat.rank_exact.calls_from_{c}"] for c in ("extreme", "facet", "dimension"))
    assert set(metrics) | {"cli.stdout_bytes", "cli.process_s", "trace.jobs_per_s",
                           "trace.overhead"} == {m for m, _, _ in tracing.PER_LAYER}


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
