"""Self-test of the benchmark at a tiny size.

Runs every workload shrunk to a second or two, untraced and traced, and
checks that each named metric is printed with its unit, that the
outputs pass the benchmark's own checks, and that a traced job's
top-level spans do not exceed its wall-clock time.  It also feeds the
checks wrong outputs, which they must reject.  All files go to a
temporary directory.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.constraints import ConstraintSet, MaxGroupSize
from repro.core.gecco import Gecco, GeccoConfig
from repro.datasets import running_example_log

from perfbench import checks, run, trace, workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["workloads"] == [
        {"name": workload.name, "why": workload.why}
        for workload in workloads.WORKLOADS.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in run.END_TO_END.items()
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _moves) in trace.LAYER_METRICS.items()
    ]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(value) for value in range(1, 41)]) == {
        "value": 30.5, "percentile": 75.0, "samples": 40, "beyond": 10,
    }
    assert run.tail([3.0, 1.0, 2.0]) == {
        "value": 3.0, "percentile": 100.0, "samples": 3, "beyond": 0,
    }


def test_checks_reject_wrong_outputs():
    log = running_example_log()
    constraints = ConstraintSet([MaxGroupSize(3)])
    config = GeccoConfig()
    good = workloads.Outcome.of("re", Gecco(constraints, config).abstract(log))
    assert checks.check_grouping(good, log, constraints, config) is None
    for wrong in (
        replace(good, groups=good.groups[1:]),
        replace(good, groups=(tuple(sorted(log.classes)),)),
        replace(good, distance=good.distance + 0.5),
    ):
        assert checks.check_grouping(wrong, log, constraints, config) is not None

    job = workloads.Job("re", "re", constraints, config)
    failures = checks.check_outcomes(
        [good, replace(good, distance=good.distance + 0.5)], [job], lambda job: log, {}
    )
    assert "differ" in failures["re"]
    failures = checks.check_outcomes(
        [replace(good, digest="a")], [job], lambda job: log, {"re": "b"}
    )
    assert "reference" in failures["re"]
    assert checks.check_outcomes([good, good], [job], lambda job: log, {}) == {}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_tiny_run(workload, traced, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1"]
    assert run.main([*argv, "--trace", str(traced), "--tiny"], workdir=tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    section = "per_layer" if traced else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
        ), name

    if traced:
        (record_line,) = [line for line in lines if line.startswith("record ")]
        record = json.loads(Path(record_line.split(" ", 1)[1]).read_text(encoding="utf-8"))
        spans = [trace.Span(**span) for span in record["spans"]]
        children = trace.children_of(spans)
        roots = trace.job_roots(spans)
        assert len(roots) == record["attempted"] // 2
        for root in roots:
            top = sum(span.end - span.start for span in children.get(root.id, ()))
            assert top <= root.end - root.start + 1e-9, root.job
