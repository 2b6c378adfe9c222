#!/usr/bin/env python3
"""The GECCO job benchmark: run one workload, check it, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload manifest --seed 1 --seconds 10 --trace 0

Workloads: ``manifest``, ``collection-exh``, ``big-log-xes`` and
``manifest-pool2`` (see :mod:`perfbench.workloads` and BENCHMARK.json).
A run sets the workload up at least three times (``setup_s`` is the
median), then runs whole passes over its jobs, then checks every job's
output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
passes once untraced and once more with every layer's public functions
wrapped in spans (:mod:`perfbench.trace`), and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run
also writes a record, stamped with the host fingerprint and the git
commit, under ``.perfbench/records/``; compare two records with
``perfbench/compare.py``.

Inputs are written under ``.perfbench/`` and removed at exit; tracked
files are never written.  ``--tiny`` shrinks every workload to seconds,
for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A run sets up at least SETUPS times and for at least SETUP_SECONDS,
#: half before the timed phase and half after it, and reports the median
#: setup time.  The host's speed changes within seconds (setups of one
#: run take either about 35 or about 70 ms on manifest), so sampling two
#: moments steadies the median.
SETUPS = 3
SETUP_SECONDS = 1.5

#: name -> (unit, better, bound); mirrored by BENCHMARK.json.  The
#: timing bounds are wide because the reference host's speed drifts by
#: 10-15% within a minute (a fixed pure-Python loop timed in 5 s windows).
END_TO_END = {
    "jobs_per_s": ("1/s", "higher", 0.25),
    "job_tail_s": ("s", "lower", 0.25),
    "cpu_s_per_job": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "ok_ratio": ("ratio", "higher", 0.01),
    "setup_s": ("s", "lower", 0.25),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("manifest", "collection-exh", "big-log-xes", "manifest-pool2"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped worker."""
    peaks = (
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return max(peaks) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(latencies: list[float]) -> dict:
    """The latency at the highest percentile with 10 samples beyond it.

    That is the ``1 - 10/n`` quantile: the midpoint between the 11th and
    the 10th slowest of ``n`` samples, so that one job's noise moves it
    half as much.  With 10 samples or fewer no percentile has 10 beyond;
    the maximum is reported and the output says so.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return {
            "value": ordered[-1] if ordered else 0.0,
            "percentile": 100.0,
            "samples": count,
            "beyond": 0,
        }
    return {
        "value": (ordered[-11] + ordered[-10]) / 2,
        "percentile": 100.0 * (count - 10) / count,
        "samples": count,
        "beyond": 10,
    }


def phase_summary(results) -> dict:
    samples = [sample for result in results for sample in result.samples]
    completed = [sample for sample in samples if sample.ok]
    wall = sum(result.wall_s for result in results)
    cpu = sum(result.cpu_s for result in results)
    capacity = sum(result.workers * result.wall_s for result in results)
    return {
        "samples": samples,
        "completed": len(completed),
        "jobs_per_s": len(completed) / wall if wall else 0.0,
        "cpu_s_per_job": cpu / len(completed) if completed else 0.0,
        "latencies": [sample.latency for sample in completed],
        "busy_share": (
            sum(sample.steps_s for sample in completed) / capacity if capacity else 0.0
        ),
        "warm_pass_s": sum(result.warm_s for result in results) / len(results),
    }


def run(args, workdir: Path) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; return its record and log."""
    from perfbench import checks, trace, workloads
    from perfbench.compare import git_commit, host_fingerprint

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    passes = workload.passes(args.seconds, traced=bool(args.trace))
    pools = passes * (1 + args.trace) if workload.uses_pool else 0
    scratch = workdir / f"inputs-{args.workload}-{os.getpid()}"
    setup_times, inputs, reference = [], None, {}

    def set_up(seconds: float) -> None:
        """Set up again until SETUPS setups and ``seconds`` of them are done."""
        nonlocal inputs, reference
        while len(setup_times) < SETUPS or sum(setup_times) < seconds:
            if inputs is not None:
                workload.close(inputs)
            directory = scratch / f"setup{len(setup_times)}"
            directory.mkdir(parents=True, exist_ok=True)
            started = time.perf_counter()
            inputs = workload.setup(args.seed, directory, pools)
            reference = checks.load_reference(args.workload)
            setup_times.append(time.perf_counter() - started)

    try:
        set_up(SETUP_SECONDS / 2)
        if args.seed != workloads.DEFAULT_SEED:
            expected = {}
        elif args.tiny:
            expected = {j.job_id: reference[j.job_id] for j in inputs.jobs if j.job_id in reference}
        else:
            expected = {j.job_id: reference.get(j.job_id) for j in inputs.jobs}
        digests = bool(expected) or bool(args.trace)

        gc.collect()
        untraced = [workload.run_pass(inputs, None, digests) for _ in range(passes)]
        peak_mb = peak_rss_mb()
        traced, spans = [], []
        if args.trace:
            recorder = trace.SpanRecorder()
            gc.collect()
            with trace.installed(recorder):
                traced = [workload.run_pass(inputs, recorder, digests) for _ in range(passes)]
            spans = recorder.finished()

        logs = {}

        def read_log(job):
            if job.log_name not in logs:
                logs[job.log_name] = workloads.read_log(inputs.paths[job.log_name])
            return logs[job.log_name]

        samples = [sample for result in untraced + traced for sample in result.samples]
        outcomes = [outcome for sample in samples for outcome in sample.outcomes]
        failures = checks.check_outcomes(outcomes, inputs.jobs, read_log, expected)
        if not args.trace:
            set_up(SETUP_SECONDS)
    finally:
        if inputs is not None:
            workload.close(inputs)
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(
        1 for sample in samples if any(o.job_id in failures for o in sample.outcomes)
    )
    plain = phase_summary(untraced)
    latency_tail = tail(plain["latencies"])
    if args.trace:
        spanned = phase_summary(traced)
        values = trace.layer_metrics(
            spans,
            jobs=spanned["completed"],
            busy_share=spanned["busy_share"],
            warm_pass_s=spanned["warm_pass_s"],
            trace_overhead=(
                1.0 - spanned["jobs_per_s"] / plain["jobs_per_s"]
                if plain["jobs_per_s"]
                else 0.0
            ),
        )
        units = {name: unit for name, (unit, _better, _moves) in trace.LAYER_METRICS.items()}
    else:
        values = {
            "jobs_per_s": plain["jobs_per_s"],
            "job_tail_s": latency_tail["value"],
            "cpu_s_per_job": plain["cpu_s_per_job"],
            "peak_rss_mb": peak_mb,
            "ok_ratio": 1.0 - failed / len(samples),
            "setup_s": statistics.median(setup_times),
        }
        units = {name: unit for name, (unit, _better, _bound) in END_TO_END.items()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host_fingerprint(),
        "commit": git_commit(ROOT),
        "passes": passes,
        "jobs_per_pass": len(inputs.jobs),
        "setup_s": setup_times,
        "correct": not failures,
        "attempted": len(samples),
        "failed": failed,
        "failed_ratio": failed / len(samples),
        "failures": failures,
        "job_tail": latency_tail,
        "latencies": {},
        "metrics": metrics,
    }
    for sample in plain["samples"]:
        record["latencies"].setdefault(sample.label, []).append(sample.latency)
    if args.trace:
        record["layers"] = {
            name: {"unit": unit, "better": better, "moves": moves}
            for name, (unit, better, moves) in trace.LAYER_METRICS.items()
        }
        record["self_times"] = trace.self_times(spans)
        record["spans"] = [asdict(span) for span in spans]

    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={passes} jobs/pass={len(inputs.jobs)} commit={record['commit']}",
        "host " + json.dumps(record["host"], sort_keys=True),
    ]
    lines += [
        f"job {label} latency_s " + " ".join(f"{latency:.6f}" for latency in latencies)
        for label, latencies in record["latencies"].items()
    ]
    lines.append(
        f"job_tail_s = p{latency_tail['percentile']:.1f} of {latency_tail['samples']} "
        f"samples ({latency_tail['beyond']} beyond) = {latency_tail['value']:.6f} s"
    )
    lines.append(f"failed_ratio = {failed}/{len(samples)} = {failed / len(samples)}")
    lines += [f"FAILED {job_id}: {reason}" for job_id, reason in failures.items()]
    if args.trace:
        lines += [
            f"self_time {name} calls={row['calls']} total_s={row['total_s']:.6f} "
            f"self_s={row['self_s']:.6f}"
            for name, row in sorted(record["self_times"].items())
        ]
    lines += [
        f"{name} = {metric['value']!r} {metric['unit']}" for name, metric in metrics.items()
    ]
    return record, lines


def main(argv=None, workdir: Path | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; "
            "run the benchmark from a full checkout",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    workdir = workdir or ROOT / ".perfbench"
    record, lines = run(args, workdir)
    records = workdir / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record), encoding="utf-8")
    for line in lines:
        print(line)
    print(f"record {path}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
