"""Scaling behavior: runtime vs. log width and length (§V-B complexity).

The paper analyzes worst-case complexity (Alg. 1 exponential in |C_L|,
Alg. 2 bounded by ``k * |C_L|^2``).  These benches measure the actual
growth on synthetic logs: candidate-computation time as the class
count and the trace count grow, for the exhaustive and the DFG-based
instantiations.
"""

import time

from conftest import write_result

from repro.core.candidates import exhaustive_candidates
from repro.core.dfg_candidates import default_beam_width, dfg_candidates
from repro.datasets.attributes import enrich_log
from repro.datasets.playout import playout
from repro.datasets.process_tree import TreeSpec, random_tree
from repro.experiments.configs import constraint_set_for_log
from repro.experiments.tables import format_table


def _make_log(num_classes: int, num_traces: int, seed: int = 42):
    tree = random_tree(TreeSpec(num_activities=num_classes), seed=seed)
    return enrich_log(playout(tree, num_traces, seed=seed), seed=seed)


def test_scaling_with_classes(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows, seconds = [], []
    for num_classes in (6, 8, 10, 12, 14):
        log = _make_log(num_classes, 40)
        constraints = constraint_set_for_log("BL1", log)

        started = time.perf_counter()
        exhaustive = exhaustive_candidates(log, constraints, timeout=60)
        exhaustive_seconds = time.perf_counter() - started

        started = time.perf_counter()
        beamed = dfg_candidates(
            log, constraints, beam_width=default_beam_width(log)
        )
        beamed_seconds = time.perf_counter() - started

        rows.append([num_classes, len(exhaustive.groups), len(beamed.groups)])
        seconds.append((exhaustive_seconds, beamed_seconds))
    rendered = format_table(
        ["|CL|", "Exh cands", "DFGk cands"],
        rows,
        title="Scaling with the number of event classes (40 traces)",
    )
    write_result("scaling_classes.txt", rendered)
    print("\n" + rendered)
    print("seconds (Exh, DFGk):", [tuple(round(t, 3) for t in pair) for pair in seconds])

    # The DFG-based approach must scale gentler than the exhaustive one
    # at the widest point.
    exhaustive_seconds, beamed_seconds = seconds[-1]
    assert round(beamed_seconds, 3) <= round(exhaustive_seconds, 3) + 0.5


def test_scaling_with_traces(benchmark):
    rows, seconds = [], []
    for num_traces in (25, 50, 100, 200):
        log = _make_log(10, num_traces)
        constraints = constraint_set_for_log("A", log)
        started = time.perf_counter()
        result = dfg_candidates(
            log, constraints, beam_width=default_beam_width(log)
        )
        seconds.append(round(time.perf_counter() - started, 3))
        rows.append([num_traces, len(result.groups)])
    rendered = format_table(
        ["traces", "DFGk cands"],
        rows,
        title="Scaling with the number of traces (10 classes, set A)",
    )
    write_result("scaling_traces.txt", rendered)
    print("\n" + rendered)
    print("seconds:", seconds)

    log = _make_log(10, 50)
    constraints = constraint_set_for_log("A", log)
    benchmark.pedantic(
        dfg_candidates,
        args=(log, constraints),
        kwargs={"beam_width": default_beam_width(log)},
        rounds=3,
        iterations=1,
    )
