"""Differential tests: the compiled engine must equal the Python reference.

The integer-encoded hot path (:mod:`repro.core.encoding`) promises
*identical* outputs, not approximately-equal ones: byte-identical
instances, bitwise-identical Eq. 1 distances, the same candidate sets
from Algorithm 2 (whose beam ordering is distance-sensitive), the same
exclusive merges, and the same final groupings.  This suite checks those
promises on the paper's running example, the loan case study, and the
fuzz logs of ``test_fuzz_pipeline``, across all three instance-splitting
policies.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from test_fuzz_pipeline import log_strategy, variant_strategy

from repro.constraints import (
    AtLeastFraction,
    ConstraintSet,
    MaxDistinctClassAttribute,
    MaxDistinctInstanceAttribute,
    MaxGroupSize,
    MaxInstanceAggregate,
    MinEventsPerClass,
    MinGroupSize,
    MinInstanceAggregate,
)
from repro.core.candidates import exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import default_beam_width, dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.encoding import (
    HAVE_NUMPY,
    CompiledDistanceFunction,
    CompiledInstanceIndex,
    CompiledLog,
)
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.gecco import Gecco, GeccoConfig
from repro.core.instances import POLICIES, InstanceIndex, instances_in_log
from repro.eventlog.events import ROLE_KEY, Event, EventLog, Trace

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _sample_groups(log, max_size=3, limit=400):
    classes = sorted(log.classes)
    combos = [
        frozenset(combo)
        for size in range(1, max_size + 1)
        for combo in itertools.combinations(classes, size)
    ]
    if len(combos) > limit:
        combos = random.Random(20220510).sample(combos, limit)
    return combos


@pytest.fixture(scope="module")
def logs(running_log, loan_log):
    return {"running": running_log, "loan": loan_log}


class TestInstanceParity:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("log_name", ["running", "loan"])
    def test_instances_byte_identical(self, logs, log_name, policy):
        log = logs[log_name]
        compiled = CompiledLog(log)
        for group in _sample_groups(log):
            reference = instances_in_log(log, group, policy=policy)
            got, distinct = compiled.instances(group, policy=policy)
            assert got == reference
            # Byte-identical means plain python ints, not numpy scalars.
            for (trace_index, positions) in got:
                assert type(trace_index) is int
                assert all(type(p) is int for p in positions)
            # The distinct counts match the materialized instances.
            assert distinct == [
                len({log[t][p].event_class for p in positions})
                for t, positions in reference
            ]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gap_limit_parameter(self, running_log, policy):
        compiled = CompiledLog(running_log)
        for gap_limit in (0, 1, 2):
            for group in _sample_groups(running_log, max_size=2, limit=60):
                assert (
                    compiled.instances(group, policy=policy, gap_limit=gap_limit)[0]
                    == instances_in_log(
                        running_log, group, policy=policy, gap_limit=gap_limit
                    )
                )


class TestDistanceParity:
    @pytest.mark.parametrize("log_name", ["running", "loan"])
    def test_distances_bitwise_identical(self, logs, log_name):
        log = logs[log_name]
        reference = DistanceFunction(log)
        compiled = CompiledDistanceFunction(log)
        groups = _sample_groups(log)
        compiled.prime(groups)
        for group in groups:
            assert compiled.group_distance(group) == reference.group_distance(
                group
            ), group

    def test_fig7_value_exact(self, running_log):
        from repro.datasets import PAPER_OPTIMAL_GROUPS

        compiled = CompiledDistanceFunction(running_log)
        assert compiled.grouping_distance(PAPER_OPTIMAL_GROUPS) == pytest.approx(
            3.0833333, abs=1e-6
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_distances_identical_per_policy(self, running_log, policy):
        reference = DistanceFunction(
            running_log, InstanceIndex(running_log, policy=policy)
        )
        compiled = CompiledDistanceFunction(
            running_log, CompiledInstanceIndex(running_log, policy=policy)
        )
        for group in _sample_groups(running_log, max_size=3, limit=120):
            assert compiled.group_distance(group) == reference.group_distance(
                group
            ), (policy, group)


class TestCandidateParity:
    @pytest.mark.parametrize("beam", [None, 3, "auto"])
    @pytest.mark.parametrize("log_name", ["running", "loan"])
    def test_dfg_candidates_identical(self, logs, log_name, beam):
        log = logs[log_name]
        constraints = ConstraintSet(
            [MaxGroupSize(5), MaxDistinctClassAttribute(ROLE_KEY, 2)]
        )
        beam_width = default_beam_width(log) if beam == "auto" else beam
        reference = dfg_candidates(log, constraints, beam_width=beam_width)
        compiled = dfg_candidates(
            log, constraints, beam_width=beam_width, compiled=CompiledLog(log)
        )
        assert compiled.groups == reference.groups
        assert compiled.stats.paths_considered == reference.stats.paths_considered
        assert compiled.stats.iterations == reference.stats.iterations

    def test_dfg_candidates_identical_with_instance_constraints(self, running_log):
        constraints = ConstraintSet(
            [MaxGroupSize(4), MinInstanceAggregate("duration", "sum", 0.0)]
        )
        reference = dfg_candidates(running_log, constraints, beam_width=5)
        compiled = dfg_candidates(
            running_log,
            constraints,
            beam_width=5,
            compiled=CompiledLog(running_log),
        )
        assert compiled.groups == reference.groups

    def test_exclusive_merge_identical(self, running_log, role_constraints):
        base = dfg_candidates(running_log, role_constraints).groups
        checker = GroupChecker(running_log, role_constraints)
        reference, _ = merge_exclusive_candidates(running_log, base, checker)
        compiled, _ = merge_exclusive_candidates(
            running_log, base, checker, compiled=CompiledLog(running_log)
        )
        assert compiled == reference

    def test_exhaustive_with_compiled_index_identical(self, running_log):
        constraints = ConstraintSet([MaxGroupSize(3)])
        reference = exhaustive_candidates(running_log, constraints)
        checker = GroupChecker(
            running_log, constraints, CompiledInstanceIndex(running_log)
        )
        compiled = exhaustive_candidates(running_log, constraints, checker=checker)
        assert compiled.groups == reference.groups


class TestPipelineParity:
    def _results(self, log, constraints, **config):
        results = {}
        for engine in ("python", "compiled"):
            results[engine] = Gecco(
                constraints, GeccoConfig(engine=engine, **config)
            ).abstract(log)
        return results["python"], results["compiled"]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_running_example_identical(self, running_log, role_constraints, policy):
        ref, com = self._results(
            running_log, role_constraints, instance_policy=policy
        )
        assert ref.feasible == com.feasible
        assert set(ref.grouping.groups) == set(com.grouping.groups)
        assert ref.distance == com.distance
        assert [t.classes for t in ref.abstracted_log] == [
            t.classes for t in com.abstracted_log
        ]

    def test_loan_log_identical(self, loan_log):
        constraints = ConstraintSet([MaxGroupSize(4)])
        ref, com = self._results(loan_log, constraints, beam_width="auto")
        assert ref.feasible == com.feasible
        assert set(ref.grouping.groups) == set(com.grouping.groups)
        assert ref.distance == com.distance

    def test_paper_distance_through_pipeline(self, running_log, role_constraints):
        _, com = self._results(running_log, role_constraints)
        assert com.distance == pytest.approx(3.0833333, abs=1e-6)


class TestFuzzParity:
    @given(log=log_strategy)
    @settings(max_examples=30, deadline=None)
    def test_fuzz_candidates_and_grouping_identical(self, log):
        constraints = ConstraintSet([MaxGroupSize(3)])
        reference = dfg_candidates(log, constraints)
        compiled = dfg_candidates(log, constraints, compiled=CompiledLog(log))
        assert compiled.groups == reference.groups

        ref = Gecco(constraints, GeccoConfig(engine="python", solver="bnb")).abstract(log)
        com = Gecco(constraints, GeccoConfig(engine="compiled", solver="bnb")).abstract(log)
        assert ref.feasible == com.feasible
        if ref.feasible:
            assert set(ref.grouping.groups) == set(com.grouping.groups)
            assert ref.distance == com.distance
            assert [t.classes for t in ref.abstracted_log] == [
                t.classes for t in com.abstracted_log
            ]

    @given(log=log_strategy)
    @settings(max_examples=20, deadline=None)
    def test_fuzz_instances_and_distances_identical(self, log):
        compiled = CompiledLog(log)
        reference = DistanceFunction(log)
        compiled_distance = CompiledDistanceFunction(
            log, CompiledInstanceIndex(log, compiled)
        )
        for policy in POLICIES:
            for group in _sample_groups(log, max_size=2, limit=40):
                assert (
                    compiled.instances(group, policy=policy)[0]
                    == instances_in_log(log, group, policy=policy)
                )
        for group in _sample_groups(log, max_size=3, limit=60):
            assert compiled_distance.group_distance(
                group
            ) == reference.group_distance(group)


#: Costs whose instance sums and averages land on, just above and just
#: below 0.3, plus huge magnitudes; ``None`` leaves the attribute out.
_COSTS = [0.1, 0.2, 0.3, 0.30000000000000004, 1e16, -1e16, None]


@st.composite
def _costed_log(draw):
    traces = []
    for variant in draw(st.lists(variant_strategy, min_size=1, max_size=6)):
        events = []
        for event_class in variant:
            attributes = {}
            cost = draw(st.sampled_from(_COSTS))
            if cost is not None:
                attributes["cost"] = cost
            role = draw(st.sampled_from(["r1", "r2", None]))
            if role is not None:
                attributes[ROLE_KEY] = role
            events.append(Event(event_class, attributes))
        traces.append(Trace(events))
    return EventLog(traces)


#: Infeasible on five classes (no group reaches size 6), so every run
#: diagnoses all instance constraints for every singleton.
_REPORT_CONSTRAINTS = ConstraintSet(
    [
        MinGroupSize(6),
        MaxInstanceAggregate("cost", "sum", 0.3),
        MinInstanceAggregate("cost", "avg", 0.3),
        AtLeastFraction(MaxInstanceAggregate("cost", "avg", 0.3), 0.6),
        AtLeastFraction(AtLeastFraction(MinInstanceAggregate("cost", "sum", 0.3), 0.9), 0.5),
        MaxDistinctInstanceAttribute(ROLE_KEY, 1),
        MinEventsPerClass(2),
    ]
)


class TestInfeasibilityReportParity:
    @given(log=_costed_log())
    @settings(max_examples=40, deadline=None)
    def test_reports_identical(self, log):
        reports = {}
        for engine in ("python", "compiled"):
            result = Gecco(
                _REPORT_CONSTRAINTS, GeccoConfig(engine=engine, solver="bnb")
            ).abstract(log)
            assert not result.feasible
            reports[engine] = result.infeasibility
        assert reports["compiled"] == reports["python"]

    def test_compiled_diagnosis_counts_on_kernels(self):
        log = EventLog(
            [
                Trace([Event("a", {"cost": 0.1}), Event("b", {"cost": 0.2}), Event("a", {})]),
                Trace([Event("b", {ROLE_KEY: "r1"}), Event("a", {"cost": 0.2})]),
            ]
        )
        checker = GroupChecker(
            log, _REPORT_CONSTRAINTS, CompiledInstanceIndex(log, CompiledLog(log))
        )
        reference = GroupChecker(log, _REPORT_CONSTRAINTS, InstanceIndex(log))
        for constraint in _REPORT_CONSTRAINTS.instance_based:
            for event_class in sorted(log.classes):
                group = frozenset([event_class])
                instances = reference.instances.events(group)
                expected = sum(
                    not constraint.check_instance(instance, group) for instance in instances
                )
                assert checker.count_violations(constraint, group) == (
                    expected,
                    len(instances),
                )
                assert reference.count_violations(constraint, group) is None
