"""Rendering of the paper's result tables from experiment reports.

Each ``table_*`` function aggregates an :class:`ExperimentReport` the
way the corresponding paper table does and returns both the raw rows
(for programmatic checks) and an aligned ASCII rendering (what the
benchmark harness prints next to the paper's numbers).  The rows carry
the mean solve time under ``"T(s)"``; the renderings show only the
quality columns, so a rendered table does not change from host to host.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.datasets.collection import TABLE_III_SPECS
from repro.eventlog.events import EventLog
from repro.eventlog.statistics import describe
from repro.experiments.configs import BASELINE_SET_NAMES, GECCO_SET_NAMES
from repro.experiments.runner import ExperimentReport


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Align ``rows`` under ``headers`` as monospace text."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def table3(logs: Mapping[str, EventLog]) -> str:
    """Table III: properties of the (synthetic) log collection."""
    reference_of = {spec.name: spec.reference for spec in TABLE_III_SPECS}
    rows = []
    for name, log in logs.items():
        stats = describe(log)
        rows.append(
            [
                reference_of.get(name, "-"),
                name,
                stats.num_classes,
                stats.num_traces,
                stats.num_variants,
                stats.num_variant_events,
                round(stats.avg_trace_length, 2),
            ]
        )
    return format_table(
        ["Ref", "Log", "|CL|", "Traces", "Variants", "|E|", "Avg |s|"],
        rows,
        title="Table III: properties of the log collection (synthetic)",
    )


def table5(report: ExperimentReport, approach: str = "Exh") -> tuple[list[dict], str]:
    """Table V: results per constraint set for one configuration."""
    rows = []
    for set_name in GECCO_SET_NAMES + BASELINE_SET_NAMES:
        subset = report.filtered(constraint_set=set_name, approach=approach)
        if not subset:
            continue
        aggregate = report.aggregate(subset)
        rows.append({"Const.": set_name, **aggregate})
    rendered = format_table(
        ["Const.", "Solved", "S. red.", "C. red.", "Sil."],
        [
            [row["Const."], row["Solved"], row["S. red."], row["C. red."], row["Sil."]]
            for row in rows
        ],
        title=f"Table V: results for {approach}, averaged over solved problems",
    )
    return rows, rendered


def table6(report: ExperimentReport) -> tuple[list[dict], str]:
    """Table VI: results per GECCO configuration."""
    rows = []
    for approach, label in (("Exh", "Exh"), ("DFGinf", "DFG inf"), ("DFGk", "DFG k")):
        subset = report.filtered(approach=approach)
        if not subset:
            continue
        aggregate = report.aggregate(subset)
        rows.append({"Conf.": label, **aggregate})
    rendered = format_table(
        ["Conf.", "Solved", "S. red.", "C. red.", "Sil."],
        [
            [row["Conf."], row["Solved"], row["S. red."], row["C. red."], row["Sil."]]
            for row in rows
        ],
        title="Table VI: results per configuration over solved problems",
    )
    return rows, rendered


def table7(report: ExperimentReport) -> tuple[list[dict], str]:
    """Table VII: baseline comparison over the applicable constraint sets."""
    blocks = [
        ("BL[1-3]", ["BL1", "BL2", "BL3"], [("DFGinf", "DFG inf"), ("BLQ", "BL Q")]),
        ("BL4", ["BL4"], [("Exh", "Exh"), ("BLP", "BL P")]),
        ("A,M,N", ["A", "M", "N"], [("DFGk", "DFG k"), ("BLG", "BL G")]),
    ]
    rows = []
    for block_label, set_names, entries in blocks:
        for approach, label in entries:
            subset = [
                row
                for row in report.rows
                if row.approach == approach and row.constraint_set in set_names
            ]
            if not subset:
                continue
            aggregate = report.aggregate(subset)
            rows.append({"Const.": block_label, "Conf.": label, **aggregate})
    rendered = format_table(
        ["Const.", "Conf.", "Solved", "S. red.", "C. red.", "Sil."],
        [
            [
                row["Const."], row["Conf."], row["Solved"], row["S. red."],
                row["C. red."], row["Sil."],
            ]
            for row in rows
        ],
        title="Table VII: baseline comparison over applicable constraint sets",
    )
    return rows, rendered
