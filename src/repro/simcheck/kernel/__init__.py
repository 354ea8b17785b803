"""``repro.simcheck.kernel`` — hot-loop perf lint + hot-function report.

The third simcheck pass.  Where ``lint`` checks local idioms and
``flow`` checks tick-order soundness, ``kernel`` answers *where the
interpreter burns cycles today*: PERF001–PERF006 over every function
reachable from the driver's per-cycle sweep (:mod:`.perf`), with the
hot-function ranking and allocation counts serialized as
``kernel-report.json`` (:mod:`.report`).

Both share one driver discovery, one instance graph and one memoized
effect analyzer (:mod:`.hotpath`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..flow.model import PackageIndex
from ..lint import Finding
from .hotpath import HotGraph, build_hot_graph
from .perf import check_perf
from .report import build_report, render_json, render_table

__all__ = [
    "KernelAnalysis",
    "analyze_kernel",
    "build_hot_graph",
    "check_perf",
    "build_report",
    "render_json",
    "render_table",
]


@dataclass
class KernelAnalysis:
    """Everything one kernel run produces."""

    findings: List[Finding] = field(default_factory=list)
    report: Optional[Dict[str, object]] = None
    graph: Optional[HotGraph] = None
    notes: List[str] = field(default_factory=list)


def analyze_kernel(root: Path) -> KernelAnalysis:
    """Run the PERF lint and build the report for the package at ``root``."""
    out = KernelAnalysis()
    index = PackageIndex.build(root)
    for relpath, error in index.parse_errors:
        out.notes.append(f"kernel: parse error in {relpath}: {error}")

    out.graph, notes = build_hot_graph(index)
    out.notes.extend(notes)
    if out.graph is not None:
        out.findings = check_perf(out.graph)
        out.report = build_report(out.graph, out.findings)
    return out
