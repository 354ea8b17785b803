"""kernel-report.json construction and the human table view.

The report records the per-cycle driver, every hot function with its
per-cycle allocation count and callees, and the PERF finding count per
rule.  Output is deterministic (sorted keys, sorted lists, no
timestamps) so two runs over the same tree produce identical bytes and
the file can live under version control or CI artifact diffing.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..lint import Finding
from .hotpath import HotGraph
from .perf import count_allocations

REPORT_VERSION = 2


def build_report(
    graph: HotGraph, findings: List[Finding]
) -> Dict[str, object]:
    per_rule: Dict[str, int] = {}
    for finding in findings:
        per_rule[finding.rule_id] = per_rule.get(finding.rule_id, 0) + 1
    return {
        "version": REPORT_VERSION,
        "driver": graph.driver,
        "summary": {
            "hot_functions": len(graph.functions),
            "perf_findings": dict(sorted(per_rule.items())),
        },
        "hot_functions": [
            {
                "qualname": hot.qualname,
                "file": hot.relpath,
                "line": hot.fn.lineno,
                "is_driver": hot.is_driver,
                "allocations": count_allocations(hot),
                "callees": sorted(hot.callees),
            }
            for hot in graph.sorted_functions()
        ],
    }


def render_json(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_table(report: Dict[str, object]) -> str:
    """Human view: the hot-function ranking by per-cycle allocations."""
    lines: List[str] = [
        f"driver: {report['driver']}",
        f"hot functions: {report['summary']['hot_functions']}",
        "",
    ]
    hot = sorted(
        report["hot_functions"],
        key=lambda h: (-h["allocations"], h["qualname"]),
    )
    if hot:
        width = max(len(h["qualname"]) for h in hot)
        lines.append(f"{'HOT FUNCTION':<{width}}  ALLOC/CYCLE  FILE")
        for h in hot:
            marker = " (driver loop)" if h["is_driver"] else ""
            lines.append(
                f"{h['qualname']:<{width}}  {h['allocations']:>11}  "
                f"{h['file']}:{h['line']}{marker}"
            )
    return "\n".join(lines) + "\n"
