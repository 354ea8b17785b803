"""``python -m repro.simcheck`` — the simcheck command-line front end.

Subcommands:

* ``lint PATH...``  — run the SIM rules; print ``file:line:col: RULE msg``
  per finding and exit non-zero when anything is found (CI gate).
* ``flow PATH``     — whole-program flow analyses: same-cycle tick-order
  hazards (FLOW rules) and unit/dimension propagation (UNIT rules),
  gated against ``.simcheck-baseline.json`` so CI fails only on
  regressions.
* ``kernel PATH``   — hot-loop performance lint (PERF rules) plus the
  hot-function report (``--report kernel-report.json``), gated against
  ``.simcheck-kernel-baseline.json``.
* ``purity PATH``   — cache-key soundness (KEY rules) and worker-purity
  analysis (PURE rules) rooted at the experiment runner's cache, gated
  against ``.simcheck-purity-baseline.json``.
* ``all PATH``      — run the four analysis passes above once with their
  default baselines; write the kernel and purity reports and one merged
  SARIF under ``--reports-dir`` (the single CI gate).
* ``smoke``         — run a short 2-core simulation under every PTB
  policy with all runtime sanitizers enabled; exit non-zero on any
  :class:`SanitizerViolation` (CI gate for hook regressions).

All four analysis subcommands accept ``--format json`` (one JSON object
``{"tool", "findings": [...], "count"}``) and ``--format sarif`` (SARIF
2.1.0 for code-scanning annotations); ``kernel`` and ``purity``
additionally accept ``--format table`` for the human report view.  All
four share one baseline surface — ``--baseline FILE`` /
``--write-baseline`` / ``--prune-baseline`` — so CI fails only on
regressions and every accepted finding carries a justification.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence  # noqa: F401 (signatures)

from .lint import Finding, iter_rules, lint_paths


def _emit_findings(
    tool: str, findings: Sequence[Finding], fmt: str
) -> None:
    """Print findings as ``file:line:col`` lines or one document."""
    if fmt == "sarif":
        from .sarif import render_sarif

        print(render_sarif(tool, findings))
    elif fmt == "json":
        print(
            json.dumps(
                {
                    "tool": tool,
                    "findings": [
                        {
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "rule": f.rule_id,
                            "message": f.message,
                            "fingerprint": f.identity(),
                        }
                        for f in findings
                    ],
                    "count": len(findings),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())


def _add_baseline_args(sub: argparse.ArgumentParser, example: str) -> None:
    """The baseline flag triple shared by lint/flow/kernel/purity."""
    sub.add_argument(
        "--baseline",
        help="baseline JSON of accepted findings, fail only on regressions "
        f"(e.g. {example})",
    )
    sub.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from current findings and exit 0",
    )
    sub.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline entries that no longer fire and report them",
    )


def _gate_with_baseline(
    tool: str, args: argparse.Namespace, findings: Sequence[Finding]
):
    """Baseline plumbing shared by all four passes.

    Loads ``--baseline``, services ``--write-baseline`` /
    ``--prune-baseline``, and otherwise splits findings against the
    baseline.  Returns ``(handled, new, suppressed, stale)`` where
    ``handled`` is an exit code when the command is already finished
    (write/prune/load error) and None when the caller should emit
    ``new`` and gate on it.
    """
    from .flow import apply_baseline, load_baseline, write_baseline

    baseline_path = Path(args.baseline) if args.baseline else None
    baseline = {}
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"simcheck {tool}: {exc}", file=sys.stderr)
            return 2, [], [], []
    for flag in ("prune_baseline", "write_baseline"):
        if getattr(args, flag) and baseline_path is None:
            print(
                f"simcheck {tool}: --{flag.replace('_', '-')} requires "
                "--baseline FILE",
                file=sys.stderr,
            )
            return 2, [], [], []
    if args.prune_baseline:
        return _prune_baseline(tool, baseline_path, findings), [], [], []
    if args.write_baseline:
        count = write_baseline(baseline_path, findings, baseline)
        print(
            f"simcheck {tool}: wrote {count} baseline entries to "
            f"{baseline_path}",
            file=sys.stderr,
        )
        return 0, [], [], []
    new, suppressed, stale = apply_baseline(findings, baseline)
    return None, new, suppressed, stale


def _report_baseline_noise(tool: str, suppressed, stale) -> None:
    if suppressed:
        print(
            f"simcheck {tool}: {len(suppressed)} baselined finding(s) "
            "suppressed",
            file=sys.stderr,
        )
    for fp in stale:
        print(
            f"simcheck {tool}: stale baseline entry (no longer fires): {fp}",
            file=sys.stderr,
        )


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id}  {rule.description}")
        return 0
    if not args.paths:
        print("simcheck lint: no paths given", file=sys.stderr)
        return 2
    enable = args.enable.split(",") if args.enable else None
    disable = args.disable.split(",") if args.disable else None
    try:
        findings = lint_paths(
            args.paths, enable=enable, disable=disable,
            config_path=args.config,
        )
    except (OSError, SyntaxError) as exc:
        print(f"simcheck lint: {exc}", file=sys.stderr)
        return 2
    handled, new, suppressed, stale = _gate_with_baseline(
        "lint", args, findings
    )
    if handled is not None:
        return handled
    _emit_findings("lint", new, args.format)
    _report_baseline_noise("lint", suppressed, stale)
    if new:
        print(f"simcheck: {len(new)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from .flow import analyze_package

    root = Path(args.path)
    if not root.is_dir():
        print(f"simcheck flow: not a directory: {root}", file=sys.stderr)
        return 2

    findings, notes = analyze_package(
        root,
        hazards=not args.no_hazards,
        units=not args.no_units,
    )
    if args.verbose:
        for note in notes:
            print(note, file=sys.stderr)

    handled, new, suppressed, stale = _gate_with_baseline(
        "flow", args, findings
    )
    if handled is not None:
        return handled
    _emit_findings("flow", new, args.format)
    _report_baseline_noise("flow", suppressed, stale)
    if new:
        print(
            f"simcheck flow: {len(new)} new finding(s) — fix them or "
            "baseline with a justification",
            file=sys.stderr,
        )
        return 1
    return 0


def _prune_baseline(
    tool: str, baseline_path: Path, findings: Sequence[Finding]
) -> int:
    """Drop baseline entries whose fingerprint no longer fires.

    Rewrites the file in place preserving rule/example/justification on
    the surviving entries, and reports exactly what was pruned so the
    cleanup is auditable from the CI log.
    """
    if not baseline_path.exists():
        print(
            f"simcheck {tool}: no baseline at {baseline_path}; nothing to prune",
            file=sys.stderr,
        )
        return 2
    try:
        data = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"simcheck {tool}: {exc}", file=sys.stderr)
        return 2
    entries = data.get("findings", []) if isinstance(data, dict) else None
    if entries is None:
        print(
            f"simcheck {tool}: {baseline_path}: unsupported baseline format",
            file=sys.stderr,
        )
        return 2
    fired = {f.identity() for f in findings}
    kept = [e for e in entries if e.get("fingerprint") in fired]
    pruned = [e for e in entries if e.get("fingerprint") not in fired]
    for entry in pruned:
        print(
            f"simcheck {tool}: pruned stale baseline entry "
            f"{entry.get('fingerprint')} (was {entry.get('example', '?')})"
        )
    if pruned:
        data["findings"] = kept
        baseline_path.write_text(json.dumps(data, indent=2) + "\n")
    print(
        f"simcheck {tool}: pruned {len(pruned)} stale entr"
        f"{'y' if len(pruned) == 1 else 'ies'}, kept {len(kept)}",
        file=sys.stderr,
    )
    return 0


def _write_report(tool: str, path: str, text: str) -> None:
    """Write a ``--report`` file, creating missing parent directories."""
    report_path = Path(path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(text)
    print(f"simcheck {tool}: wrote report to {report_path}", file=sys.stderr)


def _cmd_kernel(args: argparse.Namespace) -> int:
    from .kernel import analyze_kernel, render_json, render_table

    root = Path(args.path)
    if not root.is_dir():
        print(f"simcheck kernel: not a directory: {root}", file=sys.stderr)
        return 2

    analysis = analyze_kernel(root)
    if args.verbose:
        for note in analysis.notes:
            print(note, file=sys.stderr)
    if analysis.report is None:
        print(
            "simcheck kernel: no per-cycle driver loop found; "
            "nothing to analyze",
            file=sys.stderr,
        )
        return 2

    if args.report:
        _write_report("kernel", args.report, render_json(analysis.report))

    handled, new, suppressed, stale = _gate_with_baseline(
        "kernel", args, analysis.findings
    )
    if handled is not None:
        return handled
    if args.format == "table":
        print(render_table(analysis.report), end="")
        for finding in new:
            print(finding.render())
    else:
        _emit_findings("kernel", new, args.format)
    _report_baseline_noise("kernel", suppressed, stale)

    if new:
        print(
            f"simcheck kernel: {len(new)} new PERF finding(s) — fix them "
            "or baseline with a justification",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_purity(args: argparse.Namespace) -> int:
    from .purity import analyze_purity
    from .purity import render_table as render_purity_table

    root = Path(args.path)
    if not root.is_dir():
        print(f"simcheck purity: not a directory: {root}", file=sys.stderr)
        return 2

    analysis = analyze_purity(root)
    if args.verbose:
        for note in analysis.notes:
            print(note, file=sys.stderr)
    if analysis.model is None:
        print(
            "simcheck purity: no cache-key builder found; nothing to analyze",
            file=sys.stderr,
        )
        return 2

    if args.report:
        _write_report(
            "purity", args.report, json.dumps(analysis.report, indent=2) + "\n"
        )

    handled, new, suppressed, stale = _gate_with_baseline(
        "purity", args, analysis.findings
    )
    if handled is not None:
        return handled
    if args.format == "table":
        print(render_purity_table(analysis.report, new), end="")
    else:
        _emit_findings("purity", new, args.format)
    _report_baseline_noise("purity", suppressed, stale)
    if new:
        print(
            f"simcheck purity: {len(new)} new finding(s) — fix them or "
            "baseline with a justification",
            file=sys.stderr,
        )
        return 1
    return 0


#: Pass order and default baseline for ``simcheck all``.
_ALL_BASELINES = (
    ("lint", ".simcheck-lint-baseline.json"),
    ("flow", ".simcheck-baseline.json"),
    ("kernel", ".simcheck-kernel-baseline.json"),
    ("purity", ".simcheck-purity-baseline.json"),
)


def _cmd_all(args: argparse.Namespace) -> int:
    """Run every analysis pass once: one gate, one merged SARIF."""
    from .flow import analyze_package, apply_baseline, load_baseline
    from .kernel import analyze_kernel
    from .kernel import render_json as render_kernel_json
    from .purity import analyze_purity
    from .sarif import merge_sarif, sarif_document

    root = Path(args.path)
    if not root.is_dir():
        print(f"simcheck all: not a directory: {root}", file=sys.stderr)
        return 2
    reports_dir = Path(args.reports_dir)
    reports_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    docs = []
    baseline_of = dict(_ALL_BASELINES)

    def gate(tool: str, findings: Sequence[Finding]) -> None:
        nonlocal status
        baseline = {}
        baseline_path = Path(baseline_of[tool])
        if baseline_path.is_file():
            try:
                baseline = load_baseline(baseline_path)
            except (ValueError, OSError, json.JSONDecodeError) as exc:
                print(f"simcheck {tool}: {exc}", file=sys.stderr)
                status = max(status, 2)
        new, suppressed, stale = apply_baseline(findings, baseline)
        _emit_findings(tool, new, "text")
        _report_baseline_noise(tool, suppressed, stale)
        docs.append(sarif_document(tool, new))
        if new:
            print(
                f"simcheck {tool}: {len(new)} new finding(s)",
                file=sys.stderr,
            )
            status = max(status, 1)

    gate("lint", lint_paths([str(root)]))

    flow_findings, flow_notes = analyze_package(root)
    if args.verbose:
        for note in flow_notes:
            print(note, file=sys.stderr)
    gate("flow", flow_findings)

    kernel_analysis = analyze_kernel(root)
    if kernel_analysis.report is None:
        print("simcheck kernel: no per-cycle driver loop found", file=sys.stderr)
        status = max(status, 2)
    else:
        (reports_dir / "kernel-report.json").write_text(
            render_kernel_json(kernel_analysis.report)
        )
        gate("kernel", kernel_analysis.findings)

    purity_analysis = analyze_purity(root)
    if purity_analysis.model is None:
        print("simcheck purity: no cache-key builder found", file=sys.stderr)
        status = max(status, 2)
    else:
        (reports_dir / "purity-report.json").write_text(
            json.dumps(purity_analysis.report, indent=2) + "\n"
        )
        gate("purity", purity_analysis.findings)

    sarif_path = reports_dir / "simcheck.sarif"
    sarif_path.write_text(
        json.dumps(merge_sarif(docs), indent=2, sort_keys=True) + "\n"
    )
    print(
        f"simcheck all: {len(docs)} passes gated, merged SARIF at "
        f"{sarif_path}, reports in {reports_dir}/ — "
        f"{'CLEAN' if status == 0 else 'FAILED'}",
        file=sys.stderr,
    )
    return status


def _make_smoke_program(num_threads: int, work: int):
    """Tiny lock+barrier program for the sanitized smoke run."""
    # Imported lazily: lint must not drag the simulator (and numpy) in.
    from ..trace.phases import (
        BarrierPhase,
        ComputePhase,
        LockPhase,
        ParallelProgram,
        ThreadProgram,
    )

    threads = []
    for t in range(num_threads):
        phases = []
        for b in range(2):
            phases.append(
                ComputePhase(instructions=work, footprint_lines=512)
            )
            phases.append(
                LockPhase(
                    lock_id=0,
                    critical_section=ComputePhase(
                        instructions=40, footprint_lines=512
                    ),
                )
            )
            phases.append(BarrierPhase(b))
        threads.append(ThreadProgram(thread_id=t, phases=tuple(phases)))
    return ParallelProgram(name="simcheck-smoke", threads=tuple(threads))


def _cmd_smoke(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from ..config import CMPConfig
    from ..sim.cmp import run_simulation
    from .sanitizers import SanitizerViolation

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    bad = [p for p in policies if p not in ("toall", "toone", "dynamic")]
    if bad or not policies:
        print(
            f"simcheck smoke: unknown policy {', '.join(bad) or '(none)'} — "
            "choose from toall, toone, dynamic",
            file=sys.stderr,
        )
        return 2

    cfg = replace(CMPConfig(num_cores=args.cores), sanitize=True)
    program = _make_smoke_program(args.cores, args.work)
    failures = 0
    for policy in policies:
        try:
            result = run_simulation(
                cfg, program, technique="ptb", ptb_policy=policy,
                max_cycles=args.max_cycles,
            )
        except SanitizerViolation as exc:
            print(f"smoke[{policy}]: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(
            f"smoke[{policy}]: ok — {result.cycles} cycles, "
            f"{result.committed_instructions} instructions, sanitizers clean"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simcheck",
        description="Simulator-correctness checks: AST lint + sanitized smoke run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the SIM lint rules over paths")
    lint.add_argument("paths", nargs="*", help="files or directories to lint")
    lint.add_argument("--enable", help="comma-separated rule ids to run exclusively")
    lint.add_argument("--disable", help="comma-separated rule ids to skip")
    lint.add_argument(
        "--config", help="path to config.py for SIM006 (default: autodetect)"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    _add_baseline_args(lint, ".simcheck-lint-baseline.json")
    lint.set_defaults(func=_cmd_lint)

    flow = sub.add_parser(
        "flow",
        help="whole-program tick-order hazard + unit/dimension analysis",
    )
    flow.add_argument("path", help="package root to analyze (e.g. src/repro)")
    _add_baseline_args(flow, ".simcheck-baseline.json")
    flow.add_argument(
        "--no-hazards", action="store_true", help="skip the FLOW pass"
    )
    flow.add_argument(
        "--no-units", action="store_true", help="skip the UNIT pass"
    )
    flow.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    flow.add_argument(
        "--verbose", action="store_true",
        help="print analysis notes (module count, driver, parse errors)",
    )
    flow.set_defaults(func=_cmd_flow)

    kernel = sub.add_parser(
        "kernel",
        help="hot-loop PERF lint + hot-function report",
    )
    kernel.add_argument(
        "path", help="package root to analyze (e.g. src/repro)"
    )
    _add_baseline_args(kernel, ".simcheck-kernel-baseline.json")
    kernel.add_argument(
        "--report", metavar="FILE",
        help="write the machine-readable kernel report (kernel-report.json)",
    )
    kernel.add_argument(
        "--format", choices=("text", "json", "sarif", "table"),
        default="text",
        help="finding output format; 'table' ranks the hot functions",
    )
    kernel.add_argument(
        "--verbose", action="store_true",
        help="print analysis notes (driver, hot-function count)",
    )
    kernel.set_defaults(func=_cmd_kernel)

    purity = sub.add_parser(
        "purity",
        help="cache-key soundness (KEY rules) + worker purity (PURE rules)",
    )
    purity.add_argument(
        "path", help="package root to analyze (e.g. src/repro)"
    )
    _add_baseline_args(purity, ".simcheck-purity-baseline.json")
    purity.add_argument(
        "--report", metavar="FILE",
        help="write the machine-readable purity report (purity-report.json)",
    )
    purity.add_argument(
        "--format", choices=("text", "json", "sarif", "table"),
        default="text",
        help="finding output format; 'table' renders the coverage report",
    )
    purity.add_argument(
        "--verbose", action="store_true",
        help="print analysis notes (cache module, reachable-function count)",
    )
    purity.set_defaults(func=_cmd_purity)

    allcmd = sub.add_parser(
        "all",
        help="run lint+flow+kernel+purity with default baselines",
    )
    allcmd.add_argument(
        "path", help="package root to analyze (e.g. src/repro)"
    )
    allcmd.add_argument(
        "--reports-dir", default="reports",
        help="directory for kernel/purity reports and merged SARIF "
        "(default: reports)",
    )
    allcmd.add_argument(
        "--verbose", action="store_true",
        help="print per-pass analysis notes",
    )
    allcmd.set_defaults(func=_cmd_all)

    smoke = sub.add_parser(
        "smoke", help="short 2-core sim under every policy with sanitizers on"
    )
    smoke.add_argument("--cores", type=int, default=2)
    smoke.add_argument("--work", type=int, default=800)
    smoke.add_argument("--max-cycles", type=int, default=60_000)
    smoke.add_argument("--policies", default="toall,toone,dynamic")
    smoke.set_defaults(func=_cmd_smoke)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
