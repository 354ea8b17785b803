"""simcheck kernel pass: PERF rule fixtures, the hot-function report
and its determinism, the real-tree gate, SARIF emission, baseline
pruning, ``--report`` paths and the combined ``simcheck all`` gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simcheck.kernel import analyze_kernel, render_json

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SRC_REPRO = SRC / "repro"
KERNEL_BASELINE = REPO / ".simcheck-kernel-baseline.json"


def write_pkg(root: Path, files: dict) -> Path:
    """Materialise a fixture package under ``root / 'pkg'``."""
    pkg = root / "pkg"
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for sub in {p.parent for p in pkg.rglob("*.py")} | {pkg}:
        init = sub / "__init__.py"
        if not init.exists():
            init.write_text("")
    return pkg


def run_cli(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro.simcheck", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


# --------------------------------------------------------------------------- #
# fixtures                                                                    #
# --------------------------------------------------------------------------- #

DRIVER = (
    "from ..core import Core\n"
    "class Simulator:\n"
    "    def __init__(self, n: int):\n"
    "        self.cores = [Core(i) for i in range(n)]\n"
    "        self.cycle = 0\n"
    "    def run(self, max_cycles: int):\n"
    "        self.cycle = 0\n"
    "        while self.cycle < max_cycles:\n"
    "            for core in self.cores:\n"
    "                core.step(self.cycle)\n"
    "            self.cycle += 1\n"
)


def perf_pkg(step_lines):
    """A 2-module package whose Core.step body is ``step_lines``."""
    body = "".join(f"        {line}\n" for line in step_lines)
    return {
        "sim/cmp.py": DRIVER,
        "core.py": (
            "class Core:\n"
            "    def __init__(self, cid):\n"
            "        self.cid = cid\n"
            "        self.retired = 0\n"
            "        self._telemetry = None\n"
            "    def step(self, now):\n"
            + body
        ),
    }


# (rule, body triggering it, same body with the inline disable)
PERF_CASES = [
    (
        "PERF001",
        ["buf = [now, self.cid]", "self.retired += len(buf)"],
        ["buf = [now, self.cid]  # simcheck: disable=PERF001",
         "self.retired += len(buf)"],
    ),
    (
        "PERF002",
        ["for _ in range(2):",
         "    self.retired += self.gen.bias"],
        ["for _ in range(2):",
         "    self.retired += self.gen.bias  # simcheck: disable=PERF002"],
    ),
    (
        "PERF003",
        ["cb = lambda v: v + 1", "self.retired += cb(now)"],
        ["cb = lambda v: v + 1  # simcheck: disable=PERF003",
         "self.retired += cb(now)"],
    ),
    (
        "PERF004",
        ["tag = f'core {now}'", "self.retired += len(tag)"],
        ["tag = f'core {now}'  # simcheck: disable=PERF004",
         "self.retired += len(tag)"],
    ),
    (
        "PERF005",
        ["if isinstance(now, int):", "    self.retired += 1"],
        ["if isinstance(now, int):  # simcheck: disable=PERF005",
         "    self.retired += 1"],
    ),
    (
        "PERF006",
        ["self._telemetry.on_step(now)", "self.retired += 1"],
        ["self._telemetry.on_step(now)  # simcheck: disable=PERF006",
         "self.retired += 1"],
    ),
]


class TestPerfRules:
    @pytest.mark.parametrize(
        "rule,body,_d", PERF_CASES, ids=[c[0] for c in PERF_CASES]
    )
    def test_positive(self, tmp_path, rule, body, _d):
        pkg = write_pkg(tmp_path, perf_pkg(body))
        ka = analyze_kernel(pkg)
        rules = {f.rule_id for f in ka.findings}
        assert rule in rules

    @pytest.mark.parametrize(
        "rule,_b,disabled", PERF_CASES, ids=[c[0] for c in PERF_CASES]
    )
    def test_inline_disable(self, tmp_path, rule, _b, disabled):
        pkg = write_pkg(tmp_path, perf_pkg(disabled))
        ka = analyze_kernel(pkg)
        hits = [
            f for f in ka.findings
            if f.rule_id == rule and f.path.endswith("core.py")
        ]
        assert hits == []

    @pytest.mark.parametrize(
        "rule,body,_d", PERF_CASES, ids=[c[0] for c in PERF_CASES]
    )
    def test_baseline_suppression(self, tmp_path, rule, body, _d):
        pkg = write_pkg(tmp_path, perf_pkg(body))
        bl = tmp_path / "bl.json"
        wrote = run_cli(
            "kernel", str(pkg), "--baseline", str(bl), "--write-baseline"
        )
        assert wrote.returncode == 0, wrote.stderr
        gated = run_cli("kernel", str(pkg), "--baseline", str(bl))
        assert gated.returncode == 0, gated.stdout + gated.stderr
        assert rule not in gated.stdout

    def test_guarded_observer_not_flagged(self, tmp_path):
        pkg = write_pkg(tmp_path, perf_pkg([
            "if self._telemetry is not None:",
            "    self._telemetry.on_step(now)",
            "self.retired += 1",
        ]))
        ka = analyze_kernel(pkg)
        assert not [f for f in ka.findings if f.rule_id == "PERF006"]


# --------------------------------------------------------------------------- #
# hot-function report                                                         #
# --------------------------------------------------------------------------- #

REPORT_SIM = {
    "sim/cmp.py": (
        "from ..core import Core\n"
        "from ..power import PowerModel\n"
        "class Simulator:\n"
        "    def __init__(self, n: int):\n"
        "        self.cores = [Core(i) for i in range(n)]\n"
        "        self.power = PowerModel(n)\n"
        "        self.cycle = 0\n"
        "    def run(self, max_cycles: int):\n"
        "        self.cycle = 0\n"
        "        while self.cycle < max_cycles:\n"
        "            for core in self.cores:\n"
        "                core.step(self.cycle)\n"
        "            self.power.end_cycle([c.load for c in self.cores])\n"
        "            self.cycle += 1\n"
    ),
    "core.py": (
        "class Core:\n"
        "    def __init__(self, cid):\n"
        "        self.cid = cid\n"
        "        self.retired = 0\n"
        "        self.load = 0.0\n"
        "    def step(self, now):\n"
        "        self.retired += 1\n"
        "        self.load = self.retired * 0.5\n"
    ),
    "power.py": (
        "class PowerModel:\n"
        "    def __init__(self, n):\n"
        "        self.total = 0.0\n"
        "        self.per_core = [0.0] * n\n"
        "    def end_cycle(self, loads):\n"
        "        i = 0\n"
        "        for v in loads:\n"
        "            self.per_core[i] = v\n"
        "            self.total += v\n"
        "            i += 1\n"
    ),
}


class TestReport:
    def test_report_shape_and_driver(self, tmp_path):
        pkg = write_pkg(tmp_path, REPORT_SIM)
        ka = analyze_kernel(pkg)
        rep = ka.report
        assert rep["version"] == 2
        assert rep["driver"] == "Simulator.run"
        assert rep["summary"]["hot_functions"] == len(rep["hot_functions"])
        hot = {h["qualname"] for h in rep["hot_functions"]}
        assert "Simulator.run" in hot
        assert "Core.step" in hot
        assert "PowerModel.end_cycle" in hot

    def test_report_deterministic(self, tmp_path):
        pkg = write_pkg(tmp_path, REPORT_SIM)
        first = render_json(analyze_kernel(pkg).report)
        second = render_json(analyze_kernel(pkg).report)
        assert first == second

    def test_cli_report_bytes_deterministic(self, tmp_path):
        pkg = write_pkg(tmp_path, REPORT_SIM)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        ra = run_cli("kernel", str(pkg), "--report", str(out_a))
        rb = run_cli("kernel", str(pkg), "--report", str(out_b))
        assert ra.returncode == rb.returncode
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_table_format(self, tmp_path):
        pkg = write_pkg(tmp_path, REPORT_SIM)
        res = run_cli("kernel", str(pkg), "--format", "table")
        assert "driver: Simulator.run" in res.stdout
        assert "HOT FUNCTION" in res.stdout
        assert "PowerModel.end_cycle" in res.stdout


# --------------------------------------------------------------------------- #
# the real tree                                                               #
# --------------------------------------------------------------------------- #


class TestRealTree:
    def test_driver_is_reference_loop(self):
        # The reference lock-step loop, not the engine dispatcher
        # (CMPSimulator.run) or FastEngine's fast-forwarding loop.
        ka = analyze_kernel(SRC_REPRO)
        assert ka.report is not None
        assert ka.report["driver"] == "CMPSimulator._run_reference"

    def test_gate_clean_against_committed_baseline(self):
        assert KERNEL_BASELINE.exists()
        res = run_cli(
            "kernel", "src/repro", "--baseline", str(KERNEL_BASELINE)
        )
        assert res.returncode == 0, res.stdout + res.stderr

    def test_committed_baseline_is_justified(self):
        data = json.loads(KERNEL_BASELINE.read_text())
        for entry in data["findings"]:
            assert entry["justification"].strip(), entry["fingerprint"]
            assert "TODO" not in entry["justification"]


# --------------------------------------------------------------------------- #
# SARIF + prune-baseline                                                      #
# --------------------------------------------------------------------------- #


class TestSarif:
    def _check_doc(self, text, tool):
        doc = json.loads(text)
        assert doc["version"] == "2.1.0"
        assert "sarif" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == f"simcheck-{tool}"
        for res in run["results"]:
            assert res["ruleId"]
            assert res["locations"][0]["physicalLocation"]["region"][
                "startLine"] >= 1
            assert "simcheck/v1" in res["partialFingerprints"]
        return run["results"]

    def test_kernel_sarif(self, tmp_path):
        pkg = write_pkg(tmp_path, perf_pkg(PERF_CASES[0][1]))
        res = run_cli("kernel", str(pkg), "--format", "sarif")
        results = self._check_doc(res.stdout, "kernel")
        assert any(r["ruleId"] == "PERF001" for r in results)

    def test_lint_sarif(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def roll():\n"
            "    return random.random()\n"
        )
        res = run_cli("lint", str(bad), "--format", "sarif")
        self._check_doc(res.stdout, "lint")


HAZARD_SIM = {
    "sim/cmp.py": (
        "from ..core import Core\n"
        "from ..power import PowerModel\n"
        "class Simulator:\n"
        "    def __init__(self, n: int):\n"
        "        self.cores = [Core() for _ in range(n)]\n"
        "        self.power = PowerModel(self.cores)\n"
        "        self.cycle = 0\n"
        "    def run(self, max_cycles: int):\n"
        "        self.cycle = 0\n"
        "        while self.cycle < max_cycles:\n"
        "            throttle = self.power.throttle\n"
        "            for core in self.cores:\n"
        "                core.step(throttle)\n"
        "            self.power.end_cycle()\n"
        "            self.cycle += 1\n"
    ),
    "core.py": (
        "class Core:\n"
        "    def __init__(self):\n"
        "        self.retired = 0\n"
        "    def step(self, throttle: bool):\n"
        "        if not throttle:\n"
        "            self.retired += 1\n"
    ),
    "power.py": (
        "class PowerModel:\n"
        "    def __init__(self, cores):\n"
        "        self.cores = cores\n"
        "        self.energy = 0.0\n"
        "        self.throttle = False\n"
        "    def end_cycle(self):\n"
        "        self.energy += 1.0\n"
        "        self.throttle = self.energy > 100.0\n"
    ),
}


class TestPruneBaseline:
    def test_prunes_stale_keeps_live(self, tmp_path):
        pkg = write_pkg(tmp_path, HAZARD_SIM)
        bl = tmp_path / "bl.json"
        wrote = run_cli(
            "flow", str(pkg), "--baseline", str(bl), "--write-baseline"
        )
        assert wrote.returncode == 0, wrote.stderr
        data = json.loads(bl.read_text())
        live = [e["fingerprint"] for e in data["findings"]]
        assert live
        data["findings"].append({
            "fingerprint": "FLOW001|gone.py|no.such.finding",
            "rule": "FLOW001",
            "example": "gone.py:1",
            "justification": "stale entry that must be pruned",
        })
        bl.write_text(json.dumps(data))

        pruned = run_cli(
            "flow", str(pkg), "--baseline", str(bl), "--prune-baseline"
        )
        assert pruned.returncode == 0, pruned.stdout + pruned.stderr
        after = json.loads(bl.read_text())
        kept = [e["fingerprint"] for e in after["findings"]]
        assert kept == live

    def test_kernel_prune(self, tmp_path):
        pkg = write_pkg(tmp_path, perf_pkg(PERF_CASES[0][1]))
        bl = tmp_path / "bl.json"
        run_cli("kernel", str(pkg), "--baseline", str(bl),
                "--write-baseline")
        data = json.loads(bl.read_text())
        n_live = len(data["findings"])
        data["findings"].append({
            "fingerprint": "PERF001|gone.py|Nope.never|list display:[x]",
            "rule": "PERF001",
            "example": "gone.py:1",
            "justification": "stale",
        })
        bl.write_text(json.dumps(data))
        res = run_cli("kernel", str(pkg), "--baseline", str(bl),
                      "--prune-baseline")
        assert res.returncode == 0, res.stdout + res.stderr
        assert len(json.loads(bl.read_text())["findings"]) == n_live


# --------------------------------------------------------------------------- #
# CLI: --report paths and the combined gate                                   #
# --------------------------------------------------------------------------- #


class TestCLI:
    @pytest.mark.parametrize("tool", ["kernel", "purity"])
    def test_report_creates_missing_parent(self, tmp_path, tool):
        # purity needs the runner's cache key, so both run on the real tree.
        out = tmp_path / "new" / "k.json"
        res = run_cli(
            tool, str(SRC_REPRO), "--report", str(out),
            "--baseline", str(REPO / f".simcheck-{tool}-baseline.json"),
        )
        assert res.returncode == 0, res.stdout + res.stderr
        assert json.loads(out.read_text())

    def test_all_combined_gate(self, tmp_path):
        reports = tmp_path / "reports"
        res = run_cli("all", str(SRC_REPRO), "--reports-dir", str(reports))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "4 passes gated" in res.stderr
        for name in (
            "kernel-report.json", "purity-report.json", "simcheck.sarif",
        ):
            assert (reports / name).is_file(), name
        sarif = json.loads((reports / "simcheck.sarif").read_text())
        names = [r["tool"]["driver"]["name"] for r in sarif["runs"]]
        assert names == [
            "simcheck-lint", "simcheck-flow", "simcheck-kernel",
            "simcheck-purity",
        ]
