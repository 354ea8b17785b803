"""Benchmark of the PTB simulator, its result runner and its job server.

One run::

    python3 perfbench/run.py --workload ptb_sync16 --seed 2011 \
        --seconds 30 --trace 0

prints a metric table on stderr and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced pass is followed by one traced pass and the metrics are
the per-layer ones.  Any output-check failure exits 1 after naming the
recipe, engine, expected and actual digest.

Several runs, and before/after tables::

    python3 perfbench/run.py --collect 10 --out before.json
    python3 perfbench/run.py --compare before.json after.json
    python3 perfbench/run.py --all      # every metric of every workload

See perfbench/README.md for the workloads, metrics and goldens.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: Environment knobs of the program; cleared so every run is hermetic.
REPRO_ENV = ("REPRO_ENGINE", "REPRO_SCALE", "REPRO_JOBS", "REPRO_CACHE",
             "REPRO_SANITIZE", "REPRO_TELEMETRY")



class Spec(NamedTuple):
    """What ``BENCHMARK.json`` declares: the single source of names."""

    workloads: Tuple[str, ...]
    end_to_end: Dict[str, Tuple[str, str]]   # name -> (unit, better)
    per_layer: Dict[str, str]                # name -> unit


def load_spec() -> Spec:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Spec(
        tuple(w["name"] for w in doc["workloads"]),
        {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def _pin_environment() -> None:
    for var in REPRO_ENV:
        os.environ.pop(var, None)


def run_workload(spec: Spec, name: str, seed: int, seconds: float,
                 trace: bool) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no simulator sources at {src}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path[:0] = [str(src), str(ROOT)]
    from repro.simcheck.sanitizers import sanitize_enabled
    from repro.telemetry.session import telemetry_enabled

    from perfbench import workloads as wk

    if sanitize_enabled() or telemetry_enabled():
        print("perfbench: sanitizers/telemetry still enabled", file=sys.stderr)
        return 2
    wl = wk.WORKLOADS[name]
    wseed = wk.workload_seed(seed)
    check = wk.OutputCheck(wk.load_goldens(), wl, wseed)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = wk.run_serve if name == "serve_cache" else wk.run_sim
    try:
        values = runner(wl, wseed, seconds, work, check, trace)
    except Exception as exc:  # reported as a failed run, never a result
        check.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics: Dict[str, Dict] = {}
    if not check.failed:
        if trace:
            units = spec.per_layer
        else:
            units = {m: u for m, (u, _) in spec.end_to_end.items()}
            values["peak_rss_mb"] = wk.peak_rss_mb()
        undeclared = set(values) - set(units)
        if undeclared:
            raise KeyError(f"undeclared metrics {sorted(undeclared)}")
        # The serve.* counts and shares read 0 on the simulation workloads.
        metrics = {m: {"value": values.get(m, 0), "unit": u}
                   for m, u in units.items()}
        print(f"{name} (seed {seed} -> {wseed}, "
              f"{'traced' if trace else 'untraced'})", file=sys.stderr)
        for m, v in metrics.items():
            print(f"  {m:32s} {v['value']:>16.6g} {v['unit']}",
                  file=sys.stderr)
    for failure in check.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not check.failed,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 1 if check.failed else 0


# -- several runs: collect, compare, print all ----------------------------------


def _one(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{name} seed {seed} failed (exit "
                         f"{proc.returncode}): {result}")
    return result


def collect(n: int, seconds: float, names: Tuple[str, ...], out: Path,
            first_seed: int) -> int:
    doc = {"seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for k in range(n):
            seed = first_seed + k
            t0 = time.perf_counter()
            res = _one(name, seed, seconds, False)
            res["seed"] = seed
            res["wall_s"] = time.perf_counter() - t0
            runs.append(res)
            print(f"{name} seed {seed}: {res['wall_s']:.1f}s", file=sys.stderr)
        traced = _one(name, first_seed, seconds, True)
        doc["workloads"][name] = {"runs": runs, "traced": traced}
        out.write_text(json.dumps(doc, indent=1))
    return 0


def _stats(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def compare(spec: Spec, paths: List[Path]) -> int:
    """Per workload: every end-to-end metric's median, quartiles, n and
    spread (IQR / median) per file, then every per-layer metric."""
    docs = [json.loads(p.read_text()) for p in paths]
    names = [w for w in spec.workloads
             if any(w in d["workloads"] for d in docs)]
    for name in names:
        print(f"\n== {name}")
        for metric, (unit, better) in spec.end_to_end.items():
            cells = []
            meds = []
            for d in docs:
                runs = d["workloads"].get(name, {}).get("runs", [])
                vals = [r["metrics"][metric]["value"] for r in runs]
                if not vals:
                    cells.append(f"{'-':>40s}")
                    continue
                s = _stats(vals)
                meds.append(s["median"])
                cells.append(f"{s['median']:>12.5g} [{s['q1']:.5g}, "
                             f"{s['q3']:.5g}] n={s['n']} "
                             f"spread={s['spread']:.3f}")
            delta = ""
            if len(meds) == 2 and meds[0]:
                delta = f"  change {100 * (meds[1] / meds[0] - 1):+.1f}%"
            print(f"  {metric:28s} {unit:14s} ({better})  "
                  + " | ".join(cells) + delta)
        print("  -- per layer (traced run)")
        for metric, unit in spec.per_layer.items():
            vals = []
            for d in docs:
                traced = d["workloads"].get(name, {}).get("traced", {})
                v = traced.get("metrics", {}).get(metric, {}).get("value")
                vals.append("-" if v is None else f"{v:.6g}")
            print(f"  {metric:28s} {unit:12s} " + " | ".join(
                f"{v:>14s}" for v in vals))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=spec.workloads)
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--collect", type=int, metavar="N",
                   help="run every workload N times (seeds from --seed) "
                        "plus one traced run; write --out")
    p.add_argument("--out", type=Path, help="result file of --collect")
    p.add_argument("--compare", nargs="+", type=Path, metavar="RESULTS",
                   help="print one or two --collect result files")
    p.add_argument("--all", action="store_true",
                   help="one untraced and one traced run of every workload")
    args = p.parse_args(argv)
    if args.compare:
        return compare(spec, args.compare)
    if args.collect:
        if args.out is None:
            p.error("--collect needs --out")
        return collect(args.collect, args.seconds, spec.workloads, args.out,
                       args.seed)
    if args.all:
        for name in spec.workloads:
            for trace in (False, True):
                res = _one(name, args.seed, args.seconds, trace)
                print(f"{name} ({'per-layer' if trace else 'end-to-end'})")
                for m, v in res["metrics"].items():
                    print(f"  {m:32s} {v['value']:>16.6g} {v['unit']}")
        return 0
    if not args.workload:
        p.error("--workload is required")
    return run_workload(spec, args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
