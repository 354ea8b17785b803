"""The three benchmark workloads and the output check every run makes.

``ptb_sync16`` and ``local_compute4`` drive recipes through
:class:`~repro.analysis.runner.ExperimentRunner` (serial, ``jobs=1``,
a private cache directory per engine): each recipe is simulated *cold*
and published to the cache, then answered *warm* from that cache by
fresh runners, the way a re-rendered figure is.  ``serve_cache`` drives :mod:`repro.serve` over a unix
socket.  Every result's ``sha256(pickle.dumps(result, 4))`` is checked
against the committed goldens in ``goldens.json``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.runner import ExperimentRunner, Recipe
from repro.sim.engine import resolve_engine

from . import layers

_perf = time.perf_counter

ENGINES = ("fast", "reference")

#: ``--seed`` default; it feeds both ``build_program`` and ``CMPSimulator``.
DEFAULT_SEED = 2011
#: Seeds with committed goldens: ``--seed s`` runs workload seed
#: ``DEFAULT_SEED + (s - DEFAULT_SEED) % GOLDEN_SEEDS``, so every run
#: is checked byte for byte and ``2011..2018`` map to themselves.
GOLDEN_SEEDS = 8
#: The seed kept out of every tuning run (see README.md).
HELD_OUT_SEED = 2017

MAX_CYCLES = 400_000
GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def workload_seed(seed: int) -> int:
    return DEFAULT_SEED + (seed - DEFAULT_SEED) % GOLDEN_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    scale: object
    recipes: Tuple[Recipe, ...]
    #: Seconds one pass (sim) or round (serve) takes on a 2-core host.
    unit_s: float
    max_cycles: int = MAX_CYCLES

    def units(self, seconds: float) -> int:
        """Passes or rounds a ``seconds`` run makes: fixed for a given
        ``seconds``, so every run of a workload does the same work."""
        return max(1, round(seconds / self.unit_s))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # One recipe per benchmark and per policy: lock-bound
        # unstructured, lock+barrier fluidanimate (where ``dynamic``
        # switches policy), barrier-bound ocean.
        Workload("ptb_sync16", 0.03, (
            Recipe("unstructured", 16, "ptb", "toall"),
            Recipe("fluidanimate", 16, "ptb", "dynamic"),
            Recipe("ocean", 16, "ptb", "toone"),
        ), unit_s=35.0),
        Workload("local_compute4", 1.5, tuple(
            Recipe(bench, 4, technique)
            for bench in ("blackscholes", "swaptions", "x264")
            for technique in ("none", "dvfs", "2level")
        ), unit_s=30.0),
        Workload("serve_cache", "tiny", (
            Recipe("fft", 4, "none"),
            Recipe("fft", 4, "ptb", "dynamic"),
            Recipe("radix", 4, "dvfs"),
            Recipe("waternsq", 4, "ptb", "dynamic"),
        ), unit_s=6.0),
    )
}


def golden_key(recipe: Recipe, scale: object, max_cycles: int) -> str:
    policy = f"/{recipe.policy}" if recipe.policy else ""
    return (f"{recipe.benchmark}x{recipe.cores}/{recipe.technique}{policy}"
            f"/relax={recipe.relax}/budget={recipe.budget_fraction}"
            f"/scale={scale}/max_cycles={max_cycles}")


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def result_digest(result) -> str:
    return digest(pickle.dumps(result, 4))


def load_goldens(path: Path = GOLDENS_PATH) -> Dict:
    with open(path) as fh:
        return json.load(fh)


class OutputCheck:
    """Counts operations and checks each result against its golden.

    A missing golden is a failure, never a pass: a changed pool, scale
    or seed table cannot silently turn the check off.
    """

    def __init__(self, goldens: Dict, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.table: Dict[str, str] = goldens.get(workload.name, {}).get(
            str(seed), {})
        self.attempted = 0
        self.failures: List[str] = []

    def key(self, recipe: Recipe) -> str:
        return golden_key(recipe, self.workload.scale,
                          self.workload.max_cycles)

    def fail(self, recipe: Optional[Recipe], engine: str, why: str) -> None:
        what = self.key(recipe) if recipe is not None else "-"
        self.failures.append(f"{what} [{engine}, seed {self.seed}]: {why}")

    def payload(self, recipe: Recipe, engine: str, payload: bytes,
                result=None) -> Optional[str]:
        """Check one result's pickle bytes; its digest if it passed."""
        self.attempted += 1
        key = self.key(recipe)
        expected = self.table.get(key)
        actual = digest(payload)
        if expected is None:
            self.fail(recipe, engine, f"no golden digest (actual {actual})")
            return None
        if actual != expected:
            self.fail(recipe, engine,
                      f"digest mismatch: expected {expected}, actual {actual}")
            return None
        if result is None:
            result = pickle.loads(payload)
        if not result.completed or result.truncated:
            self.fail(recipe, engine, "run did not complete (truncated)")
            return None
        return actual

    def result(self, recipe: Recipe, engine: str, result) -> Optional[str]:
        return self.payload(recipe, engine, pickle.dumps(result, 4), result)

    def engines_agree(self, digests: Dict[Tuple[str, str], str]) -> None:
        """``digests`` maps (engine, key) to a result digest: each key
        must have one digest on both engines."""
        for (engine, key), dig in digests.items():
            other = digests.get(("reference", key))
            if engine == "fast" and other != dig:
                self.failures.append(
                    f"{key} [seed {self.seed}]: fast {dig} != "
                    f"reference {other}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


# -- simulation workloads ----------------------------------------------------


@dataclass
class SimTotals:
    """Accumulators of one pass (or several) of a simulation workload."""

    setup_legs: List[float] = field(default_factory=list)
    run_s: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        ENGINES, 0.0))
    core_cycles: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ENGINES, 0))
    cold_jobs: int = 0
    cold_s: float = 0.0
    cold_lat: List[float] = field(default_factory=list)
    warm_lat: List[float] = field(default_factory=list)
    #: Lookups per second of each warm burst.
    warm_rates: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    digests: Dict[Tuple[str, str], str] = field(default_factory=dict)


class _SetupProbe:
    """Hooks for the setup/run spans: per-leg setup sums, per-engine
    core-cycles and run seconds, and the fast-engine fallback guard."""

    def __init__(self) -> None:
        self.totals: Optional[SimTotals] = None
        self.leg_setup = 0.0

    def on_build(self, _args, _result, dt: float) -> None:
        self.leg_setup += dt

    def on_sim(self, args, _result, dt: float) -> None:
        sim = args[0]
        self.leg_setup += dt
        if resolve_engine(sim.cfg.engine) == "fast" and (
                sim.sanitizers is not None or sim.telemetry is not None):
            raise RuntimeError(
                "a fast-engine simulator has sanitizers or telemetry on and "
                "would silently run the reference loop")

    def on_run(self, args, result, dt: float) -> None:
        sim = args[0]
        engine = resolve_engine(sim.cfg.engine)
        self.totals.run_s[engine] += dt
        self.totals.core_cycles[engine] += result.cycles * sim.cfg.num_cores


#: Warm lookups (each through a fresh runner) after every cold simulation.
WARM_LOOKUPS = 40


def _runner(wl: Workload, seed: int, cache: Path,
            engine: str) -> ExperimentRunner:
    return ExperimentRunner(scale=wl.scale, cache_dir=cache,
                            max_cycles=wl.max_cycles, seed=seed,
                            use_cache=True, jobs=1, engine=engine)


def sim_pass(wl: Workload, seed: int, work: Path, check: OutputCheck,
             probe: _SetupProbe, totals: SimTotals) -> None:
    """One pass over the pool.  Each recipe is simulated cold on the fast
    engine and then on reference (each published to that engine's
    cache), and each cold simulation is followed by a burst of warm
    lookups of it, so warm samples spread over the whole pass."""
    probe.totals = totals
    t_pass = _perf()
    caches = {engine: work / f"cache-{engine}" for engine in ENGINES}
    cold = {engine: _runner(wl, seed, caches[engine], engine)
            for engine in ENGINES}
    leg_setup = dict.fromkeys(ENGINES, 0.0)
    for recipe in wl.recipes:
        for engine in ENGINES:
            probe.leg_setup = 0.0
            t0 = _perf()
            try:
                (result,) = cold[engine].run_many([recipe])
            except Exception as exc:  # fails this operation
                check.attempted += 1
                check.fail(recipe, engine, f"{type(exc).__name__}: {exc}")
                continue
            totals.cold_lat.append(_perf() - t0)
            totals.cold_s += totals.cold_lat[-1]
            totals.cold_jobs += 1
            leg_setup[engine] += probe.leg_setup
            totals.digests[(engine, check.key(recipe))] = check.result(
                recipe, engine, result)
            burst = []
            for _ in range(WARM_LOOKUPS):
                warm = _runner(wl, seed, caches[engine], engine)
                t0 = _perf()
                hit = warm.lookup(recipe)
                burst.append(_perf() - t0)
                if hit is None:
                    check.attempted += 1
                    check.fail(recipe, engine, "warm lookup missed the cache")
                else:
                    check.result(recipe, engine, hit)
            totals.warm_lat.extend(burst)
            totals.warm_rates.append(len(burst) / sum(burst))
    totals.setup_legs.extend(leg_setup.values())
    for cache in caches.values():  # each pass starts cold again
        shutil.rmtree(cache)
    check.engines_agree(totals.digests)
    totals.wall_s += _perf() - t_pass


def sim_metrics(totals: SimTotals) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(totals.setup_legs),
        "core_cycles_per_s_fast": (totals.core_cycles["fast"]
                                   / totals.run_s["fast"]),
        "core_cycles_per_s_reference": (totals.core_cycles["reference"]
                                        / totals.run_s["reference"]),
        "cold_jobs_per_s": totals.cold_jobs / totals.cold_s,
        "warm_latency_p50_ms": statistics.median(totals.warm_lat) * 1e3,
    }


def run_sim(wl: Workload, seed: int, seconds: float, work: Path,
            check: OutputCheck, trace: bool) -> Dict[str, float]:
    """Untraced: ``wl.units(seconds)`` passes.  Traced: one untraced
    pass, then one traced pass of the same work.

    Returns the end-to-end (untraced) or per-layer (traced) metrics.
    """
    probe = _SetupProbe()
    timer = layers.Tracer()
    layers.install_setup_spans(timer, probe.on_build, probe.on_sim,
                               probe.on_run)
    untraced = SimTotals()
    try:
        for _ in range(1 if trace else wl.units(seconds)):
            sim_pass(wl, seed, work, check, probe, untraced)
            if check.failed:
                break
    finally:
        timer.uninstall()
    if check.failed:
        return {}
    if not trace:
        return sim_metrics(untraced)
    tracer, run_stats, traced = traced_sim_pass(wl, seed, work, check)
    if traced.digests != untraced.digests:
        check.failures.append(NOT_OBSERVATION_ONLY)
    per_layer = sim_layer_metrics(tracer, run_stats, traced)
    per_layer.update(phase_metrics(untraced.warm_lat, untraced.cold_lat,
                                   untraced.warm_rates))
    per_layer["trace.overhead_share"] = traced.wall_s / untraced.wall_s - 1.0
    return per_layer


NOT_OBSERVATION_ONLY = ("traced digests differ from untraced digests: "
                        "tracing is not observation-only")


def traced_sim_pass(wl: Workload, seed: int, work: Path, check: OutputCheck
                    ) -> Tuple[layers.Tracer, "_RunStats", SimTotals]:
    """One pass with every simulation layer and the runner traced."""
    probe = _SetupProbe()
    tracer = layers.Tracer()
    run_stats = _RunStats(tracer)

    def on_run(args, result, dt):
        probe.on_run(args, result, dt)
        run_stats.on_run(args[0])

    layers.install_setup_spans(tracer, probe.on_build, probe.on_sim, on_run)
    layers.install_sim_layers(tracer)
    layers.install_runner_layer(tracer)
    traced = SimTotals()
    try:
        sim_pass(wl, seed, work, check, probe, traced)
    finally:
        tracer.uninstall()
    if tracer.calls("sim.fast_run") != len(wl.recipes):
        check.failures.append(
            f"traced pass took the fast engine {tracer.calls('sim.fast_run')}"
            f" times for {len(wl.recipes)} fast recipes")
    return tracer, run_stats, traced


def phase_metrics(warm_lat: List[float], cold_lat: List[float],
                  warm_rates: List[float]) -> Dict[str, float]:
    """Warm throughput and tail latency, and cold latency, of one
    untraced pass/round (too noisy run to run for a bound)."""
    return {
        "warm.jobs_per_s": statistics.median(warm_rates),
        "warm.latency_p99_ms": percentile(warm_lat, 99) * 1e3,
        "warm.samples": len(warm_lat),
        "cold.latency_p50_s": statistics.median(cold_lat),
    }


class _RunStats:
    """Per-run readouts of the traced pass: step calls per engine and
    the cache statistics of every simulator that ran."""

    def __init__(self, tracer: layers.Tracer) -> None:
        self.tracer = tracer
        self.last_steps = 0
        self.steps = dict.fromkeys(ENGINES, 0)
        self.l1d = [0, 0]   # misses, accesses
        self.l2 = [0, 0]

    def on_run(self, sim) -> None:
        # Steps happen only inside runs: the count since the previous
        # run ended belongs to this one.
        steps = self.tracer.calls("core.step")
        self.steps[resolve_engine(sim.cfg.engine)] += steps - self.last_steps
        self.last_steps = steps
        for caches, acc in ((sim.hierarchy.l1d, self.l1d),
                            (sim.hierarchy.l2, self.l2)):
            for cache in caches:
                acc[0] += cache.misses
                acc[1] += cache.hits + cache.misses


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_layer_metrics(tr: layers.Tracer, rs: _RunStats,
                      totals: SimTotals) -> Dict[str, float]:
    return {
        "setup.build_program_s": tr.incl_s("setup.build_program"),
        "setup.token_classes_s": tr.incl_s("setup.token_classes"),
        "setup.prewarm_s": tr.incl_s("setup.prewarm"),
        "trace.self_s": tr.self_s("trace"),
        "trace.calls": tr.calls("trace.next_item"),
        "core.self_s": tr.self_s("core"),
        "core.step_calls": tr.calls("core.step"),
        "core.idle_calls": tr.calls("core.idle"),
        "core.step_share_fast": _share(rs.steps["fast"],
                                       totals.core_cycles["fast"]),
        "core.step_share_reference": _share(rs.steps["reference"],
                                            totals.core_cycles["reference"]),
        "mem.self_s": tr.self_s("mem"),
        "mem.calls": tr.calls_prefix("mem.hier."),
        "mem.dir_calls": tr.calls_prefix("mem.dir."),
        "mem.l1d_miss_rate": _share(*rs.l1d),
        "mem.l2_miss_rate": _share(*rs.l2),
        "noc.self_s": tr.self_s("noc"),
        "noc.messages": tr.calls("noc.record_message"),
        "sync.self_s": tr.self_s("sync"),
        "sync.calls": tr.calls_prefix("sync."),
        "power.self_s": tr.self_s("power"),
        "power.cycle_power_calls": tr.calls("power.cycle_power"),
        "power.thermal_calls": tr.calls("power.thermal"),
        "power.dvfs_ticks": tr.calls("power.dvfs_tick"),
        "budget.self_s": tr.self_s("budget"),
        "budget.end_cycle_calls": tr.calls("budget.end_cycle"),
        "budget.balancer_calls": tr.calls("budget.balancer"),
        "budget.balancer_share": _share(tr.incl_s("budget.balancer"),
                                        tr.incl_s("sim.run")),
        "sim.self_s": tr.self_s("sim"),
        "sim.core_cycles": sum(totals.core_cycles.values()),
        "sim.fast_runs": tr.calls("sim.fast_run"),
        "runner.self_s": tr.self_s("runner"),
        "runner.lookup_calls": tr.calls("runner.lookup"),
    }


# -- serve workload ------------------------------------------------------------

#: Single-recipe requests each warm client sends per round.
WARM_REQUESTS = 200
SERVE_CLIENTS = 2
#: Per-job server-side timeout; a hit counts as a failed operation.
JOB_TIMEOUT_S = 120.0


@dataclass
class ServeTotals:
    """Accumulators of serve rounds; rates are kept per round (the rounds
    do identical work) and reported as medians."""

    setup: List[float] = field(default_factory=list)
    core_cycle_rates: Dict[str, List[float]] = field(
        default_factory=lambda: {engine: [] for engine in ENGINES})
    cold_job_rates: List[float] = field(default_factory=list)
    cold_s: float = 0.0
    warm_rates: List[float] = field(default_factory=list)
    warm_lat: List[float] = field(default_factory=list)
    cold_elapsed_s: List[float] = field(default_factory=list)
    payload_bytes: List[int] = field(default_factory=list)
    submitted: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    wall_s: float = 0.0
    digests: Dict[Tuple[str, str], str] = field(default_factory=dict)


def _join(threads: List[threading.Thread], timeout: float) -> bool:
    deadline = _perf() + timeout
    for t in threads:
        t.join(max(0.0, deadline - _perf()))
    return not any(t.is_alive() for t in threads)


def _cold_phase(st, wl: Workload, engine: str, check: OutputCheck,
                totals: ServeTotals) -> None:
    """Both clients submit the same recipe list while dispatch is held,
    so each job is simulated once and coalesced once."""
    from repro.serve.client import ServeClient

    n = len(wl.recipes)
    replies: List = [None] * SERVE_CLIENTS
    errors: List[str] = []

    def client(i: int) -> None:
        try:
            with ServeClient.connect(st.address) as cli:
                replies[i] = cli.submit(wl.recipes, timeout=JOB_TIMEOUT_S)
        except Exception as exc:  # counted below as failed requests
            errors.append(f"cold client {i}: {type(exc).__name__}: {exc}")

    st.pause_dispatch()
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    deadline = _perf() + 30.0
    while _perf() < deadline and not errors:
        stats = st.status()["stats"]
        if stats["jobs_submitted"] + stats["jobs_coalesced"] >= (
                SERVE_CLIENTS * n):
            break
        time.sleep(0.002)
    t0 = _perf()
    st.resume_dispatch()
    finished = _join(threads, JOB_TIMEOUT_S + 30.0)
    cold_s = _perf() - t0
    totals.cold_s += cold_s
    if not finished:
        errors.append("cold clients did not finish in time")

    core_cycles = delivered = 0
    for i, reply in enumerate(replies):
        if reply is None:
            check.attempted += n
            for recipe in wl.recipes:
                check.fail(recipe, engine, "; ".join(errors) or "no reply")
            continue
        for rej in reply.rejected:
            check.attempted += 1
            check.fail(None, engine, f"rejected: {rej}")
        for res in reply.results:
            if not res.ok:
                check.attempted += 1
                check.fail(res.recipe, engine, f"{res.status}: {res.error}")
                continue
            result = pickle.loads(res.payload)
            dig = check.payload(res.recipe, engine, res.payload, result)
            totals.digests[(engine, check.key(res.recipe))] = dig
            delivered += 1
            if i == 0:
                core_cycles += result.cycles * result.num_cores
            if engine == "fast":
                totals.cold_elapsed_s.append(res.elapsed_ms / 1e3)
                totals.payload_bytes.append(len(res.payload))
    totals.core_cycle_rates[engine].append(core_cycles / cold_s)
    if engine == "fast":
        totals.cold_job_rates.append(delivered / cold_s)


def _warm_phase(st, wl: Workload, engine: str, check: OutputCheck,
                totals: ServeTotals) -> None:
    """Each client sends single recipes one at a time (closed loop);
    every request is a memo hit.  Payloads are checked after timing."""
    from repro.serve.client import ServeClient

    n = len(wl.recipes)
    got: List[List] = [[] for _ in range(SERVE_CLIENTS)]
    lats: List[List[float]] = [[] for _ in range(SERVE_CLIENTS)]
    errors: List[str] = []
    start = threading.Barrier(SERVE_CLIENTS)

    def client(i: int) -> None:
        try:
            with ServeClient.connect(st.address) as cli:
                start.wait(timeout=30)
                for k in range(WARM_REQUESTS):
                    recipe = wl.recipes[(k + i) % n]
                    t0 = _perf()
                    reply = cli.submit([recipe], timeout=JOB_TIMEOUT_S)
                    lats[i].append(_perf() - t0)
                    got[i].append((recipe, reply))
        except Exception as exc:
            errors.append(f"warm client {i}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(SERVE_CLIENTS)]
    t0 = _perf()
    for t in threads:
        t.start()
    finished = _join(threads, 120.0)
    warm_s = _perf() - t0
    if not finished:
        errors.append("warm clients did not finish in time")
    for lat in lats:
        totals.warm_lat.extend(lat)
    totals.warm_rates.append(sum(map(len, lats)) / warm_s)
    for pairs in got:
        for recipe, reply in pairs:
            res = reply.results[0] if len(reply.results) == 1 else None
            if res is None or not res.ok or reply.rejected:
                check.attempted += 1
                check.fail(recipe, engine, f"warm request failed: "
                           f"{res.status if res else 'no result'}")
            else:
                check.payload(recipe, engine, res.payload)
    missing = SERVE_CLIENTS * WARM_REQUESTS - sum(len(g) for g in got)
    if missing:
        check.attempted += missing
        for err in errors or ["warm requests missing"]:
            check.fail(None, engine, err)


def serve_round(wl: Workload, seed: int, work: Path, tag: str,
                check: OutputCheck, totals: ServeTotals) -> None:
    """A fast-engine server (cold then warm phase), then a
    reference-engine server (cold phase), each on a fresh cache."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    t_round = _perf()
    for engine in ENGINES:
        # The socket path is relative to the working directory (the
        # run's work dir): absolute paths can exceed the 107-byte limit.
        cfg = ServeConfig(
            unix_path=f"{tag}-{engine}.sock", backend="process", workers=1,
            queue_limit=64, scale=wl.scale, max_cycles=wl.max_cycles,
            seed=seed, engine=engine,
            cache_dir=str(work / f"serve-{tag}-{engine}"),
        )
        t0 = _perf()
        st = ServerThread(cfg).start()
        try:
            with ServeClient.connect(st.address) as cli:
                if not cli.ping():
                    raise RuntimeError("server did not answer ping")
            totals.setup.append(_perf() - t0)
            _cold_phase(st, wl, engine, check, totals)
            if engine == "fast":
                _warm_phase(st, wl, engine, check, totals)
            stats = st.status()["stats"]
            totals.submitted += stats["jobs_submitted"]
            totals.coalesced += stats["jobs_coalesced"]
            totals.cache_hits += stats["cache_hits"]
        finally:
            st.stop()
            # A stopped server's event-bus rings (about 10 MB) sit in
            # reference cycles: free them before the next server starts,
            # so peak_rss_mb measures one server rather than GC timing.
            gc.collect()
    check.engines_agree(totals.digests)
    totals.wall_s += _perf() - t_round


def serve_metrics(totals: ServeTotals) -> Dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(totals.setup),
        "core_cycles_per_s_fast": med(totals.core_cycle_rates["fast"]),
        "core_cycles_per_s_reference": med(
            totals.core_cycle_rates["reference"]),
        "cold_jobs_per_s": med(totals.cold_job_rates),
        "warm_latency_p50_ms": med(totals.warm_lat) * 1e3,
    }


def run_serve(wl: Workload, seed: int, seconds: float, work: Path,
              check: OutputCheck, trace: bool) -> Dict[str, float]:
    """Untraced: ``wl.units(seconds)`` rounds.  Traced: one untraced
    round, then one traced round."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        untraced = ServeTotals()
        for k in range(1 if trace else wl.units(seconds)):
            serve_round(wl, seed, work, f"r{k}", check, untraced)
            if check.failed:
                return {}
        if not trace:
            return serve_metrics(untraced)

        tracer = layers.Tracer()
        backend_s: List[float] = []
        traced = ServeTotals()
        layers.install_runner_layer(tracer)
        layers.install_serve_layer(tracer, backend_s.append)
        try:
            serve_round(wl, seed, work, "traced", check, traced)
        finally:
            tracer.uninstall()
    finally:
        os.chdir(cwd)
    if traced.digests != untraced.digests:
        check.failures.append(NOT_OBSERVATION_ONLY)
    # The backend process cannot report spans: its simulations are
    # replayed here, traced, on both engines (same recipes, same seed).
    sim_tracer, run_stats, replay = traced_sim_pass(wl, seed, work, check)
    per_layer = sim_layer_metrics(sim_tracer, run_stats, replay)
    per_layer.update(phase_metrics(untraced.warm_lat, untraced.cold_elapsed_s,
                                   untraced.warm_rates))
    per_layer.update({
        "runner.self_s": tracer.self_s("runner"),
        "runner.lookup_calls": tracer.calls("runner.lookup"),
        "serve.protocol_share": _share(tracer.self_s("serve.protocol"),
                                       traced.wall_s),
        "serve.balancer_calls": tracer.calls_prefix("serve.balancer."),
        "serve.backend_share": _share(sum(backend_s), traced.cold_s),
        "serve.coalesced_share": _share(
            untraced.coalesced, untraced.submitted + untraced.coalesced),
        "serve.cache_hit_share": _share(untraced.cache_hits,
                                        len(untraced.warm_lat)),
        "serve.payload_bytes": statistics.mean(untraced.payload_bytes),
        "trace.overhead_share": traced.wall_s / untraced.wall_s - 1.0,
    })
    return per_layer
