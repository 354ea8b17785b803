"""Benchmark-side spans around calls into the simulator's modules.

Every span is installed from this file by replacing a function on its
class (or module) with a timing wrapper and is removed again by
:meth:`Tracer.uninstall`; nothing is added to ``src/repro``.  Wrappers
go in at class level *before* any simulator is built, because
``FastEngine.run`` and ``CMPSimulator._run_reference`` hoist bound
methods once at run start.

A span's **self time** is its duration minus the time its wrapped
children cover, so a layer's ``self_s`` never double-counts a nested
layer.  Span state is per thread (the serve workload calls the runner
and protocol from the server thread and two client threads) and the
tracer holds no lock, so a process forked while it is installed cannot
inherit a held one.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "incl_s")

    def __init__(self) -> None:
        #: One child-time accumulator per open span.
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive seconds per counter name (span duration).
        self.incl_s: Dict[str, float] = defaultdict(float)


#: Hook run after a span closes: ``hook(args, result, seconds)``.
Hook = Callable[[tuple, object, float], None]


class Tracer:
    """Installs spans, accumulates per-layer self time and call counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)  # list.append is atomic under the GIL
        return st

    # -- installation -------------------------------------------------------

    def span(self, owner: object, name: str, layer: str,
             counter: Optional[str] = None,
             hook: Optional[Hook] = None) -> None:
        """Wrap ``owner.name`` in a span of ``layer``.

        ``counter`` names the call count and inclusive time (default
        ``"<layer>.<name>"``); ``hook`` sees every completed call.
        """
        orig = inspect.getattr_static(owner, name)
        counter = counter or f"{layer}.{name}"
        state = self._state
        local = self._local

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            st = getattr(local, "st", None) or state()
            stack = st.stack
            stack.append(0.0)
            t0 = _perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = _perf() - t0
                st.self_s[layer] += dt - stack.pop()
                st.calls[counter] += 1
                st.incl_s[counter] += dt
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(args, result, dt)
            return result

        own = name in vars(owner)
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig, own))

    def uninstall(self) -> None:
        """Restore every wrapped function (reverse installation order)."""
        while self._undo:
            owner, name, orig, own = self._undo.pop()
            if own:
                setattr(owner, name, orig)
            else:
                delattr(owner, name)

    # -- readout ------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return sum(st.self_s.get(layer, 0.0) for st in self._states)

    def calls(self, counter: str) -> int:
        return sum(st.calls.get(counter, 0) for st in self._states)

    def incl_s(self, counter: str) -> float:
        return sum(st.incl_s.get(counter, 0.0) for st in self._states)

    def calls_prefix(self, prefix: str) -> int:
        """Total calls of every counter whose name starts with ``prefix``."""
        return sum(n for st in self._states for c, n in st.calls.items()
                   if c.startswith(prefix))


# -- the layer map -----------------------------------------------------------
#
# Layer names are the simulator's module names.  ``install_*`` wrap the
# public functions the layer table of README.md names; counters that feed
# a reported metric get explicit names.


def _public_methods(cls: type) -> List[str]:
    """Public plain functions defined on ``cls`` itself (no properties)."""
    return [n for n, v in vars(cls).items()
            if not n.startswith("_") and inspect.isfunction(v)]


def install_setup_spans(tr: Tracer, build_hook: Hook, sim_hook: Hook,
                        run_hook: Hook) -> None:
    """The spans the untraced run needs too: one call per simulation."""
    from repro.analysis import runner
    from repro.sim.cmp import CMPSimulator

    tr.span(runner, "build_program", "setup", "setup.build_program",
            hook=build_hook)
    tr.span(CMPSimulator, "__init__", "setup", "setup.simulator",
            hook=sim_hook)
    tr.span(CMPSimulator, "run", "sim", "sim.run", hook=run_hook)


def install_sim_layers(tr: Tracer) -> None:
    """Every per-cycle layer of one simulation (traced run only)."""
    from repro.budget import controller as ctl_mod, ptb, spingate
    from repro.core.pipeline import Core
    from repro.mem.coherence import Directory
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.noc.mesh import Mesh2D
    from repro.power.dvfs import DVFSController
    from repro.power.model import EnergyModel
    from repro.power.thermal import ThermalModel
    from repro.power.tokens import TokenAccountant
    from repro.sim import cmp
    from repro.sim.engine import FastEngine
    from repro.sync.primitives import SyncDomain
    from repro.trace.generator import ThreadTraceGenerator

    tr.span(cmp, "default_token_classes", "setup", "setup.token_classes")
    tr.span(MemoryHierarchy, "prewarm", "setup", "setup.prewarm")
    tr.span(FastEngine, "run", "sim", "sim.fast_run")

    tr.span(ThreadTraceGenerator, "next_item", "trace", "trace.next_item")

    tr.span(Core, "step", "core", "core.step")
    tr.span(Core, "idle_cycle", "core", "core.idle")

    for name in ("fetch_instr", "load", "store", "atomic"):
        tr.span(MemoryHierarchy, name, "mem", f"mem.hier.{name}")
    for name in ("read_miss", "write_miss", "evict"):
        tr.span(Directory, name, "mem", f"mem.dir.{name}")

    tr.span(Mesh2D, "record_message", "noc", "noc.record_message")
    tr.span(Mesh2D, "traversal_latency", "noc", "noc.traversal_latency")

    for name in _public_methods(SyncDomain):
        tr.span(SyncDomain, name, "sync", f"sync.{name}")

    tr.span(EnergyModel, "cycle_power", "power", "power.cycle_power")
    tr.span(ThermalModel, "add_cycle", "power", "power.thermal")
    tr.span(DVFSController, "tick", "power", "power.dvfs_tick")
    for name in ("begin_cycle", "on_fetch", "on_commit", "end_cycle"):
        tr.span(TokenAccountant, name, "power", f"power.tokens.{name}")

    for cls in (ctl_mod.BudgetController, ctl_mod.LocalBudgetController,
                ptb.PTBController, spingate.SpinGatingPTBController):
        for name in ("begin_cycle", "end_cycle"):
            if name in vars(cls):
                tr.span(cls, name, "budget", f"budget.{name}")
    tr.span(ptb.PTBLoadBalancer, "cycle", "budget", "budget.balancer")


def install_runner_layer(tr: Tracer) -> None:
    from repro.analysis.runner import ExperimentRunner

    for name in ("lookup", "key_of", "spec_for"):
        tr.span(ExperimentRunner, name, "runner", f"runner.{name}")


def install_serve_layer(tr: Tracer, backend_done: Callable[[float], None]
                        ) -> None:
    """Protocol and token-balancer spans, plus backend futures timed
    from submit to completion in this (the parent) process."""
    from repro.serve import protocol
    from repro.serve.backends import ProcessPoolBackend
    from repro.serve.tokens import TokenBalancer

    for name in protocol.__all__:
        if inspect.isfunction(getattr(protocol, name)):
            tr.span(protocol, name, "serve.protocol", f"serve.protocol.{name}")
    for name in _public_methods(TokenBalancer):
        tr.span(TokenBalancer, name, "serve.balancer",
                f"serve.balancer.{name}")

    def on_submit(_args, fut, dt):
        t0 = _perf() - dt
        fut.add_done_callback(lambda _f: backend_done(_perf() - t0))

    # The future outlives the span: time it from the parent by callback.
    tr.span(ProcessPoolBackend, "submit", "serve.backend",
            "serve.backend.submit", hook=on_submit)
