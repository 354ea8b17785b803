"""Opt-in runtime validation of the static stage schedule.

The static schedule claims: within one cycle, serialized stages execute
in schedule order, and every per-core-parallel stage runs inside the
serialized brackets around it.  :class:`ScheduleValidator` checks that
claim against a *real* run — it walks the simulator's object graph,
wraps every bound method named as a stage entry with a pass-through
recorder (instance-attribute shadowing, so the driver's hoisted
``begin_cycle = controller.begin_cycle`` bindings pick the wrapper up),
and replays the recorded call order against the report.

Per-core-parallel stages commute across cores — the interpreter loop
interleaves ``core0.step, cycle_power, core1.step, ...`` and that is
fine, because the schedule only promises each *core's* chain is
ordered.  So parallel calls are checked against the serialized
watermark but never raise it; a serialized entry running early (or a
parallel entry running after a later serialized stage, e.g. a stray
``core.step`` after ``end_cycle``) is a violation.

Cycle boundaries come from the entries themselves: per-cycle entries
take the cycle number as their first positional argument
(``begin_cycle(cycle)``, ``step(cycle, ...)``); when the number
increases, the watermark resets.  The fast engine
(:mod:`repro.sim.engine`) legitimately runs cycles that skip entries
(fast-forwarded cores call no ``step``, and a controller's steady
cycle replaces ``end_cycle``), so validating it requires
``cycleless_rollover=True``: once the final serialized stage
of a cycle has run, a cycle-less entry of an earlier stage is taken as
the start of the next cycle rather than a violation — nothing may
follow the last stage within one cycle, so the rollover reading is the
only consistent one there.  The reference loop calls
``begin_cycle(cycle)`` every cycle, so it keeps the strict default,
under which the same pattern (e.g. a stray sweep call after
``end_cycle``) stays a violation.

The recorder is observation-only: wrappers forward args and return
values untouched, so a validated run produces the same ``SimResult``
as an unvalidated one.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["ScheduleValidator"]

#: Attribute names never traversed while walking the object graph.
_SKIP_ATTRS = {"cfg", "config", "program", "rng"}

#: Object-graph traversal bound (defensive; the sim graph is tiny).
_MAX_OBJECTS = 4096


class ScheduleValidator:
    """Wraps stage-entry methods on a live simulator and checks order."""

    def __init__(
        self, report: Dict[str, Any], *, cycleless_rollover: bool = False
    ) -> None:
        self.cycleless_rollover = cycleless_rollover
        driver = report.get("driver", "")
        #: entry -> (stage index, is_serialized)
        self.entries: Dict[str, Tuple[int, bool]] = {}
        for stage in report.get("stages", []):
            serial = stage.get("kind") != "per_core_parallel"
            for phase in stage.get("phases", []):
                entry = phase.get("entry", "")
                if "." not in entry or entry == driver:
                    continue
                prev = self.entries.get(entry)
                if prev is None or stage["index"] < prev[0]:
                    self.entries[entry] = (stage["index"], serial)
        serial_stages = [s for s, is_s in self.entries.values() if is_s]
        self.min_serial = min(serial_stages, default=0)
        self.max_serial = max(serial_stages, default=0)
        self.calls: List[Tuple[Optional[int], int, bool, str]] = []
        self.wrapped = 0

    # -- attach ------------------------------------------------------------

    def attach(self, sim: Any) -> "ScheduleValidator":
        """Instrument every reachable object whose class has an entry."""
        by_class: Dict[str, List[str]] = {}
        for entry in self.entries:
            cls, _, meth = entry.partition(".")
            by_class.setdefault(cls, []).append(meth)

        seen: Set[int] = set()
        frontier: List[Any] = [sim]
        while frontier and len(seen) < _MAX_OBJECTS:
            obj = frontier.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            for name in self._class_chain(obj):
                for meth in by_class.get(name, ()):
                    self._wrap(obj, f"{name}.{meth}", meth)
            d = getattr(obj, "__dict__", None)
            if not isinstance(d, dict):
                continue
            for attr, value in d.items():
                if attr.startswith("__") or attr in _SKIP_ATTRS:
                    continue
                if isinstance(value, (list, tuple)):
                    frontier.extend(
                        v for v in value if hasattr(v, "__dict__")
                    )
                elif isinstance(value, dict):
                    frontier.extend(
                        v for v in value.values() if hasattr(v, "__dict__")
                    )
                elif hasattr(value, "__dict__"):
                    frontier.append(value)
        return self

    @staticmethod
    def _class_chain(obj: Any) -> List[str]:
        try:
            return [c.__name__ for c in type(obj).__mro__[:-1]]
        except AttributeError:  # pragma: no cover - exotic objects
            return [type(obj).__name__]

    def _wrap(self, obj: Any, entry: str, meth: str) -> None:
        fn = getattr(obj, meth, None)
        if fn is None or not callable(fn):
            return
        if getattr(fn, "_schedule_validator_wrapped", False):
            return
        stage, serial = self.entries[entry]
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cycle = (
                args[0]
                if args and type(args[0]) is int  # bool is not a cycle
                else None
            )
            calls.append((cycle, stage, serial, entry))
            return fn(*args, **kwargs)

        wrapper._schedule_validator_wrapped = True  # type: ignore[attr-defined]
        try:
            setattr(obj, meth, wrapper)
        except AttributeError:  # pragma: no cover - slots/frozen objects
            return
        self.wrapped += 1

    # -- verdict -----------------------------------------------------------

    def violations(self, limit: int = 20) -> List[str]:
        """Replay the recorded calls against the static stage order."""
        out: List[str] = []
        watermark = -1
        watermark_entry = ""
        last_cycle: Optional[int] = None
        for cycle, stage, serial, entry in self.calls:
            if cycle is not None and (
                last_cycle is None or cycle > last_cycle
            ):
                watermark = -1
                watermark_entry = ""
                last_cycle = cycle
            elif (
                serial
                and cycle is None
                and stage == self.min_serial
                and stage < watermark
            ):
                # Cycle-less first serialized entry: rollover fallback.
                watermark = -1
                watermark_entry = ""
            elif (
                self.cycleless_rollover
                and cycle is None
                and watermark == self.max_serial
                and stage < watermark
            ):
                # The final serialized stage of the cycle already ran, so
                # this cycle-less call can only open the next cycle (see
                # module docstring: fast-engine cycles may carry no cycle
                # number at all).
                watermark = -1
                watermark_entry = ""
            if stage < watermark:
                msg = (
                    f"cycle {last_cycle}: {entry} (stage {stage}) ran "
                    f"after {watermark_entry} (stage {watermark}); "
                    "observed order does not refine the static schedule"
                )
                if msg not in out:
                    out.append(msg)
                    if len(out) >= limit:
                        break
            elif serial and stage > watermark:
                watermark = stage
                watermark_entry = entry
        return out
