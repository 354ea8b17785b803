"""Power-budget enforcement framework.

A controller owns the per-core actuators (DVFS mode selection,
microarchitectural throttles) and decides, cycle by cycle, what each
core may do next cycle.  The simulator's contract:

1. ``directives`` arrays are read at the top of every global cycle —
   ``execute[i]`` (False = frequency-skipped cycle), ``fetch_allowed[i]``,
   ``issue_width[i]`` (None = full width) and ``v_scale[i]``.
2. After all cores stepped, the simulator calls
   :meth:`BudgetController.end_cycle` with each core's measured power
   (EU) and power-token consumption; the controller updates actuator
   state for the *next* cycle.  All reactions therefore see at least
   one cycle of latency, as a real controller would.
3. A simulator may first offer the cycle to
   :meth:`BudgetController.steady_end_cycle`, the controller's own
   closed form of a quiet cycle, and call ``end_cycle`` only when it
   declines.

The *naive* policy of Section III.C splits the global budget equally:
``local = global / num_cores``, and a core is only throttled when the
CMP as a whole exceeds the global budget **and** the core exceeds its
local share.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import CMPConfig
from ..power.dvfs import DVFSController, steady_ticks
from ..power.microarch import (
    ISSUE_TECHNIQUES,
    MicroarchThrottle,
    Technique,
    advance_idle,
    select_technique,
)
from ..power.model import EnergyModel
from ..units import Tokens, Watts


class BudgetController:
    """Base class: no throttling, full speed (the paper's base case)."""

    name = "none"
    uses_ptht = False

    def __init__(
        self,
        cfg: CMPConfig,
        energy: EnergyModel,
        global_budget: Watts,
    ) -> None:
        self.cfg = cfg
        self.energy = energy
        self.num_cores = cfg.num_cores
        self.global_budget: Watts = global_budget
        self.local_budget: Watts = global_budget / cfg.num_cores
        n = cfg.num_cores
        self.execute: List[bool] = [True] * n
        self.fetch_allowed: List[bool] = [True] * n
        self.issue_width: List[Optional[int]] = [None] * n
        self.v_scale: List[float] = [1.0] * n
        #: Per-core budget *line* used by the AoPB metric (Figure 1):
        #: the equal share under the naive split; PTB raises/lowers it
        #: with granted/pledged tokens while conserving the global sum.
        self.budget_lines: List[Watts] = [self.local_budget] * n
        self.throttled_cycles = 0
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The one place the steady path is decided: a subclass that
        # overrides a per-cycle hook without restating the steady cycle
        # would inherit a shortcut that skips its override, so it runs
        # the full path every cycle instead.
        own = vars(cls)
        if "steady_end_cycle" not in own and (
            "begin_cycle" in own or "end_cycle" in own
        ):
            cls.steady_end_cycle = _full_path

    def begin_cycle(self, now: int) -> None:
        pass

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        pass

    def steady_end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        total: Watts,
        sync_domain=None,
    ) -> bool:
        """Apply this cycle's :meth:`end_cycle` in closed form if it is steady.

        ``total`` is ``sum(powers)`` accumulated in core order.  Returns
        True when the cycle was applied, leaving the controller exactly
        as ``end_cycle`` would with ``v_scale`` unchanged.  Returns False,
        having changed nothing, when the cycle needs the full
        ``end_cycle``.  The base controller's ``end_cycle`` does nothing,
        so every cycle is steady.
        """
        return True


def _full_path(self, now, tokens, powers, total, sync_domain=None) -> bool:
    """Steady path of a controller that has none: always decline."""
    return False


class LocalBudgetController(BudgetController):
    """Naive equal-split enforcement with DVFS / DFS / 2-level actuators.

    ``technique``:

    * ``"dvfs"``  — five-mode voltage+frequency scaling, window-averaged.
    * ``"dfs"``   — frequency-only scaling (no voltage headroom).
    * ``"2level"``— DVFS as level 1 plus per-cycle microarchitectural
      spike removal as level 2 (Cebrián et al. [2]).
    """

    def __init__(
        self,
        cfg: CMPConfig,
        energy: EnergyModel,
        global_budget: Watts,
        technique: str = "dvfs",
    ) -> None:
        super().__init__(cfg, energy, global_budget)
        if technique not in ("dvfs", "dfs", "2level"):
            raise ValueError(f"unknown technique {technique!r}")
        self.name = technique
        self.uses_ptht = technique == "2level"
        n = cfg.num_cores
        dfs = technique == "dfs"
        self._dvfs = [DVFSController(cfg.dvfs, dfs=dfs) for _ in range(n)]
        self._throttles = (
            [MicroarchThrottle() for _ in range(n)]
            if technique == "2level"
            else None
        )
        # Window-averaged global-over verdict gating the DVFS level.  The
        # per-core DVFS windows start equal to this one and tick with it.
        self._win_energy = 0.0
        self._win_left = cfg.dvfs.window_cycles
        self._global_over_window = False
        # Cached "no DVFS transition in flight, every throttle at NONE,
        # no telemetry" verdict; None until recomputed after end_cycle.
        self._quiet: Optional[bool] = None

    def _window_step(self, total: Watts) -> Watts:
        """Fold one cycle of CMP power into the global window; return the
        DVFS budget (the local share while the last window averaged over
        the global budget, unlimited otherwise)."""
        self._win_energy += total
        self._win_left -= 1
        if self._win_left <= 0:
            w = self.cfg.dvfs.window_cycles
            self._global_over_window = (self._win_energy / w) > self.global_budget
            self._win_energy = 0.0
            self._win_left = w
        return self.local_budget if self._global_over_window else float("inf")

    def _steady(self) -> bool:
        """May a cycle below the budget skip the actuator decisions?

        Holds when no window rolls over this cycle, no DVFS transition
        is in flight and every throttle is at NONE: then each DVFS tick
        only spends credit, each throttle stays at NONE, and ``v_scale``,
        ``fetch_allowed`` and ``issue_width`` keep the values the last
        ``end_cycle`` wrote.
        """
        if self._win_left <= 1:
            return False
        quiet = self._quiet
        if quiet is None:
            throttles = self._throttles
            quiet = self._quiet = (
                self._telemetry is None
                and not any(ctl.in_transition for ctl in self._dvfs)
                and (throttles is None
                     or all(th.technique == Technique.NONE for th in throttles))
            )
        return quiet

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        total = 0.0
        for p in powers:
            total += p
        global_over_now = total > self.global_budget

        # Track the same window the per-core DVFS controllers use, so the
        # coarse level only reacts when the *CMP* is over budget.
        dvfs_budget = self._window_step(total)
        self._quiet = None

        local = self.local_budget
        throttles = self._throttles
        dvfs = self._dvfs
        execute = self.execute
        v_scales = self.v_scale
        fetch_allowed = self.fetch_allowed
        issue_widths = self.issue_width
        full_width = self.cfg.core.issue_width
        telemetry = self._telemetry
        for i in range(self.num_cores):
            ctl = dvfs[i]
            execute[i] = ctl.tick(powers[i], dvfs_budget)
            v_scales[i] = ctl.v_scale
            if throttles is not None:
                th = throttles[i]
                if global_over_now and powers[i] > local:
                    overshoot = (powers[i] - local) / local
                    th.set(select_technique(overshoot))
                else:
                    th.set(Technique.NONE)
                th.tick()
                fetch_allowed[i] = th.fetch_allowed
                issue_widths[i] = (
                    th.issue_width(full_width)
                    if th.technique in ISSUE_TECHNIQUES
                    else None
                )
                if th.technique != Technique.NONE:
                    self.throttled_cycles += 1
                if telemetry is not None:
                    telemetry.on_throttle(i, int(th.technique))

    def steady_end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        total: Watts,
        sync_domain=None,
    ) -> bool:
        throttles = self._throttles
        if not self._steady() or (
            throttles is not None and total > self.global_budget
        ):
            return False
        self._window_step(total)
        steady_ticks(self._dvfs, powers, self.execute)
        if throttles is not None:
            advance_idle(throttles)
        return True

    # -- introspection -----------------------------------------------------

    def mode_of(self, core: int) -> int:
        return self._dvfs[core].mode

    def technique_of(self, core: int) -> Technique:
        if self._throttles is None:
            return Technique.NONE
        return self._throttles[core].technique
