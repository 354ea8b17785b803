"""Per-core DVFS / DFS controller.

Implements the coarse-grained first level of the evaluated techniques
(Section III.C): five power modes

    (100% V, 100% f) (95, 95) (90, 90) (90, 75) (90, 65)

for DVFS, and the same frequency points at full voltage for DFS.

The controller follows the classic exploration/use-window structure the
paper describes as DVFS's handicap: it observes average power over a
``window_cycles`` window and only then re-selects a mode; mode changes
pay a per-step transition latency (Kim's fast on-chip regulators [8],
the paper's best-case assumption) during which the core runs at the
slower of the two modes' frequencies while paying the higher voltage.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import DVFSConfig
from ..units import Cycles, Joules, Watts


def _window_joules(power: Watts) -> Joules:
    """One cycle of power folded into the observation-window energy.

    Exchange rate 1 (one sample = one cycle); the accumulator crosses
    dimensions here so the checker sees the conversion is deliberate.
    """
    return power  # simcheck: disable=UNIT004 - the declared exchange


class DVFSController:
    """Window-averaged mode selection toward a local power budget."""

    __slots__ = (
        "cfg", "modes", "mode", "target_mode", "_window_energy",
        "_window_left", "_transition_left", "transitions", "f_credit",
        "_telemetry", "_core_id",
    )

    def __init__(self, cfg: DVFSConfig, dfs: bool = False) -> None:
        self.cfg = cfg
        if dfs:
            self.modes: Tuple[Tuple[float, float], ...] = tuple(
                (1.0, f) for _, f in cfg.modes
            )
        else:
            self.modes = cfg.modes
        self.mode = 0
        self.target_mode = 0
        self._window_energy: Joules = 0.0
        self._window_left: Cycles = cfg.window_cycles
        self._transition_left: Cycles = 0
        self.transitions = 0
        self.f_credit = 0.0
        #: Optional :class:`repro.telemetry.TelemetrySession` hook; the
        #: session stamps ``_core_id`` when it attaches.
        self._telemetry = None
        self._core_id = -1

    # -- state queries -----------------------------------------------------

    @property
    def v_scale(self) -> float:
        if self._transition_left > 0:
            # Pay the higher voltage of the two endpoint modes.
            return max(self.modes[self.mode][0], self.modes[self.target_mode][0])
        return self.modes[self.mode][0]

    @property
    def f_scale(self) -> float:
        if self._transition_left > 0:
            return min(self.modes[self.mode][1], self.modes[self.target_mode][1])
        return self.modes[self.mode][1]

    @property
    def in_transition(self) -> bool:
        return self._transition_left > 0

    # -- per-cycle operation -------------------------------------------------

    def tick(self, core_power: Watts, local_budget: Watts) -> bool:
        """Advance one global cycle.

        Returns True when the core should execute a pipeline step this
        cycle (frequency scaling by cycle-skipping: the core earns
        ``f_scale`` execution credit per global cycle).
        """
        if self._transition_left > 0:
            self._transition_left -= 1
            if self._transition_left == 0:
                self.mode = self.target_mode

        self._window_energy += _window_joules(core_power)
        self._window_left -= 1
        if self._window_left <= 0:
            avg: Watts = self._window_energy / self.cfg.window_cycles
            self._select_mode(avg, local_budget)
            self._window_energy = 0.0
            self._window_left = self.cfg.window_cycles

        self.f_credit += self.f_scale
        if self.f_credit >= 1.0:
            self.f_credit -= 1.0
            return True
        return False

    def _select_mode(self, avg_power: Watts, budget: Watts) -> None:
        """Pick the fastest mode whose scaled power fits the budget."""
        if self._transition_left > 0:
            return  # finish the current transition first
        if avg_power <= 0:
            target = 0
        else:
            cur_v, cur_f = self.modes[self.mode]
            cur_scale = cur_v * cur_v * cur_f
            target = len(self.modes) - 1  # default: slowest mode
            for i, (v, f) in enumerate(self.modes):
                scale = v * v * f
                # Predicted power if we moved to mode i.
                predicted = avg_power * (scale / cur_scale)
                if predicted <= budget:
                    target = i
                    break
        if target != self.mode:
            steps = abs(target - self.mode)
            self._transition_left = steps * self.cfg.transition_cycles_per_step
            self.target_mode = target
            self.transitions += 1
            if self._telemetry is not None:
                self._telemetry.on_dvfs(self._core_id, self.mode, target)

    def force_mode(self, mode: int) -> None:
        """Jump to a mode instantly (used by tests and warm starts)."""
        if not (0 <= mode < len(self.modes)):
            raise ValueError(f"mode {mode} out of range")
        self.mode = mode
        self.target_mode = mode
        self._transition_left = 0


def steady_ticks(
    ctls: List[DVFSController], powers: List[Watts], execute: List[bool]
) -> None:
    """:meth:`DVFSController.tick` of every controller in ``ctls``, for a
    cycle in which none is mid-transition and no window rolls over.

    Such a tick selects no mode: it only folds the core's power into the
    observation window and spends frequency credit at the current
    mode's ``f_scale``.  The caller guarantees both conditions;
    ``execute[i]`` receives the result of tick ``i``.
    """
    i = 0
    for ctl in ctls:
        ctl._window_energy += _window_joules(powers[i])
        ctl._window_left -= 1
        credit = ctl.f_credit + ctl.modes[ctl.mode][1]
        if credit >= 1.0:
            ctl.f_credit = credit - 1.0
            execute[i] = True
        else:
            ctl.f_credit = credit
            execute[i] = False
        i += 1
