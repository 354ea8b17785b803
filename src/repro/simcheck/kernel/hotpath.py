"""Hot call-graph discovery rooted at the driver's per-cycle loop.

The PERF rules and the hot-function report need one ground truth:
*which functions execute once (or more) per simulated cycle*.  The flow
pass already knows how to find the driver (:func:`~repro.simcheck.flow.
hazards.find_driver`) and how to resolve component method calls through
the aliasing instance graph; this module re-drives that machinery with a
sink that records **reachability** instead of effects.

The hot set starts at the driver's cycle-loop body (the prologue binds
aliases but is executed once per run, not per cycle) and follows every
resolvable component-method, property and module-function call
transitively.  The observation plane — anything defined under
``simcheck/`` or ``telemetry/`` — is excluded: the zero-cost guard
contract (PERF006) makes it removable, so its cost is not the cycle
kernel's.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..flow.effects import (
    AbstractVal,
    BodyWalker,
    EffectAnalyzer,
    EffectSet,
    EffectSink,
    Instance,
    _sig,
    build_instance_graph,
)
from ..flow.hazards import find_driver
from ..flow.model import ClassInfo, ModuleInfo, PackageIndex

#: Package-relative directory prefixes excluded from the hot set (the
#: observation plane: removable by the PERF006 zero-cost guard contract).
OBSERVER_PREFIXES = ("simcheck/", "telemetry/")


def is_observer_module(module: ModuleInfo) -> bool:
    return module.relpath.startswith(OBSERVER_PREFIXES)


@dataclass
class HotFunction:
    """One function reachable from the per-cycle sweep."""

    qualname: str                 # "Core.step" / "power.microarch.select_technique"
    module: ModuleInfo
    fn: ast.FunctionDef
    cls: Optional[ClassInfo]      # defining class; None for module functions
    is_driver: bool = False       # restrict rules to the cycle-loop body
    loop: Optional[ast.stmt] = None
    callees: Set[str] = field(default_factory=set)

    @property
    def relpath(self) -> str:
        return self.module.relpath


@dataclass
class HotGraph:
    """The hot call graph: driver + everything per-cycle-reachable."""

    driver: str
    root: Instance
    functions: Dict[str, HotFunction] = field(default_factory=dict)

    def sorted_functions(self) -> List[HotFunction]:
        return [self.functions[k] for k in sorted(self.functions)]


class _ReachSink(EffectSink):
    """Effect sink that records call edges into the graph builder.

    Effects themselves are discarded — the builder only wants to know
    *that* the call happens on the hot path, and through which classes
    it resolves.
    """

    def __init__(
        self, analyzer: EffectAnalyzer, builder: "_HotGraphBuilder",
        caller: str,
    ) -> None:
        super().__init__(analyzer, EffectSet())
        self.builder = builder
        self.caller = caller

    def call(
        self,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        node: ast.AST,
        concrete: Optional[ClassInfo] = None,
    ) -> None:
        if not self.muted:
            self.builder.on_call(self.caller, instance, method, bindings, concrete)

    def function(
        self,
        summary: EffectSet,
        node: ast.AST,
        module: Optional[ModuleInfo] = None,
        fn: Optional[ast.FunctionDef] = None,
        bindings: Optional[Dict[str, AbstractVal]] = None,
    ) -> None:
        if not self.muted and module is not None and fn is not None:
            self.builder.on_function(self.caller, module, fn, bindings or {})


class _HotGraphBuilder:
    def __init__(self, index: PackageIndex, analyzer: EffectAnalyzer) -> None:
        self.index = index
        self.analyzer = analyzer
        self.graph: Optional[HotGraph] = None
        self._seen: Set[Tuple] = set()
        self._queue: List[Tuple] = []

    # -- recording ----------------------------------------------------------

    def _edge(self, caller: str, callee: str) -> None:
        hot = self.graph.functions.get(caller)
        if hot is not None and callee != caller:
            hot.callees.add(callee)

    def on_call(
        self,
        caller: str,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        concrete: Optional[ClassInfo],
    ) -> None:
        candidates = [concrete] if concrete is not None else instance.classes
        for cls in candidates:
            resolved = self.index.resolve_method(cls, method)
            if resolved is None:
                continue
            defclass, fn = resolved
            if is_observer_module(defclass.module):
                continue
            qual = f"{defclass.name}.{method}"
            self._edge(caller, qual)
            self.graph.functions.setdefault(
                qual,
                HotFunction(qual, defclass.module, fn, defclass),
            )
            key = ("m", instance.key, cls.name, method, _sig(bindings))
            if key in self._seen:
                continue
            self._seen.add(key)
            self._queue.append(("m", qual, instance, cls, defclass, fn, bindings))

    def on_function(
        self,
        caller: str,
        module: ModuleInfo,
        fn: ast.FunctionDef,
        bindings: Dict[str, AbstractVal],
    ) -> None:
        if is_observer_module(module):
            return
        qual = f"{module.name}.{fn.name}"
        self._edge(caller, qual)
        self.graph.functions.setdefault(
            qual, HotFunction(qual, module, fn, None)
        )
        key = ("f", module.name, fn.name, _sig(bindings))
        if key in self._seen:
            return
        self._seen.add(key)
        self._queue.append(("f", qual, module, fn, bindings))

    # -- construction -------------------------------------------------------

    def build(
        self,
        root_cls: ClassInfo,
        driver_fn: ast.FunctionDef,
        loop: ast.stmt,
        root: Instance,
    ) -> HotGraph:
        driver_qual = f"{root_cls.name}.{driver_fn.name}"
        self.graph = HotGraph(driver=driver_qual, root=root)
        self.graph.functions[driver_qual] = HotFunction(
            driver_qual, root_cls.module, driver_fn, root_cls,
            is_driver=True, loop=loop,
        )
        sink = _ReachSink(self.analyzer, self, driver_qual)
        walker = BodyWalker(
            self.analyzer, root_cls.module, root, root_cls, root_cls, {}, sink
        )
        # Prologue (alias bindings) runs muted: once per run, not hot.
        sink.muted += 1
        for stmt in driver_fn.body:
            if stmt is loop:
                break
            walker.exec_stmt(stmt)
        # Prime loop-body bindings muted, then record the live pass.
        for stmt in loop.body:
            walker.exec_stmt(stmt)
        sink.muted -= 1
        if isinstance(loop, ast.For):
            walker.bind_loop_target(loop.target, loop.iter)
        for stmt in loop.body:
            walker.exec_stmt(stmt)
        self._drain()
        return self.graph

    def _drain(self) -> None:
        while self._queue:
            item = self._queue.pop(0)
            if item[0] == "m":
                _, qual, instance, cls, defclass, fn, bindings = item
                env = {k: v for k, v in bindings.items() if v is not None}
                walker = BodyWalker(
                    self.analyzer, defclass.module, instance, cls, defclass,
                    env, _ReachSink(self.analyzer, self, qual),
                )
            else:
                _, qual, module, fn, bindings = item
                env = {k: v for k, v in bindings.items() if v is not None}
                walker = BodyWalker(
                    self.analyzer, module, None, None, None, env,
                    _ReachSink(self.analyzer, self, qual),
                )
            walker.exec_body(fn.body)


def build_hot_graph(
    index: PackageIndex, analyzer: Optional[EffectAnalyzer] = None
) -> Tuple[Optional[HotGraph], List[str]]:
    """Discover the hot call graph: (graph or None, notes)."""
    notes: List[str] = []
    driver = find_driver(index)
    if driver is None:
        notes.append(
            "kernel: no per-cycle driver loop found "
            "(looked for run/tick/advance with a top-level loop)"
        )
        return None, notes
    root_cls, fn, loop = driver
    notes.append(
        f"kernel: driver {root_cls.name}.{fn.name} "
        f"({root_cls.module.relpath}:{fn.lineno})"
    )
    if analyzer is None:
        analyzer = EffectAnalyzer(index)
    root = build_instance_graph(index, root_cls)
    graph = _HotGraphBuilder(index, analyzer).build(root_cls, fn, loop, root)
    notes.append(f"kernel: {len(graph.functions)} hot function(s)")
    return graph, notes
