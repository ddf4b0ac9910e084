"""Per-layer host-time attribution and engine event counting.

Two instruments, both installed from the benchmark's side without
touching the simulator:

* :func:`self_time_by_layer` groups a ``cProfile`` run's self time by
  ``repro.<package>``.  Time spent in builtins, C calls and any other
  code outside ``repro`` (NumPy, the standard library) is charged to the
  ``repro`` package that called it, following the profiler's caller
  edges, so no layer's work lands in an unowned bucket.
* :class:`EventCounter` is an engine event hook
  (:meth:`repro.sim.engine.Simulator.add_event_hook`) that counts
  dispatched events by kind.
"""

from __future__ import annotations

import cProfile
from pathlib import PurePath
import pstats
from typing import Any, Callable, Dict, Tuple, TypeVar

from repro.sim.engine import Continuation
from repro.sim.events import Timeout
from repro.sim.process import Process
from repro.sim.resources import Request

#: The layers the benchmark reports, each a ``repro`` package.
LAYERS = ("sim", "net", "core", "disk", "backend", "obs", "online", "parallel", "traces")
#: Bucket for profiled time no ``repro`` package owns (the benchmark's
#: own frames, or ``repro`` packages outside :data:`LAYERS`).
OTHER = "other"

FuncKey = Tuple[str, int, str]
T = TypeVar("T")


def package_of(filename: str) -> str | None:
    """``repro`` package a source file belongs to, or None."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i > 0 and parts[i - 1] == "src":
            top = parts[i + 1]
            return top[:-3] if top.endswith(".py") else top
    return None


def profile_call(fn: Callable[[], T]) -> Tuple[T, Dict[FuncKey, Any]]:
    """Run *fn* under ``cProfile``; return its value and the raw stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    return value, pstats.Stats(profiler).stats  # type: ignore[attr-defined]


def self_time_by_layer(stats: Dict[FuncKey, Any]) -> Dict[str, float]:
    """Profiled self seconds per layer in :data:`LAYERS` plus :data:`OTHER`.

    A function inside ``repro`` owns its self time.  Any other function
    splits its self time over its callers by the per-edge self time the
    profiler recorded, and a caller that is itself outside ``repro``
    passes its share on to its own callers in proportion to the
    cumulative time of each edge.
    """
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner_weights(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        cached = owners.get(func)
        if cached is not None:
            return cached
        package = package_of(func[0])
        if package is not None:
            weights = {package if package in LAYERS else OTHER: 1.0}
        elif func in visiting or func not in stats:
            return {OTHER: 1.0}
        else:
            callers = stats[func][4]
            total = sum(edge[3] for edge in callers.values())
            if not callers or total <= 0:
                weights = {OTHER: 1.0}
            else:
                weights = {}
                for caller, edge in callers.items():
                    for layer, w in owner_weights(caller, visiting | {func}).items():
                        weights[layer] = weights.get(layer, 0.0) + w * edge[3] / total
        owners[func] = weights
        return weights

    totals = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        package = package_of(func[0])
        if package is not None:
            totals[package if package in LAYERS else OTHER] += tt
            continue
        edge_tt = sum(edge[2] for edge in callers.values())
        if not callers or edge_tt <= 0:
            totals[OTHER] += tt
            continue
        for caller, edge in callers.items():
            share = tt * edge[2] / edge_tt
            for layer, w in owner_weights(caller, frozenset({func})).items():
                totals[layer] += share * w
    return totals


class EventCounter:
    """Engine event hook counting dispatched events by kind.

    ``process_resumes`` counts generator resumptions (callbacks bound to
    ``Process._resume``), which is what a continuation-native rewrite of
    a layer removes; the other counts are by event class.
    """

    def __init__(self) -> None:
        self.events = 0
        self.process_resumes = 0
        self.continuations = 0
        self.timeouts = 0
        self.resource_requests = 0

    def __call__(self, _now: float, event: Any) -> None:
        self.events += 1
        cls = event.__class__
        if cls is Continuation:
            self.continuations += 1
            return
        if isinstance(event, Timeout):
            self.timeouts += 1
        elif isinstance(event, Request):
            self.resource_requests += 1
        callbacks = event.callbacks
        if callbacks:
            resume = Process._resume
            for callback in callbacks:
                if getattr(callback, "__func__", None) is resume:
                    self.process_resumes += 1

    def per_request(self, requests: int) -> Dict[str, float]:
        return {
            "sim.process_resumes_per_req": self.process_resumes / requests,
            "sim.continuations_per_req": self.continuations / requests,
            "sim.timeouts_per_req": self.timeouts / requests,
            "sim.resource_requests_per_req": self.resource_requests / requests,
        }
