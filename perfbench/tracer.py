"""Outside-in tracer for the cransense package.

The tracer replaces a public function at every module binding that holds it
(``interference_map`` is bound in ``model``, ``power_opt``, ``assoc_opt`` and
``sensing_opt``; ``solve_joint`` in ``alternating``, ``scenario``, ``cli`` and
the package itself) by a wrapper, and puts every original back on exit.

Block-level functions record one span each (name, id, parent, start, end,
self time).  Hot leaf kernels, called 10^4 to 10^6 times per run, only add
to an aggregate (calls, total time, self time): holding a span per call
would distort the run being measured.  Self time is a call's duration minus
the time covered by its traced children; calls nest on one thread, so the
children's intervals are disjoint and that cover is the sum of their
durations.  Solver counters are read from return values.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    span_id: int
    parent: Optional[int]
    start: float
    end: float
    self_s: float


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One traced function: home module, attribute, span or aggregate, counter hook."""

    module: str
    attr: str
    block: bool
    on_return: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _joint_counters(counters, out):
    report = out[1]
    counters["alternating.outer_iters"] += report.iterations
    counters["alternating.converged"] += int(report.converged)


def _power_counters(counters, out):
    counters["power_opt.solve_power.sca_iters"] += len(out.iterates)
    counters["power_opt.solve_power.converged"] += int(out.converged)
    kkt = max((it.inner_kkt_residual for it in out.iterates), default=0.0)
    counters["power_opt.solve_power.inner_kkt_max"] = max(
        counters["power_opt.solve_power.inner_kkt_max"], kkt)


def _assoc_counters(counters, out):
    counters["assoc_opt.solve_association.nodes"] += out.nodes_explored
    counters["assoc_opt.solve_association.proven"] += int(out.proven_optimal)


def _sensing_counters(counters, out):
    counters["sensing_opt.solve_sensing.kkt_residual_max"] = max(
        counters["sensing_opt.solve_sensing.kkt_residual_max"], out.kkt_residual)


TARGETS = (
    Target("alternating", "solve_joint", True, _joint_counters),
    Target("alternating", "default_initialization", True),
    Target("sensing_opt", "solve_sensing", True, _sensing_counters),
    Target("assoc_opt", "solve_association", True, _assoc_counters),
    Target("assoc_opt", "rate_table", True),
    Target("power_opt", "solve_power", True, _power_counters),
    Target("model", "check_constraints", True),
    Target("scenario", "generate_instance", True),
    Target("scenario", "optimal_sensing_time", True),
    Target("scenario", "run_sweep", True),
    Target("scenario", "run_interruption_sweep", True),
    Target("sensing", "interruption_probability", True),
    # Leaf kernels: aggregate only.
    Target("power_opt", "project_power_budget", False),
    Target("model", "interference_map", False),
    Target("model", "total_approx_throughput", False),
    Target("scenario", "evaluate_fixed_tau_throughput", False),
    Target("sensing", "detection_probability", False),
    Target("gaussian", "q_inv", False),
)


class Tracer:
    """Spans, aggregates and counters for one traced section."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # frames: [child time, enclosing span id]
        self._next_id = 0
        self._patches: list[tuple] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        stat = self.stats.setdefault(target.name, Stat())
        clock, stack, spans, counters = self.clock, self._stack, self.spans, self.counters
        name, block, on_return = target.name, target.block, target.on_return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = parent
            if block:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += self_s
                if block:
                    spans.append(Span(name, span_id, parent, start, end, self_s))
            if on_return is not None:
                on_return(counters, out)
            return out

        return traced

    def install(self, modules: dict, targets=TARGETS) -> None:
        """Wrap each target at every binding of it in ``modules`` (name -> module)."""
        for target in targets:
            original = getattr(modules[target.module], target.attr)
            wrapper = self.wrap(target, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
