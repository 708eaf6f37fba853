"""The traced run: spans around each layer's public entry points.

Nothing here touches the program's sources.  :class:`Recorder`
rebinds public functions and methods where their callers look them up
(a module global, a class attribute) to a wrapper that records one span
per call: layer, start, end, parent span.  Spans are kept in memory and
turned into the per-layer table when the run ends; ``write`` saves
them as JSONL.

A layer's time is its *self* time: the span's duration minus the part
its child spans cover, so the layer times of a run add up to the time
spent inside any wrapped call.  Counts come from the same boundaries
(the wrapped call's arguments and result), never from counters inside
the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Per-layer metrics of the traced run, in table order:
#: name -> (unit, better).  BENCHMARK.json lists the same names.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "litmus.parse_ms": ("ms", "lower"),
    "prepare.ms": ("ms", "lower"),
    "check.self_ms": ("ms", "lower"),
    "enum.ms": ("ms", "lower"),
    "enum.steps": ("count", "lower"),
    "enum.completed_paths": ("count", "lower"),
    "enum.por_pruned": ("count", "higher"),
    "enum.memo_hits": ("count", "higher"),
    "enum.executions": ("count", "lower"),
    "classify.ms": ("ms", "lower"),
    "classify.execution_classes": ("count", "lower"),
    "classify.analyses_run": ("count", "lower"),
    "classify.analyses_per_execution": ("ratio", "lower"),
    "route.ms": ("ms", "lower"),
    "route.to_sat": ("count", "lower"),
    "route.to_enum": ("count", "higher"),
    "solver.ms": ("ms", "lower"),
    "solver.decisions": ("count", "lower"),
    "solver.conflicts": ("count", "lower"),
    "solver.propagations": ("count", "lower"),
    "solver.learned": ("count", "lower"),
    "solver.classes": ("count", "lower"),
    "solver.capacity_fallbacks": ("count", "lower"),
    "batch.call_ms": ("ms", "lower"),
    "batch.checks": ("count", "higher"),
    "workloads.build_ms": ("ms", "lower"),
    "workloads.trace_ops": ("count", "lower"),
    "sim.compile_ms": ("ms", "lower"),
    "sim.vectorize_ms": ("ms", "lower"),
    "sim.run_ms": ("ms", "lower"),
    "sim.cycles": ("count", "lower"),
    "sim.core_op": ("count", "lower"),
    "sim.l1_access": ("count", "lower"),
    "sim.l2_access": ("count", "lower"),
    "sim.noc_flit_hops": ("count", "lower"),
    "sim.dram_access": ("count", "lower"),
    "sim.host_ns_per_trace_op": ("ns", "lower"),
    "energy.ms": ("ms", "lower"),
    "sweep.self_ms": ("ms", "lower"),
    "api.validate_ms": ("ms", "lower"),
    "api.shard_ms": ("ms", "lower"),
    "api.execute_shard_ms": ("ms", "lower"),
    "api.merge_ms": ("ms", "lower"),
    "api.shards": ("count", "lower"),
    "cache.lookup_ms": ("ms", "lower"),
    "cache.store_ms": ("ms", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.cache_hits": ("count", "higher"),
    "traced.work_per_s": ("1/s", "higher"),
    "traced.latency_p50_ms": ("ms", "lower"),
}

#: span name -> the ``*_ms`` metric its self time adds to.
SPAN_LAYER = {
    "dsl.parse": "litmus.parse_ms",
    "Program.relabel": "prepare.ms",
    "quantum_equivalent": "prepare.ms",
    "model.check": "check.self_ms",
    "enumerate_sc_executions": "enum.ms",
    "classify_enumeration": "classify.ms",
    "race_signature": "classify.ms",
    "RaceAnalysis.illegal_races": "classify.ms",
    "router.decide": "route.ms",
    "sat_enumeration": "solver.ms",
    "check_many": "batch.call_ms",
    "Workload.build": "workloads.build_ms",
    "compile_kernel": "sim.compile_ms",
    "vectorize_kernel": "sim.vectorize_ms",
    "run_workload": "sim.run_ms",
    "EnergyModel.breakdown": "energy.ms",
    "run_sweep": "sweep.self_ms",
    "validate_request": "api.validate_ms",
    "shard_request": "api.shard_ms",
    "execute_shard": "api.execute_shard_ms",
    "merge_shards": "api.merge_ms",
    "request_is_cacheable": "cache.lookup_ms",
    "request_cache_key": "cache.lookup_ms",
    "ResultCache.get": "cache.lookup_ms",
    "ResultCache.put": "cache.store_ms",
}


class Recorder:
    """Collects spans and counts while its wrappers are installed.

    Thread-safe: the service runs shards on a worker thread, so each
    thread keeps its own span stack, and counts are bumped under a
    lock.
    """

    def __init__(self) -> None:
        #: (span id, parent id or 0, name, start ns, end ns, thread id)
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        #: request id -> perf_counter() when a dispatcher picked it up
        self.dispatched: Dict[object, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bump(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _open(self) -> Tuple[int, int, List[int]]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id, parent, stack, name, start) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        self.spans.append(
            (span_id, parent, name, start, end, threading.get_ident())
        )

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper.

        ``after(recorder, args, kwargs, result)`` derives counts from a
        finished call; ``on_error(recorder, exc)`` from a raising one.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent, stack = recorder._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                recorder._close(span_id, parent, stack, name, start)
                if on_error is not None:
                    on_error(recorder, exc)
                raise
            recorder._close(span_id, parent, stack, name, start)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str,
                       after: Optional[Callable] = None) -> None:
        """Like :meth:`wrap` for a generator function: the span covers
        the whole iteration, and ``after`` sees the list of yielded
        items.  Callers must consume the generator without calling
        other wrapped functions between items (``list(...)`` does)."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent, stack = recorder._open()
            start = time.perf_counter_ns()
            items = []
            try:
                for item in original(*args, **kwargs):
                    items.append(item)
            finally:
                recorder._close(span_id, parent, stack, name, start)
            if after is not None:
                after(recorder, args, kwargs, items)
            yield from items

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        # Class attributes are restored from the class __dict__ so a
        # staticmethod/classmethod descriptor would survive the round
        # trip; plain functions and methods are stored as-is.
        saved = owner.__dict__.get(attr, original) if isinstance(owner, type) else original
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound attribute (last installed first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def self_ms(self) -> Dict[str, float]:
        """Self time per span name, in ms."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _sid, parent, _name, start, end, _tid in self.spans:
            if parent:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end, _tid in self.spans:
            totals[name] += (end - start - child_ns.get(sid, 0)) / 1e6
        return dict(totals)

    def layer_table(self) -> Dict[str, float]:
        """Every metric of :data:`LAYER_METRICS` except the ``traced.*``
        end-to-end pair, which the runner fills in.  Layers the workload
        never reached read 0."""
        table = {name: 0.0 for name in LAYER_METRICS}
        for span_name, ms in self.self_ms().items():
            table[SPAN_LAYER[span_name]] += ms
        for name, value in self.counts.items():
            if name in table:
                table[name] += value
        checked = self.counts.get("classify.checked_executions", 0)
        if checked:
            table["classify.analyses_per_execution"] = (
                table["classify.analyses_run"] / checked
            )
        lookups = table["cache.hits"] + table["cache.misses"]
        if lookups:
            table["cache.hit_ratio"] = table["cache.hits"] / lookups
        trace_ops = self.counts.get("sim.run_trace_ops", 0)
        if trace_ops:
            table["sim.host_ns_per_trace_op"] = (
                table["sim.run_ms"] * 1e6 / trace_ops
            )
        return table

    def write(self, path: str) -> None:
        """Save the spans as JSONL (one object per span)."""
        with open(path, "w") as handle:
            for sid, parent, name, start, end, tid in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "thread": tid,
                }) + "\n")


# -- the wrapped entry points --------------------------------------------------

def _after_enum(rec: Recorder, args, kwargs, enumeration) -> None:
    stats = enumeration.stats
    rec.bump("enum.steps", stats.steps)
    rec.bump("enum.completed_paths", stats.completed_paths)
    rec.bump("enum.por_pruned", stats.por_pruned)
    rec.bump("enum.memo_hits", stats.memo_hits)
    rec.bump("enum.executions", len(enumeration.executions))


def _after_sat(rec: Recorder, args, kwargs, enumeration) -> None:
    stats = enumeration.solver_stats
    if stats is None:
        return
    rec.bump("solver.decisions", stats.decisions)
    rec.bump("solver.conflicts", stats.conflicts)
    rec.bump("solver.propagations", stats.propagations)
    rec.bump("solver.learned", stats.learned)
    rec.bump("solver.classes", stats.classes)


def _sat_error(rec: Recorder, exc: Exception) -> None:
    from repro.solver import SolverCapacityError

    if isinstance(exc, SolverCapacityError):
        rec.bump("solver.capacity_fallbacks")


def _after_decide(rec: Recorder, args, kwargs, decision) -> None:
    rec.bump("route.to_sat" if decision.engine == "sat" else "route.to_enum")


def _count_results(rec: Recorder, results) -> None:
    for result in results:
        rec.bump("classify.execution_classes", result.execution_classes)
        rec.bump("classify.checked_executions", result.executions_explored)


def _after_check(rec: Recorder, args, kwargs, result) -> None:
    _count_results(rec, [result])


def _after_check_many(rec: Recorder, args, kwargs, results) -> None:
    rec.bump("batch.checks", len(results))
    _count_results(rec, results)


def _after_analysis(rec: Recorder, args, kwargs, races) -> None:
    rec.bump("classify.analyses_run")


def _after_build(rec: Recorder, args, kwargs, kernel) -> None:
    rec.bump("workloads.trace_ops", kernel.total_ops())


def _after_run_workload(rec: Recorder, args, kwargs, result) -> None:
    from repro.sim import stats as S

    kernel = args[0] if args else kwargs["kernel"]
    rec.bump("sim.run_trace_ops", kernel.total_ops())
    rec.bump("sim.cycles", result.cycles)
    rec.bump("sim.core_op", result.stats.get(S.CORE_OP))
    rec.bump("sim.l1_access", result.stats.get(S.L1_ACCESS))
    rec.bump("sim.l2_access", result.stats.get(S.L2_ACCESS))
    rec.bump("sim.noc_flit_hops", result.stats.get(S.NOC_FLIT_HOPS))
    rec.bump("sim.dram_access", result.stats.get(S.DRAM_ACCESS))


def _after_shard(rec: Recorder, args, kwargs, part) -> None:
    rec.bump("api.shards")


def _after_get(rec: Recorder, args, kwargs, outcome) -> None:
    rec.bump("cache.hits" if outcome[0] else "cache.misses")


def _after_cacheable(rec: Recorder, args, kwargs, cacheable) -> None:
    normalized = args[0] if args else kwargs["normalized"]
    rec.dispatched.setdefault(normalized["id"], time.perf_counter())


def install(rec: Recorder) -> None:
    """Wrap the public entry point of every layer, at the name each
    caller resolves at call time.  Several callers import a function
    into their own module namespace, so it is wrapped there too."""
    import repro.batch as batch
    import repro.core.model as model
    import repro.eval.harness as harness
    import repro.litmus.dsl as dsl
    import repro.serve as serve
    import repro.sim.compile as sim_compile
    import repro.sim.vectorize as sim_vectorize
    import repro.solver as solver
    import repro.solver.router as router
    from repro.core.races import RaceAnalysis
    from repro.energy.model import EnergyModel
    from repro.litmus.program import Program
    from repro.perf.cache import ResultCache
    from repro.workloads.base import Workload

    # litmus: the api resolves DSL sources through dsl.parse at call time.
    rec.wrap(dsl, "parse", "dsl.parse")
    # core.model: preparation (relabel + quantum transform), the check
    # driver, enumeration and classification as check() calls them.
    rec.wrap(Program, "relabel", "Program.relabel")
    rec.wrap(model, "quantum_equivalent", "quantum_equivalent")
    rec.wrap(model, "check", "model.check", after=_after_check)
    rec.wrap(model, "enumerate_sc_executions", "enumerate_sc_executions",
             after=_after_enum)
    rec.wrap(model, "classify_enumeration", "classify_enumeration")
    rec.wrap(RaceAnalysis, "illegal_races", "RaceAnalysis.illegal_races",
             after=_after_analysis)
    # batch: the bulk call, and the public helpers it looks up in its
    # own namespace (enumeration and race signatures).
    rec.wrap_generator(batch, "check_many", "check_many",
                       after=_after_check_many)
    rec.wrap(batch, "enumerate_sc_executions", "enumerate_sc_executions",
             after=_after_enum)
    rec.wrap(batch, "race_signature", "race_signature")
    # solver: routing and the SAT engine (imported from the package at
    # call time by both check() and check_many()).
    rec.wrap(router, "decide", "router.decide", after=_after_decide)
    rec.wrap(solver, "sat_enumeration", "sat_enumeration",
             after=_after_sat, on_error=_sat_error)
    # simulator side, as eval.harness drives it.
    rec.wrap(harness, "run_sweep", "run_sweep")
    rec.wrap(Workload, "build", "Workload.build", after=_after_build)
    rec.wrap(sim_compile, "compile_kernel", "compile_kernel")
    rec.wrap(sim_vectorize, "vectorize_kernel", "vectorize_kernel")
    rec.wrap(harness, "run_workload", "run_workload",
             after=_after_run_workload)
    rec.wrap(EnergyModel, "breakdown", "EnergyModel.breakdown")
    # api + serve: the service resolves these in its own namespace.
    rec.wrap(serve, "validate_request", "validate_request")
    rec.wrap(serve, "request_is_cacheable", "request_is_cacheable",
             after=_after_cacheable)
    rec.wrap(serve, "request_cache_key", "request_cache_key")
    rec.wrap(serve, "shard_request", "shard_request")
    rec.wrap(serve, "execute_shard", "execute_shard", after=_after_shard)
    rec.wrap(serve, "merge_shards", "merge_shards")
    rec.wrap(ResultCache, "get", "ResultCache.get", after=_after_get)
    rec.wrap(ResultCache, "put", "ResultCache.put")
