"""The four workloads: inputs made from the seed, the timed operations,
and the oracles that check every output after the timed phase.

Each workload drives the program only through public functions, looked
up as module attributes at call time (``batch.check_many``,
``model.check``, ``harness.run_sweep``) so the traced run's wrappers
see the same calls.  The amount of work in a run is fixed by
``--seconds`` before the run starts: whole rounds of the same
operations, as many as take about that long on the reference host (see
the ``NOMINAL_*`` constants).  A run therefore always attempts the same
operations for a given seed and length, and its quantiles are
comparable from run to run.

An operation fails when it raises or when an oracle finds its output
wrong; only a wrong output clears ``correct``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple


@dataclass
class Timed:
    """What the timed phase produced."""

    latencies_s: List[float]
    work_units: int
    wall_s: float
    #: each operation's output, reduced to what the oracles read (the
    #: reduction runs after the operation's clock stops; keeping whole
    #: result objects would grow the heap the collector scans and the
    #: peak memory the run reports)
    outputs: List[Any]
    #: indices of operations that raised
    errors: Dict[int, str] = field(default_factory=dict)


@dataclass
class Verdict:
    """What the oracles concluded about a :class:`Timed`."""

    #: operation index -> why its output is wrong
    wrong: Dict[int, str] = field(default_factory=dict)
    #: problems not tied to one operation (a whole-run property)
    run_problems: List[str] = field(default_factory=list)

    def flag(self, index: int, why: str) -> None:
        self.wrong.setdefault(index, why)


def _rounds(seconds: float, nominal_round_s: float, minimum: int = 1) -> int:
    return max(minimum, round(seconds / nominal_round_s))


def _timed_sequence(ops: Sequence[Tuple[Callable[[], Any], int]],
                    keep: Callable[[Any], Any], speed) -> Timed:
    """Run *ops* one after another, timing each from outside, and store
    ``keep(output)`` for the oracles.  *speed* (a
    :class:`hostspeed.HostSpeed`) samples the host between operations;
    the wall time excludes those samples."""
    latencies: List[float] = []
    outputs: List[Any] = []
    errors: Dict[int, str] = {}
    units = 0
    wall = 0.0
    speed.sample()
    for index, (op, op_units) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # one operation's fault must not end the run
            out = None
            errors[index] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(None if out is None else keep(out))
        if index not in errors:
            units += op_units
        wall += time.perf_counter() - t0
        speed.after(latencies[-1])
    speed.sample()
    return Timed(latencies, units, wall, outputs, errors)


def checker_verdict(result) -> Tuple[bool, Tuple[str, ...]]:
    """The engine-independent verdict of a CheckResult."""
    return result.legal, tuple(sorted(result.race_kinds))


def keep_checks(results) -> List[Tuple[str, str, Tuple[bool, Tuple[str, ...]]]]:
    """``(program, model, verdict)`` per CheckResult."""
    return [(r.program_name, r.model, checker_verdict(r)) for r in results]


def naive_verdicts(program) -> Dict[str, Tuple[bool, Tuple[str, ...]]]:
    """The oracle for programs without a hand-written expectation: the
    unreduced interleaving enumerator with pair-set relations."""
    from repro.core.model import MODELS, check

    return {
        m: checker_verdict(check(program, m, naive=True, backend="pairs"))
        for m in MODELS
    }


# -- fuzz-batch ------------------------------------------------------------------

class FuzzBatch:
    """Bulk checking of fresh fuzz programs, 25 per ``check_many`` call
    (the api's ``batch_chunk`` shard size), under all three models."""

    name = "fuzz-batch"
    unit = "check"
    PROGRAMS_PER_CALL = 25
    #: one round is one call; ~0.12 s on the reference host
    NOMINAL_ROUND_S = 0.12
    #: programs re-checked by the naive oracle per run
    ORACLE_SAMPLE = 20

    #: enough calls for the tail percentile at any --seconds
    MIN_ROUNDS = 40

    def __init__(self, seed: int, seconds: float, tmp: str):
        self.seed = seed
        self.calls = _rounds(seconds, self.NOMINAL_ROUND_S, self.MIN_ROUNDS)

    def inputs(self) -> List[list]:
        """Call *c* checks ``generate_program(seed, 25 * (c + 1) + j)``
        for ``j < 25``: consecutive indices in index order, as
        ``run_campaign`` passes them and an api ``batch_chunk`` shard
        slices them.  Indices below 25 are the warm-up's, so no program
        is checked twice."""
        from repro.litmus.fuzz import generate_program

        n = self.PROGRAMS_PER_CALL
        return [[generate_program(self.seed, n * (c + 1) + j) for j in range(n)]
                for c in range(self.calls)]

    def setup(self) -> None:
        import repro.batch as batch
        from repro.litmus.fuzz import generate_program

        self.batches = self.inputs()
        warm = [generate_program(self.seed, j) for j in range(self.PROGRAMS_PER_CALL)]
        list(batch.check_many(warm, jobs=1, cache=False))

    def run(self, speed) -> Timed:
        import repro.batch as batch
        from repro.core.model import MODELS

        def op(programs):
            return lambda: list(batch.check_many(programs, jobs=1, cache=False))

        units = self.PROGRAMS_PER_CALL * len(MODELS)
        return _timed_sequence([(op(b), units) for b in self.batches], keep_checks, speed)

    def sample_positions(self) -> List[Tuple[int, int]]:
        """(call, program) positions re-checked by the naive oracle,
        evenly spread over the run."""
        total = self.calls * self.PROGRAMS_PER_CALL
        count = min(self.ORACLE_SAMPLE, total)
        flat = sorted({k * total // count for k in range(count)})
        return [divmod(p, self.PROGRAMS_PER_CALL) for p in flat]

    def verify(self, timed: Timed) -> Verdict:
        from repro.core.model import MODELS

        verdict = Verdict()
        for index, (programs, results) in enumerate(zip(self.batches, timed.outputs)):
            if results is None:
                continue
            expected = [(p.name, m) for p in programs for m in MODELS]
            if [(name, m) for name, m, _v in results] != expected:
                verdict.flag(index, "results out of order or missing")
        for call, pos in self.sample_positions():
            results = timed.outputs[call]
            if results is None or call in verdict.wrong:
                continue
            program = self.batches[call][pos]
            oracle = naive_verdicts(program)
            for offset, m in enumerate(MODELS):
                got = results[pos * len(MODELS) + offset][2]
                if got != oracle[m]:
                    verdict.flag(
                        call, f"{program.name} {m}: got {got}, naive {oracle[m]}"
                    )
        return verdict


# -- litmus-scale ----------------------------------------------------------------

#: scaled-family sizes in one round; the largest take 0.3-0.7 s each.
#: scaled_mp(7) and scaled_chain(9) (1-2 s each) are left out: with them
#: a round took 15 s, so a run was one round of 100 samples and its
#: median moved by 17% between runs; without them a run is three rounds.
SCALED_MP_SIZES = range(2, 7)
SCALED_CHAIN_SIZES = range(2, 9)
#: the naive oracle covers sizes up to this (n=4 takes ~1 s per labelling)
NAIVE_SCALED_MAX = 3


@dataclass(frozen=True)
class LitmusItem:
    program: Any
    #: "library" | "corpus" | "scaled"
    source: str
    #: model -> (legal, race kinds) the result must show; for the
    #: library only drfrlx names its kinds, for the corpus they are a
    #: subset the result must contain
    expected: Dict[str, Tuple[bool, Tuple[str, ...]]]
    naive_oracle: bool = False


def _scaled_expectation(label) -> Dict[str, Tuple[bool, Tuple[str, ...]]]:
    """The verdict a scaled program's labelling implies.  In both
    families every labelled load races with the store to its location:
    with data labels that is a data race under every model; with paired
    or unpaired labels it is a race between atomics, which none of the
    three models forbids for these shapes."""
    from repro.core.labels import AtomicKind
    from repro.core.model import MODELS

    if label is AtomicKind.DATA:
        return {m: (False, ("data",)) for m in MODELS}
    return {m: (True, ()) for m in MODELS}


def litmus_items() -> List[LitmusItem]:
    """One round's programs, in a fixed order (the seed shuffles it)."""
    from repro.litmus.corpus import load_corpus
    from repro.litmus.library import DATA, PAIRED, UNPAIRED, all_tests, scaled_chain, scaled_mp

    items: List[LitmusItem] = []
    for test in all_tests():
        expected = {m: (legal, ()) for m, legal in test.expected_legal.items()}
        expected["drfrlx"] = (
            test.expected_legal["drfrlx"], tuple(sorted(test.expected_race_kinds))
        )
        items.append(LitmusItem(test.program, "library", expected))
    for entry in load_corpus():
        items.append(LitmusItem(entry.program, "corpus", dict(entry.expectations)))
    for family, sizes in ((scaled_mp, SCALED_MP_SIZES), (scaled_chain, SCALED_CHAIN_SIZES)):
        for label in (UNPAIRED, PAIRED, DATA):
            for n in sizes:
                items.append(LitmusItem(
                    family(n, label), "scaled", _scaled_expectation(label),
                    naive_oracle=n <= NAIVE_SCALED_MAX
                    or (n == NAIVE_SCALED_MAX + 1 and label is UNPAIRED),
                ))
    return items


def _renamed(program, suffix: str):
    """A structural copy under a new name, so no name-keyed memo from
    an earlier round is hit."""
    from repro.litmus.program import Program

    return Program(program.name + suffix, program.threads, program.init)


class LitmusScale:
    """Time-to-verdict on the single-check path: one program checked
    under all three models with ``engine="auto"`` per operation."""

    name = "litmus-scale"
    unit = "check"
    #: one round of all items, on the reference host
    NOMINAL_ROUND_S = 6.0

    def __init__(self, seed: int, seconds: float, tmp: str):
        self.seed = seed
        self.rounds = _rounds(seconds, self.NOMINAL_ROUND_S)

    def inputs(self) -> List[LitmusItem]:
        """One round checks every program of :func:`litmus_items` once.
        The seed shuffles the hand-written programs and where they fall
        between the scaled ones, afresh for every round, so a run's
        median averages several orders; the scaled programs keep their
        ascending order, so which SAT cores are alive together (and so
        the peak memory) does not depend on the seed.  Later rounds
        check renamed copies, so no name-keyed memo is hit."""
        items = litmus_items()
        rng = Random(self.seed)
        hand = [i for i in items if i.source != "scaled"]
        scaled = [i for i in items if i.source == "scaled"]
        total = len(hand) + len(scaled)
        out = []
        for r in range(self.rounds):
            rng.shuffle(hand)
            slots = set(rng.sample(range(total), len(hand)))
            hand_iter, scaled_iter = iter(hand), iter(scaled)
            for pos in range(total):
                item = next(hand_iter) if pos in slots else next(scaled_iter)
                program = item.program if r == 0 else _renamed(item.program, f"_r{r}")
                out.append(LitmusItem(program, item.source, item.expected,
                                      item.naive_oracle and r == 0))
        return out

    def setup(self) -> None:
        import repro.core.model as model
        from repro.litmus.library import COMM, scaled_chain

        self.items = self.inputs()
        warm = scaled_chain(3, COMM)  # no timed item uses this labelling
        for m in model.MODELS:
            model.check(warm, m, engine="auto")

    def run(self, speed) -> Timed:
        import repro.core.model as model

        def op(program):
            return lambda: [model.check(program, m, engine="auto") for m in model.MODELS]

        units = len(model.MODELS)
        return _timed_sequence([(op(item.program), units) for item in self.items],
                               keep_checks, speed)

    def verify(self, timed: Timed) -> Verdict:
        from repro.core.model import MODELS

        verdict = Verdict()
        for index, (item, results) in enumerate(zip(self.items, timed.outputs)):
            if results is None:
                continue
            got = {m: v for _name, m, v in results}
            for m in MODELS:
                legal, kinds = item.expected[m]
                g_legal, g_kinds = got[m]
                if g_legal != legal:
                    verdict.flag(index, f"{item.program.name} {m}: legal={g_legal}")
                elif item.source == "corpus":
                    if not legal and not set(kinds) <= set(g_kinds):
                        verdict.flag(index, f"{item.program.name} {m}: kinds {g_kinds}")
                elif (item.source == "scaled" or m == "drfrlx") and tuple(sorted(kinds)) != g_kinds:
                    verdict.flag(index, f"{item.program.name} {m}: kinds {g_kinds}")
            if item.naive_oracle:
                oracle = naive_verdicts(item.program)
                if oracle != got:
                    verdict.flag(index, f"{item.program.name}: naive {oracle} got {got}")
        return verdict


# -- figure-sweep ----------------------------------------------------------------

FIGURE_SCALE = 0.5
HRF_NAMES = ("WorkQueue-CPU", "Flags-HRF", "UTS-HRF")
#: sweep cells re-run on the reference interpreter per run
REFERENCE_SAMPLE = 4


def figure_names() -> Tuple[str, ...]:
    from repro.workloads.base import BENCH_NAMES, MICRO_NAMES

    return tuple(MICRO_NAMES) + tuple(BENCH_NAMES) + HRF_NAMES


def figure_orderings(norm: Dict[str, Dict[str, float]]) -> List[str]:
    """The paper's Figure 3/4 orderings over GD0-normalized cycles;
    returns the ones that do not hold."""
    bad = []
    h = norm["H"].values()
    if max(h) - min(h) >= 0.15:
        bad.append(f"H spread {max(h) - min(h):.3f} >= 0.15")
    for name in ("SC", "SEQ"):
        row = norm[name]
        if row["GDR"] > row["GD1"] + 0.02 or row["DDR"] > row["DD1"] + 0.02:
            bad.append(f"{name}: DRFrlx slower than DRF1 by more than 0.02")
    for name in ("BC-4", "PR-1"):
        row = norm[name]
        if not row["GDR"] < row["GD1"] < row["GD0"]:
            bad.append(f"{name}: not GDR < GD1 < GD0")
    if abs(norm["UTS"]["GDR"] - norm["UTS"]["GD1"]) > 0.01:
        bad.append("UTS: GDR and GD1 differ by more than 0.01")
    return bad


def keep_row(sweep) -> Dict[str, Tuple[float, Dict[str, float]]]:
    """A one-workload SweepResult as config -> (cycles, energy)."""
    return {obs.config: (obs.cycles, dict(obs.energy_nj))
            for obs in sweep.observations.values()}


class FigureSweep:
    """The simulator path behind Figures 3/4: one ``run_sweep`` row (a
    workload under the six configurations) per operation."""

    name = "figure-sweep"
    unit = "cell"
    #: one round of all 19 rows at FIGURE_SCALE, on the reference host
    NOMINAL_ROUND_S = 5.5
    #: 3 rounds give 57 operations, enough for the tail percentile
    MIN_ROUNDS = 3

    def __init__(self, seed: int, seconds: float, tmp: str):
        self.seed = seed
        self.rounds = _rounds(seconds, self.NOMINAL_ROUND_S, self.MIN_ROUNDS)

    def inputs(self) -> List[str]:
        # Every round uses the same order, so a row recurs only 19 rows
        # later -- far past the harness's 4-entry compiled-kernel memo.
        order = list(figure_names())
        Random(self.seed).shuffle(order)
        return order * self.rounds

    def setup(self) -> None:
        import repro.eval.harness as harness

        self.names = self.inputs()
        harness.run_sweep(["Flags-HRF"], scale=0.1, jobs=1, cache=False)

    def run(self, speed) -> Timed:
        import repro.eval.harness as harness

        def op(name):
            return lambda: harness.run_sweep([name], scale=FIGURE_SCALE, jobs=1, cache=False)

        return _timed_sequence([(op(name), 6) for name in self.names], keep_row, speed)

    def reference_cells(self) -> List[Tuple[str, str]]:
        from repro.eval.harness import CONFIG_ORDER

        cells = [(n, c) for n in figure_names() for c in CONFIG_ORDER]
        return Random(self.seed ^ 0x5EED).sample(cells, REFERENCE_SAMPLE)

    def verify(self, timed: Timed) -> Verdict:
        from repro.energy.model import DEFAULT_ENERGY_MODEL
        from repro.eval.harness import CONFIG_ORDER
        from repro.sim.config import INTEGRATED
        from repro.sim.system import CONFIG_ABBREV, run_workload
        from repro.workloads.base import get

        verdict = Verdict()
        first: Dict[str, Tuple[int, Dict]] = {}
        for index, (name, values) in enumerate(zip(self.names, timed.outputs)):
            if values is None:
                continue
            if sorted(values) != sorted(CONFIG_ORDER):
                verdict.flag(index, f"{name}: configurations {sorted(values)}")
                continue
            for c, (_cycles, energy) in values.items():
                if any(v < 0 for v in energy.values()):
                    verdict.flag(index, f"{name} {c}: negative energy component")
            if name not in first:
                first[name] = (index, values)
            elif first[name][1] != values:
                verdict.flag(index, f"{name}: differs from its first run")
        if len(first) == len(figure_names()):
            norm = {}
            for name, (_i, values) in first.items():
                base = values["GD0"][0]
                norm[name] = {c: v[0] / base for c, v in values.items()}
            verdict.run_problems.extend(figure_orderings(norm))
        abbrev = {v: k for k, v in CONFIG_ABBREV.items()}
        for name, cfg in self.reference_cells():
            if name not in first:
                continue
            index, values = first[name]
            protocol, model = abbrev[cfg]
            kernel = get(name).build(INTEGRATED, FIGURE_SCALE)
            ref = run_workload(kernel, protocol, model, INTEGRATED, engine="reference")
            expect = (ref.cycles, DEFAULT_ENERGY_MODEL.breakdown(ref.stats))
            if values[cfg] != expect:
                verdict.flag(index, f"{name} {cfg}: differs from the reference engine")
        return verdict


# -- serve-mix -------------------------------------------------------------------

#: requests per round by type: named library checks (a small pool, so
#: they repeat and become cache reads), fresh inline fuzz checks, one
#: batch of fresh inline programs, and one sweep from a pool of two.
#: The proportions are assumed, not measured from callers: a service
#: used mostly for fresh programs, with repeated library checks beside
#: them.  Fresh checks are the larger share, so the median describes a
#: fresh check rather than falling between the two modes.
#: The fresh programs are the same in every run: campaign SERVE_CAMPAIGN
#: of the fuzz generator, consecutive indices from 1000.  On the
#: single-check path that inline requests take, a few programs in a
#: thousand cost 0.4-0.9 s; drawn from the seed's own campaign, the tail
#: was a draw of which of them a seed dealt, and spread 66% over five
#: seeds.  The seed still chooses the library pool, the sweeps and the
#: order of every round.
SERVE_CAMPAIGN = 0
LIBRARY_POOL = 8
ROUND_LIBRARY = 6
ROUND_INLINE = 8
BATCH_PROGRAMS = 6
SWEEPS = (("SC", 0.1), ("Flags-HRF", 0.1))
#: fresh programs of each kind (inline, batched) per run re-checked by
#: the naive oracle; see ServeMix.verify for the rest
SERVE_NAIVE_SAMPLE = 40
CLIENTS = 2
#: requests per closed-loop segment, about 0.25 s of requests; the host's
#: speed is sampled between segments
SEGMENT = 24


@dataclass
class Request:
    body: Dict[str, Any]
    #: "library" | "inline" | "batch" | "sweep"
    kind: str
    #: indices in fuzz campaign SERVE_CAMPAIGN of the programs inlined
    #: (inline/batch), else empty.  The oracle regenerates the programs:
    #: holding them through the timed phase would add ~36k objects for
    #: the service's garbage collector to scan, which a client in
    #: another process would not.
    fuzz_indices: Tuple[int, ...] = ()
    #: library test name, for library checks
    test: Optional[str] = None


class ServeMix:
    """A seeded v1 request stream through an in-process service with
    ``jobs=1``, closed loop with two clients."""

    name = "serve-mix"
    unit = "request"
    NOMINAL_ROUND_S = 0.17
    #: 16 requests a round; 3 rounds are enough for the tail percentile
    MIN_ROUNDS = 3

    def __init__(self, seed: int, seconds: float, tmp: str):
        self.seed = seed
        self.rounds = _rounds(seconds, self.NOMINAL_ROUND_S, self.MIN_ROUNDS)
        self.tmp = tmp

    def inputs(self) -> List[Request]:
        from repro.litmus.fuzz import generate_program
        from repro.litmus.library import all_tests
        from repro.litmus.render import render

        rng = Random(self.seed)
        pool = rng.sample([t.name for t in all_tests()], LIBRARY_POOL)
        # Fuzz indices below 1000 are left to the warm-up.
        stream = itertools.count(1000)

        def source(index):
            return {"source": render(generate_program(SERVE_CAMPAIGN, index))}

        requests: List[Request] = []
        for _round in range(self.rounds):
            batch: List[Request] = []
            for _ in range(ROUND_LIBRARY):
                name = rng.choice(pool)
                batch.append(Request(
                    {"schema_version": 1, "kind": "check", "program": {"name": name}},
                    "library", test=name,
                ))
            for _ in range(ROUND_INLINE):
                i = next(stream)
                batch.append(Request(
                    {"schema_version": 1, "kind": "check", "program": source(i)},
                    "inline", fuzz_indices=(i,),
                ))
            indices = tuple(next(stream) for _ in range(BATCH_PROGRAMS))
            batch.append(Request(
                {"schema_version": 1, "kind": "batch",
                 "programs": [source(i) for i in indices]},
                "batch", fuzz_indices=indices,
            ))
            workload, scale = rng.choice(SWEEPS)
            batch.append(Request(
                {"schema_version": 1, "kind": "sweep", "workloads": [workload],
                 "scale": scale},
                "sweep",
            ))
            rng.shuffle(batch)
            requests.extend(batch)
        for i, request in enumerate(requests):
            request.body["id"] = i
        return requests

    def setup(self) -> None:
        from repro.litmus.fuzz import generate_program
        from repro.litmus.render import render
        from repro.serve import Service

        self.requests = self.inputs()
        self.loop = asyncio.new_event_loop()
        self.service = Service(jobs=1, cache=self.tmp)
        self.loop.run_until_complete(self.service.start())
        warm = {"schema_version": 1, "kind": "check", "id": "warm-up",
                "program": {"source": render(generate_program(SERVE_CAMPAIGN, 0))}}
        self.loop.run_until_complete(self._one(warm))
        self.metrics_before = dict(self.service.status()["metrics"])

    async def _one(self, body):
        fut = await self.service.submit(body)
        return await fut

    async def _closed_loop(self, indices, latencies, outputs, submitted):
        from repro.api.schema import encode

        cursor = iter(indices)

        async def client():
            for index in cursor:
                t0 = time.perf_counter()
                submitted[index] = t0
                response = await self._one(self.requests[index].body)
                latencies[index] = time.perf_counter() - t0
                outputs[index] = encode(response)

        await asyncio.gather(*(client() for _ in range(CLIENTS)))

    def run(self, speed) -> Timed:
        """The closed loop, in segments of SEGMENT requests: the host's
        speed is sampled between segments, when no request is in flight,
        so no latency contains a sample."""
        n = len(self.requests)
        latencies = [0.0] * n
        outputs: List[Any] = [None] * n
        self.submitted = [0.0] * n
        wall = 0.0
        speed.sample()
        for first in range(0, n, SEGMENT):
            indices = range(first, min(n, first + SEGMENT))
            start = time.perf_counter()
            self.loop.run_until_complete(
                self._closed_loop(indices, latencies, outputs, self.submitted)
            )
            wall += time.perf_counter() - start
            speed.sample()
        return Timed(latencies, n, wall, outputs)

    def layer_counts(self, recorder) -> Dict[str, float]:
        """The serve layer's entries of the traced run: its own request
        counters over the timed phase, and the mean wait from
        submission until a dispatcher picked the request up."""
        from repro.obs.metrics import SERVE_CACHE_HIT, SERVE_REQUEST

        after = self.service.status()["metrics"]
        waits = [
            recorder.dispatched[request.body["id"]] - self.submitted[index]
            for index, request in enumerate(self.requests)
            if request.body["id"] in recorder.dispatched
        ]
        return {
            "serve.requests": after.get(SERVE_REQUEST, 0)
            - self.metrics_before.get(SERVE_REQUEST, 0),
            "serve.cache_hits": after.get(SERVE_CACHE_HIT, 0)
            - self.metrics_before.get(SERVE_CACHE_HIT, 0),
            "serve.queue_wait_ms": 1e3 * sum(waits) / len(waits) if waits else 0.0,
        }

    def close(self) -> None:
        self.loop.run_until_complete(self.service.aclose())
        self.loop.close()

    def verify(self, timed: Timed) -> Verdict:
        from repro.api.schema import encode
        from repro.batch import check_many
        from repro.core.model import MODELS, check
        from repro.eval.harness import CONFIG_ORDER, encode_observation, run_sweep
        from repro.litmus.fuzz import generate_program
        from repro.litmus.library import get as get_test

        verdict = Verdict()
        first_payload: Dict[str, str] = {}
        swept: Set[str] = set()
        #: (request index, program, served models) of fresh programs
        inline: List[Tuple[int, Any, Dict[str, Any]]] = []
        batched: List[Tuple[int, Any, Dict[str, Any]]] = []
        for index, (request, encoded) in enumerate(zip(self.requests, timed.outputs)):
            response = json.loads(encoded) if encoded else None
            if not response or not response.get("ok"):
                verdict.flag(index, f"not ok: {response and response.get('error')}")
                continue
            result = response["result"]
            if request.kind in ("library", "sweep"):
                key = encode({k: v for k, v in request.body.items() if k != "id"})
                payload = encode(result)
                if first_payload.setdefault(key, payload) != payload:
                    verdict.flag(index, "repeated request answered differently")
            if request.kind == "library":
                test = get_test(request.test)
                for m, legal in test.expected_legal.items():
                    if result["models"][m]["legal"] != legal:
                        verdict.flag(index, f"{request.test} {m}: legal wrong")
                kinds = sorted(result["models"]["drfrlx"]["race_kinds"])
                if kinds != sorted(test.expected_race_kinds):
                    verdict.flag(index, f"{request.test}: drfrlx kinds {kinds}")
            elif request.kind == "inline":
                program = generate_program(SERVE_CAMPAIGN, request.fuzz_indices[0])
                inline.append((index, program, result["models"]))
            elif request.kind == "batch":
                if len(result["programs"]) != len(request.fuzz_indices):
                    verdict.flag(index, f"batch answered {len(result['programs'])} "
                                        f"of {len(request.fuzz_indices)} programs")
                    continue
                for i, entry in zip(request.fuzz_indices, result["programs"]):
                    batched.append((index, generate_program(SERVE_CAMPAIGN, i),
                                    entry["models"]))
            elif request.kind == "sweep" and key not in swept:
                swept.add(key)
                workload, scale = request.body["workloads"][0], request.body["scale"]
                direct = run_sweep([workload], scale=scale, jobs=1, cache=False)
                expect = [encode_observation(direct.get(workload, c)) for c in CONFIG_ORDER]
                if json.loads(encode(expect)) != result["observations"]:
                    verdict.flag(index, f"sweep {workload}: differs from direct run_sweep")
        # Each fresh program is compared with a path other than the one
        # that served it: inline checks (served by model.check) with
        # check_many, batched ones (served by check_many) with
        # model.check on the enumerator.  The first SERVE_NAIVE_SAMPLE
        # of each kind are compared with the naive oracle instead.
        direct = list(check_many([p for _i, p, _m in inline[SERVE_NAIVE_SAMPLE:]],
                                 jobs=1, cache=False))

        def oracle_inline(k, program):
            if k < SERVE_NAIVE_SAMPLE:
                return naive_verdicts(program)
            k -= SERVE_NAIVE_SAMPLE
            return {r.model: checker_verdict(r) for r in direct[3 * k:3 * k + 3]}

        def oracle_batched(k, program):
            if k < SERVE_NAIVE_SAMPLE:
                return naive_verdicts(program)
            return {m: checker_verdict(check(program, m, engine="enum")) for m in MODELS}

        for fresh, oracle in ((inline, oracle_inline), (batched, oracle_batched)):
            for k, (index, program, models) in enumerate(fresh):
                got = {m: (v["legal"], tuple(sorted(v["race_kinds"])))
                       for m, v in models.items()}
                expect = oracle(k, program)
                if got != expect:
                    verdict.flag(index, f"{program.name}: got {got}, oracle {expect}")
        return verdict


WORKLOADS = {w.name: w for w in (FuzzBatch, LitmusScale, FigureSweep, ServeMix)}
