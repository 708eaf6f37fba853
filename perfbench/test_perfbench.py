"""Self-tests of the benchmark: the tail rule, seeded inputs, and that
each oracle catches a wrong answer.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import loads  # noqa: E402
import measure  # noqa: E402


@pytest.fixture
def speed():
    sampler = hostspeed.HostSpeed()
    yield sampler
    sampler.close()


# -- the tail-percentile rule ----------------------------------------------------

def test_tail_needs_forty_samples():
    assert measure.tail([1.0] * 39) is None
    assert measure.tail([1.0] * 40) is not None


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = measure.tail([float(v) for v in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    samples = [float(v) for v in range(40, 0, -1)]
    value, percentile, beyond = measure.tail(samples)
    assert beyond == 10
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == 75.0


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 50.0]
    q1, med, q3 = measure.quartiles(values)
    assert med == 12.0
    assert measure.spread(values) == pytest.approx((q3 - q1) / 12.0)


# -- seeded inputs ------------------------------------------------------------------

def _fuzz_inputs(seed):
    from repro.litmus.render import render

    return [[render(p) for p in b] for b in loads.FuzzBatch(seed, 1, "").inputs()]


def test_fuzz_inputs_repeat_for_a_seed_and_never_reuse_a_program():
    first = _fuzz_inputs(3)
    assert first == _fuzz_inputs(3)
    assert first != _fuzz_inputs(4)
    calls = loads.FuzzBatch(3, 1, "").inputs()
    names = [p.name for b in calls for p in b]
    assert len(set(names)) == len(names)
    assert "fuzz_3_0000" not in names  # range 0 belongs to the warm-up
    # consecutive indices, 25 per call, in index order
    assert [p.name for p in calls[1]] == [f"fuzz_3_{i:04d}" for i in range(50, 75)]


def test_litmus_and_figure_order_repeat_for_a_seed():
    def names(seed):
        return [i.program.name for i in loads.LitmusScale(seed, 1, "").inputs()]

    assert names(5) == names(5) and names(5) != names(6)
    assert loads.FigureSweep(5, 1, "").inputs() == loads.FigureSweep(5, 1, "").inputs()


def test_litmus_rounds_rename_every_program():
    items = loads.LitmusScale(1, 2 * loads.LitmusScale.NOMINAL_ROUND_S, "").inputs()
    names = [i.program.name for i in items]
    assert len(names) == 2 * len(loads.litmus_items())
    assert len(set(names)) == len(names)


def test_serve_stream_repeats_for_a_seed():
    def bodies(seed):
        return [r.body for r in loads.ServeMix(seed, 0, "").inputs()]

    assert bodies(2) == bodies(2)
    assert bodies(2) != bodies(9)
    kinds = [r.kind for r in loads.ServeMix(2, 0, "").inputs()]
    per_round = len(kinds) // loads.ServeMix.MIN_ROUNDS
    assert kinds.count("batch") == kinds.count("sweep") == loads.ServeMix.MIN_ROUNDS
    assert per_round == loads.ROUND_LIBRARY + loads.ROUND_INLINE + 2


# -- oracles flag wrong answers ------------------------------------------------------

def _flip(kept):
    name, model, (legal, kinds) = kept
    return name, model, (not legal, kinds)


def test_fuzz_oracle_flags_a_wrong_verdict(speed):
    bench = loads.FuzzBatch(11, 1, "")
    bench.calls = 2
    bench.batches = bench.inputs()
    timed = bench.run(speed)
    assert not bench.verify(timed).wrong
    call, pos = bench.sample_positions()[0]
    timed.outputs[call][pos * 3] = _flip(timed.outputs[call][pos * 3])
    assert call in bench.verify(timed).wrong


def test_litmus_oracle_flags_a_wrong_verdict(speed):
    bench = loads.LitmusScale(1, 1, "")
    bench.items = [i for i in bench.inputs() if i.source != "scaled"
                   or i.naive_oracle][:30]
    timed = bench.run(speed)
    assert not bench.verify(timed).wrong
    timed.outputs[7][2] = _flip(timed.outputs[7][2])
    assert 7 in bench.verify(timed).wrong


def test_scaled_expectation_matches_the_naive_enumerator():
    from repro.litmus.library import DATA, PAIRED, UNPAIRED, scaled_chain, scaled_mp

    for family in (scaled_mp, scaled_chain):
        for label in (UNPAIRED, PAIRED, DATA):
            program = family(3, label)
            assert loads.naive_verdicts(program) == loads._scaled_expectation(label)


def test_figure_oracle_flags_a_wrong_cycle_count():
    from repro.eval.harness import run_sweep

    bench = loads.FigureSweep(1, 1, "")
    bench.names = ["SC", "SC"]
    outputs = [loads.keep_row(run_sweep(["SC"], scale=loads.FIGURE_SCALE,
                                        jobs=1, cache=False))
               for _ in bench.names]
    timed = loads.Timed([0.0, 0.0], 12, 1.0, outputs)
    assert not bench.verify(timed).wrong
    cycles, energy = outputs[1]["GDR"]
    outputs[1]["GDR"] = (cycles + 1, energy)
    assert 1 in bench.verify(timed).wrong


def test_host_speed_samples_and_stops_its_child(speed):
    loads._timed_sequence([(lambda: sum(range(10_000)), 1)] * 3, lambda out: out, speed)
    assert len(speed.samples) == 2
    assert speed.slowdown() == pytest.approx(
        sum(speed.samples) / 2 / hostspeed.REFERENCE_S)
    speed.close()
    assert speed._proc.returncode == 0


def test_figure_orderings_flag_a_broken_ordering():
    row = {"GD0": 1.0, "GD1": 0.9, "GDR": 0.5, "DD0": 1.0, "DD1": 0.9, "DDR": 0.5}
    norm = {name: dict(row) for name in loads.figure_names()}
    norm["H"] = {c: 1.0 for c in row}
    norm["UTS"] = dict(row, GDR=0.9)
    assert loads.figure_orderings(norm) == []
    norm["BC-4"] = dict(row, GDR=0.95)
    assert loads.figure_orderings(norm) == ["BC-4: not GDR < GD1 < GD0"]


def test_serve_oracle_flags_a_wrong_verdict(tmp_path, speed):
    bench = loads.ServeMix(4, 0, str(tmp_path))
    bench.setup()
    try:
        timed = bench.run(speed)
    finally:
        bench.close()
    assert not bench.verify(timed).wrong
    kept = list(timed.outputs)
    index = next(i for i, r in enumerate(bench.requests) if r.kind == "inline")
    response = json.loads(kept[index])
    models = response["result"]["models"]
    models["drf0"]["legal"] = not models["drf0"]["legal"]
    timed.outputs[index] = json.dumps(response)
    assert set(bench.verify(timed).wrong) == {index}

    timed.outputs = list(kept)
    index = next(i for i, r in enumerate(bench.requests) if r.kind == "batch")
    response = json.loads(kept[index])
    models = response["result"]["programs"][-1]["models"]
    models["drfrlx"]["legal"] = not models["drfrlx"]["legal"]
    timed.outputs[index] = json.dumps(response)
    assert set(bench.verify(timed).wrong) == {index}

    response["result"]["programs"].pop()
    timed.outputs[index] = json.dumps(response)
    assert "batch answered" in bench.verify(timed).wrong[index]
