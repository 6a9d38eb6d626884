"""Tests of the benchmark itself: correctness accounting, the span tree,
the determinism check and the input generator."""

import random

import pytest

import bench
import stages
import workloads
from spans import NullTracer, Span, Tracer, tail


def small_jobs(seed=5):
    """One job per backend path, small enough for a unit test."""
    src = workloads.corpus_source
    return [
        workloads.fixed_job("adder", src("adder"), 16, "gatelist", 2, seed),
        workloads.fixed_job("gcd", src("gcd"), 16, "shares", 2, seed),
        workloads.fixed_job("sum8", src("sum8"), 64, "word", 1, seed),
    ]


def test_small_jobs_agree_with_reference():
    jobs = small_jobs()
    res = bench.run_pass(jobs, NullTracer())
    # a compile per job, plus input sets times the path's backends
    assert res.attempted == (1 + 2 * 3) + (1 + 2 * 2) + (1 + 1 * 1)
    assert res.failed == 0
    assert res.counts["bool_gates"] > res.counts["nonxor_gates"] > 0
    assert res.counts["triples"] > 0 and res.counts["rounds"] > 0


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    real = stages.run_clear

    def corrupted(tr, c, inputs):
        out = real(tr, c, inputs)
        return {name: v + 1 for name, v in out.items()}

    monkeypatch.setattr(stages, "run_clear", corrupted)
    jobs = small_jobs()
    speed = bench.Speedometer()
    results = [bench.run_pass(jobs, bench.SampledTracer(speed))]
    clear_runs = sum(len(j.inputs) for j in jobs)
    assert results[0].failed == clear_runs
    m = bench.end_to_end(results, [1.0], speed)
    attempted = results[0].attempted
    assert m["agree_frac"][0] == (attempted - clear_runs) / attempted


def test_backend_that_raises_is_counted_as_failed(monkeypatch):
    def broken(tr, b, inputs):
        raise RuntimeError("simulated backend fault")

    monkeypatch.setattr(stages, "run_bool", broken)
    res = bench.run_pass(small_jobs(), NullTracer())
    assert res.failed == 2  # adder's two input sets on boolsim


def test_traced_span_tree_is_well_formed():
    tr = Tracer()
    with stages.instrumented(tr):
        res = bench.run_pass(small_jobs(), tr)
    assert res.failed == 0
    assert tr.problems() == []
    names = {s.name for s in tr.spans}
    for layer in bench.TAILED + tuple(bench.SPAN_SECONDS.values()):
        assert layer in names, layer
    assert {f"optimizer.pass.{p}" for p in bench.WORD_PASSES} <= names
    assert tr.tallies["shares.make_triple"][0] == \
        tr.counts["shares.triples_generated"]
    own = tr.self_times()
    assert all(t >= 0 for t in own.values())
    by_id = {s.id: s for s in tr.spans}
    for s in tr.spans:
        if s.name.startswith(("frontend.", "shares.run", "boolsim.")):
            assert s.op is not None and s.parent in by_id
    # instrumentation is gone once the traced pass ends
    assert stages.shares.make_triple.__module__ == "mpcc.backends.shares"


def test_problems_reports_child_outside_parent_and_missing_parent():
    tr = Tracer()
    parent = Span(0, "outer", None, None, 1.0)
    parent.end = 2.0
    child = Span(1, "inner", 0, None, 1.5)
    child.end = 2.5
    orphan = Span(2, "lost", 99, None, 1.1)
    orphan.end = 1.2
    tr.spans = [child, parent, orphan]
    found = tr.problems()
    assert any("outside parent" in p for p in found)
    assert any("missing" in p for p in found)


def test_self_time_subtracts_children():
    tr = Tracer()
    parent = Span(0, "outer", None, None, 0.0)
    parent.end = 10.0
    a = Span(1, "a", 0, None, 1.0)
    a.end = 3.0
    b = Span(2, "b", 0, None, 5.0)
    b.end = 6.0
    tr.spans = [a, b, parent]
    assert tr.self_times()[0] == pytest.approx(7.0)


def test_determinism_check_fails_loudly():
    a, b = bench.PassResult(), bench.PassResult()
    a.counts["triples"] = 10
    b.counts["triples"] = 11
    bench.check_determinism([a, a])
    with pytest.raises(bench.BenchmarkError) as err:
        bench.check_determinism([a, b])
    assert err.value.code == 4


def test_reference_rejects_out_of_contract_values():
    program = stages.parse_untimed(workloads.corpus_source("pow8"))
    assert stages.reference_run(program, {(1, "x"): 3}, 16) == {"out0": 6561}
    with pytest.raises(stages.OutOfContract):
        stages.reference_run(program, {(1, "x"): 4}, 16)


def test_shares_programs_stay_inside_the_field():
    program = stages.parse_untimed(workloads.corpus_source("pow8"))
    bound = workloads.SHARES_RANGES[("pow8", 64)]
    assert bound ** 8 < stages.SHARES_LIMIT < (bound + 1) ** 8
    for x in (-bound, bound):
        stages.reference_run(program, {(1, "x"): x}, 64, "shares")
    # in the 64-bit contract, but not representable in the shares field
    stages.reference_run(program, {(1, "x"): bound + 1}, 64, "gatelist")
    with pytest.raises(stages.OutOfContract):
        stages.reference_run(program, {(1, "x"): bound + 1}, 64, "shares")


def test_shares_range_applies_to_the_shares_path_only():
    source = workloads.corpus_source("pow8")
    field = workloads.SHARES_RANGES[("pow8", 64)]
    xs = {path: [abs(i[(1, "x")]) for i in workloads.fixed_job(
        "pow8", source, 64, path, 200, 1).inputs]
        for path in ("shares", "gatelist")}
    assert max(xs["shares"]) <= field
    assert field < max(xs["gatelist"]) <= workloads.RANGES[("pow8", 64)]


def test_a_range_too_wide_stops_the_generator(monkeypatch):
    monkeypatch.setitem(workloads.RANGES, ("pow8", 16), 50)
    with pytest.raises(stages.OutOfContract):
        workloads.fixed_job("pow8", workloads.corpus_source("pow8"), 16,
                            "shares", 20, seed=1)


def test_inputs_come_from_the_seed_only():
    def inputs(seed):
        return [j.inputs for j in small_jobs(seed)]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_proggen_draw_is_fixed_and_in_contract():
    a = workloads.proggen_jobs(1)
    b = workloads.proggen_jobs(2)
    assert [j.source for j in a] == [j.source for j in b]
    assert len(a) == workloads.PROGGEN_COUNT


def test_gate_list_bits_round_trip():
    layout = [(1, "a")] * 4 + [(2, "b")] * 4
    bits = bench.encode_bits(layout, {(1, "a"): -3, (2, "b"): 5})
    assert bits == [1, 0, 1, 1, 1, 0, 1, 0]
    names = ["a"] * 4 + ["b"] * 4 + ["flag"]
    assert bench.decode_words(names, bits + [1]) == {"a": -3, "b": 5,
                                                     "flag": 1}


def test_tail_is_the_sample_with_ten_above_it():
    samples = list(range(100))
    random.Random(0).shuffle(samples)
    assert tail(samples) == (49.5, 89, 100)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 2.0, 3)
