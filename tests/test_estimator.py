import json
import tracemalloc
from fractions import Fraction

import pytest

from conftest import ROOT, build
from mpcc.bitblast import bitblast
from mpcc.circuit import Circuit, GateKind, PlainMeta
from mpcc.errors import ModelCoverageError, ObjectiveMissingError
from mpcc.estimator import (
    BUILTIN_MODELS, ZERO_COST_KINDS, CostModel, additive_model, arith_model,
    boolean_model, critical_path, estimate, layered_schedule, load_model,
    model_from_json_obj, rank_backends,
)
from mpcc.optimizer import run_passes
from mpcc.sectypes import owners


def chain_circuit(kind, length, fan_in=1):
    c = Circuit()
    a = c.add_input(1, "a")
    b = c.add_input(1, "b")
    acc = a
    for _ in range(length):
        acc = c.add_node(kind, (acc, b))
    r = c.add_node(GateKind.REVEAL, (acc,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    return c


def test_pow8_reports():
    opt = run_passes(build("pow8"))
    raw = build("pow8")
    r_opt = estimate(opt, arith_model())
    r_raw = estimate(raw, arith_model())
    assert r_opt.gate_counts[GateKind.MUL] == 3
    assert r_opt.depth == 3
    assert r_raw.gate_counts[GateKind.MUL] == 7
    assert r_raw.depth == 7


def test_gate_counts_exclude_structural_kinds():
    r = estimate(build("pow8"), arith_model())
    assert GateKind.CONST not in r.gate_counts
    assert GateKind.INPUT not in r.gate_counts


def test_depth_of_add_chain():
    c = chain_circuit(GateKind.ADD, 5)  # a, b, adds 2..6, reveal 7
    assert critical_path(c, {GateKind.ADD: 1}) == 5
    assert layered_schedule(c, {GateKind.ADD: 1}) == (
        [[0, 1], [2], [3], [4], [5], [6]], [7])
    assert layered_schedule(c, {GateKind.ADD: 2})[0] == [
        [0, 1], [], [2], [], [3], [], [4], [], [5], [], [6]]


def test_depth_of_balanced_tree():
    c = build("sum8")
    assert critical_path(c, {GateKind.ADD: 1}) == 3


def test_depth_of_empty_circuit():
    assert critical_path(Circuit(), {GateKind.ADD: 1}) == 0
    assert layered_schedule(Circuit(), {GateKind.ADD: 1}) == ([[]], [])


def scaled_depth_and_peak(c, weights, k):
    """critical_path under `weights` times k, and the peak bytes it
    allocated."""
    tracemalloc.start()
    try:
        depth = critical_path(c, {kind: w * k for kind, w in weights.items()})
        return depth, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_depth_scales_with_the_weights_and_not_memory():
    c = build("gcd", bitwidth=16)
    weights = additive_model().depth_weights
    k = 10 ** 9
    depth, peak = scaled_depth_and_peak(c, weights, k)
    assert depth == critical_path(c, weights) * k
    assert peak < 1 << 20


def test_depth_ignores_zero_weight_kinds():
    c = chain_circuit(GateKind.ADD, 4)
    assert critical_path(c, {GateKind.MUL: 1}) == 0


def test_layered_schedule_counts_a_reveal_only_when_read():
    c = Circuit()
    a = c.add_input(1, "a")
    m = c.add_node(GateKind.MUL, (a, a))
    opened = c.add_node(GateKind.REVEAL, (m,), PlainMeta(owners(1)))
    s = c.add_node(GateKind.ADD, (opened, a))
    r = c.add_node(GateKind.REVEAL, (s,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    weights = {GateKind.MUL: 1, GateKind.REVEAL: 1}
    layers, output_reveals = layered_schedule(c, weights)
    assert layers == [[a], [m], [opened, s]]
    assert output_reveals == [r]
    assert critical_path(c, weights) == 2


def test_totals_are_count_times_cost():
    c = chain_circuit(GateKind.MUL, 4)
    r = estimate(c, additive_model())
    assert r.totals["rounds"] == 4 + 1  # 4 muls + 1 reveal
    assert r.gate_counts[GateKind.MUL] == 4


def test_preprocessing_budget_formulas():
    c = Circuit(bitwidth=16)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    m = c.add_node(GateKind.MUL, (a, b))
    lt = c.add_node(GateKind.LT, (m, a))
    x = c.add_node(GateKind.MUX, (lt, m, a))
    r = c.add_node(GateKind.REVEAL, (x,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    rep = estimate(c, additive_model())
    # 1 per Mul and Mux, 20*16 per comparison
    assert rep.triples == 2 + 320
    assert rep.random_bits == 16


def test_single_mul_needs_one_triple():
    c = chain_circuit(GateKind.MUL, 1)
    assert estimate(c, additive_model()).triples == 1


def test_model_coverage_error():
    tiny = CostModel("tiny", {GateKind.ADD: {}})
    with pytest.raises(ModelCoverageError):
        estimate(chain_circuit(GateKind.MUL, 1), tiny)


def test_model_coverage_names_the_first_unpriced_kind():
    # Mul comes before Reveal in node order; neither is priced
    with pytest.raises(ModelCoverageError, match="does not price Mul$"):
        estimate(chain_circuit(GateKind.MUL, 2),
                 CostModel("tiny", {GateKind.INPUT: {}}))


@pytest.mark.parametrize("name", ["gcd", "auction", "mergesort", "matvec"])
def test_estimate_totals_are_the_sum_over_gates(name):
    for c, model in ((build(name, bitwidth=16), additive_model()),
                     (build(name, bitwidth=16), arith_model()),
                     (bitblast(build(name, bitwidth=16), 16),
                      boolean_model())):
        totals = dict.fromkeys(model.resources(), Fraction(0))
        for node in c.nodes:
            for resource, cost in model.gate_costs[node.kind].items():
                totals[resource] += cost
        report = estimate(c, model)
        assert report.totals == totals
        assert sum(report.gate_counts.values()) == sum(
            n.kind not in ZERO_COST_KINDS for n in c.nodes)


def test_rank_backends_orders_and_breaks_ties():
    c = chain_circuit(GateKind.MUL, 3)
    cheap = CostModel("cheap", {
        GateKind.INPUT: {}, GateKind.CONST: {}, GateKind.REVEAL: {},
        GateKind.MUL: {"comm": Fraction(1)}})
    pricey = CostModel("pricey", {
        GateKind.INPUT: {}, GateKind.CONST: {}, GateKind.REVEAL: {},
        GateKind.MUL: {"comm": Fraction(7)}})
    twin = CostModel("apricot", {
        GateKind.INPUT: {}, GateKind.CONST: {}, GateKind.REVEAL: {},
        GateKind.MUL: {"comm": Fraction(1)}})
    ranked = rank_backends(c, [pricey, cheap, twin], "comm")
    assert ranked == [("apricot", 3), ("cheap", 3), ("pricey", 21)]


def test_rank_single_model():
    c = chain_circuit(GateKind.MUL, 2)
    assert rank_backends(c, [additive_model()], "rounds")[0][0] == "additive"


def test_rank_missing_objective():
    c = chain_circuit(GateKind.MUL, 1)
    with pytest.raises(ObjectiveMissingError):
        rank_backends(c, [additive_model()], "wombats")


def test_additivity_over_partition():
    c = build("auction", bitwidth=16)
    full = estimate(c, additive_model())
    # splitting the node list at any point and re-counting gives the sums
    half = len(c.nodes) // 2
    counts_lo: dict = {}
    counts_hi: dict = {}
    from mpcc.estimator import ZERO_COST_KINDS
    for nid, node in enumerate(c.nodes):
        if node.kind in ZERO_COST_KINDS:
            continue
        tgt = counts_lo if nid < half else counts_hi
        tgt[node.kind] = tgt.get(node.kind, 0) + 1
    merged = dict(counts_lo)
    for k, v in counts_hi.items():
        merged[k] = merged.get(k, 0) + v
    assert merged == full.gate_counts


def test_depth_monotone_under_extension():
    c = chain_circuit(GateKind.MUL, 3)
    before = estimate(c, additive_model()).depth
    c.add_node(GateKind.MUL, (len(c.nodes) - 2, 0))
    after = estimate(c, additive_model()).depth
    assert after >= before


def test_gate_counts_identical_across_models():
    c = build("auction", bitwidth=16)
    r1 = estimate(c, additive_model())
    r2 = estimate(c, arith_model())
    assert r1.gate_counts == r2.gate_counts


def test_optimizer_never_raises_default_totals():
    for name in ("gcd", "auction", "mergesort", "matvec", "pow8", "sum8"):
        c = build(name, bitwidth=16)
        copt = run_passes(c)
        before = estimate(c, additive_model()).totals
        after = estimate(copt, additive_model()).totals
        for resource, total in after.items():
            assert total <= before[resource], (name, resource)


# -- JSON interchange --

MODELS = ROOT / "src" / "mpcc" / "models"


def model_file(name):
    """The shipped file of a built-in, read as the CLI reads a user's."""
    return model_from_json_obj(json.loads(
        (MODELS / f"{name}.json").read_text(encoding="utf-8")))


def test_shipped_model_files_load():
    assert sorted(p.stem for p in MODELS.glob("*.json")) == \
        sorted(BUILTIN_MODELS)
    for name in BUILTIN_MODELS:
        assert model_file(name).name == name


def test_builtin_models_load_by_name_and_path_to_equal_models():
    """A built-in name reads its file, and every call builds a new model,
    so a caller that changes one changes no other."""
    for name, made in zip(BUILTIN_MODELS,
                          (arith_model, additive_model, boolean_model)):
        by_name = load_model(name)
        assert by_name == model_file(name)
        assert by_name == made()
        by_name.gate_costs.clear()
        by_name.depth_weights.clear()
        assert load_model(name) == made() != by_name


def test_load_model_takes_only_builtin_names():
    # a model file is the CLI's to read; the estimator opens only models/
    with pytest.raises(ValueError, match="no built-in cost model"):
        load_model(str(MODELS / "arith.json"))


@pytest.mark.parametrize("obj", [
    [1], None, {"gate_costs": {}}, {"name": 5, "gate_costs": {}},
    {"name": "m"}, {"name": "m", "gate_costs": []},
    {"name": "m", "gate_costs": {"Mul": 1}},
    {"name": "m", "gate_costs": {}, "depth_weights": [1]},
    {"name": "m", "gate_costs": {"Mul": {"rounds": None}}},
    {"name": "m", "gate_costs": {"Mul": {"rounds": float("nan")}}}])
def test_a_model_of_the_wrong_shape_is_a_coverage_error(obj):
    """`model_from_json_obj` owns a model file's shape, as
    `Circuit.from_json_obj` owns a circuit file's."""
    with pytest.raises(ModelCoverageError):
        model_from_json_obj(obj)


def test_unknown_gate_kind_is_load_error():
    with pytest.raises(ModelCoverageError):
        model_from_json_obj({"name": "x", "gate_costs": {"Frobnicate": {}}})


def test_negative_cost_rejected():
    with pytest.raises(ModelCoverageError):
        model_from_json_obj({"name": "x",
                             "gate_costs": {"Mul": {"rounds": -1}}})


def test_fractional_costs_stay_exact():
    m = model_from_json_obj({"name": "x",
                             "gate_costs": {"Eq": {"rounds": 10.5}}})
    assert m.gate_costs[GateKind.EQ]["rounds"] == Fraction(21, 2)
