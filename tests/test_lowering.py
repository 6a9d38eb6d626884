import gc
import math
import random
import weakref
import zlib

import pytest

from astref import reference_run
from conftest import CORPUS_NAMES, build, corpus_source
from mpcc.backends.clear import ClearInterpreter, flatten_inputs, \
    interpret_clear
from mpcc.circuit import GateKind
from mpcc.errors import LowerError, TypeCheckFailure
from mpcc.estimator import critical_path
from mpcc.frontend import parse_source, pretty_print
from mpcc.lowering import LowerConfig, Lowering, lower_program
from mpcc.optimizer import run_passes
from mpcc.pipeline import PipelineConfig, compile
from mpcc.sectypes import AdditiveShare, Generic, Tfhe
from mpcc.typecheck import check_program
from proggen import random_program


def lower_src(src, cfg=None, stats=False):
    tp = check_program(parse_source(src), Generic())
    lw = Lowering(tp, cfg or LowerConfig())
    c = lw.lower_program()
    return (c, lw.stats) if stats else c


def counts_of(c):
    return {k.value: v for k, v in c.counts().items()}


def test_direct_translation_of_constant_addition():
    c = lower_src("parties 1;\nval x : int := 2 + 3;\noutput x;\n")
    assert [n.kind for n in c.nodes] == [
        GateKind.CONST, GateKind.CONST, GateKind.ADD, GateKind.REVEAL]
    assert interpret_clear(c, {}) == {"x": 5}


def test_a_repeated_constant_is_one_node():
    c = lower_src("parties 1;\nval x : int := 2 + 2 * 1;\noutput x;\n")
    assert [(n.kind, n.operands, n.payload) for n in c.nodes] == [
        (GateKind.CONST, (), 2), (GateKind.CONST, (), 1),
        (GateKind.MUL, (0, 1), None), (GateKind.ADD, (0, 2), None),
        (GateKind.REVEAL, (3,), None)]
    assert interpret_clear(c, {}) == {"x": 4}


def test_the_raw_circuit_holds_each_constant_once():
    sources = [corpus_source(name) for name in CORPUS_NAMES]
    sources += [pretty_print(random_program(s)) for s in range(100)]
    for source in sources:
        raw = compile(source, PipelineConfig(passes=[]))
        payloads = [n.payload for n in raw.nodes if n.kind is GateKind.CONST]
        assert len(payloads) == len(set(payloads))
        assert (run_passes(raw).to_json_obj()
                == compile(source, PipelineConfig()).to_json_obj())


def test_gcd_inlines_exactly_bound_iterations():
    src = corpus_source("gcd")
    tp = check_program(parse_source(src), Generic())
    lw = Lowering(tp, LowerConfig(bitwidth=16))
    lw.lower_program()
    stats = lw.stats
    assert stats["inline_copies"]["gcd"] == 5
    assert stats["base_copies"]["gcd"] == 1  # the fuel-0 copy


def test_while_unrolls_per_iteration():
    src = ("parties 1;\n"
           "input xs : arr(int, {1}, 4) from 1;\n"
           "val acc : int@{1} := 0;\n"
           "val i : int := 0;\n"
           "while (i < 4) {\n  acc := acc + xs(i);\n  i := i + 1;\n}\n"
           "output eval({1}, acc);\n")
    c = lower_src(src)
    assert c.counts()[GateKind.ADD] >= 4
    adds_feeding_acc = [n for n in c.nodes if n.kind == GateKind.ADD
                        and c.nodes[n.operands[1]].kind == GateKind.INPUT]
    assert len(adds_feeding_acc) == 4  # one chained add per element
    r = interpret_clear(c, flatten_inputs({"1": {"xs": [1, 2, 3, 4]}}))
    assert r == {"acc": 10}


def test_empty_loop_emits_no_body():
    src = ("parties 1;\n"
           "input x : int from 1;\n"
           "val i : int := 0;\n"
           "while (i < 0) {\n  i := i + 1;\n}\n"
           "output eval({1}, x);\n")
    c = lower_src(src)
    assert c.counts()[GateKind.INPUT] == 1
    assert GateKind.ADD not in c.counts()


def test_nonconst_loop_bound_rejected():
    src = ("parties 1;\n"
           "input x : int from 1;\n"
           "val i : int := 0;\n"
           "val n : int := eval({1}, x);\n"
           "while (i < n) {\n  i := i + 1;\n}\n"
           "output eval({1}, x);\n")
    with pytest.raises(LowerError) as exc:
        lower_src(src)
    assert exc.value.code == "NonConstBound"


def test_recursion_without_bound_rejected():
    src = ("parties 1;\n"
           "fun loop(x : int@{1}) : int@{1} { loop(x) }\n"
           "input a : int from 1;\n"
           "output eval({1}, loop(a));\n")
    with pytest.raises(LowerError) as exc:
        lower_src(src)
    assert exc.value.code == "BoundMissing"


def test_bound_zero_takes_base_only():
    src = ("parties 1;\n"
           "fun f(x : int@{1}) : int@{1} bound 0 {\n"
           "  if (x == 0) { x } else { f(x - 1) }\n"
           "}\n"
           "input a : int from 1;\n"
           "output eval({1}, f(a));\n")
    c, stats = lower_src(src, stats=True)
    assert stats["base_copies"]["f"] == 1
    assert "f" not in stats["inline_copies"]
    # base branch returns x unconditionally
    assert interpret_clear(c, {(1, "a"): 9}) == {"out0": 9}


def test_bound_expression_over_params():
    src = ("parties 1;\n"
           "fun sum_down(x : int@{1}, n : int) : int@{1} bound n {\n"
           "  if (n == 0) { x } else { x + sum_down(x, n - 1) }\n"
           "}\n"
           "input a : int from 1;\n"
           "output eval({1}, sum_down(a, 3));\n")
    c, stats = lower_src(src, stats=True)
    assert stats["inline_copies"]["sum_down"] == 3
    # 3 recursive copies + base: a + (a + (a + a))
    assert interpret_clear(c, {(1, "a"): 5}) == {"out0": 20}


def test_negative_bound_rejected():
    src = ("parties 1;\n"
           "fun f(x : int@{1}, n : int) : int@{1} bound n - 5 {\n"
           "  if (n == 0) { x } else { f(x, n - 1) }\n"
           "}\n"
           "input a : int from 1;\n"
           "output eval({1}, f(a, 2));\n")
    with pytest.raises(LowerError) as exc:
        lower_src(src)
    assert exc.value.code == "BoundNegative"


def test_mergesort_recursion_depth():
    src = corpus_source("mergesort")
    tp = check_program(parse_source(src), Generic())
    lw = Lowering(tp, LowerConfig(bitwidth=16))
    lw.lower_program()
    # 1 top call + 2 halves + 4 quarters, bound 10 never exhausted
    assert lw.stats["inline_copies"]["mergesort"] == 7


def test_a_lowering_built_directly_gives_what_lower_program_gives():
    tp = check_program(parse_source(corpus_source("gcd")), Generic())
    cfg = LowerConfig(bitwidth=16)
    plain = lower_program(tp, cfg)
    lw = Lowering(tp, cfg)
    recorded = lw.lower_program()
    assert recorded.nodes == plain.nodes
    assert recorded.outputs == plain.outputs
    assert lw.stats["inline_copies"]["gcd"] == 5


@pytest.mark.parametrize("scheme", [Generic(), AdditiveShare(3), Tfhe()],
                         ids=["generic", "additive", "tfhe"])
def test_a_lowered_circuit_is_valid_by_construction(scheme):
    # lower_program does not validate what it builds: add_node checks
    # each node, and the type checker the program. Under TFHE most
    # generated programs mix owners and are refused before lowering.
    # The last program outputs plain data, which no other here does.
    programs = [parse_source(corpus_source(name)) for name in CORPUS_NAMES]
    programs += [random_program(seed) for seed in range(100)]
    programs.append(parse_source(
        "parties 1, 2;\ninput xs : arr(int, {1}, 3) from 1;\n"
        "input a : int from 2;\nval ys : arr(int, {1, 2}, 3) := 0;\n"
        "ys(a) := xs(a);\noutput xs.length + 1;\n"
        "output eval({1, 2}, reduce(max, ys));\n"))
    lowered = 0
    for program in programs:
        try:
            tp = check_program(program, scheme)
        except TypeCheckFailure:
            assert isinstance(scheme, Tfhe)
            continue
        for bitwidth in (16, 64):
            c = lower_program(tp, LowerConfig(bitwidth, scheme))
            assert c.validate(scheme) == []
            lowered += 1
    assert lowered >= 8


# -- oblivious conditionals --

def test_assigned_variable_muxed_against_prebranch_value():
    src = ("parties 1;\n"
           "input a : int from 1;\n"
           "input m : int from 1;\n"
           "val mx : int@{1} := m;\n"
           "if (mx < a) {\n  mx := a;\n}\n"
           "output eval({1}, mx);\n")
    c = lower_src(src)
    assert c.counts()[GateKind.MUX] == 1
    assert c.counts()[GateKind.LT] == 1
    for m, a in [(3, 8), (8, 3), (5, 5)]:
        r = interpret_clear(c, {(1, "a"): a, (1, "m"): m})
        assert r == {"mx": max(m, a)}


def test_branches_without_assignments_emit_no_muxes():
    src = ("parties 1;\n"
           "input a : int from 1;\n"
           "if (a < 3) {\n  skip;\n} else {\n  skip;\n}\n"
           "output eval({1}, a);\n")
    c = lower_src(src)
    assert GateKind.MUX not in c.counts()


def test_branch_side_effects_rejected():
    src = ("parties 1;\n"
           "input a : int from 1;\n"
           "val x : int@{1} := 0;\n"
           "if (a < 3) {\n  output eval({1}, a);\n}\n"
           "output eval({1}, x);\n")
    with pytest.raises(LowerError) as exc:
        lower_src(src)
    assert exc.value.code == "SideEffectUndetectable"


# -- private array access --

def index_circuit(length):
    src = (f"parties 1;\n"
           f"input xs : arr(int, {{1}}, {length}) from 1;\n"
           f"input i : int from 1;\n"
           f"output eval({{1}}, xs(i));\n")
    return lower_src(src)


def test_private_index_l4_shape():
    c = index_circuit(4)
    assert c.counts()[GateKind.MUX] == 3
    assert c.counts()[GateKind.LT] == 3
    assert critical_path(c, {GateKind.MUX: 1}) == 2


def test_private_index_l1_is_wire_copy():
    c = index_circuit(1)
    assert GateKind.MUX not in c.counts()
    assert GateKind.LT not in c.counts()


def test_private_index_l2_selects():
    c = index_circuit(2)
    for idx in (0, 1):
        r = interpret_clear(c, flatten_inputs(
            {"1": {"xs": [10, 20], "i": idx}}))
        assert r == {"out0": [10, 20][idx]}


@pytest.mark.parametrize("length", list(range(1, 65)))
def test_private_index_selector_depth(length):
    c = index_circuit(length)
    assert critical_path(c, {GateKind.MUX: 1}) == math.ceil(math.log2(length))


def test_private_index_matches_direct_lookup():
    c = index_circuit(7)
    rng = random.Random(3)
    for _ in range(50):
        xs = [rng.randrange(100) for _ in range(7)]
        i = rng.randrange(7)
        r = interpret_clear(c, flatten_inputs({"1": {"xs": xs, "i": i}}))
        assert r == {"out0": xs[i]}


PRIVATE_INDEX_SRC = ("parties 1;\n"
                     "input xs : arr(int, {1}, 5) from 1;\n"
                     "input i : int from 1;\n"
                     "output eval({1}, xs(i));\n")


@pytest.mark.parametrize("src", [corpus_source("pow8"), PRIVATE_INDEX_SRC],
                         ids=["pow", "private-index"])
def test_lowered_circuit_is_freed_without_the_cycle_collector(src):
    """pow() and private indexing leave no reference cycle that holds
    the Lowering, so a dropped circuit is freed at once."""
    tp = check_program(parse_source(src), Generic())
    gc.disable()
    try:
        ref = weakref.ref(lower_program(tp))
        assert ref() is None
    finally:
        gc.enable()


def test_private_update_shape_and_semantics():
    src = ("parties 1;\n"
           "input xs : arr(int, {1}, 3) from 1;\n"
           "input i : int from 1;\n"
           "input v : int from 1;\n"
           "xs(i) := v;\n"
           "output eval({1}, xs(0));\n"
           "output eval({1}, xs(1));\n"
           "output eval({1}, xs(2));\n")
    c = lower_src(src)
    assert c.counts()[GateKind.EQ] == 3
    assert c.counts()[GateKind.MUX] == 3
    r = interpret_clear(c, flatten_inputs(
        {"1": {"xs": [7, 8, 9], "i": 1, "v": 42}}))
    assert list(r.values()) == [7, 42, 9]


def test_plaintext_update_is_positional():
    src = ("parties 1;\n"
           "input xs : arr(int, {1}, 3) from 1;\n"
           "input v : int from 1;\n"
           "xs(1) := v;\n"
           "output eval({1}, xs(1));\n")
    c = lower_src(src)
    assert GateKind.EQ not in c.counts()
    assert GateKind.MUX not in c.counts()


# -- comparisons and modulo --

COMPARE = ("parties 1, 2;\ninput a : int from 1;\ninput b : int from 2;\n"
           "output eval({{1, 2}}, a {op} b);\n")


def output_tree(c):
    """The revealed output's gate tree: nested (kind, operands...) with
    inputs by name and constants by value."""
    names = {nid: name for nid, _party, name in c.inputs}

    def tree(nid):
        node = c.nodes[nid]
        if nid in names:
            return names[nid]
        if node.kind is GateKind.CONST:
            return node.payload
        return (node.kind.value, *map(tree, node.operands))

    return tree(c.nodes[c.outputs[0][0]].operands[0])


def comparison_form(op, form):
    """a op b as lowered ("direct"), or after cmp_rewrite ("rewrite")."""
    c = lower_src(COMPARE.format(op=op))
    if form == "rewrite":
        c = run_passes(c, ["cmp_rewrite", "dce"])
    return c


def test_geq_direct_encoding():
    assert output_tree(comparison_form(">=", "direct")) == (
        "Add", ("Lt", "b", "a"), ("Eq", "a", "b"))


def test_leq_direct_encoding():
    assert output_tree(comparison_form("<=", "direct")) == (
        "Add", ("Lt", "a", "b"), ("Eq", "a", "b"))


def test_neq_direct_encoding():
    assert output_tree(comparison_form("!=", "direct")) == (
        "Add", ("Lt", "a", "b"), ("Lt", "b", "a"))


def test_geq_rewrite_encoding():
    assert output_tree(comparison_form(">=", "rewrite")) == (
        "Sub", 1, ("Lt", "a", "b"))


def test_neq_rewrite_encoding():
    assert output_tree(comparison_form("!=", "rewrite")) == (
        "Sub", 1, ("Eq", "a", "b"))


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
@pytest.mark.parametrize("form", ["direct", "rewrite"])
def test_comparison_semantics(op, form):
    c = comparison_form(op, form)
    py = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
          ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
          "==": lambda a, b: a == b, "!=": lambda a, b: a != b}[op]
    for a in (-2, 0, 1, 5):
        for b in (-2, 0, 1, 5):
            r = interpret_clear(c, {(1, "a"): a, (2, "b"): b})
            assert r["out0"] == int(py(a, b)), (op, a, b)


def test_modulo_by_plain_constant():
    src = ("parties 1;\ninput a : int from 1;\n"
           "output eval({1}, a % 7);\n")
    c = lower_src(src, LowerConfig(bitwidth=16))
    for a in range(0, 40):
        assert interpret_clear(c, {(1, "a"): a}) == {"out0": a % 7}


def test_modulo_by_private_value_rejected():
    # the type system already stops this; the rule is mod-divisor
    from mpcc.errors import TypeCheckFailure
    src = ("parties 1;\ninput a : int from 1;\ninput b : int from 1;\n"
           "output eval({1}, a % b);\n")
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    assert any(e.rule == "mod-divisor" for e in exc.value.errors)


def test_modulo_by_runtime_plain_rejected_at_lowering():
    src = ("parties 1;\ninput a : int from 1;\n"
           "val m : int := eval({1}, a);\n"
           "val r : int := 13 % m;\n"
           "output r;\n")
    with pytest.raises(LowerError) as exc:
        lower_src(src)
    assert exc.value.code == "NonConstDivisor"


# -- reduce builtin --

def test_reduce_sum_tree():
    c = build("sum8")
    assert c.counts()[GateKind.ADD] == 7
    assert critical_path(c, {GateKind.ADD: 1}) == 3
    r = interpret_clear(c, flatten_inputs({"1": {"xs": list(range(8))}}))
    assert r == {"out0": 28}


def test_reduce_max_clusters():
    src = ("parties 1;\ninput xs : arr(int, {1}, 4) from 1;\n"
           "output eval({1}, reduce(max, xs));\n")
    c = lower_src(src)
    assert c.counts()[GateKind.LT] == 3
    assert c.counts()[GateKind.MUX] == 3
    assert critical_path(c, {GateKind.MUX: 1}) == 2
    rng = random.Random(0)
    for _ in range(25):
        xs = [rng.randrange(-50, 50) for _ in range(4)]
        r = interpret_clear(c, flatten_inputs({"1": {"xs": xs}}))
        assert r == {"out0": max(xs)}


def test_reduce_min():
    src = ("parties 1;\ninput xs : arr(int, {1}, 5) from 1;\n"
           "output eval({1}, reduce(min, xs));\n")
    c = lower_src(src)
    rng = random.Random(1)
    for _ in range(25):
        xs = [rng.randrange(-50, 50) for _ in range(5)]
        assert interpret_clear(
            c, flatten_inputs({"1": {"xs": xs}})) == {"out0": min(xs)}


@pytest.mark.parametrize("threshold", [2, 3])
def test_reduce_of_compile_time_array_resolves_if(threshold):
    # every Add of the reduce has compile-time operands, so the sum and
    # the comparison have static values and the branch is chosen while
    # lowering: no Mux is emitted
    src = ("parties 1;\ninput a : int from 1;\n"
           "val xs : arr(int, {1}, 3) := 1;\nval r : int@{1} := a;\n"
           f"if (reduce(+, xs) > {threshold}) {{\n  r := a + 1;\n}} "
           "else {\n  r := a - 1;\n}\noutput eval({1}, r);\n")
    c = lower_src(src, LowerConfig(bitwidth=16))
    assert GateKind.MUX not in c.counts()
    program = parse_source(src)
    for a in (-5, 0, 7):
        ins = {(1, "a"): a}
        assert interpret_clear(c, ins) == reference_run(program, ins)


# -- semantic preservation against the reference interpreter --

CORPUS_INPUT_GEN = {
    "gcd": lambda rng: {(1, "x"): rng.randrange(0, 30),
                        (1, "y"): rng.randrange(0, 30)},
    "auction": lambda rng: {(0, "b0"): rng.randrange(100),
                            (1, "b1"): rng.randrange(100),
                            (2, "b2"): rng.randrange(100)},
    "mergesort": lambda rng: {(1, f"xs[{k}]"): rng.randrange(100)
                              for k in range(4)},
    "matvec": lambda rng: {(1, f"row{r}[{k}]"): rng.randrange(50)
                           for r in range(3) for k in range(10)},
    "pow8": lambda rng: {(1, "x"): rng.randrange(-4, 5)},
    "adder": lambda rng: {(1, "a"): rng.randrange(-100, 100),
                          (2, "b"): rng.randrange(-100, 100)},
    "sum8": lambda rng: {(1, f"xs[{k}]"): rng.randrange(-50, 50)
                         for k in range(8)},
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_circuits_match_reference_interpreter(name):
    program = parse_source(corpus_source(name))
    c = build(name)
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(20):
        ins = CORPUS_INPUT_GEN[name](rng)
        assert interpret_clear(c, ins) == reference_run(program, ins), ins


def test_gate_evaluation_count_is_node_count():
    c = build("auction", bitwidth=16)
    interp = ClearInterpreter(c)
    rng = random.Random(2)
    seen = set()
    for _ in range(10):
        ins = CORPUS_INPUT_GEN["auction"](rng)
        interp.run(ins)
        seen.add(interp.gate_evaluations)
    assert seen == {len(c.nodes)}


def test_statement_position_recursion_exhausts_fuel():
    # recursion that no result conditional can collapse must stop with an
    # error instead of unrolling past the bound
    src = ("parties 1;\n"
           "fun f(x : int@{1}) : int@{1} bound 3 {\n"
           "  val t : int@{1} := f(x);\n"
           "  t\n"
           "}\n"
           "input a : int from 1;\n"
           "output eval({1}, f(a));\n")
    with pytest.raises(LowerError) as exc:
        lower_src(src)
    assert exc.value.code == "FuelExhausted"


def test_oblivious_array_update_in_branch():
    src = ("parties 1;\n"
           "input xs : arr(int, {1}, 3) from 1;\n"
           "input t : int from 1;\n"
           "if (t < 10) {\n  xs(0) := t;\n}\n"
           "output eval({1}, xs(0));\n"
           "output eval({1}, xs(1));\n")
    c = lower_src(src)
    for t in (3, 50):
        r = interpret_clear(c, flatten_inputs({"1": {"xs": [7, 8, 9],
                                                     "t": t}}))
        assert list(r.values()) == [t if t < 10 else 7, 8]


def test_oblivious_whole_array_assignment():
    src = ("parties 1;\n"
           "input xs : arr(int, {1}, 2) from 1;\n"
           "input t : int from 1;\n"
           "val ys : arr(int, {1}, 2) := 0;\n"
           "if (t < 10) {\n  ys := xs;\n}\n"
           "output eval({1}, ys(0));\n"
           "output eval({1}, ys(1));\n")
    c = lower_src(src)
    for t in (3, 50):
        r = interpret_clear(c, flatten_inputs({"1": {"xs": [4, 5], "t": t}}))
        expected = [4, 5] if t < 10 else [0, 0]
        assert list(r.values()) == expected
