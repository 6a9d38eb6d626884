import functools
import random

import pytest

from astref import reference_run
from conftest import CORPUS_NAMES, build
from mpcc.backends.clear import interpret_clear
from mpcc.backends.gatelist import emit_gatelist
from mpcc.bitblast import bitblast
from mpcc.circuit import (
    INPUT, PLAIN, REVEAL, Circuit, GateKind, Level, PlainMeta,
    contract_log, word_value,
)
from mpcc.errors import OverflowContractError
from mpcc.estimator import additive_model, critical_path, estimate
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import (
    PASSES, Builder, cmp_rewrite, const_fold, cse, dce, peephole, pow_rewrite,
    run_passes, strength_reduce,
)
from mpcc.pipeline import PipelineConfig, compile
from mpcc.sectypes import Generic, owners
from mpcc.typecheck import check_program
from proggen import random_inputs, random_program


def two_input_circuit():
    c = Circuit()
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    return c, a, b


def reveal_out(c, nid, name="out"):
    r = c.add_node(GateKind.REVEAL, (nid,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), name)
    return c


def kinds(c):
    return [n.kind for n in c.nodes]


# -- const_fold --

def test_fold_add_of_constants():
    c = Circuit()
    x = c.add_node(GateKind.CONST, (), payload=2)
    y = c.add_node(GateKind.CONST, (), payload=3)
    s = c.add_node(GateKind.ADD, (x, y))
    reveal_out(c, s)
    out = const_fold(c)
    assert out.nodes[s].kind == GateKind.CONST
    assert out.nodes[s].payload == 5


def test_fold_constant_comparison():
    c = Circuit()
    x = c.add_node(GateKind.CONST, (), payload=1)
    y = c.add_node(GateKind.CONST, (), payload=2)
    lt = c.add_node(GateKind.LT, (x, y))
    reveal_out(c, lt)
    out = const_fold(c)
    assert out.nodes[lt].kind == GateKind.CONST
    assert out.nodes[lt].payload == 1


def test_fold_leaves_mul_by_const_zero_alone():
    c, a, _ = two_input_circuit()
    z = c.add_node(GateKind.CONST, (), payload=0)
    m = c.add_node(GateKind.MUL, (z, a))
    reveal_out(c, m)
    out = const_fold(c)
    assert out.nodes[m].kind == GateKind.MUL  # strength_reduce's job


# -- peephole --

def test_peephole_and_true():
    from mpcc.circuit import Level
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    c.inputs.append((a, 1, "a"))
    t = c.add_node(GateKind.CONST, (), payload=1)
    g = c.add_node(GateKind.AND, (a, t))
    r = c.add_node(GateKind.REVEAL, (g,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    out = peephole(c)
    # the And is gone; the reveal reads the input directly
    reveal = next(n for n in out.nodes if n.kind == GateKind.REVEAL)
    assert out.nodes[reveal.operands[0]].kind == GateKind.INPUT


def test_peephole_add_zero_and_mux_same_arms():
    c, a, b = two_input_circuit()
    z = c.add_node(GateKind.CONST, (), payload=0)
    s = c.add_node(GateKind.ADD, (a, z))
    sel = c.add_node(GateKind.LT, (a, b))
    m = c.add_node(GateKind.MUX, (sel, s, s))
    reveal_out(c, m)
    out = dce(peephole(c))
    assert GateKind.MUX not in out.counts()
    assert GateKind.ADD not in out.counts()


@pytest.mark.parametrize("kind", [GateKind.MUX, GateKind.MUX_BIT])
def test_peephole_mux_with_constant_selector(kind):
    c, a, b = two_input_circuit()
    picks = {}
    for value in (0, 1):
        sel = c.add_node(GateKind.CONST, (), payload=value)
        picks[value] = c.add_node(kind, (sel, a, b))
    odd = c.add_node(kind, (c.add_node(GateKind.CONST, (), payload=2), a, b))
    for value, m in picks.items():
        reveal_out(c, m, f"out{value}")
    reveal_out(c, odd, "odd")
    out = peephole(c)
    reads = {name: out.nodes[nid].operands[0] for nid, _a, name in out.outputs}
    assert (reads["out1"], reads["out0"]) == (a, b)
    # only the selectors 0 and 1 pick a branch
    assert out.nodes[reads["odd"]].kind == kind


def test_peephole_muxbit_between_constant_bits():
    b = Builder(["peephole"])
    s = b.add(GateKind.INPUT)
    one, zero, one_again = (b.add(GateKind.CONST, (), PLAIN, k)
                            for k in (1, 0, 1))
    assert b.add(GateKind.MUX_BIT, (s, one, zero)) == s
    inv = b.nodes[b.add(GateKind.MUX_BIT, (s, zero, one))]
    assert (inv.kind, inv.operands) == (GateKind.NOT, (s,))
    # s ? 1 : 1 through two constant nodes is no wire
    same = b.add(GateKind.MUX_BIT, (s, one, one_again))
    assert b.nodes[same].kind == GateKind.MUX_BIT
    # a word Mux keeps its constant branches
    w = b.add(GateKind.INPUT)
    w1, w0 = (b.add(GateKind.CONST, (), PLAIN, k) for k in (1, 0))
    assert b.nodes[b.add(GateKind.MUX, (w, w1, w0))].kind == GateKind.MUX


def test_peephole_folds_a_comparison_of_a_node_with_itself():
    src = ("parties 1, 2;\ninput a : int from 1;\ninput b : int from 2;\n"
           "output eval({1, 2}, (b != b) || (a < a));\n")
    word = compile(src, PipelineConfig())
    assert not {GateKind.LT, GateKind.EQ} & word.counts().keys()
    assert interpret_clear(word, {(1, "a"): 3, (2, "b"): -4}) == {"out0": 0}
    gates = emit_gatelist(compile(src, PipelineConfig(
        target_level=Level.BOOL))).splitlines()
    assert not [g for g in gates if g.endswith((" AND", " OR", " MUX"))]


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_no_muxbit_between_constant_bits(name, width):
    b = bitblast(build(name, bitwidth=width, optimize=True), width)
    consts = {nid for nid, n in enumerate(b.nodes)
              if n.kind == GateKind.CONST}
    assert not [n for n in b.nodes if n.kind == GateKind.MUX_BIT
                and {n.operands[1], n.operands[2]} <= consts]


def constant_selector_muxes(c):
    return [n for n in c.nodes
            if n.kind in (GateKind.MUX, GateKind.MUX_BIT)
            and c.nodes[n.operands[0]].kind == GateKind.CONST]


@pytest.mark.parametrize("seed", [201, 253])
def test_no_mux_keeps_a_constant_selector(seed):
    tp = check_program(random_program(seed), Generic())
    lowered = lower_program(tp, LowerConfig(bitwidth=16))
    # folding and strength reduction make a selector constant
    assert constant_selector_muxes(
        run_passes(lowered, ["const_fold", "strength_reduce"]))
    word = run_passes(lowered)
    assert constant_selector_muxes(word) == []
    assert constant_selector_muxes(bitblast(word, 16)) == []


def test_mergesort_bool_fixpoint_keeps_no_constant_selector():
    assert constant_selector_muxes(run_passes(blasted("mergesort"))) == []


# -- cse --

def test_cse_shares_repeated_subexpression():
    c, a, b = two_input_circuit()
    s1 = c.add_node(GateKind.ADD, (a, b))
    s2 = c.add_node(GateKind.ADD, (a, b))
    m = c.add_node(GateKind.MUL, (s1, s2))
    reveal_out(c, m)
    out = dce(cse(c))
    assert out.counts()[GateKind.ADD] == 1


def test_cse_commutative_canonicalization():
    c, a, b = two_input_circuit()
    s1 = c.add_node(GateKind.ADD, (a, b))
    s2 = c.add_node(GateKind.ADD, (b, a))
    m = c.add_node(GateKind.MUL, (s1, s2))
    reveal_out(c, m)
    out = dce(cse(c))
    assert out.counts()[GateKind.ADD] == 1
    for a_v in (2, 3):
        assert interpret_clear(out, {(1, "a"): a_v, (2, "b"): 5}) == \
            interpret_clear(c, {(1, "a"): a_v, (2, "b"): 5})


def test_cse_does_not_merge_sub():
    c, a, b = two_input_circuit()
    s1 = c.add_node(GateKind.SUB, (a, b))
    s2 = c.add_node(GateKind.SUB, (b, a))
    m = c.add_node(GateKind.MUL, (s1, s2))
    reveal_out(c, m)
    assert dce(cse(c)).counts()[GateKind.SUB] == 2


def test_cse_no_duplicates_is_identity():
    c = build("auction", bitwidth=16)
    once = cse(c)
    assert cse(once).nodes == once.nodes


# -- dce --

def test_dce_removes_unused_const():
    c, a, _ = two_input_circuit()
    c.add_node(GateKind.CONST, (), payload=99)
    reveal_out(c, a)
    out = dce(c)
    assert GateKind.CONST not in out.counts()
    assert len(out.nodes) == 3


def test_dce_keeps_everything_reachable():
    c, a, b = two_input_circuit()
    s = c.add_node(GateKind.ADD, (a, b))
    reveal_out(c, s)
    assert len(dce(c).nodes) == len(c.nodes)


def test_dce_renumbers_topologically():
    c = dce(cse(build("mergesort", bitwidth=16)))
    for nid, node in enumerate(c.nodes):
        for o in node.operands:
            assert o < nid
    assert c.validate() == []


# -- strength_reduce --

def test_mul_by_const_becomes_mulplain():
    c, a, _ = two_input_circuit()
    k = c.add_node(GateKind.CONST, (), payload=7)
    m = c.add_node(GateKind.MUL, (a, k))
    reveal_out(c, m)
    out = strength_reduce(c)
    assert out.counts()[GateKind.MUL_PLAIN] == 1
    assert GateKind.MUL not in out.counts()


def test_mulplain_identities():
    c, a, _ = two_input_circuit()
    m0 = c.add_node(GateKind.MUL_PLAIN, (a,), payload=0)
    m1 = c.add_node(GateKind.MUL_PLAIN, (a,), payload=1)
    m7 = c.add_node(GateKind.MUL_PLAIN, (a,), payload=7)
    s = c.add_node(GateKind.ADD, (m0, m1))
    s2 = c.add_node(GateKind.ADD, (s, m7))
    reveal_out(c, s2)
    out = strength_reduce(c)
    assert out.counts()[GateKind.MUL_PLAIN] == 1  # only the *7 stays
    assert interpret_clear(out, {(1, "a"): 5, (2, "b"): 0}) == \
        {"out": 0 + 5 + 35}


def test_matvec_strength_reduction_counts():
    raw = build("matvec")
    reduced = strength_reduce(raw)
    assert raw.counts()[GateKind.MUL_PLAIN] == 30
    assert reduced.counts()[GateKind.MUL_PLAIN] == 15


# -- pow rewrite --

def lowered(src: str):
    from mpcc.frontend import parse_source
    return lower_program(check_program(parse_source(src), Generic()),
                         LowerConfig())


def exact_outputs(c, inputs):
    """`c`'s outputs over exact integers, as the clear backend computes
    them but with no range contract: a power of degree up to 64 is an
    identity to check, not a run."""
    values = {nid: inputs[party, name] for nid, party, name in c.inputs}
    for nid, node in enumerate(c.nodes):
        a = [values[o] for o in node.operands]
        if node.kind is REVEAL:
            values[nid] = a[0]
        elif node.kind is not INPUT:
            values[nid] = word_value(node.kind, a, node.payload)
    return {name: values[nid] for nid, _aud, name in c.outputs}


def lowered_pow(n: int):
    """pow(x, n) as lowering emits it: a chain of n - 1 Muls."""
    return lowered(f"parties 1;\ninput x : int from 1;\n"
                   f"output eval({{1}}, pow(x, {n}));\n")


def test_pow_counts_for_powers_of_two():
    for k in range(1, 7):
        c = pow_rewrite(lowered_pow(1 << k))
        assert c.counts()[GateKind.MUL] == k
        assert critical_path(c, {GateKind.MUL: 1}) == k


def test_pow_general_exponent_bound():
    for n in range(2, 65):
        raw = lowered_pow(n)
        assert raw.counts()[GateKind.MUL] == n - 1
        c = pow_rewrite(raw)
        # floor(log2 n) + popcount(n) - 1, never above 2 * floor(log2 n)
        log2 = n.bit_length() - 1
        assert c.counts()[GateKind.MUL] <= log2 + bin(n).count("1") - 1
        assert critical_path(c, {GateKind.MUL: 1}) == (n - 1).bit_length()
        if 3 ** n < 1 << contract_log(c.bitwidth):
            assert interpret_clear(c, {(1, "x"): 3}) == {"out0": 3 ** n}
        else:  # from n = 40 the power leaves the contract
            with pytest.raises(OverflowContractError):
                interpret_clear(c, {(1, "x"): 3})
        assert exact_outputs(c, {(1, "x"): 3}) == {"out0": 3 ** n}
        assert pow_rewrite(c) is c


def test_pow_rewrite_rewrites_a_written_out_chain():
    c, a, _b = two_input_circuit()
    acc = a
    for _ in range(3):
        acc = c.add_node(GateKind.MUL, (acc, a))
    reveal_out(c, acc)
    out = pow_rewrite(c)
    assert out.counts()[GateKind.MUL] == 2
    assert critical_path(out, {GateKind.MUL: 1}) == 2
    assert interpret_clear(out, {(1, "a"): 5, (2, "b"): 0}) == {"out": 625}
    assert pow_rewrite(out) is out


def test_pow_rewrite_finds_a_power_inside_a_product():
    c = lowered("parties 1;\ninput x : int from 1;\ninput y : int from 1;\n"
                "output eval({1}, y * pow(x, 8) * y);\n")
    assert c.counts()[GateKind.MUL] == 9
    out = pow_rewrite(c)
    assert out.counts()[GateKind.MUL] == 5
    assert critical_path(out, {GateKind.MUL: 1}) == 5
    ins = {(1, "x"): 3, (1, "y"): 5}
    assert interpret_clear(out, ins) == {"out0": 3 ** 8 * 25}
    assert pow_rewrite(out) is out


def test_pow_rewrite_leaves_a_chain_of_distinct_leaves():
    c, a, b = two_input_circuit()
    acc = c.add_node(GateKind.MUL, (a, b))
    for x in (a, b):
        acc = c.add_node(GateKind.MUL, (acc, x))
    reveal_out(c, acc)
    assert pow_rewrite(c) is c


def random_mul_dag(rng):
    """Muls over one to three inputs, mostly a chain on the first input
    with squares and shared nodes along it, revealing its last node and
    one other; each node's degree is at most 64."""
    c = Circuit()
    ids = [c.add_input(1, f"x{i}") for i in range(rng.randrange(1, 4))]
    degree = dict.fromkeys(ids, 1)
    last = ids[0]
    for _ in range(rng.randrange(3, 30)):
        x = last if rng.random() < 0.9 else rng.choice(ids)
        y = ids[0] if rng.random() < 0.8 else rng.choice([x] + ids)
        if degree[x] + degree[y] <= 64:
            last = c.add_node(GateKind.MUL, rng.choice(((x, y), (y, x))))
            ids.append(last)
            degree[last] = degree[x] + degree[y]
    reveal_out(c, last)
    reveal_out(c, rng.choice(ids), "second")
    return c


def test_pow_rewrite_keeps_outputs_and_never_adds_muls_or_depth():
    rng = random.Random(5)
    rewritten = 0
    for _ in range(400):
        c = random_mul_dag(rng)
        out = pow_rewrite(c)
        rewritten += out is not c
        for _ in range(2):
            ins = {(1, f"x{i}"): rng.choice((-3, -2, 2, 3)) for i in range(3)}
            assert exact_outputs(out, ins) == exact_outputs(c, ins)
        assert out.counts().get(GateKind.MUL, 0) <= c.counts()[GateKind.MUL]
        assert (critical_path(out, {GateKind.MUL: 1})
                <= critical_path(c, {GateKind.MUL: 1}))
        assert pow_rewrite(out) is out
    assert rewritten >= 80  # about a quarter of them have a chain to rebuild


def test_pow_one_is_wire():
    assert GateKind.MUL not in lowered_pow(1).counts()


# -- cmp_rewrite --

def lowered_comparison(op):
    from mpcc.frontend import parse_source
    src = ("parties 1, 2;\ninput a : int from 1;\ninput b : int from 2;\n"
           f"output eval({{1, 2}}, a {op} b);\n")
    tp = check_program(parse_source(src), Generic())
    return lower_program(tp, LowerConfig())


def test_cmp_rewrite_prefers_sub_form_under_sharing_model():
    out = dce(cmp_rewrite(lowered_comparison(">=")))
    counts = out.counts()
    assert counts[GateKind.LT] == 1
    assert counts[GateKind.SUB] == 1
    assert GateKind.EQ not in counts
    for a, b in [(1, 2), (2, 2), (3, 2)]:
        assert interpret_clear(out, {(1, "a"): a, (2, "b"): b}) == \
            {"out0": int(a >= b)}


def test_cmp_rewrite_neq_both_directions():
    out = dce(cmp_rewrite(lowered_comparison("!=")))
    assert out.counts()[GateKind.EQ] == 1
    assert out.counts().get(GateKind.LT) is None
    for a, b in [(1, 2), (2, 2)]:
        assert interpret_clear(out, {(1, "a"): a, (2, "b"): b}) == \
            {"out0": int(a != b)}


def test_cmp_rewrite_counts_an_add_that_reads_one_lt_twice_once():
    # a != a after cse: the Add is the Lt's only reader
    c = Circuit()
    a = c.add_input(1, "a")
    lt = c.add_node(GateKind.LT, (a, a))
    reveal_out(c, c.add_node(GateKind.ADD, (lt, lt)))
    out = dce(cmp_rewrite(c))
    assert GateKind.ADD not in out.counts()
    assert out.counts()[GateKind.EQ] == 1
    assert interpret_clear(out, {(1, "a"): 5}) == {"out": 0}


@pytest.mark.parametrize("expr, lts, eqs, depth", [
    ("(a < b) || (a == b)", 1, 1, 11),
    ("(a < b) || (b < a)", 2, 0, 8),
], ids=["lt_or_eq", "lt_or_gt"])
def test_cmp_rewrite_leaves_comparisons_that_other_gates_read(expr, lts, eqs,
                                                              depth):
    # a || b is a + b - a*b: the Mul reads both comparisons, so rewriting
    # the Add would add a comparison and remove none
    from mpcc.frontend import parse_source
    src = ("parties 1, 2;\ninput a : int from 1;\ninput b : int from 2;\n"
           f"output eval({{1, 2}}, {expr});\n")
    c = run_passes(lower_program(check_program(parse_source(src), Generic()),
                                 LowerConfig(16)))
    counts = c.counts()
    assert (counts.get(GateKind.LT), counts.get(GateKind.EQ, 0)) == (lts, eqs)
    assert counts[GateKind.ADD] == 1
    report = estimate(c, additive_model())
    assert (report.triples, report.depth) == (641, depth)
    for a, b in [(1, 2), (2, 2), (3, 2)]:
        assert interpret_clear(c, {(1, "a"): a, (2, "b"): b}) == \
            reference_run(parse_source(src), {(1, "a"): a, (2, "b"): b})


# -- pipeline properties --

@functools.lru_cache(maxsize=None)
def blasted(name: str):
    """The word-optimized corpus program, bitblasted raw at 16 bits."""
    return bitblast(build(name, bitwidth=16, optimize=True), 16, passes=[])


def test_pipeline_idempotent_on_corpus():
    for name in ("gcd", "auction", "mergesort", "matvec", "pow8"):
        for c in (build(name, bitwidth=16), blasted(name)):
            once = run_passes(c)
            twice = run_passes(once)
            assert twice.nodes == once.nodes
            assert twice.outputs == once.outputs
            assert twice is once


# len(nodes) after bitblast, len(nodes) after the bool-level fixpoint and
# the fixpoint's gates that are not free under free-XOR (And, Or, MuxBit),
# 16 bits
BOOL_SIZES = {
    "gcd": (1120, 1200, 416),
    "auction": (326, 329, 94),
    "mergesort": (744, 736, 330),
    "matvec": (4653, 4653, 852),
    "pow8": (91, 88, 31),
    "adder": (122, 122, 15),
    "sum8": (662, 662, 105),
}
NONXOR = (GateKind.AND, GateKind.OR, GateKind.MUX_BIT)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bool_fixpoint_sizes(name):
    b = blasted(name)
    fixed = run_passes(b)
    nonxor = sum(fixed.counts().get(k, 0) for k in NONXOR)
    assert (len(b.nodes), len(fixed.nodes), nonxor) == BOOL_SIZES[name]
    # bitblast with the default passes emits the fixpoint directly
    word = build(name, bitwidth=16, optimize=True)
    assert len(bitblast(word, 16).nodes) == BOOL_SIZES[name][1]


@pytest.mark.parametrize("level", ["arith", "bool"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_passes_return_their_input_at_the_fixpoint(name, level):
    c = build(name, bitwidth=16) if level == "arith" else blasted(name)
    fixed = run_passes(c)
    assert run_passes(fixed) is fixed
    for p in PASSES:
        assert PASSES[p](fixed) is fixed, p


@pytest.mark.parametrize("name", sorted(PASSES))
def test_passes_do_not_mutate_their_input(name):
    rewritten = 0
    for program in ("gcd", "auction", "mergesort", "matvec", "pow8"):
        for c in (build(program, bitwidth=16), blasted(program)):
            before = c.to_json()
            out = PASSES[name](c)
            assert c.to_json() == before, program
            rewritten += out is not c
    assert rewritten  # the pass did rewrite some of these circuits


def test_a_rewrite_keeps_the_nodes_it_does_not_change():
    c, a, b = two_input_circuit()
    s = c.add_node(GateKind.ADD, (a, b))
    z = c.add_node(GateKind.CONST, (), payload=0)
    t = c.add_node(GateKind.ADD, (s, z))
    reveal_out(c, t)
    out = peephole(c)
    assert len(out.nodes) == len(c.nodes) - 1
    assert all(out.nodes[i] is c.nodes[i] for i in (a, b, s, z))
    assert out.nodes[t].operands == (s,)  # the Reveal now reads s


def test_unknown_pass_rejected():
    from mpcc.errors import LowerError
    with pytest.raises(LowerError):
        run_passes(build("pow8"), ["mystery_pass"])


@pytest.mark.parametrize("seed", range(120))
def test_passes_preserve_semantics_and_never_grow(seed):
    program = random_program(seed)
    tp = check_program(program, Generic())
    c0 = lower_program(tp, LowerConfig())
    c1 = run_passes(c0)
    assert len(c1.nodes) <= len(c0.nodes)
    for name, fn in (("cse", cse), ("dce", dce), ("peephole", peephole),
                     ("strength_reduce", strength_reduce)):
        assert len(fn(c0).nodes) <= len(c0.nodes), name
    for j in range(3):
        ins = random_inputs(seed * 101 + j)
        assert interpret_clear(c0, ins) == interpret_clear(c1, ins)
        assert interpret_clear(c1, ins) == reference_run(program, ins)


def test_peephole_double_negation_and_xor_zero():
    from mpcc.circuit import Level
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    c.inputs.append((a, 1, "a"))
    z = c.add_node(GateKind.CONST, (), payload=0)
    n1 = c.add_node(GateKind.NOT, (a,))
    n2 = c.add_node(GateKind.NOT, (n1,))
    x = c.add_node(GateKind.XOR, (n2, z))
    r = c.add_node(GateKind.REVEAL, (x,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    out = dce(peephole(peephole(c)))
    assert GateKind.NOT not in out.counts()
    assert GateKind.XOR not in out.counts()
