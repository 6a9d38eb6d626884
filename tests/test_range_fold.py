"""`range_fold`: comparisons and Muxes that value ranges decide.

The pass assumes only the range contract, which the clear interpreter
checks on every input, so on every input it accepts a circuit gives the
same outputs with and without the pass."""

import random

import pytest

from conftest import CORPUS_NAMES, build
from mpcc.backends.clear import interpret_clear
from mpcc.backends.shares import simulate_shared
from mpcc.bitblast import bitblast
from mpcc.circuit import Circuit, GateKind, PlainMeta, contract_log
from mpcc.errors import MuxSelectorError, OverflowContractError
from mpcc.estimator import (
    additive_model, arith_model, estimate, preprocessing,
)
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import DEFAULT_PASSES, PASSES, range_fold, run_passes
from mpcc.sectypes import Generic, owners
from mpcc.typecheck import check_program
from proggen import random_program

WIDTH = 16
EDGE = (1 << contract_log(WIDTH)) - 1  # the largest |input| in contract


def circuit_with(build_gate, width=WIDTH):
    """A two-input circuit revealing `build_gate(c, a, b)`."""
    c = Circuit(bitwidth=width)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    out = build_gate(c, a, b)
    r = c.add_node(GateKind.REVEAL, (out,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def const(c, v):
    return c.add_node(GateKind.CONST, (), payload=v)


def kinds(c):
    return [n.kind for n in c.nodes]


def comparisons(c) -> int:
    return sum(n.kind in (GateKind.LT, GateKind.EQ) for n in c.nodes)


def agrees(c, folded):
    """`folded` gives `c`'s outputs at the contract's edges and around 0."""
    for a in (-EDGE, -1, 0, 1, 2, EDGE):
        for b in (-EDGE, 0, 1, EDGE):
            ins = {(1, "a"): a, (2, "b"): b}
            assert interpret_clear(folded, ins) == interpret_clear(c, ins)


@pytest.mark.parametrize("gate, value", [
    (lambda c, a, b: c.add_node(GateKind.LT, (a, const(c, EDGE + 1))), 1),
    (lambda c, a, b: c.add_node(GateKind.LT, (a, const(c, -EDGE))), 0),
    (lambda c, a, b: c.add_node(GateKind.LT, (const(c, EDGE), a)), 0),
    (lambda c, a, b: c.add_node(GateKind.EQ, (a, const(c, EDGE + 1))), 0),
    # Lt(a, b) is in [0, 1], so it is below 2 and never equals 5
    (lambda c, a, b: c.add_node(
        GateKind.LT, (c.add_node(GateKind.LT, (a, b)), const(c, 2))), 1),
    (lambda c, a, b: c.add_node(
        GateKind.EQ, (const(c, 5), c.add_node(GateKind.LT, (a, b)))), 0),
    # 1 + 2 is the point 3
    (lambda c, a, b: c.add_node(GateKind.EQ, (c.add_node(
        GateKind.ADD, (const(c, 1), const(c, 2))), const(c, 3))), 1),
])
def test_a_decided_comparison_becomes_its_value(gate, value):
    c = circuit_with(gate)
    folded = range_fold(c)
    out = folded.nodes[folded.outputs[0][0]]
    assert folded.nodes[out.operands[0]].kind is GateKind.CONST
    assert folded.nodes[out.operands[0]].payload == value
    agrees(c, folded)


def two_valued(c, a, b, v):
    """A word in {v, v+1}: Lt(a, b) + v."""
    bit = c.add_node(GateKind.LT, (a, b))
    return c.add_node(GateKind.ADD, (bit, const(c, v))) if v else bit


# (comparison, operand order, whether the result is v+1 - x)
TWO_VALUED = [
    (GateKind.LT, "x, v+1", True),
    (GateKind.EQ, "x, v", True),
    (GateKind.EQ, "v, x", True),
    (GateKind.LT, "v, x", False),
    (GateKind.EQ, "x, v+1", False),
    (GateKind.EQ, "v+1, x", False),
]


@pytest.mark.parametrize("v", [0, 3, -4])
@pytest.mark.parametrize("kind, order, negated", TWO_VALUED)
def test_a_two_valued_comparison_becomes_local_arithmetic(kind, order,
                                                          negated, v):
    def gate(c, a, b):
        x = two_valued(c, a, b, v)
        first, second = order.split(", ")
        operand = {"x": x, "v": const(c, v), "v+1": const(c, v + 1)}
        return c.add_node(kind, (operand[first], operand[second]))

    c = circuit_with(gate)
    folded = range_fold(c)
    # the only comparison left is the one that makes x
    assert kinds(folded).count(GateKind.LT) == 1
    assert GateKind.EQ not in kinds(folded)
    top = folded.nodes[folded.nodes[folded.outputs[0][0]].operands[0]]
    if negated:
        assert top.kind is GateKind.SUB
        assert folded.nodes[top.operands[0]].payload == v + 1
    elif v:
        assert top.kind is GateKind.SUB
        assert folded.nodes[top.operands[1]].payload == v
    else:  # Lt(0, x) and Eq(x, 1) are x itself
        assert top.kind is GateKind.LT
    agrees(c, folded)


@pytest.mark.parametrize("arms, result", [((1, 0), GateKind.LT),
                                          ((0, 1), GateKind.SUB)])
def test_a_mux_between_1_and_0_on_a_bit_is_its_selector(arms, result):
    def gate(c, a, b):
        s = c.add_node(GateKind.LT, (a, b))
        return c.add_node(GateKind.MUX, (s, const(c, arms[0]),
                                         const(c, arms[1])))

    c = circuit_with(gate)
    folded = range_fold(c)
    assert GateKind.MUX not in kinds(folded)
    top = folded.nodes[folded.nodes[folded.outputs[0][0]].operands[0]]
    assert top.kind is result
    agrees(c, folded)


def lt_minus_lt(c, a, b):  # in [-1, 1], and -1 when a > b
    return c.add_node(GateKind.SUB, (c.add_node(GateKind.LT, (a, b)),
                                     c.add_node(GateKind.LT, (b, a))))


def lt_plus_lt(c, a, b):  # in [0, 2], and 2 when 0 < a < b
    positive = c.add_node(GateKind.LT, (const(c, 0), a))
    return c.add_node(GateKind.ADD, (c.add_node(GateKind.LT, (a, b)),
                                     positive))


@pytest.mark.parametrize("selector, a, b", [
    (lambda c, a, b: a, 2, 0),  # any input in the contract
    (lt_minus_lt, 3, 1),
    (lt_plus_lt, 1, 3),
])
def test_a_mux_on_a_selector_not_proven_a_bit_stays(selector, a, b):
    c = circuit_with(lambda c, x, y: c.add_node(
        GateKind.MUX, (selector(c, x, y), const(c, 1), const(c, 0))))
    assert range_fold(c) is c
    folded = run_passes(c)
    assert GateKind.MUX in kinds(folded)
    assert interpret_clear(folded, {(1, "a"): 0, (2, "b"): 0}) == {"out": 0}
    with pytest.raises(MuxSelectorError):
        interpret_clear(folded, {(1, "a"): a, (2, "b"): b})
    with pytest.raises(MuxSelectorError):
        simulate_shared(folded, {(1, "a"): a, (2, "b"): b}, 3)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_range_fold_returns_its_input_at_the_fixpoint(name):
    for width in (16, 64):
        fixed = build(name, bitwidth=width, optimize=True)
        assert PASSES["range_fold"](fixed) is fixed
        assert run_passes(fixed) is fixed
        b = bitblast(fixed, width)
        assert range_fold(b) is b


def test_range_fold_leaves_bool_circuits_unchanged():
    b = bitblast(build("mergesort", bitwidth=16), 16)
    assert range_fold(b) is b


# mergesort's shares protocol: (Beaver triples, additive rounds) by width
MERGESORT_COST = {16: (1950, 46), 64: (7710, 46)}


@pytest.mark.parametrize("width", sorted(MERGESORT_COST))
def test_mergesort_protocol_cost(width):
    c = build("mergesort", bitwidth=width, scheme="additive", optimize=True)
    assert (preprocessing(c)[0], estimate(c, additive_model()).depth) == \
        MERGESORT_COST[width]
    # 6 comparisons where there were 22: the data compares of the merges
    assert comparisons(c) == 6


def contract_inputs(c, rng):
    """Input sets at the contract's edges, at 0 and ±1, and at random."""
    edge = (1 << contract_log(c.bitwidth)) - 1
    picks = (-edge, edge, 0, 1, -1)
    names = [(party, name) for _nid, party, name in c.inputs]
    sets = [{k: v for k in names} for v in picks]
    for _ in range(6):
        sets.append({k: rng.choice(picks) if rng.random() < 0.5
                     else rng.randint(-edge, edge) for k in names})
    return sets


WITHOUT = [p for p in DEFAULT_PASSES if p != "range_fold"]


def same_outputs(c, folded, rng) -> int:
    """Check `folded` against `c` on every contract input set on which
    `c` does not raise, neither for a selector nor for a value outside
    the contract; the number of sets checked."""
    checked = 0
    for ins in contract_inputs(c, rng):
        try:
            want = interpret_clear(c, ins)
        except (MuxSelectorError, OverflowContractError):
            continue
        assert interpret_clear(folded, ins) == want, ins
        checked += 1
    return checked


@pytest.mark.parametrize("block", range(4))
@pytest.mark.parametrize("width", [8, 16, 64])
def test_range_fold_keeps_every_output_of_generated_programs(width, block):
    # generated programs compare contract-wide inputs, so the pass finds
    # nothing to fold in them; the corpus and random circuits below fold
    checked = 0
    for seed in range(100 * block, 100 * block + 100):
        tp = check_program(random_program(seed), Generic())
        lowered = lower_program(tp, LowerConfig(bitwidth=width))
        folded = run_passes(lowered)
        assert run_passes(folded) is folded, seed
        checked += same_outputs(run_passes(lowered, WITHOUT), folded,
                                random.Random(seed))
    # of 1,100 sets, up to about 45 take a sum or product of edge inputs
    # out of the contract and are refused
    assert checked >= 950


# The input sets of the 11 that each corpus program keeps in the range
# contract at 8, 16 and 64 bits; the others take a sum or product of edge
# inputs out of it. The two that fold, auction and mergesort, keep all.
CONTRACT_SETS = {
    "gcd": (9, 9, 6), "auction": (11, 11, 11), "mergesort": (11, 11, 11),
    "matvec": (1, 3, 3), "pow8": (4, 4, 5), "adder": (8, 8, 8),
    "sum8": (4, 3, 4),
}


@pytest.mark.parametrize("width", [8, 16, 64])
def test_range_fold_keeps_every_output_of_the_corpus(width):
    folds = 0
    for name in CORPUS_NAMES:
        lowered = build(name, bitwidth=width)
        c, folded = run_passes(lowered, WITHOUT), run_passes(lowered)
        folds += folded.nodes != c.nodes
        assert same_outputs(c, folded, random.Random(name)) == \
            CONTRACT_SETS[name][(8, 16, 64).index(width)], name
    assert folds == 2  # auction and mergesort


def random_circuit(seed: int, width: int) -> Circuit:
    """A circuit of small words: two inputs, constants in [-2, 3] and
    gates over earlier nodes, comparisons and Muxes most of all, with a
    selector that is sometimes not a comparison."""
    rng = random.Random(seed)
    c = Circuit(bitwidth=width)
    words = [c.add_input(1, "a"), c.add_input(2, "b")]
    bits = []
    for _ in range(rng.randrange(4, 24)):
        roll = rng.random()
        x, y = rng.choice(words + bits), rng.choice(words + bits)
        if roll < 0.2:
            nid = const(c, rng.randrange(-2, 4))
        elif roll < 0.45:
            kind = rng.choice((GateKind.LT, GateKind.EQ))
            nid = c.add_node(kind, (x, y))
            bits.append(nid)
            continue
        elif roll < 0.7:
            s = rng.choice(bits or words) if rng.random() < 0.9 else x
            nid = c.add_node(GateKind.MUX, (s, x, y))
        elif roll < 0.9:
            kind = rng.choice((GateKind.ADD, GateKind.SUB, GateKind.MUL))
            nid = c.add_node(kind, (x, y))
        else:
            nid = c.add_node(GateKind.MUL_PLAIN, (x,),
                             payload=rng.randrange(-3, 4))
        words.append(nid)
    for k, nid in enumerate(rng.sample(words + bits, 3)):
        r = c.add_node(GateKind.REVEAL, (nid,), PlainMeta(owners(1, 2)))
        c.add_output(r, owners(1, 2), f"out{k}")
    return c


@pytest.mark.parametrize("width", [8, 16, 64])
def test_range_fold_keeps_every_output_of_random_circuits(width):
    folds = 0
    for seed in range(500):
        c = random_circuit(seed, width)
        folded = range_fold(c)
        folds += folded is not c
        same_outputs(c, folded, random.Random(seed))
        same_outputs(c, run_passes(c), random.Random(seed))
    assert folds >= 100  # about a quarter of them fold


# -- comparisons split by cases through Muxes and constant offsets --

def no_deeper(c, than) -> bool:
    """`c`'s additive and arith depths are at most `than`'s."""
    return all(estimate(c, m).depth <= estimate(than, m).depth
               for m in (additive_model(), arith_model()))


def case_tree_circuit(seed: int, width: int) -> Circuit:
    """Two inputs and a comparison of a word with a constant in [-3, 5]:
    the word a tree of Muxes, Adds and Subs of constants in [-2, 2] over
    bits, constants and, one leaf in twenty, an input; its selectors
    comparisons of the inputs, or one input itself one time in ten."""
    rng = random.Random(seed)
    c = Circuit(bitwidth=width)
    a, b = c.add_input(1, "a"), c.add_input(2, "b")
    bits = [c.add_node(GateKind.LT, (a, b)), c.add_node(GateKind.LT, (b, a)),
            c.add_node(GateKind.EQ, (a, const(c, 0)))]

    def word(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.15:
            leaf = rng.random()
            return (rng.choice(bits) if leaf < 0.7 else b if leaf < 0.75
                    else const(c, rng.randrange(-2, 3)))
        if roll < 0.6:
            s = rng.choice(bits) if rng.random() < 0.9 else a
            return c.add_node(GateKind.MUX, (s, word(depth - 1),
                                             word(depth - 1)))
        k, x = const(c, rng.randrange(-2, 3)), word(depth - 1)
        kind = rng.choice((GateKind.ADD, GateKind.SUB))
        return c.add_node(kind, (x, k) if rng.random() < 0.5 else (k, x))

    x, v = word(rng.randrange(1, 5)), const(c, rng.randrange(-3, 6))
    kind = rng.choice((GateKind.LT, GateKind.EQ))
    top = c.add_node(kind, (x, v) if rng.random() < 0.5 else (v, x))
    r = c.add_node(GateKind.REVEAL, (top,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def raises_alike(c, folded, ins):
    """`folded` gives `c`'s outputs on `ins`, or both refuse a selector;
    a run on which `c` leaves the contract has no outputs to give."""
    try:
        want = interpret_clear(c, ins)
    except MuxSelectorError:
        with pytest.raises(MuxSelectorError):
            interpret_clear(folded, ins)
        return
    except OverflowContractError:
        return
    assert interpret_clear(folded, ins) == want, ins


@pytest.mark.parametrize("width", [8, 16, 64])
def test_a_split_comparison_keeps_outputs_and_lowers_no_cost(width):
    splits = 0
    for seed in range(400):
        c = case_tree_circuit(seed, width)
        folded = range_fold(c)
        for ins in contract_inputs(c, random.Random(seed)):
            raises_alike(c, folded, ins)
        fixed, without = run_passes(c), run_passes(c, WITHOUT)
        assert comparisons(folded) <= comparisons(c), seed
        assert comparisons(fixed) <= comparisons(without), seed
        assert no_deeper(folded, c) and no_deeper(fixed, without), seed
        splits += comparisons(fixed) < comparisons(without)
    # most split; an input leaf stops about one in ten, and an input
    # selector, not proven a bit, a few more (298 of 400 split)
    assert splits >= 250


def lt_of_a_mux(c, a, b):
    # Lt(Mux(a, bit + 1, bit), 2) would split into Mux(a, 1 - bit, 1)
    bit = c.add_node(GateKind.LT, (b, const(c, 0)))
    t = c.add_node(GateKind.ADD, (bit, const(c, 1)))  # in {1, 2}
    x = c.add_node(GateKind.MUX, (a, t, bit))
    return c.add_node(GateKind.LT, (x, const(c, 2)))


def eq_of_a_mux(c, a, _b):
    # Eq(Mux(a, 0, 2), 1) would split into Mux(a, 0, 0), which peephole
    # folds to 0, selector and all
    x = c.add_node(GateKind.MUX, (a, const(c, 0), const(c, 2)))
    return c.add_node(GateKind.EQ, (x, const(c, 1)))


def test_a_split_mux_on_a_non_bit_selector_still_raises():
    # the selector is an input, not proven a bit: range_fold splits
    # nothing, so its fixpoint still reads the selector and raises
    for gate in (lt_of_a_mux, eq_of_a_mux):
        c = circuit_with(gate)
        for folded in (range_fold(c), run_passes(c)):
            assert comparisons(folded) == comparisons(c)
            assert [n.operands[0] for n in folded.nodes
                    if n.kind is GateKind.MUX] == [folded.inputs[0][0]]
            for a in (0, 1):
                for b in (-1, 0):
                    ins = {(1, "a"): a, (2, "b"): b}
                    want = interpret_clear(c, ins)
                    assert interpret_clear(folded, ins) == want
                    assert simulate_shared(folded, ins, 3)[0] == want
            ins = {(1, "a"): 2, (2, "b"): 0}
            with pytest.raises(MuxSelectorError):
                interpret_clear(folded, ins)
            with pytest.raises(MuxSelectorError):
                simulate_shared(folded, ins, 3)


@pytest.mark.parametrize("width, splits", [(8, False), (64, True)])
def test_a_split_into_more_than_w_muxes_is_not_made(width, splits):
    # a counter raised under 8 private conditions, compared mid-range:
    # its cases hold more than 8 Muxes and fewer than 64
    def gate(c, a, b):
        n = const(c, 0)
        for k in range(8):
            s = c.add_node(GateKind.LT, (a, const(c, k - 4)))
            n = c.add_node(GateKind.MUX, (s, c.add_node(
                GateKind.ADD, (n, const(c, 1))), n))
        return c.add_node(GateKind.LT, (n, const(c, 4)))

    c = circuit_with(gate, width)
    folded = range_fold(c)
    assert comparisons(folded) == comparisons(c) - splits
    assert same_outputs(c, folded, random.Random(width)) == 11
