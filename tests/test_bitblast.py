import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from astref import reference_run
from conftest import build
from mpcc.backends.boolsim import interpret_bool
from mpcc.backends.clear import interpret_clear
from mpcc.backends.gatelist import (
    emit_gatelist, eval_gatelist, parse_gatelist,
)
from mpcc.bitblast import _BitBuilder, bitblast, signed_digits
from mpcc.circuit import Circuit, GateKind, Level, PlainMeta, contract_log
from mpcc.errors import LevelError
from mpcc.frontend import parse_source
from mpcc.optimizer import DEFAULT_PASSES, dce
from mpcc.pipeline import PipelineConfig, compile
from mpcc.sectypes import owners
from test_gatelist import decode_words, input_bits_for

LOGIC = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT,
         GateKind.MUX_BIT)
NONXOR = (GateKind.AND, GateKind.OR, GateKind.MUX_BIT)


def logic_gate_count(c):
    return sum(v for k, v in c.counts().items() if k in LOGIC)


def test_adder_is_exactly_w_full_cells():
    # cell 0 has carry-in 0 (a half cell: one Xor, one And), cells 1 and 2
    # are one-AND cells (four Xor, one And) and cell 3 builds no carry-out
    # (two Xor)
    cb = bitblast(build("adder", bitwidth=4), 4, passes=[])
    counts = cb.counts()
    assert counts[GateKind.XOR] == 11  # 1 + 4 + 4 + 2
    assert counts[GateKind.AND] == 3   # 1 per cell with a carry-out
    assert counts.get(GateKind.OR, 0) == 0
    assert logic_gate_count(cb) == 14
    assert cb.validate() == []


def adder_cell(operands, passes, sum_out=True, carry_out=True,
               borrow=False):
    """One `full_adder` over operands that are constant bits (0 or 1) or
    free input bits ("x"), as a bool circuit whose output word "sum" holds
    the sum bit then the carry (or the borrow), and the (sum, carry) it
    returned."""
    bb = _BitBuilder(1, passes)
    values, inputs = [], []
    for i, op in enumerate(operands):
        if op == "x":
            v = bb.add(GateKind.INPUT)
            inputs.append((bb.node(v), 1, f"x{i}"))
        else:
            v = bb.const_bit(op)
        values.append(v)
    cell = bb.full_adder(*values, sum_out, carry_out, borrow)
    outputs = [(bb.node(v), owners(1), "sum") for v in cell if v is not None]
    c = Circuit(Level.BOOL, 2, bb.builder.nodes, inputs, outputs)
    return c, cell


@pytest.mark.parametrize("passes", [[], DEFAULT_PASSES])
def test_full_adder_computes_a_plus_b_plus_cin(passes):
    for operands in itertools.product((0, 1, "x"), repeat=3):
        free = [i for i, op in enumerate(operands) if op == "x"]
        for wanted in ((True, True), (True, False), (False, True)):
            c, cell = adder_cell(operands, passes, *wanted)
            assert tuple(v is not None for v in cell) == wanted
            # at most one gate that is not free under free-XOR, and none
            # that the bits asked for do not read
            assert sum(c.counts().get(k, 0)
                       for k in (GateKind.AND, GateKind.OR)) <= 1, operands
            assert dce(c) is c, (operands, wanted)
            for assignment in range(1 << len(free)):
                ins = {(1, f"x{i}"): (assignment >> j) & 1
                       for j, i in enumerate(free)}
                total = sum(ins.get((1, f"x{i}"), op)
                            for i, op in enumerate(operands))
                want = {(True, True): total, (True, False): total & 1,
                        (False, True): total >> 1}[wanted]
                # a two-bit output reads as two's complement
                got = interpret_bool(c, ins)["sum"] % (1 << sum(wanted))
                assert got == want, (operands, wanted, ins)


@pytest.mark.parametrize("passes", [[], DEFAULT_PASSES])
def test_borrow_cell_computes_a_minus_b_minus_bin(passes):
    for operands in itertools.product((0, 1, "x"), repeat=3):
        free = [i for i, op in enumerate(operands) if op == "x"]
        for wanted in ((True, True), (True, False), (False, True)):
            c, cell = adder_cell(operands, passes, *wanted, borrow=True)
            assert tuple(v is not None for v in cell) == wanted
            # one gate at most that is not free under free-XOR, one Not at
            # most and none with no constant 1, and no gate left unread
            counts = c.counts()
            assert counts.get(GateKind.AND, 0) + counts.get(
                GateKind.OR, 0) <= 1, operands
            assert counts.get(GateKind.NOT, 0) <= (1 in operands), operands
            assert dce(c) is c, (operands, wanted)
            for assignment in range(1 << len(free)):
                ins = {(1, f"x{i}"): (assignment >> j) & 1
                       for j, i in enumerate(free)}
                a, b, bin_ = (ins.get((1, f"x{i}"), op)
                              for i, op in enumerate(operands))
                diff = a - b - bin_  # the difference bit less 2 * borrow
                want = {(True, True): diff % 4, (True, False): diff & 1,
                        (False, True): int(diff < 0)}[wanted]
                got = interpret_bool(c, ins)["sum"] % (1 << sum(wanted))
                assert got == want, (operands, wanted, ins)


def test_adder_semantics_mod_2w():
    cb = bitblast(build("adder", bitwidth=8), 8)
    for a, b in [(0, 0), (3, 4), (100, 27), (-5, 3), (120, 120)]:
        got = interpret_bool(cb, {(1, "a"): a, (2, "b"): b})["out0"]
        want = (a + b) % 256
        assert got % 256 == want


def test_lt_via_sign_bit():
    src_build = build("gcd", bitwidth=16)  # contains Lt gates
    c = Circuit(bitwidth=16)
    a = c.add_input(1, "a")
    b = c.add_input(1, "b")
    lt = c.add_node(GateKind.LT, (a, b))
    r = c.add_node(GateKind.REVEAL, (lt,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "lt")
    cb = bitblast(c, 16)
    for x, y in [(2, 3), (3, 2), (-4, 4), (5, 5), (-9, -2)]:
        assert interpret_bool(cb, {(1, "a"): x, (1, "b"): y})["lt"] == \
            int(x < y), (x, y)


# -- subtraction, comparison and equality cells --

def cells_circuit(width, k=None):
    """x from party 1 and y from party 2, or the constant k, with x - y,
    y - x, x < y, y < x, x == y, x != y and x >= y as cmp_rewrite leaves
    them (1 - Eq, 1 - Lt), and (x < y) == y, a word of one bit against a
    word, each revealed under its name."""
    c = Circuit(bitwidth=width)
    x = c.add_input(1, "x")
    y = (c.add_input(2, "y") if k is None
         else c.add_node(GateKind.CONST, (), payload=k))
    one = c.add_node(GateKind.CONST, (), payload=1)
    lt = c.add_node(GateKind.LT, (x, y))
    eq = c.add_node(GateKind.EQ, (x, y))
    cells = {"sub": (GateKind.SUB, (x, y)), "rsub": (GateKind.SUB, (y, x)),
             "lt": lt, "gt": (GateKind.LT, (y, x)), "eq": eq,
             "ne": (GateKind.SUB, (one, eq)), "ge": (GateKind.SUB, (one, lt)),
             "bit_eq": (GateKind.EQ, (lt, y))}
    for name, cell in cells.items():
        nid = cell if isinstance(cell, int) else c.add_node(*cell)
        r = c.add_node(GateKind.REVEAL, (nid,), PlainMeta(owners(1, 2)))
        c.add_output(r, owners(1, 2), name)
    return c


def cell_values(x, y, width):
    """What the cells of `cells_circuit` compute, on Python ints. A
    comparison reads the sign of the w-bit difference, which is x < y
    whenever |x - y| < 2^(w-1)."""
    lt, gt = ((x - y) >> (width - 1)) & 1, ((y - x) >> (width - 1)) & 1
    if abs(x - y) < 1 << (width - 1):
        assert (lt, gt) == (int(x < y), int(y < x))
    return {"sub": x - y, "rsub": y - x, "lt": lt, "gt": gt,
            "eq": int(x == y), "ne": int(x != y), "ge": 1 - lt,
            "bit_eq": int(lt == y)}


def check_cells(width, passes, k, pairs):
    """The blast of `cells_circuit(width, k)`, run by interpret_bool and
    as a parsed gate list, gives `cell_values` mod 2^width on each pair
    (x, y); y is k when k is a constant."""
    mask = (1 << width) - 1
    cb = bitblast(cells_circuit(width, k), width, passes=passes)
    gl = parse_gatelist(emit_gatelist(cb))
    names = [name for _n, _a, name in cb.outputs][::width]
    for x, y in pairs:
        want = {n: v & mask for n, v in cell_values(x, y, width).items()}
        ins = {(1, "x"): x} if k is not None else {(1, "x"): x, (2, "y"): y}
        got = interpret_bool(cb, ins)
        assert {n: v & mask for n, v in got.items()} == want, (x, y)
        words = [x] if k is not None else [x, y]
        bits = eval_gatelist(gl, [(v >> i) & 1 for v in words
                                  for i in range(width)])
        assert {n: sum(b << i for i, b in enumerate(
            bits[j * width:(j + 1) * width])) for j, n in enumerate(names)
        } == want, (x, y)


PASS_LISTS = pytest.mark.parametrize("passes", [[], DEFAULT_PASSES],
                                     ids=["raw", "default"])


@PASS_LISTS
def test_cells_on_every_6_bit_pair(passes):
    every = range(-32, 32)
    check_cells(6, passes, None, itertools.product(every, every))


@PASS_LISTS
def test_cells_beside_every_6_bit_constant(passes):
    # each constant takes the raw cells specialized to its bits
    for k in range(-32, 32):
        check_cells(6, passes, k, [(x, k) for x in range(-32, 32)])


@PASS_LISTS
@pytest.mark.parametrize("width", [16, 64])
def test_cells_sampled_at_width(width, passes):
    rng = random.Random(width)
    top = 1 << (width - 1)
    edges = [0, 1, -1, 2, top - 1, -top, top // 2, -top // 2]
    words = edges + [rng.randrange(-top, top) for _ in range(24)]
    check_cells(width, passes, None,
                [(x, y) for x in words for y in rng.sample(words, 6)])
    for k in edges[:5] + rng.sample(words[8:], 3):
        check_cells(width, passes, k,
                    [(x, k) for x in rng.sample(words, 12) + [k]])


def test_cells_build_no_not_per_bit():
    # a - b and a < b are borrow chains of one And per bit with no Not of
    # b, and a == b is Not of an Or tree: one Not, not w
    for passes in ([], DEFAULT_PASSES):
        for name, kind in (("sub", GateKind.SUB), ("lt", GateKind.LT),
                           ("eq", GateKind.EQ)):
            c = Circuit(bitwidth=16)
            x, y = c.add_input(1, "x"), c.add_input(2, "y")
            r = c.add_node(GateKind.REVEAL, (c.add_node(kind, (x, y)),),
                           PlainMeta(owners(1, 2)))
            c.add_output(r, owners(1, 2), name)
            counts = bitblast(c, 16, passes=passes).counts()
            assert counts.get(GateKind.NOT, 0) == (name == "eq"), name
            assert sum(counts.get(k, 0) for k in NONXOR) == 15, name


@pytest.mark.parametrize("kind,k,gates,nonxor", [
    # x - 6 is added as x + ~6 + 1, whose carry cells beside the
    # constant are single Ors and Ands, where a borrow cell reads Not x
    (GateKind.LT, 6, 15, 13),
    # -1 is all 1 bits: the And tree over the bits of x takes no Not,
    # where the Or tree takes one per bit and its root
    (GateKind.EQ, -1, 15, 15),
], ids=["lt-6", "eq-minus-1"])
def test_cells_beside_a_constant_take_no_extra_free_gates(kind, k, gates,
                                                          nonxor):
    for passes in ([], DEFAULT_PASSES):
        c = Circuit(bitwidth=16)
        x = c.add_input(1, "x")
        y = c.add_node(GateKind.CONST, (), payload=k)
        r = c.add_node(GateKind.REVEAL, (c.add_node(kind, (x, y)),),
                       PlainMeta(owners(1)))
        c.add_output(r, owners(1), "out")
        counts = bitblast(c, 16, passes=passes).counts()
        assert sum(counts.get(q, 0) for q in LOGIC) == gates
        assert sum(counts.get(q, 0) for q in NONXOR) == nonxor


def test_reveal_groups_word_outputs():
    cb = bitblast(build("adder", bitwidth=4), 4)
    names = [name for _n, _a, name in cb.outputs]
    assert names == ["out0"] * 4  # one word, LSB first


def test_bitblasting_bool_circuit_rejected():
    cb = bitblast(build("adder", bitwidth=4), 4)
    with pytest.raises(LevelError):
        bitblast(cb, 4)


def random_bool_circuit(rng, n_inputs, n_gates):
    c = Circuit(Level.BOOL)
    wires = []
    for i in range(n_inputs):
        nid = c.add_node(GateKind.INPUT, ())
        c.inputs.append((nid, 1, f"i{i}"))
        wires.append(nid)
    for _ in range(n_gates):
        kind = rng.choice([GateKind.AND, GateKind.OR, GateKind.XOR,
                           GateKind.NOT, GateKind.MUX_BIT])
        from mpcc.circuit import ARITY
        ops = tuple(rng.choice(wires) for _ in range(ARITY[kind]))
        wires.append(c.add_node(kind, ops))
    out = c.add_node(GateKind.REVEAL, (wires[-1],), PlainMeta(owners(1)))
    c.add_output(out, owners(1), "out")
    return c


# an oracle written apart from the one gate loop in gatelist.run_gates
TRUTH = {
    GateKind.AND: lambda x, y: x & y,
    GateKind.OR: lambda x, y: x | y,
    GateKind.XOR: lambda x, y: x ^ y,
    GateKind.NOT: lambda x: 1 - x,
    GateKind.MUX_BIT: lambda s, t, e: t if s else e,
}


def reference_bits(c, ins):
    """Each revealed bit of a bool circuit, by output name."""
    values = {nid: ins[(p, name)] for nid, p, name in c.inputs}
    for nid, node in enumerate(c.nodes):
        if node.kind in TRUTH:
            values[nid] = TRUTH[node.kind](*(values[o] for o in node.operands))
        elif node.kind == GateKind.REVEAL:
            values[nid] = values[node.operands[0]]
    return {name: values[nid] for nid, _a, name in c.outputs}


def test_gate_truth_tables():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    b = c.add_node(GateKind.INPUT, ())
    s = c.add_node(GateKind.INPUT, ())
    c.inputs += [(a, 1, "a"), (b, 1, "b"), (s, 1, "s")]
    for kind, ops in ((GateKind.AND, (a, b)), (GateKind.OR, (a, b)),
                      (GateKind.XOR, (a, b)), (GateKind.NOT, (a,)),
                      (GateKind.MUX_BIT, (s, a, b))):
        g = c.add_node(kind, ops)
        r = c.add_node(GateKind.REVEAL, (g,), PlainMeta(owners(1)))
        c.add_output(r, owners(1), kind.value)
    gl = parse_gatelist(emit_gatelist(c))
    for x, y, z in itertools.product((0, 1), repeat=3):
        want = {"And": x & y, "Or": x | y, "Xor": x ^ y, "Not": 1 - x,
                "MuxBit": x if z else y}
        ins = {(1, "a"): x, (1, "b"): y, (1, "s"): z}
        assert interpret_bool(c, ins) == want, (x, y, z)
        assert eval_gatelist(gl, [x, y, z]) == list(want.values())


@pytest.mark.parametrize("seed", range(30))
def test_random_bool_circuit_matches_reference(seed):
    rng = random.Random(seed)
    k = rng.randrange(2, 7)
    c = random_bool_circuit(rng, k, rng.randrange(5, 50))
    for assignment in range(1 << k):
        ins = {(1, f"i{i}"): (assignment >> i) & 1 for i in range(k)}
        assert interpret_bool(c, ins) == reference_bits(c, ins)


@pytest.mark.parametrize("seed", range(40))
def test_bitblast_agrees_with_word_interpreter(seed):
    """Random small word circuits evaluated both ways; comparisons stay
    sound because inputs are small relative to the width."""
    rng = random.Random(seed)
    w = 48  # wide enough that no generated value can reach 2^(w-1)
    c = Circuit(bitwidth=w)
    wires = [c.add_input(1, "a"), c.add_input(1, "b"),
             c.add_node(GateKind.CONST, (), payload=rng.randrange(0, 9))]
    bool_wires = []
    for _ in range(rng.randrange(4, 16)):
        roll = rng.random()
        if roll < 0.5 or not bool_wires:
            kind = rng.choice([GateKind.ADD, GateKind.SUB, GateKind.MUL,
                               GateKind.MUL_PLAIN, GateKind.LT, GateKind.EQ])
            if kind == GateKind.MUL_PLAIN:
                nid = c.add_node(kind, (rng.choice(wires),),
                                 payload=rng.randrange(0, 5))
            elif kind == GateKind.MUL:
                # multiply only the small base wires so every value stays
                # far from 2^(w-1) and sign-bit comparison stays sound
                nid = c.add_node(kind, (rng.choice(wires[:3]),
                                        rng.choice(wires[:3])))
            else:
                nid = c.add_node(kind, (rng.choice(wires),
                                        rng.choice(wires)))
            if kind in (GateKind.LT, GateKind.EQ):
                bool_wires.append(nid)
            else:
                wires.append(nid)
        else:
            nid = c.add_node(GateKind.MUX, (rng.choice(bool_wires),
                                            rng.choice(wires),
                                            rng.choice(wires)))
            wires.append(nid)
    r = c.add_node(GateKind.REVEAL, (wires[-1],), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    cb = bitblast(c, w)
    for _ in range(8):
        ins = {(1, "a"): rng.randrange(-9, 10), (1, "b"): rng.randrange(-9, 10)}
        clear = interpret_clear(c, ins)["out"]
        boolean = interpret_bool(cb, ins)["out"]
        # agreement is modulo 2^w with the signed lift
        assert (clear - boolean) % (1 << w) == 0, ins


# -- multipliers --

def one_input(width, gate, payload=None):
    """x from party 1 and `gate` of it revealed to party 1 as "out": Mul
    reads x twice, MulPlain multiplies it by `payload`."""
    c = Circuit(bitwidth=width)
    x = c.add_input(1, "x")
    ops = (x, x) if gate == GateKind.MUL else (x,)
    g = c.add_node(gate, ops, payload=payload)
    r = c.add_node(GateKind.REVEAL, (g,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    return c


def square_cell(width, passes):
    """`_BitBuilder.square` of every bit of x from party 1, as a bool
    circuit whose output word is "out". Bitblast builds this cell on the
    low bits that the range contract leaves a square's operand, the
    others copies of its sign bit or 0, so the cell on every bit pattern
    covers each of those."""
    bb = _BitBuilder(width, passes)
    x = [bb.add(GateKind.INPUT) for _ in range(width)]
    out = bb.square(x)
    c = Circuit(Level.BOOL, width, bb.builder.nodes,
                [(bb.node(v), 1, "x") for v in x],
                [(bb.node(v), owners(1), "out") for v in out])
    return dce(c) if passes else c


@functools.lru_cache(maxsize=None)
def both_blasts(width, gate, payload=None):
    """The raw and the default bitblast of `one_input`, each with its
    parsed gate list; for Mul, the raw and the default `square_cell`."""
    return [(cb, parse_gatelist(emit_gatelist(cb)))
            for cb in (square_cell(width, passes) if gate == GateKind.MUL
                       else bitblast(one_input(width, gate, payload), width,
                                     passes=passes)
                       for passes in ([], DEFAULT_PASSES))]


def check_both_ways(width, gate, payload, xs, want):
    """Both blasts, run by interpret_bool and as a parsed gate list,
    give want(x) mod 2^width for each x."""
    mask = (1 << width) - 1
    for cb, gl in both_blasts(width, gate, payload):
        for x in xs:
            expect = want(x) & mask
            got = interpret_bool(cb, {(1, "x"): x})["out"]
            assert got & mask == expect, x
            bits = eval_gatelist(gl, [(x >> i) & 1 for i in range(width)])
            assert sum(b << i for i, b in enumerate(bits)) == expect, x


def test_squarer_on_every_8_bit_input():
    check_both_ways(8, GateKind.MUL, None, range(-128, 128),
                    lambda x: x * x)


@pytest.mark.parametrize("k", range(-128, 128))
def test_constant_multiplier_on_8_bits(k):
    check_both_ways(8, GateKind.MUL_PLAIN, k,
                    (0, 1, -1, -128, 127, 2, -3, 85, -86, 64),
                    lambda x: x * k)


@pytest.mark.parametrize("width", [16, 64])
@given(x=st.integers(), k=st.integers())
@settings(max_examples=25, deadline=None)
def test_multipliers_agree_at_width(width, x, k):
    x = x % (1 << width) - (1 << (width - 1))  # any w-bit value
    check_both_ways(width, GateKind.MUL, None, [x], lambda x: x * x)
    check_both_ways(width, GateKind.MUL_PLAIN, k, [x], lambda x: x * k)


@pytest.mark.parametrize("width, gates", [(8, 21), (16, 105), (64, 1953)])
def test_a_square_has_at_most_w2_over_2_nonxor_gates(width, gates):
    square = both_blasts(width, GateKind.MUL)[1][0]
    nonxor = sum(square.counts().get(k, 0) for k in NONXOR)
    assert nonxor == gates <= width * width // 2


@given(k=st.integers(-(1 << 70), 1 << 70), width=st.integers(1, 64))
@settings(max_examples=300)
def test_signed_digits_are_a_sparse_recoding(k, width):
    digits = signed_digits(k, width)
    assert sum(d << j for j, d in digits) % (1 << width) == k % (1 << width)
    positions = [j for j, _d in digits]
    assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))
    assert all(0 <= j < width and d in (1, -1) for j, d in digits)
    assert len(digits) <= bin(k).count("1")


def test_signed_digits_of_a_few_constants():
    assert signed_digits(0, 64) == []
    assert signed_digits(-1, 64) == [(0, -1)]  # 0 - x
    assert signed_digits(-3, 64) == [(0, 1), (2, -1)]  # x - 4x
    assert signed_digits(7, 64) == [(0, -1), (3, 1)]  # 8x - x
    assert signed_digits(-(1 << 62), 64) == [(62, -1)]
    assert signed_digits(-(1 << 63), 64) == [(63, 1)]  # 2^63 mod 2^64
    # x*-1 is one negation, 62 non-XOR gates, where the 64 binary
    # digits of 2^64 - 1 cost 63 adders
    negate = bitblast(one_input(64, GateKind.MUL_PLAIN, -1), 64)
    assert sum(negate.counts().get(k, 0) for k in NONXOR) == 62


def test_unread_high_bits_are_not_emitted():
    # quad*4 reads the low 6 bits of quad; |quad| < 2^6 leaves quad =
    # sq*sq the low 3 bits of sq, and sq = s*s reads the low 2 of the sum
    # s: no bit above those is built. In the contract, |s| <= 1.
    c = Circuit(bitwidth=8)
    x = c.add_input(1, "x")
    y = c.add_input(1, "y")
    s = c.add_node(GateKind.ADD, (x, y))
    sq = c.add_node(GateKind.MUL, (s, s))
    quad = c.add_node(GateKind.MUL, (sq, sq))
    t = c.add_node(GateKind.MUL_PLAIN, (quad,), payload=4)
    r = c.add_node(GateKind.REVEAL, (t,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    for passes in ([], DEFAULT_PASSES):
        cb = bitblast(c, 8, passes=passes)
        assert dce(cb) is cb
        for a, b in [(0, 0), (1, 0), (-3, 2), (40, -41), (-63, 63)]:
            want = (a + b) ** 4 * 4
            ins = {(1, "x"): a, (1, "y"): b}
            assert interpret_clear(c, ins)["out"] == want
            assert interpret_bool(cb, ins)["out"] == want, (passes, a, b)


# Programs whose revealed comparison feeds arithmetic, and their non-XOR
# gates at 8, 16 and 64 bits with the default passes, then raw. The bits
# of a revealed bit word above bit 0 are the constant 0, so its adders
# and multipliers are bit cells: beside the Lt and the Eq, `&&` costs
# one AND and `||` three non-XOR gates.
REVEALED_BITS = {
    "and": ("output eval({1, 2}, eval({1, 2}, x < y) && (x == y));",
            (15, 31, 127), (15, 31, 127)),
    "or": ("output eval({1, 2}, eval({1, 2}, x < y) || (x == y));",
           (17, 33, 129), (18, 34, 130)),
    "if": ("output eval({1, 2}, if (x == y) { eval({1, 2}, x < y) } "
           "else { false });", (15, 31, 127), (15, 31, 127)),
    "output": ("val r : bool := eval({1, 2}, x < y);\n"
               "output r;\n"
               "output eval({1, 2}, r && (x == y));\n"
               "output eval({1, 2}, r || (x == y));",
               (17, 33, 129), (26, 50, 194)),
}


@PASS_LISTS
@pytest.mark.parametrize("width", [8, 16, 64])
@pytest.mark.parametrize("name", sorted(REVEALED_BITS))
def test_revealed_bits_keep_their_bit_cells(name, width, passes):
    body, default, raw = REVEALED_BITS[name]
    src = ("parties 1, 2;\ninput x : int from 1;\ninput y : int from 2;\n"
           + body + "\n")
    b = compile(src, PipelineConfig(bitwidth=width, target_level=Level.BOOL,
                                    passes=passes))
    nonxor = sum(b.counts().get(k, 0) for k in NONXOR)
    assert nonxor == (default if passes else raw)[(8, 16, 64).index(width)]
    gl = parse_gatelist(emit_gatelist(b))
    program = parse_source(src)
    bound = 1 << contract_log(width)
    rng = random.Random(f"{name}@{width}")
    draws = [[rng.randrange(1 - bound, bound) for _ in "xy"]
             for _ in range(6)]
    for x, y in [(3, 3), (2, 5), (5, 2), (-1, 0)] + draws:
        ins = {(1, "x"): x, (2, "y"): y}
        want = reference_run(program, ins)
        assert interpret_bool(b, ins) == want, ins
        assert decode_words(b, eval_gatelist(gl, input_bits_for(b, ins))) \
            == want, ins
