"""The one rewrite engine: `optimizer.Builder`, the passes that walk a
circuit through it, and the bitblast that emits the bool fixpoint
through it."""

import itertools
import random

import pytest

from conftest import CORPUS_NAMES, build
from mpcc import optimizer
from mpcc.backends.boolsim import interpret_bool
from mpcc.bitblast import bitblast
from mpcc.circuit import (
    ARITY, PLAIN, Circuit, EncMeta, GateKind, Level, PlainMeta, SharedMeta,
)
from mpcc.errors import LowerError
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import (
    DEFAULT_PASSES, PASSES, RULE_KINDS, Builder, run_passes,
)
from mpcc.sectypes import Generic, owners
from mpcc.typecheck import check_program
from proggen import random_program
from test_range_fold import random_circuit

LOCAL_RULES = sorted(RULE_KINDS)


# -- the builder --

def test_hashing_returns_the_earlier_node():
    b = Builder(["cse"])
    x = b.add(GateKind.INPUT)
    y = b.add(GateKind.INPUT)
    assert x != y  # inputs never merge
    g = b.add(GateKind.AND, (x, y))
    assert b.add(GateKind.AND, (y, x)) == g  # commutative
    assert b.add(GateKind.XOR, (x, y)) != g
    assert len(b.nodes) == 4


def test_hashing_merges_gates_whose_metadata_is_equal_not_identical():
    """A CSE key holds a gate's metadata by value: two equal metas built
    apart merge, and metas that differ, or differ only in class, do not."""
    b = Builder(["cse"])
    x = b.add(GateKind.INPUT, (), EncMeta(owners(1)))
    y = b.add(GateKind.INPUT, (), EncMeta(owners(2)))
    meta, twin = EncMeta(owners(1, 2)), EncMeta(owners(1, 2))
    assert meta is not twin
    g = b.add(GateKind.AND, (x, y), meta)
    assert b.add(GateKind.AND, (x, y), twin) == g
    assert b.add(GateKind.AND, (x, y), EncMeta(owners(1))) != g
    assert b.add(GateKind.AND, (x, y), PlainMeta(owners(1, 2))) != g
    assert len(b.nodes) == 5
    # so does the cse pass, on a circuit with a fresh meta per gate
    c = Circuit(Level.BOOL)
    for meta in (EncMeta(owners(1)), EncMeta(owners(2))):
        c.add_node(GateKind.INPUT, (), meta)
    c.add_node(GateKind.AND, (0, 1), EncMeta(owners(1, 2)))
    c.add_node(GateKind.AND, (1, 0), EncMeta(owners(1, 2)))
    assert c.nodes[2].meta is not c.nodes[3].meta
    assert [n.kind for n in optimizer.cse(c).nodes] == [
        GateKind.INPUT, GateKind.INPUT, GateKind.AND]


def test_a_replacement_goes_through_every_rule():
    # one Builder per level: a word 0 and a bit 0 are one Const node
    word = Builder(RULE_KINDS)
    zero = word.add(GateKind.CONST, (), PLAIN, 0)
    x = word.add(GateKind.INPUT)
    # Mul(x, 0) -> MulPlain(x, 0) -> Const 0, which hashes to `zero`
    assert word.add(GateKind.MUL, (x, zero)) == zero
    assert len(word.nodes) == 2
    bits = Builder(RULE_KINDS)
    one = bits.add(GateKind.CONST, (), PLAIN, 1)
    # Not(Not(1)) folds twice and lands on the constant it started from
    assert bits.add(GateKind.NOT, (bits.add(GateKind.NOT, (one,)),)) == one
    assert len(bits.nodes) == 2  # the first Not's Const 0 is the new node


def test_a_rule_that_is_not_enabled_does_nothing():
    for rules in ([], ["const_fold"], ["cse"]):
        b = Builder(rules)
        x = b.add(GateKind.INPUT)
        t = b.add(GateKind.CONST, (), PLAIN, 1)
        assert b.add(GateKind.AND, (x, t)) == 2  # peephole's identity


def test_each_const_free_kind_rewrites_without_a_constant():
    assert optimizer.CONST_FREE == {GateKind.NOT, GateKind.MUX,
                                    GateKind.MUX_BIT, GateKind.MUL_PLAIN,
                                    GateKind.LT, GateKind.EQ}
    b = Builder(RULE_KINDS)
    x, s = b.add(GateKind.INPUT), b.add(GateKind.INPUT)
    xb, sb = b.add(GateKind.INPUT), b.add(GateKind.INPUT)
    assert b.add(GateKind.NOT, (b.add(GateKind.NOT, (xb,)),)) == xb
    assert b.add(GateKind.MUX, (s, x, x)) == x
    assert b.add(GateKind.MUX_BIT, (sb, xb, xb)) == xb
    assert b.add(GateKind.MUL_PLAIN, (x,), PLAIN, 1) == x
    for kind, value in ((GateKind.LT, 0), (GateKind.EQ, 1)):
        k = b.nodes[b.add(kind, (x, x))]
        assert (k.kind, k.payload) == (GateKind.CONST, value)


def test_no_other_rule_fires_without_a_constant(monkeypatch):
    """A gate of any other ruled kind over inputs alone, repeated or not,
    is appended as it is, even with the early rejection off (every kind
    in CONST_FREE): a rule that fires without a constant on a kind
    outside CONST_FREE, which that rejection would hide, fails here."""
    kinds = frozenset().union(*RULE_KINDS.values()) - optimizer.CONST_FREE
    monkeypatch.setattr(optimizer, "CONST_FREE", frozenset(GateKind))
    for kind in sorted(kinds):
        for picks in itertools.product(range(2), repeat=ARITY[kind]):
            b = Builder(RULE_KINDS)
            leaves = [b.add(GateKind.INPUT), b.add(GateKind.INPUT)]
            assert b.add(kind, tuple(leaves[i] for i in picks)) == 2, kind
            assert b.nodes[2].kind is kind


# -- the conditional swap --

def muxbit_pair(metas=(PLAIN, PLAIN), same_selector=True):
    """A bool circuit revealing MuxBit(s, t, e) and then MuxBit(s', e, t),
    s' being s or a fourth input, with the metadata `metas`."""
    c = Circuit(Level.BOOL)
    s, t, e, s2 = (c.add_input(1, name) for name in ("s", "t", "e", "s2"))
    first = c.add_node(GateKind.MUX_BIT, (s, t, e), metas[0])
    second = c.add_node(GateKind.MUX_BIT, (s if same_selector else s2, e, t),
                        metas[1])
    for nid, name in ((first, "first"), (second, "second")):
        r = c.add_node(GateKind.REVEAL, (nid,), PlainMeta(owners(1)))
        c.add_output(r, owners(1), name)
    return c


def test_a_mirrored_muxbit_is_two_xors():
    # s ? e : t beside s ? t : e is t ^ e ^ (s ? t : e)
    b = Builder(["cse"])
    s, t, e = (b.add(GateKind.INPUT) for _ in range(3))
    m = b.add(GateKind.MUX_BIT, (s, t, e))
    swap = b.add(GateKind.MUX_BIT, (s, e, t))
    assert [(n.kind, n.operands) for n in b.nodes[m + 1:]] == [
        (GateKind.XOR, (t, e)), (GateKind.XOR, (swap - 1, m))]
    assert b.add(GateKind.MUX_BIT, (s, e, t)) == swap
    assert b.add(GateKind.MUX_BIT, (s, t, e)) == m
    # the cse pass makes the same swap, and the outputs stay
    c = muxbit_pair()
    out = optimizer.cse(c)
    assert out.counts()[GateKind.MUX_BIT] == 1
    assert out.counts()[GateKind.XOR] == 2
    for bits in itertools.product((0, 1), repeat=4):
        ins = {(1, name): v for name, v in zip(("s", "t", "e", "s2"), bits)}
        assert interpret_bool(out, ins) == interpret_bool(c, ins)
    assert run_passes(out) is out


@pytest.mark.parametrize("metas, same_selector", [
    ((EncMeta(owners(1)), EncMeta(owners(1, 2))), True),
    ((PLAIN, PLAIN), False),
])
def test_a_swap_needs_the_same_selector_and_metadata(metas, same_selector):
    c = muxbit_pair(metas, same_selector)
    assert optimizer.cse(c) is c
    assert run_passes(c).counts()[GateKind.MUX_BIT] == 2


def test_no_swap_without_cse_or_at_word_level():
    b = Builder([r for r in RULE_KINDS if r != "cse"])
    s, t, e = (b.add(GateKind.INPUT) for _ in range(3))
    b.add(GateKind.MUX_BIT, (s, t, e))
    b.add(GateKind.MUX_BIT, (s, e, t))
    assert [n.kind for n in b.nodes[3:]] == [GateKind.MUX_BIT] * 2
    # a word Mux pair stays two Muxes: its swap costs more after bitblast
    c = Circuit(bitwidth=16)
    s, t, e = c.add_input(1, "s"), c.add_input(1, "t"), c.add_input(1, "e")
    for ops, name in (((s, t, e), "first"), ((s, e, t), "second")):
        r = c.add_node(GateKind.REVEAL, (c.add_node(GateKind.MUX, ops),),
                       PlainMeta(owners(1)))
        c.add_output(r, owners(1), name)
    assert optimizer.cse(c) is c
    assert run_passes(c).counts()[GateKind.MUX] == 2


def test_bitblast_rejects_unknown_passes():
    with pytest.raises(LowerError):
        bitblast(build("adder", bitwidth=4), passes=["mystery_pass"])


# -- bitblast emits the bool fixpoint --

@pytest.mark.parametrize("scheme", ["generic", "additive"])
@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bitblast_emits_the_bool_fixpoint(name, width, scheme):
    word = build(name, bitwidth=width, scheme=scheme, optimize=True)
    b = bitblast(word)
    # Circuit equality compares every field that to_json writes
    assert b == run_passes(bitblast(word, passes=[]))
    assert run_passes(b) is b


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bitblast_leaves_nothing_to_sweep(name, width):
    # no sum bit below a comparison's sign, no top carry-out, no constant
    # bit that no gate reads: the final dce has nothing to drop
    word = build(name, bitwidth=width, optimize=True)
    swept = [p for p in DEFAULT_PASSES if p != "dce"]
    b = bitblast(word, passes=swept)
    assert optimizer.dce(b) is b


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_raw_bitblast_builds_no_bit_no_reader_reads(name, width, optimize):
    # not the upper bits of a bit word read as a Mux selector, the top
    # bit of a square's operand or a word no output reaches: nothing is
    # left for dce
    word = build(name, bitwidth=width, optimize=optimize)
    b = bitblast(word, passes=[])
    live = [False] * len(b.nodes)
    for nid, _x, _name in b.inputs + b.outputs:
        live[nid] = True
    for nid in range(len(b.nodes) - 1, -1, -1):
        if live[nid]:
            for o in b.nodes[nid].operands:
                live[o] = True
    assert all(live)


@pytest.mark.parametrize("scheme", ["generic", "additive"])
@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_only_inputs_and_reveals_carry_metadata(name, width, scheme):
    """Every gate is plain, in the word circuit and in the bool circuit
    bitblast emits from it, each raw or optimized, but an Input, which
    holds its owner or share metadata (a bit its word's), and a Reveal,
    which holds its audience (a bit its word's)."""
    for optimize in (True, False):
        word = build(name, bitwidth=width, scheme=scheme, optimize=optimize)
        b = bitblast(word, passes=None if optimize else [])
        owner = {(p, n): word.nodes[nid].meta for nid, p, n in word.inputs}
        assert all(b.nodes[nid].meta == owner[p, n]
                   for nid, p, n in b.inputs)
        audiences = {n.meta for n in word.nodes if n.kind is GateKind.REVEAL}
        for node in word.nodes + b.nodes:
            if node.kind is GateKind.REVEAL:
                assert node.meta in audiences and node.meta.audience
            elif node.kind is GateKind.INPUT:
                assert isinstance(node.meta, (EncMeta, SharedMeta)), node
            else:
                assert node.meta == PLAIN, node


@pytest.mark.parametrize("width", [8, 16, 64])
@pytest.mark.parametrize("seed", range(6))
def test_every_rule_set_computes_the_same_bits(seed, width):
    """Each local rule alone and all of them give bool circuits whose
    outputs are bit-identical to the raw bitblast's, on optimized words
    and, below 64 bits, unoptimized ones (whose 64-bit multipliers would
    triple the run time)."""
    tp = check_program(random_program(seed), Generic())
    lowered = lower_program(tp, LowerConfig(bitwidth=width))
    rng = random.Random(seed)
    inputs = [{(1, "a"): rng.randrange(-20, 40),
               (2, "b"): rng.randrange(-20, 40)} for _ in range(2)]
    words = [run_passes(lowered)] + ([lowered] if width < 64 else [])
    for word in words:
        want = [interpret_bool(bitblast(word, passes=[]), ins)
                for ins in inputs]
        for passes in [None] + [[rule] for rule in LOCAL_RULES]:
            b = bitblast(word, passes=passes)
            assert [interpret_bool(b, ins) for ins in inputs] == want, passes


@pytest.mark.parametrize("width", [8, 16, 64])
def test_every_rule_set_computes_the_same_bits_on_random_circuits(width):
    """As above, on `random_circuit`'s comparisons with constants, Muxes
    on bits the cells know and Reveals of constants, cell inputs that
    proggen's programs do not reach; and the default bitblast is the
    fixpoint of the raw one."""
    kept = 0  # output bits that Reveal a raw constant
    for seed in range(40):
        c = random_circuit(seed, width)
        raw = bitblast(c, passes=[])
        assert bitblast(c) == run_passes(raw), seed
        kept += sum([raw.nodes[raw.nodes[nid].operands[0]].kind
                     is GateKind.CONST for nid, _a, _n in raw.outputs])
        rng = random.Random(seed)
        inputs = [{(1, "a"): rng.randrange(-20, 40),
                   (2, "b"): rng.randrange(-20, 40)} for _ in range(2)]
        want = [interpret_bool(raw, ins) for ins in inputs]
        for passes in [None] + [[rule] for rule in LOCAL_RULES]:
            b = bitblast(c, passes=passes)
            assert [interpret_bool(b, ins) for ins in inputs] == want, (
                seed, passes)
    assert kept


def test_a_bit_a_rule_returns_does_not_steer_a_cell():
    # Mux(2a == 1, a, r) is r to the rules, since 2a == 1 is the raw
    # constant 0, and r = Reveal(5) is a kept output: its bits are raw
    # constants only where r is read, not where a rule returns them, so
    # the default bitblast's adder cells are the raw circuit's
    c = Circuit(bitwidth=8)
    a = c.add_input(1, "a")
    five, one = (c.add_node(GateKind.CONST, (), PLAIN, k) for k in (5, 1))
    r = c.add_node(GateKind.REVEAL, (five,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "r")
    two_a = c.add_node(GateKind.MUL_PLAIN, (a,), PLAIN, 2)
    s = c.add_node(GateKind.EQ, (two_a, one))
    y = c.add_node(GateKind.ADD, (c.add_node(GateKind.MUX, (s, a, r)), a))
    c.add_output(c.add_node(GateKind.REVEAL, (y,), PlainMeta(owners(1))),
                 owners(1), "y")
    raw = bitblast(c, passes=[])
    assert bitblast(c) == run_passes(raw)
    assert interpret_bool(raw, {(1, "a"): 3}) == {"r": 5, "y": 8}


# -- a pass that rewrites nothing copies nothing --

def fixpoints():
    """The passes' fixpoint at word and bool level."""
    out = []
    for name in ("gcd", "auction", "mergesort", "matvec", "pow8"):
        word = run_passes(build(name, bitwidth=16))
        out += [word, bitblast(word, 16)]
    assert {c.level for c in out} == {Level.ARITH, Level.BOOL}
    return out


def test_a_pass_on_its_fixpoint_builds_no_circuit(monkeypatch):
    circuits = fixpoints()
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(optimizer, "Circuit", counting(optimizer.Circuit))
    monkeypatch.setattr(Builder, "walk", counting(Builder.walk))
    for c in circuits:
        for name, fn in PASSES.items():
            calls.clear()
            assert fn(c) is c, name
            assert calls == [], name  # no walk even starts copying
