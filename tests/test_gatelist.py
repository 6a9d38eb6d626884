import itertools
import random

import pytest

from conftest import build
from mpcc.backends.boolsim import interpret_bool
from mpcc.backends.gatelist import (
    emit_gatelist, eval_gatelist, parse_gatelist,
)
from mpcc.bitblast import bitblast
from mpcc.circuit import Circuit, GateKind, Level, PlainMeta
from mpcc.errors import LevelError
from mpcc.sectypes import owners


def single_and_circuit():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT_BIT, ())
    b = c.add_node(GateKind.INPUT_BIT, ())
    c.inputs += [(a, 1, "a"), (b, 2, "b")]
    g = c.add_node(GateKind.AND, (a, b))
    r = c.add_node(GateKind.REVEAL_BIT, (g,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def test_single_and_listing():
    text = emit_gatelist(single_and_circuit())
    assert text == "1 3\n2 1\n2 1 0 1 2 AND\n"


def test_emission_is_deterministic():
    c = bitblast(build("adder", bitwidth=4), 4)
    assert emit_gatelist(c) == emit_gatelist(c)


def test_adder_has_twenty_gate_lines():
    c = bitblast(build("adder", bitwidth=4), 4, passes=[])
    text = emit_gatelist(c)
    gate_lines = [ln for ln in text.splitlines()
                  if ln and not ln.startswith("const")
                  and ln.split()[-1] in ("AND", "OR", "XOR", "INV", "MUX")]
    assert len(gate_lines) == 20
    header = text.splitlines()[0].split()
    assert int(header[0]) == 20
    io = text.splitlines()[1].split()
    assert io == ["8", "4"]


def test_normalized_adder_has_fourteen_gate_lines():
    # cell 0 has no carry-in (one Xor, one And) and cell 3's carry-out is
    # dead (two Xor): 2 + 5 + 5 + 2 gates
    gl = parse_gatelist(emit_gatelist(bitblast(build("adder", bitwidth=4))))
    assert (gl.n_gates, gl.n_inputs, gl.n_outputs) == (14, 8, 4)
    assert sum(k == "XOR" for k, _i, _o in gl.gates) == 7


def test_arith_circuit_rejected():
    with pytest.raises(LevelError):
        emit_gatelist(build("adder", bitwidth=4))


def test_parse_round_trip_counts():
    c = bitblast(build("adder", bitwidth=4), 4, passes=[])
    gl = parse_gatelist(emit_gatelist(c))
    assert gl.n_gates == 20
    assert gl.n_inputs == 8
    assert gl.n_outputs == 4


def input_bits_for(c: Circuit, words: dict[tuple[int, str], int]):
    bits = []
    seen: dict[tuple[int, str], int] = {}
    for _nid, party, name in c.inputs:
        k = seen.get((party, name), 0)
        seen[(party, name)] = k + 1
        bits.append((words[(party, name)] >> k) & 1)
    return bits


def test_adder_gatelist_evaluates_correctly():
    c = bitblast(build("adder", bitwidth=4), 4)
    gl = parse_gatelist(emit_gatelist(c))
    for a, b in [(0, 0), (3, 4), (7, 7), (5, 2)]:
        bits = eval_gatelist(gl, input_bits_for(c, {(1, "a"): a,
                                                    (2, "b"): b}))
        value = sum(bit << k for k, bit in enumerate(bits))
        assert value == (a + b) % 16, (a, b)


def random_bool_circuit(rng, n_inputs, n_gates):
    c = Circuit(Level.BOOL)
    wires = []
    for i in range(n_inputs):
        nid = c.add_node(GateKind.INPUT_BIT, ())
        c.inputs.append((nid, 1, f"i{i}"))
        wires.append(nid)
    from mpcc.circuit import ARITY
    for _ in range(n_gates):
        kind = rng.choice([GateKind.AND, GateKind.OR, GateKind.XOR,
                           GateKind.NOT, GateKind.MUX_BIT])
        ops = tuple(rng.choice(wires) for _ in range(ARITY[kind]))
        wires.append(c.add_node(kind, ops))
    for k, w in enumerate(rng.sample(wires, min(3, len(wires)))):
        r = c.add_node(GateKind.REVEAL_BIT, (w,), PlainMeta(owners(1)))
        c.add_output(r, owners(1), f"o{k}")
    return c


@pytest.mark.parametrize("seed", range(25))
def test_reparse_and_evaluate_matches_interpreter(seed):
    rng = random.Random(seed)
    k = rng.randrange(2, 10)
    c = random_bool_circuit(rng, k, rng.randrange(4, 40))
    gl = parse_gatelist(emit_gatelist(c))
    for assignment in range(1 << k):
        words = {(1, f"i{i}"): (assignment >> i) & 1 for i in range(k)}
        direct = interpret_bool(c, words)
        via_text = eval_gatelist(gl, input_bits_for(c, words))
        assert via_text == [direct[f"o{j}"] for j in range(len(via_text))], \
            assignment


def test_output_copied_when_source_is_input():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT_BIT, ())
    c.inputs.append((a, 1, "a"))
    r = c.add_node(GateKind.REVEAL_BIT, (a,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    gl = parse_gatelist(emit_gatelist(c))
    for bit in (0, 1):
        assert eval_gatelist(gl, [bit]) == [bit]


def test_duplicate_output_sources_get_copies():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT_BIT, ())
    b = c.add_node(GateKind.INPUT_BIT, ())
    c.inputs += [(a, 1, "a"), (b, 1, "b")]
    g = c.add_node(GateKind.XOR, (a, b))
    for name in ("o0", "o1"):
        r = c.add_node(GateKind.REVEAL_BIT, (g,), PlainMeta(owners(1)))
        c.add_output(r, owners(1), name)
    gl = parse_gatelist(emit_gatelist(c))
    for x, y in itertools.product((0, 1), repeat=2):
        assert eval_gatelist(gl, [x, y]) == [x ^ y, x ^ y]
