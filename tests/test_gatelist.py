import itertools
import random

import pytest

from astref import reference_run
from conftest import CORPUS_NAMES, build
from mpcc.backends.boolsim import interpret_bool
from mpcc.backends.clear import interpret_clear
from mpcc.backends.gatelist import (
    GateList, emit_gatelist, eval_gatelist, parse_gatelist,
)
from mpcc.backends.shares import simulate_shared
from mpcc.bitblast import bitblast
from mpcc.circuit import Circuit, GateKind, Level, PlainMeta
from mpcc.errors import LevelError, ParseError
from mpcc.estimator import COMPARISON_KINDS
from mpcc.frontend import parse_source
from mpcc.pipeline import PipelineConfig, compile
from mpcc.sectypes import AdditiveShare, owners


def single_and_circuit():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    b = c.add_node(GateKind.INPUT, ())
    c.inputs += [(a, 1, "a"), (b, 2, "b")]
    g = c.add_node(GateKind.AND, (a, b))
    r = c.add_node(GateKind.REVEAL, (g,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def test_single_and_listing():
    text = emit_gatelist(single_and_circuit())
    assert text == "1 3\n2 1\n2 1 0 1 2 AND\n"


def test_emission_is_deterministic():
    c = bitblast(build("adder", bitwidth=4), 4)
    assert emit_gatelist(c) == emit_gatelist(c)


def test_adder_has_fourteen_gate_lines():
    c = bitblast(build("adder", bitwidth=4), 4, passes=[])
    text = emit_gatelist(c)
    gate_lines = [ln for ln in text.splitlines()
                  if ln and not ln.startswith("const")
                  and ln.split()[-1] in ("AND", "OR", "XOR", "INV", "MUX")]
    assert len(gate_lines) == 14
    header = text.splitlines()[0].split()
    assert int(header[0]) == 14
    io = text.splitlines()[1].split()
    assert io == ["8", "4"]


def test_normalized_adder_has_fourteen_gate_lines():
    # cell 0 has no carry-in (one Xor, one And), cells 1 and 2 are one-AND
    # cells (four Xor, one And) and cell 3 builds no carry-out (two Xor):
    # 2 + 5 + 5 + 2 gates
    gl = parse_gatelist(emit_gatelist(bitblast(build("adder", bitwidth=4))))
    assert (gl.n_gates, gl.n_inputs, gl.n_outputs) == (14, 8, 4)
    assert sum(k == "XOR" for k, _i, _o in gl.gates) == 11


def test_arith_circuit_rejected():
    with pytest.raises(LevelError):
        emit_gatelist(build("adder", bitwidth=4))


def test_parse_round_trip_counts():
    c = bitblast(build("adder", bitwidth=4), 4, passes=[])
    gl = parse_gatelist(emit_gatelist(c))
    assert gl.n_gates == 14
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
        nid = c.add_node(GateKind.INPUT, ())
        c.inputs.append((nid, 1, f"i{i}"))
        wires.append(nid)
    from mpcc.circuit import ARITY
    for _ in range(n_gates):
        kind = rng.choice([GateKind.AND, GateKind.OR, GateKind.XOR,
                           GateKind.NOT, GateKind.MUX_BIT])
        ops = tuple(rng.choice(wires) for _ in range(ARITY[kind]))
        wires.append(c.add_node(kind, ops))
    for k, w in enumerate(rng.sample(wires, min(3, len(wires)))):
        r = c.add_node(GateKind.REVEAL, (w,), PlainMeta(owners(1)))
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
    a = c.add_node(GateKind.INPUT, ())
    c.inputs.append((a, 1, "a"))
    r = c.add_node(GateKind.REVEAL, (a,), PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    gl = parse_gatelist(emit_gatelist(c))
    for bit in (0, 1):
        assert eval_gatelist(gl, [bit]) == [bit]


def test_duplicate_output_sources_get_copies():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    b = c.add_node(GateKind.INPUT, ())
    c.inputs += [(a, 1, "a"), (b, 1, "b")]
    g = c.add_node(GateKind.XOR, (a, b))
    for name in ("o0", "o1"):
        r = c.add_node(GateKind.REVEAL, (g,), PlainMeta(owners(1)))
        c.add_output(r, owners(1), name)
    gl = parse_gatelist(emit_gatelist(c))
    for x, y in itertools.product((0, 1), repeat=2):
        assert eval_gatelist(gl, [x, y]) == [x ^ y, x ^ y]


def test_a_reveal_that_gates_read_is_its_operands_bit():
    # o0 is revealed and read again by o1's gate; o2 reveals an input
    # that a later Not reads through its Reveal
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    b = c.add_node(GateKind.INPUT, ())
    c.inputs += [(a, 1, "a"), (b, 1, "b")]
    audience = owners(1)
    g = c.add_node(GateKind.AND, (a, b))
    r0 = c.add_node(GateKind.REVEAL, (g,), PlainMeta(audience))
    r1 = c.add_node(GateKind.REVEAL, (c.add_node(GateKind.XOR, (r0, a)),),
                    PlainMeta(audience))
    r2 = c.add_node(GateKind.REVEAL, (a,), PlainMeta(audience))
    r3 = c.add_node(GateKind.REVEAL, (c.add_node(GateKind.NOT, (r2,)),),
                    PlainMeta(audience))
    for j, r in enumerate((r0, r1, r2, r3)):
        c.add_output(r, audience, f"o{j}")
    gl = parse_gatelist(emit_gatelist(c))
    for x, y in itertools.product((0, 1), repeat=2):
        direct = interpret_bool(c, {(1, "a"): x, (1, "b"): y})
        assert list(direct.values()) == eval_gatelist(gl, [x, y]) == \
            [x & y, (x & y) ^ x, x, 1 - x]


def test_boolsim_refuses_a_word_kind_in_a_bool_circuit():
    c = Circuit(Level.BOOL)
    a = c.add_node(GateKind.INPUT, ())
    c.inputs.append((a, 1, "a"))
    r = c.add_node(GateKind.REVEAL, (c.add_node(GateKind.ADD, (a, a)),),
                   PlainMeta(owners(1)))
    c.add_output(r, owners(1), "out")
    with pytest.raises(LevelError, match="^Add in bool circuit$"):
        interpret_bool(c, {(1, "a"): 1})


# input bounds that keep every corpus value inside the range contract
# |v| < 2^(w-2), so word and bit evaluation agree exactly
INPUT_BOUNDS = {("pow8", 16): 3, ("pow8", 64): 199,
                ("matvec", 16): 7, ("matvec", 64): 999}


def decode_words(c: Circuit, bits: list[int]) -> dict[str, int]:
    """Output bits regrouped by name, words read as signed."""
    words: dict[str, list[int]] = {}
    for (_nid, _aud, name), bit in zip(c.outputs, bits):
        words.setdefault(name, []).append(bit)
    out = {}
    for name, ws in words.items():
        v = sum(bit << k for k, bit in enumerate(ws))
        out[name] = v - (1 << len(ws)) if len(ws) >= 2 and ws[-1] else v
    return out


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_bool_gatelist_and_clear_agree(name, width):
    word = build(name, bitwidth=width, optimize=True)
    b = bitblast(word, width)
    gl = parse_gatelist(emit_gatelist(b))
    bound = INPUT_BOUNDS.get((name, width), {16: 7, 64: 999}[width])
    rng = random.Random(f"{name}@{width}")
    for _ in range(3):
        ins = {(party, key): rng.randint(-bound, bound)
               for _nid, party, key in word.inputs}
        want = interpret_clear(word, ins)
        assert interpret_bool(b, ins) == want, ins
        assert decode_words(b, eval_gatelist(gl, input_bits_for(b, ins))) \
            == want, ins


BASE = "1 3\n2 1\n"  # two inputs, one output, wire 2 the output


@pytest.mark.parametrize("text", [
    # a gate reads a wire that is not defined yet, or none at all
    "2 4\n1 1\n2 1 0 2 3 AND\n2 1 0 0 2 XOR\n",
    BASE + "2 1 0 7 2 AND\n",
    BASE + "2 1 0 -1 2 AND\n",
    # a gate's output wire is out of range or already defined
    BASE + "2 1 0 1 3 AND\n",
    BASE + "2 1 0 1 1 AND\n",
    "2 3\n2 1\n2 1 0 1 2 AND\n2 1 0 1 2 XOR\n",
    # a const wire is out of range, already defined, or not a bit
    "1 4\n2 1\nconst 9 1\n2 1 0 1 3 AND\n",
    "1 4\n2 1\nconst 0 1\n2 1 0 1 3 AND\n",
    "1 4\n2 1\nconst 2 5\n2 1 0 2 3 AND\n",
    # input and output counts that do not fit the wires
    "1 3\n3 1\n2 1 0 1 2 AND\n",
    "1 3\n2 2\n2 1 0 1 2 AND\n",
    "1 3\n-1 1\n2 1 0 1 2 AND\n",
    # an output wire that no gate defines
    "0 3\n2 1\n",
    # malformed lines
    BASE + "1 1 0 2 AND\n",
    BASE + "2 1 0 x 2 AND\n",
    BASE + "2 1 0 1 2 NAND\n",
    # near misses of the two-input line: each takes the general checks
    BASE + "2 0 0 1 2 AND\n",
    BASE + "2 1 0 1 2 3 AND\n",
    BASE + "3 1 0 1 2 XOR\n",
    BASE + "2 1 0 1 -1 AND\n",
    "1 4\n2 1\n2 1 0 1 3 AND\nconst 3 0\n",
], ids=["forward-read", "read-past-end", "read-negative", "out-past-end",
        "out-is-input", "out-twice", "const-past-end", "const-on-input",
        "const-not-bit", "too-many-inputs", "too-many-outputs",
        "negative-count", "output-undefined", "wrong-arity", "not-integer",
        "unknown-kind", "second-field-not-1", "extra-field",
        "arity-not-kind", "out-negative", "const-on-gate-output"])
def test_parse_rejects_bad_wiring(text):
    with pytest.raises(ParseError) as exc:
        parse_gatelist(text)
    assert "\n" not in str(exc.value)


def test_parse_accepts_the_base_gate_list():
    gl = parse_gatelist(BASE + "2 1 0 1 2 AND\n")
    assert eval_gatelist(gl, [1, 1]) == [1]


SPACED = "3 6\n2 1\nconst 2 1\n2 1 0 1 3 AND\n1 1 3 4 INV\n2 1 2 4 5 XOR\n"


@pytest.mark.parametrize("text", [
    SPACED.replace(" ", "\t"),
    SPACED.replace(" ", "   "),
    "\n".join(f"  {ln}\t " for ln in SPACED.splitlines()) + "\n\n",
    SPACED.replace("2 1 0 1 3 AND", "02 1 0 1 3 AND"),
], ids=["tabs", "space-runs", "blank-ends", "arity-02"])
def test_parse_reads_any_blanks_and_arity_spelling(text):
    assert parse_gatelist(text) == parse_gatelist(SPACED) == GateList(
        3, 6, 2, 1, {2: 1},
        [("AND", (0, 1), 3), ("INV", (3,), 4), ("XOR", (2, 4), 5)])


def modulo_source(m: int) -> str:
    return f"parties 1;\ninput a : int from 1;\noutput eval({{1}}, a % {m});\n"


def dividends(m: int, limit_log: int) -> list[int]:
    """Nonnegative dividends inside |v| < 2^limit_log: both ends, the
    divisor's neighbourhood and a few drawn at random."""
    top = (1 << limit_log) - 1
    rng = random.Random(f"{m}@{limit_log}")
    return sorted({0, 1, m - 1, m, m + 1, 2 * m + 1, top - 1, top}
                  | {rng.randrange(top) for _ in range(4)})


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("m", [1, 2, 5, 7])
def test_modulo_matches_the_reference_in_clear_and_bool(m, width):
    src = modulo_source(m)
    program = parse_source(src)
    word = compile(src, PipelineConfig(bitwidth=width))
    b = compile(src, PipelineConfig(bitwidth=width, target_level=Level.BOOL))
    gl = parse_gatelist(emit_gatelist(b))
    for a in dividends(m, width - 2):
        ins = {(1, "a"): a}
        want = reference_run(program, ins)
        assert want == {"out0": a % m}
        assert interpret_clear(word, ins) == want, a
        assert interpret_bool(b, ins) == want, a
        assert decode_words(b, eval_gatelist(gl, input_bits_for(b, ins))) \
            == want, a


@pytest.mark.parametrize("width", [
    16, pytest.param(64, marks=pytest.mark.xfail(
        strict=True, reason="the steps of a % m compare with m << j up to "
        "2^62, which the 61-bit field reduces"))])
@pytest.mark.parametrize("m", [1, 2, 5, 7])
def test_modulo_matches_the_reference_on_shares(m, width):
    src = modulo_source(m)
    program = parse_source(src)
    c = compile(src, PipelineConfig(scheme=AdditiveShare(3), bitwidth=width))
    for a in dividends(m, min(width - 2, 60)):
        ins = {(1, "a"): a}
        assert simulate_shared(c, ins, 3, seed=a)[0] == \
            reference_run(program, ins), a


@pytest.mark.parametrize("width", [16, 64])
def test_modulo_lowers_to_lt_and_no_other_comparison(width):
    c = compile(modulo_source(5), PipelineConfig(bitwidth=width, passes=[]))
    assert {k.value: n for k, n in c.counts().items()
            if k in COMPARISON_KINDS} == {"Lt": width - 4}


@pytest.mark.parametrize("width", [16, 64])
def test_modulo_by_a_divisor_at_the_contract_bound(width):
    # every dividend is below 2^(w-2), so m = 2^(w-2) - 1 takes one step
    # and m = 2^(w-2) none
    top = (1 << (width - 2)) - 1
    for m, steps in ((top, 1), (top + 1, 0)):
        src = modulo_source(m)
        word = compile(src, PipelineConfig(bitwidth=width, passes=[]))
        b = compile(src, PipelineConfig(bitwidth=width,
                                        target_level=Level.BOOL))
        assert word.counts().get(GateKind.LT, 0) == steps
        for a in (0, 1, top - 1, top):
            want = {"out0": a % m}
            assert interpret_clear(word, {(1, "a"): a}) == want, (m, a)
            assert interpret_bool(b, {(1, "a"): a}) == want, (m, a)
