"""The range contract read backwards, checked at its edge.

Every word of a w-bit run satisfies |v| < 2^(w-2): the clear backend
refuses a run with an arithmetic value outside that range, and bitblast
builds each square at the bits the contract leaves its operand. So on
every run that clear accepts, the bool backend gives the reference
interpreter's outputs, and one step past each edge clear refuses."""

import json
import random

import pytest

from astref import reference_run
from conftest import CORPUS
from mpcc.backends import BACKENDS
from mpcc.backends.clear import interpret_clear
from mpcc.circuit import GateKind, Level
from mpcc.cli import main
from mpcc.errors import OverflowContractError
from mpcc.frontend import parse_source
from mpcc.frontend.printer import pretty_print
from mpcc.pipeline import PipelineConfig, compile
from proggen import random_inputs, random_program

WIDTHS = (8, 16, 64)
HEAD = "parties 1;\ninput x : int from 1;\n"

# Each program's output and the largest |x| that keeps all its values in
# the contract at 8, 16 and 64 bits: x^k < 2^(w-2), and for x*x + x, whose
# square another gate reads at full width, x*x < 2^(w-2).
EDGES = {
    "pow2": ("pow(x, 2)", (7, 127, 2147483647)),
    "pow3": ("pow(x, 3)", (3, 25, 1664510)),
    "pow4": ("pow(x, 4)", (2, 11, 46340)),
    "pow5": ("pow(x, 5)", (2, 6, 5404)),
    "pow6": ("pow(x, 6)", (1, 5, 1290)),
    "pow7": ("pow(x, 7)", (1, 3, 463)),
    "pow8": ("pow(x, 8)", (1, 3, 215)),
    "square_read_twice": ("x * x + x", (7, 127, 2147483647)),
}


def edge_inputs(edge: int, width: int, rng) -> list[int]:
    """Every in-contract x at 8 and 16 bits; at 64 bits the edges, the
    values around 0 and a dozen drawn between the edges."""
    if width < 64:
        return list(range(-edge, edge + 1))
    return sorted({-edge, 1 - edge, -1, 0, 1, edge - 1, edge}
                  | {rng.randint(-edge, edge) for _ in range(12)})


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(EDGES))
def test_bool_gives_the_reference_up_to_the_contract_edge(name, width):
    expr, edges = EDGES[name]
    src = f"{HEAD}output eval({{1}}, {expr});\n"
    program = parse_source(src)
    edge = edges[WIDTHS.index(width)]
    word = compile(src, PipelineConfig(bitwidth=width))
    # the raw circuit's chain has one square, x*x; at 64 bits its
    # full-width multipliers make it slow to run, and 16 bits covers it
    bools = [compile(src, PipelineConfig(bitwidth=width, passes=passes,
                                         target_level=Level.BOOL))
             for passes in ((None, []) if width < 64 else (None,))]
    for x in edge_inputs(edge, width, random.Random(name)):
        ins = {(1, "x"): x}
        want = reference_run(program, ins)
        assert interpret_clear(word, ins) == want, x
        for b in bools:
            assert BACKENDS["bool"].run(b, ins, 1, 0)[0] == want, x
    for x in (edge + 1, -edge - 1):
        with pytest.raises(OverflowContractError):
            interpret_clear(word, {(1, "x"): x})


# The generated runs (seed, input set) whose values leave the contract
# at 16 bits; at 64 bits none does. In each, the program's own value
# leaves it too.
REFUSED_AT_16 = {(8, 1), (39, 1), (70, 1), (80, 0), (80, 1), (94, 1),
                 (133, 0), (195, 0), (195, 1), (248, 1), (300, 0)}


@pytest.mark.parametrize("block", range(4))
@pytest.mark.parametrize("width", [16, 64])
def test_bool_gives_the_reference_on_generated_programs(width, block):
    for seed in range(100 * block, 100 * block + 100):
        program = random_program(seed)
        src = pretty_print(program)
        word = compile(src, PipelineConfig(bitwidth=width))
        b = compile(src, PipelineConfig(bitwidth=width,
                                        target_level=Level.BOOL))
        for j in range(2):
            ins = random_inputs(seed * 101 + j)
            if width == 16 and (seed, j) in REFUSED_AT_16:
                with pytest.raises(OverflowContractError):
                    interpret_clear(word, ins)
                continue
            want = reference_run(program, ins)
            assert interpret_clear(word, ins) == want, (seed, j)
            assert BACKENDS["bool"].run(b, ins, 3, 0)[0] == want, (seed, j)


NONXOR = (GateKind.AND, GateKind.OR, GateKind.MUX_BIT)


@pytest.mark.parametrize("width, nodes, nonxor", [
    (16, 88, 31), (64, 3383, 1145)])
def test_pow8_squares_are_built_at_the_width_the_contract_leaves(
        width, nodes, nonxor):
    # x^8 < 2^62 puts x^4 below 2^31, x^2 below 2^16 and x within 9
    # signed bits: 1,145 non-XOR gates at 64 bits, where the three
    # full-width squares took 5,314
    src = (CORPUS / "pow8.hml").read_text(encoding="utf-8")
    b = compile(src, PipelineConfig(bitwidth=width, target_level=Level.BOOL))
    counts = b.counts()
    assert (len(b.nodes), sum(counts.get(k, 0) for k in NONXOR)) == \
        (nodes, nonxor)


def test_mpcc_run_refuses_a_value_past_the_edge(tmp_path, capsys):
    # pow8 at 64 bits: x = ±215 prints the same on clear and bool, and
    # x = 216, whose x^8 is above 2^62, is one line and exit 1 on clear
    outputs = {}
    for x in (215, -215, 216):
        path = tmp_path / f"x{x}.json"
        path.write_text(json.dumps({"parties": {"1": {"x": x}}}),
                        encoding="utf-8")
        for backend in ("clear", "bool"):
            code = main(["run", str(CORPUS / "pow8.hml"), "--backend",
                         backend, "--inputs", str(path)])
            captured = capsys.readouterr()
            outputs[x, backend] = (code, captured.out, captured.err)
    for x in (215, -215):
        assert outputs[x, "clear"] == outputs[x, "bool"] == (
            0, json.dumps({"out0": 215 ** 8}) + "\n", "")
    code, out, err = outputs[216, "clear"]
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert f"Mul value {216 ** 8} exceeds |v| < 2^62" in err
