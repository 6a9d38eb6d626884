"""Evaluator for bool-level circuits over word-valued inputs.

Input bits produced by the bit-blaster share the declaring variable's
name; consecutive entries with one (party, name) pair form a word, LSB
first. Outputs reassemble the same way, a word of 2 or more bits as two's
complement and a single bit as a boolean. Gates run through the gate-list
kernel `gatelist.run_gates`, with one wire per node; a Reveal runs as
the kernel's copy case, so its wire holds its operand's bit.
"""

from itertools import compress

from ..circuit import CONST, INPUT, REVEAL, Circuit, Level
from ..errors import LevelError
from .clear import bind_inputs
from .gatelist import KIND_NAMES, run_gates

# the kernel's name for each bool kind it runs: a reveal copies its bit
RUN_NAMES = {**KIND_NAMES, REVEAL: "COPY"}


def interpret_bool(c: Circuit,
                   inputs: dict[tuple[int, str], int]) -> dict[str, int]:
    if c.level != Level.BOOL:
        raise LevelError("the boolean evaluator runs bool-level circuits")
    # wire = node id. The kernel gets the gates as zipped columns,
    # which builds no tuple per gate.
    nodes = c.nodes
    values = [0] * len(nodes)
    words = bind_inputs(c, inputs)
    bit_index: dict[tuple[int, str], int] = {}
    for nid, party, name in c.inputs:
        k = bit_index.get((party, name), 0)
        bit_index[(party, name)] = k + 1
        values[nid] = (words[nid] >> k) & 1
    names = [RUN_NAMES.get(node.kind) for node in nodes]
    # what the kernel does not run: inputs, constants, or no bool kind
    for nid in [nid for nid, name in enumerate(names) if name is None]:
        kind = nodes[nid].kind
        if kind is CONST:
            values[nid] = nodes[nid].payload
        elif kind is not INPUT:
            raise LevelError(f"{kind.value} in bool circuit")
    # each column keeps the entries of the nodes that have a name
    run_gates(zip(compress(names, names),
                  compress([node.operands for node in nodes], names),
                  compress(range(len(nodes)), names)), values)

    out_bits: dict[str, list[int]] = {}  # by name, in order of first output
    for nid, _aud, name in c.outputs:
        out_bits.setdefault(name, []).append(values[nid])
    out: dict[str, int] = {}
    for name, bits in out_bits.items():
        v = sum(bit << k for k, bit in enumerate(bits))
        if len(bits) >= 2 and bits[-1]:
            v -= 1 << len(bits)
        out[name] = v
    return out
