"""Evaluator for bool-level circuits over word-valued inputs.

Input bits produced by the bit-blaster share the declaring variable's
name; consecutive entries with one (party, name) pair form a word, LSB
first. Outputs reassemble the same way, with a signed (centered) lift
when the circuit is marked signed. Gates run through the gate-list
kernel `gatelist.run_gates`, with one wire per node.
"""

from ..circuit import CONST, INPUT, REVEAL, Circuit, Level
from ..errors import LevelError
from .clear import bind_inputs
from .gatelist import KIND_NAMES, run_gates


def interpret_bool(c: Circuit,
                   inputs: dict[tuple[int, str], int]) -> dict[str, int]:
    if c.level != Level.BOOL:
        raise LevelError("the boolean evaluator runs bool-level circuits")
    # wire = node id, plus one zero wire: a reveal is a copy, run as
    # the gate list's XOR with zero. The kernel gets the gates as
    # zipped columns, which builds no tuple per gate.
    zero = len(c.nodes)
    values = [0] * (zero + 1)
    words = bind_inputs(c, inputs)
    bit_index: dict[tuple[int, str], int] = {}
    for nid, party, name in c.inputs:
        k = bit_index.get((party, name), 0)
        bit_index[(party, name)] = k + 1
        values[nid] = (words[nid] >> k) & 1
    kinds, ins, outs = [], [], []
    for nid, node in enumerate(c.nodes):
        kind = node.kind
        name = KIND_NAMES.get(kind)
        if name is not None:
            ops = node.operands
        elif kind is REVEAL:
            name, ops = "XOR", (node.operands[0], zero)
        elif kind is INPUT:
            continue
        elif kind is CONST:
            values[nid] = node.payload
            continue
        else:
            raise LevelError(f"{kind.value} in bool circuit")
        kinds.append(name)
        ins.append(ops)
        outs.append(nid)
    run_gates(zip(kinds, ins, outs), values)

    out_bits: dict[str, list[int]] = {}  # by name, in order of first output
    for nid, _aud, name in c.outputs:
        out_bits.setdefault(name, []).append(values[nid])
    out: dict[str, int] = {}
    for name, bits in out_bits.items():
        v = sum(bit << k for k, bit in enumerate(bits))
        # single bits are booleans; words of 2+ bits lift signed
        if c.signed and len(bits) >= 2 and bits[-1]:
            v -= 1 << len(bits)
        out[name] = v
    return out
