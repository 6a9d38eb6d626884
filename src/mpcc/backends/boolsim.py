"""Evaluator for bool-level circuits over word-valued inputs.

Input bits produced by the bit-blaster share the declaring variable's
name; consecutive entries with one (party, name) pair form a word, LSB
first. Outputs reassemble the same way, with a signed (centered) lift
when the circuit is marked signed. Gates run through the gate-list
kernel `gatelist.run_gates`, with one wire per node.
"""

from ..circuit import CONST, INPUT, REVEAL, Circuit, Level
from ..errors import LevelError, MissingInputError
from .gatelist import KIND_NAMES, run_gates


def interpret_bool(circuit: Circuit,
                   inputs: dict[tuple[int, str], int]) -> dict[str, int]:
    return BoolInterpreter(circuit).run(inputs)


class BoolInterpreter:
    def __init__(self, circuit: Circuit):
        if circuit.level != Level.BOOL:
            raise LevelError("boolean evaluator expects a bool-level circuit")
        self.circuit = circuit
        self.gate_evaluations = 0

    def run(self, inputs: dict[tuple[int, str], int]) -> dict[str, int]:
        c = self.circuit
        bit_index: dict[tuple[int, str], int] = {}
        input_bits: dict[int, int] = {}
        for nid, party, name in c.inputs:
            if (party, name) not in inputs:
                raise MissingInputError(f"missing input {name} from party "
                                        f"{party}")
            k = bit_index.get((party, name), 0)
            bit_index[(party, name)] = k + 1
            input_bits[nid] = (int(inputs[(party, name)]) >> k) & 1

        # wire = node id, plus one zero wire: a reveal is a copy, run as
        # the gate list's XOR with zero. The kernel gets the gates as
        # zipped columns, which builds no tuple per gate.
        zero = len(c.nodes)
        values = [0] * (zero + 1)
        kinds, ins, outs = [], [], []
        for nid, node in enumerate(c.nodes):
            kind = node.kind
            name = KIND_NAMES.get(kind)
            if name is not None:
                ops = node.operands
            elif kind is REVEAL:
                name, ops = "XOR", (node.operands[0], zero)
            elif kind is INPUT:
                values[nid] = input_bits[nid]
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
        self.gate_evaluations = len(c.nodes)

        words: dict[str, list[int]] = {}
        order: list[str] = []
        for nid, _aud, name in c.outputs:
            if name not in words:
                words[name] = []
                order.append(name)
            words[name].append(values[nid])
        out: dict[str, int] = {}
        for name in order:
            bits = words[name]
            v = 0
            for k, bit in enumerate(bits):
                v |= bit << k
            # single bits are booleans; words of 2+ bits lift signed
            if c.signed and len(bits) >= 2 and bits[-1]:
                v -= 1 << len(bits)
            out[name] = v
        return out
