"""Cleartext reference interpreter over exact Python integers.

This is the semantic baseline every other backend is compared against.
Evaluation always visits every node exactly once in id order, so the
number of gate evaluations is |nodes| regardless of input values.
"""

from ..circuit import Circuit, GateKind, Level
from ..errors import (
    LevelError, MissingInputError, MuxSelectorError, OverflowContractError,
)


def flatten_inputs(parties: dict) -> dict[tuple[int, str], int]:
    """Expand {"party": {"name": value-or-list}} into (party, name) keys.

    Array inputs given as lists become name[0], name[1], ...
    """
    flat: dict[tuple[int, str], int] = {}
    for party, values in parties.items():
        party = int(party)
        for name, value in values.items():
            if isinstance(value, list):
                for k, v in enumerate(value):
                    flat[(party, f"{name}[{k}]")] = int(v)
            else:
                flat[(party, name)] = int(value)
    return flat


class ClearInterpreter:
    def __init__(self, circuit: Circuit):
        if circuit.level == Level.BOOL:
            raise LevelError("the cleartext interpreter runs word-level "
                             "circuits; use the boolean evaluator instead")
        self.circuit = circuit
        self.gate_evaluations = 0

    def run(self, inputs: dict[tuple[int, str], int]) -> dict[str, int]:
        c = self.circuit
        limit = 1 << (c.bitwidth - 2)
        values: list[int] = [0] * len(c.nodes)
        input_values = {}
        for nid, party, name in c.inputs:
            if (party, name) not in inputs:
                raise MissingInputError(f"missing input {name} from party "
                                        f"{party}")
            v = int(inputs[(party, name)])
            if abs(v) >= limit:
                raise OverflowContractError(
                    f"input {name}={v} exceeds |v| < 2^{c.bitwidth - 2}")
            input_values[nid] = v
        self.gate_evaluations = 0
        for nid, node in enumerate(c.nodes):
            a = node.operands
            match node.kind:
                case GateKind.CONST:
                    v = node.payload
                case GateKind.INPUT:
                    v = input_values[nid]
                case GateKind.ADD:
                    v = values[a[0]] + values[a[1]]
                case GateKind.SUB:
                    v = values[a[0]] - values[a[1]]
                case GateKind.MUL:
                    v = values[a[0]] * values[a[1]]
                case GateKind.MUL_PLAIN:
                    v = values[a[0]] * node.payload
                case GateKind.LT:
                    v = int(values[a[0]] < values[a[1]])
                case GateKind.LEQ:
                    v = int(values[a[0]] <= values[a[1]])
                case GateKind.EQ:
                    v = int(values[a[0]] == values[a[1]])
                case GateKind.MUX:
                    sel = values[a[0]]
                    if sel not in (0, 1):
                        raise MuxSelectorError(
                            f"mux selector {sel} is not a bit")
                    v = values[a[1]] if sel else values[a[2]]
                case GateKind.REVEAL:
                    v = values[a[0]]
                case _:
                    raise LevelError(f"{node.kind.value} in word-level "
                                     f"circuit")
            values[nid] = v
            self.gate_evaluations += 1
        return {name: values[nid] for nid, _aud, name in c.outputs}


def interpret_clear(circuit: Circuit,
                    inputs: dict[tuple[int, str], int]) -> dict[str, int]:
    return ClearInterpreter(circuit).run(inputs)
