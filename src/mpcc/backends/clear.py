"""Cleartext reference interpreter over exact Python integers.

This is the semantic baseline every other backend is compared against.
Each gate's value comes from `circuit.word_value`, the one table of
word-gate semantics; only Input, the Mux selector check, Reveal and the
range contract are handled here. The contract, |v| < 2^(w-2), holds for
every input and every arithmetic value: a run that leaves it is refused,
not wrapped, since bitblast reads the contract as a fact about every
word. Evaluation visits every node exactly once in id order, so the
number of gate evaluations of a run it accepts is |nodes| regardless of
input values.
"""

from ..circuit import (
    ADD, INPUT, MUL, MUL_PLAIN, MUX, REVEAL, SUB, Circuit, Level,
    contract_log, word_value,
)
from ..errors import (
    LevelError, MissingInputError, MuxSelectorError, OverflowContractError,
)


ARITHMETIC = frozenset({ADD, SUB, MUL, MUL_PLAIN})  # the gates it range-checks


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


def bind_inputs(c: Circuit, inputs: dict[tuple[int, str], int],
                limit_log: int | None = None) -> dict[int, int]:
    """Each input node's value, by node id. Raises MissingInputError for
    an input that `inputs` lacks and, given a limit, OverflowContractError
    for a value outside |v| < 2^limit_log."""
    bound = {}
    for nid, party, name in c.inputs:
        if (party, name) not in inputs:
            raise MissingInputError(f"missing input {name} from party "
                                    f"{party}")
        v = int(inputs[(party, name)])
        if limit_log is not None and abs(v) >= 1 << limit_log:
            raise OverflowContractError(
                f"input {name}={v} exceeds |v| < 2^{limit_log}")
        bound[nid] = v
    return bound


class ClearInterpreter:
    def __init__(self, circuit: Circuit):
        if circuit.level == Level.BOOL:
            raise LevelError("the cleartext interpreter runs word-level "
                             "circuits")
        self.circuit = circuit
        self.gate_evaluations = 0

    def run(self, inputs: dict[tuple[int, str], int]) -> dict[str, int]:
        """The outputs on `inputs`. Raises OverflowContractError for an
        input or an arithmetic value outside the range contract."""
        c = self.circuit
        log = contract_log(c.bitwidth)
        input_values = bind_inputs(c, inputs, log)
        high = 1 << log
        low = -high
        values: list[int] = [0] * len(c.nodes)
        for nid, node in enumerate(c.nodes):
            kind = node.kind
            a = node.operands
            if kind is INPUT:
                v = input_values[nid]
            elif kind is MUX:
                sel = values[a[0]]
                if sel not in (0, 1):
                    raise MuxSelectorError(f"mux selector {sel} is not a bit")
                v = values[a[1]] if sel else values[a[2]]
            elif kind is REVEAL:
                v = values[a[0]]
            else:
                v = word_value(kind, [values[o] for o in a], node.payload)
                if v is None:
                    raise LevelError(f"{kind.value} in word-level circuit")
                if not low < v < high and kind in ARITHMETIC:
                    raise OverflowContractError(
                        f"{kind.value} value {v} exceeds |v| < 2^{log}")
            values[nid] = v
        self.gate_evaluations = len(c.nodes)
        return {name: values[nid] for nid, _aud, name in c.outputs}


def interpret_clear(circuit: Circuit,
                    inputs: dict[tuple[int, str], int]) -> dict[str, int]:
    return ClearInterpreter(circuit).run(inputs)
