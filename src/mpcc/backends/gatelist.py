"""Neutral textual gate-list format for bool-level circuits.

Layout:

    <#gates> <#wires>
    <#inputs> <#outputs>
    const <wire> <bit>            zero or more fixed wires
    <arity> 1 <in...> <out> KIND  one line per gate

Wires are numbered inputs first, then constant wires, then internal
gates in evaluation order; the final <#outputs> wires are the outputs,
in output-declaration order. Reveal nodes are transparent: an output
wire is the gate that produced the revealed bit, copied through an
XOR-with-zero when the bit is itself an input, a constant, or already
claimed by an earlier output; a reveal that later gates read shares its
operand's wire. Emission is deterministic, byte for byte.

`run_gates` is the one loop that evaluates bit gates: `eval_gatelist`
runs a parsed list through it, and `boolsim` runs bool-level circuits
through it with one wire per node. There a Reveal runs as a copy of
its operand's bit, the loop's one case that no gate list holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuit import (
    AND, ARITY, CONST, MUX_BIT, NOT, OR, REVEAL, XOR, Circuit, Level,
)
from ..errors import LevelError, ParseError

KIND_NAMES = {AND: "AND", OR: "OR", XOR: "XOR", NOT: "INV", MUX_BIT: "MUX"}
NAME_ARITY = {name: ARITY[kind] for kind, name in KIND_NAMES.items()}
# each two-input kind name to one shared string, which parsed gates hold
TWO_INPUT = {name: name for name, arity in NAME_ARITY.items() if arity == 2}


def emit_gatelist(c: Circuit) -> str:
    if c.level != Level.BOOL:
        raise LevelError("gate lists are emitted from bool-level circuits")
    nodes = c.nodes
    input_ids = [nid for nid, _p, _n in c.inputs]
    const_ids, gate_ids, reveal_ids = [], [], []
    for nid, node in enumerate(nodes):
        if node.kind in KIND_NAMES:
            gate_ids.append(nid)
        elif node.kind is CONST:
            const_ids.append(nid)
        elif node.kind is REVEAL:
            reveal_ids.append(nid)
    source_of = [nodes[nid].operands[0]
                 if nodes[nid].kind is REVEAL else nid
                 for nid, _aud, _name in c.outputs]

    # decide which gates sit in the output block and which need copies
    out_wire_owner: dict[int, int] = {}  # gate node -> output index
    needs_copy: list[int] = []
    for out_index, src in enumerate(source_of):
        if nodes[src].kind in KIND_NAMES and src not in out_wire_owner:
            out_wire_owner[src] = out_index
        else:
            needs_copy.append(out_index)

    wire = {nid: w for w, nid in enumerate(input_ids)}
    next_wire = len(input_ids)
    bits = [nodes[nid].payload for nid in const_ids]
    const_lines = [f"const {next_wire + i} {b}" for i, b in enumerate(bits)]
    wire.update((nid, next_wire + i) for i, nid in enumerate(const_ids))
    zero_wire = next_wire + bits.index(0) if 0 in bits else None
    next_wire += len(bits)
    # copies pass a bit through XOR-with-zero; reserve a generated zero
    # wire in the internal block when no constant provides one
    lines = []
    if needs_copy and zero_wire is None:
        base = wire[input_ids[0]] if input_ids else wire[const_ids[0]]
        zero_wire = next_wire
        lines.append(f"2 1 {base} {base} {zero_wire} XOR")
        next_wire += 1
    for nid in gate_ids:
        if nid not in out_wire_owner:  # an internal gate
            wire[nid] = next_wire
            next_wire += 1
    out_base = next_wire
    for src, out_index in out_wire_owner.items():
        wire[src] = out_base + out_index
    for nid in reveal_ids:
        wire[nid] = wire[nodes[nid].operands[0]]

    for nid in gate_ids:
        node = nodes[nid]
        ops = node.operands
        if len(ops) == 2:
            lines.append(f"2 1 {wire[ops[0]]} {wire[ops[1]]} {wire[nid]} "
                         f"{KIND_NAMES[node.kind]}")
        else:
            ins = " ".join([str(wire[o]) for o in ops])
            lines.append(f"{len(ops)} 1 {ins} {wire[nid]} "
                         f"{KIND_NAMES[node.kind]}")
    for out_index in needs_copy:
        src = source_of[out_index]
        lines.append(f"2 1 {wire[src]} {zero_wire} "
                     f"{out_base + out_index} XOR")

    header = [f"{len(lines)} {out_base + len(source_of)}",
              f"{len(input_ids)} {len(source_of)}"]
    return "\n".join(header + const_lines + lines) + "\n"


@dataclass
class GateList:
    n_gates: int
    n_wires: int
    n_inputs: int
    n_outputs: int
    consts: dict[int, int] = field(default_factory=dict)
    gates: list[tuple[str, tuple[int, ...], int]] = field(default_factory=list)


def parse_gatelist(text: str) -> GateList:
    """Parse a gate list and check its wiring: a gate reads only inputs,
    earlier const lines and earlier gates' outputs, no wire is defined
    twice, and every output wire is defined."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("gate list needs two header lines")
    try:
        return _parse(lines)
    except ValueError:
        raise ParseError("gate list fields must be integers where the "
                         "layout puts numbers") from None


def _parse(lines: list[str]) -> GateList:
    n_gates, n_wires = map(int, lines[0].split())
    n_inputs, n_outputs = map(int, lines[1].split())
    if min(n_inputs, n_outputs) < 0 or n_inputs + n_outputs > n_wires:
        raise ParseError(f"{n_inputs} inputs and {n_outputs} outputs do not "
                         f"fit {n_wires} wires")
    gl = GateList(n_gates, n_wires, n_inputs, n_outputs)
    defined = bytearray(n_wires)
    defined[:n_inputs] = b"\x01" * n_inputs
    gates = gl.gates
    for ln in lines[2:]:
        parts = ln.split()
        # the two-input line as emitted, nearly every gate line: a line
        # that is not this shape, or fails a check, takes the general code
        if (len(parts) == 6 and parts[5] in TWO_INPUT and parts[0] == "2"
                and parts[1] == "1"):
            a, b, out = int(parts[2]), int(parts[3]), int(parts[4])
            if (0 <= a < n_wires and defined[a] and 0 <= b < n_wires
                    and defined[b] and 0 <= out < n_wires
                    and not defined[out]):
                defined[out] = 1
                gates.append((TWO_INPUT[parts[5]], (a, b), out))
                continue
        if parts[0] == "const":
            if len(parts) != 3:
                raise ParseError(f"malformed const line: {ln}")
            wire, bit = int(parts[1]), int(parts[2])
            if not 0 <= wire < n_wires or defined[wire]:
                raise ParseError(f"const wire {wire} is out of range or "
                                 f"already defined")
            if bit not in (0, 1):
                raise ParseError(f"const wire {wire} holds {bit}, not a bit")
            gl.consts[wire] = bit
            defined[wire] = 1
            continue
        arity, kind = int(parts[0]), parts[-1]
        if NAME_ARITY.get(kind) != arity:
            raise ParseError(f"no gate kind {kind} of arity {arity}: {ln}")
        if len(parts) != 3 + arity + 1 or parts[1] != "1":
            raise ParseError(f"malformed gate line: {ln}")
        ins = tuple(map(int, parts[2:2 + arity]))
        out = int(parts[2 + arity])
        for w in ins:
            if not (0 <= w < n_wires and defined[w]):
                raise ParseError(f"gate reads wire {w}, which is not an "
                                 f"input, an earlier const or an earlier "
                                 f"gate's output: {ln}")
        if not 0 <= out < n_wires or defined[out]:
            raise ParseError(f"gate output wire {out} is out of range or "
                             f"already defined: {ln}")
        defined[out] = 1
        gates.append((kind, ins, out))
    if len(gates) != n_gates:
        raise ParseError(f"expected {n_gates} gates, found {len(gates)}")
    if not all(defined[n_wires - n_outputs:]):
        raise ParseError("an output wire is never defined")
    return gl


def run_gates(gates, values: list[int]) -> None:
    """Evaluate an iterable of (kind-name, ins, out) triples in order,
    reading and writing `values` by wire. The only loop that evaluates
    bit gates; its cases test the kinds most frequent in the corpus's
    gate lists first. A kind-name is a gate-list name or COPY, which
    passes one wire's bit on: `boolsim` runs a Reveal so, and a gate
    list has no such gate."""
    for kind, ins, out in gates:
        match kind:
            case "XOR":
                v = values[ins[0]] ^ values[ins[1]]
            case "AND":
                v = values[ins[0]] & values[ins[1]]
            case "MUX":
                v = values[ins[1]] if values[ins[0]] else values[ins[2]]
            case "OR":
                v = values[ins[0]] | values[ins[1]]
            case "INV":
                v = 1 - values[ins[0]]
            case "COPY":
                v = values[ins[0]]
        values[out] = v


def eval_gatelist(gl: GateList, input_bits: list[int]) -> list[int]:
    """Evaluate on bits given in input-wire order; returns output bits."""
    if len(input_bits) != gl.n_inputs:
        raise ParseError(f"expected {gl.n_inputs} input bits, got "
                         f"{len(input_bits)}")
    values = [b & 1 for b in input_bits] + [0] * (gl.n_wires - gl.n_inputs)
    for wire, bit in gl.consts.items():
        values[wire] = bit
    run_gates(gl.gates, values)
    return values[gl.n_wires - gl.n_outputs:]
