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
claimed by an earlier output. Emission is deterministic, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuit import Circuit, GateKind, Level
from ..errors import LevelError, ParseError

KIND_NAMES = {GateKind.AND: "AND", GateKind.OR: "OR", GateKind.XOR: "XOR",
              GateKind.NOT: "INV", GateKind.MUX_BIT: "MUX"}
NAME_KINDS = {v: k for k, v in KIND_NAMES.items()}


def emit_gatelist(c: Circuit) -> str:
    if c.level != Level.BOOL:
        raise LevelError("gate lists are emitted from bool-level circuits")
    input_ids = [nid for nid, _p, _n in c.inputs]
    const_ids = [nid for nid, node in enumerate(c.nodes)
                 if node.kind == GateKind.CONST_BIT]
    gate_ids = [nid for nid, node in enumerate(c.nodes)
                if node.kind in KIND_NAMES]
    source_of = {}
    for out_index, (nid, _aud, _name) in enumerate(c.outputs):
        node = c.nodes[nid]
        src = node.operands[0] if node.kind == GateKind.REVEAL_BIT else nid
        source_of[out_index] = src

    # decide which gates sit in the output block and which need copies
    out_wire_owner: dict[int, int] = {}  # gate node -> output index
    needs_copy: list[int] = []
    for out_index in range(len(c.outputs)):
        src = source_of[out_index]
        direct = (c.nodes[src].kind in KIND_NAMES
                  and src not in out_wire_owner)
        if direct:
            out_wire_owner[src] = out_index
        else:
            needs_copy.append(out_index)

    wire: dict[int, int] = {}
    next_wire = 0
    for nid in input_ids:
        wire[nid] = next_wire
        next_wire += 1
    const_lines = []
    zero_wire = None
    for nid in const_ids:
        wire[nid] = next_wire
        if c.nodes[nid].payload & 1 == 0 and zero_wire is None:
            zero_wire = next_wire
        const_lines.append(f"const {next_wire} {c.nodes[nid].payload & 1}")
        next_wire += 1
    # copies pass a bit through XOR-with-zero; reserve a generated zero
    # wire in the internal block when no constant provides one
    zero_gen_line = None
    if needs_copy and zero_wire is None:
        base = wire[input_ids[0]] if input_ids else wire[const_ids[0]]
        zero_wire = next_wire
        zero_gen_line = f"2 1 {base} {base} {zero_wire} XOR"
        next_wire += 1
    internal = [nid for nid in gate_ids if nid not in out_wire_owner]
    for nid in internal:
        wire[nid] = next_wire
        next_wire += 1
    n_outputs = len(c.outputs)
    out_base = next_wire
    for out_index in range(n_outputs):
        src = source_of[out_index]
        if src in out_wire_owner and out_wire_owner[src] == out_index:
            wire[src] = out_base + out_index
    n_wires = out_base + n_outputs

    lines = []
    if zero_gen_line is not None:
        lines.append(zero_gen_line)
    for nid in gate_ids:
        node = c.nodes[nid]
        ins = " ".join(str(wire[o]) for o in node.operands)
        lines.append(f"{len(node.operands)} 1 {ins} {wire[nid]} "
                     f"{KIND_NAMES[node.kind]}")
    for out_index in needs_copy:
        src = source_of[out_index]
        lines.append(f"2 1 {wire[src]} {zero_wire} "
                     f"{out_base + out_index} XOR")

    header = [f"{len(lines)} {n_wires}",
              f"{len(input_ids)} {n_outputs}"]
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("gate list needs two header lines")
    n_gates, n_wires = map(int, lines[0].split())
    n_inputs, n_outputs = map(int, lines[1].split())
    gl = GateList(n_gates, n_wires, n_inputs, n_outputs)
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "const":
            gl.consts[int(parts[1])] = int(parts[2])
            continue
        arity = int(parts[0])
        if parts[1] != "1" or len(parts) != 3 + arity + 1:
            raise ParseError(f"malformed gate line: {ln}")
        ins = tuple(map(int, parts[2:2 + arity]))
        out = int(parts[2 + arity])
        kind = parts[3 + arity]
        if kind not in NAME_KINDS:
            raise ParseError(f"unknown gate kind {kind}")
        gl.gates.append((kind, ins, out))
    if len(gl.gates) != n_gates:
        raise ParseError(f"expected {n_gates} gates, found {len(gl.gates)}")
    return gl


def eval_gatelist(gl: GateList, input_bits: list[int]) -> list[int]:
    """Evaluate on bits given in input-wire order; returns output bits."""
    if len(input_bits) != gl.n_inputs:
        raise ParseError(f"expected {gl.n_inputs} input bits, got "
                         f"{len(input_bits)}")
    values: dict[int, int] = {i: b & 1 for i, b in enumerate(input_bits)}
    values.update(gl.consts)
    for kind, ins, out in gl.gates:
        match kind:
            case "AND":
                v = values[ins[0]] & values[ins[1]]
            case "OR":
                v = values[ins[0]] | values[ins[1]]
            case "XOR":
                v = values[ins[0]] ^ values[ins[1]]
            case "INV":
                v = 1 - values[ins[0]]
            case "MUX":
                v = values[ins[1]] if values[ins[0]] else values[ins[2]]
        values[out] = v
    first_out = gl.n_wires - gl.n_outputs
    return [values[first_out + k] for k in range(gl.n_outputs)]
