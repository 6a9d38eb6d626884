"""Circuit-to-circuit optimization passes.

Passes never mutate their input. A pass that rewrites something returns a
new circuit, which shares every unchanged `Node` with its input; a pass
that rewrites nothing returns its input object itself. So never mutate a
pass's result: it may be the circuit the caller passed in. The pipeline
runs its pass list to a fixpoint (capped at ten rounds), reached when a
whole round returns the circuit it started from. `pow_rewrite` is listed
here for completeness but runs before lowering: the square-and-multiply
expansion of pow() is applied while gates are first emitted, controlled
by LowerConfig.pow_rewrite.
"""

from __future__ import annotations

from .circuit import COMMUTATIVE, Circuit, GateKind, Node, PLAIN
from .errors import LowerError

DEFAULT_PASSES = ["const_fold", "peephole", "strength_reduce", "pow_rewrite",
                  "cse", "dce", "cmp_rewrite"]

PRE_LOWERING_PASSES = {"pow_rewrite"}

FOLDABLE = {
    GateKind.ADD: lambda a, b: a + b,
    GateKind.SUB: lambda a, b: a - b,
    GateKind.MUL: lambda a, b: a * b,
    GateKind.LT: lambda a, b: int(a < b),
    GateKind.LEQ: lambda a, b: int(a <= b),
    GateKind.EQ: lambda a, b: int(a == b),
    GateKind.AND: lambda a, b: a & b,
    GateKind.OR: lambda a, b: a | b,
    GateKind.XOR: lambda a, b: a ^ b,
}


class _Rebuild:
    """Shared machinery: walk nodes in id order, emit into a fresh circuit,
    remap operands through `self.map`. A node whose operands map to
    themselves is kept as the same frozen `Node` object."""

    def __init__(self, c: Circuit):
        self.old = c
        self.new = Circuit(c.level, c.bitwidth, c.signed)
        self.map: dict[int, int] = {}

    def emit(self, kind, operands, meta=PLAIN, payload=None) -> int:
        return self.new.add_node(kind, operands, meta, payload)

    def keep(self, oid: int, node: Node, ops: tuple | None = None) -> int:
        """Append `node` with its operands remapped; `ops` are the mapped
        operands when the caller already has them. Operands taken from
        `self.map` are earlier nodes, so no `add_node` check can fail."""
        if ops is None:
            ops = tuple([self.map[o] for o in node.operands])
        if ops != node.operands:
            node = Node(node.kind, ops, node.meta, node.payload)
        nodes = self.new.nodes
        nodes.append(node)
        return len(nodes) - 1

    def finish(self) -> Circuit:
        """The rebuilt circuit, or the input circuit itself when the
        rebuild equals it node for node."""
        old, new, m = self.old, self.new, self.map
        inputs = [(m[nid], p, n) for nid, p, n in old.inputs]
        outputs = [(m[nid], a, n) for nid, a, n in old.outputs]
        if (new.nodes == old.nodes and inputs == old.inputs
                and outputs == old.outputs):
            return old
        new.inputs = inputs
        new.outputs = outputs
        return new


def const_fold(c: Circuit) -> Circuit:
    rb = _Rebuild(c)
    new_nodes = rb.new.nodes
    for oid, node in enumerate(c.nodes):
        ids = tuple([rb.map[o] for o in node.operands])
        ops = [new_nodes[i] for i in ids]
        folded = None
        if node.kind in FOLDABLE and len(ops) == 2 and all(
                n.kind == GateKind.CONST for n in ops):
            folded = FOLDABLE[node.kind](ops[0].payload, ops[1].payload)
        elif node.kind == GateKind.MUL_PLAIN and ops and \
                ops[0].kind == GateKind.CONST:
            folded = ops[0].payload * node.payload
        elif node.kind == GateKind.MUX and len(ops) == 3 and all(
                n.kind == GateKind.CONST for n in ops):
            folded = ops[1].payload if ops[0].payload else ops[2].payload
        elif node.kind == GateKind.NOT and ops and \
                ops[0].kind == GateKind.CONST_BIT:
            folded = 1 - ops[0].payload
        if folded is not None:
            kind = (GateKind.CONST_BIT if node.kind in
                    (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT)
                    else GateKind.CONST)
            rb.map[oid] = rb.emit(kind, (), PLAIN, folded)
        else:
            rb.map[oid] = rb.keep(oid, node, ids)
    return rb.finish()


def _const_payload(circuit: Circuit, nid: int):
    node = circuit.nodes[nid]
    if node.kind in (GateKind.CONST, GateKind.CONST_BIT):
        return node.payload
    return None


def _has_kind(c: Circuit, kinds) -> bool:
    return any(node.kind in kinds for node in c.nodes)


def peephole(c: Circuit) -> Circuit:
    """Local identities: x && true -> x, x+0 -> x, Mux(b,x,x) -> x, ..."""
    rb = _Rebuild(c)
    for oid, node in enumerate(c.nodes):
        ops = tuple([rb.map[o] for o in node.operands])
        consts = [_const_payload(rb.new, o) for o in ops]
        alias = None
        match node.kind:
            case GateKind.ADD:
                if consts[0] == 0:
                    alias = ops[1]
                elif consts[1] == 0:
                    alias = ops[0]
            case GateKind.SUB:
                if consts[1] == 0:
                    alias = ops[0]
            case GateKind.MUL:
                if consts[0] == 1:
                    alias = ops[1]
                elif consts[1] == 1:
                    alias = ops[0]
            case GateKind.MUX | GateKind.MUX_BIT:
                if ops[1] == ops[2]:
                    alias = ops[1]
            case GateKind.AND:
                if consts[0] == 1:
                    alias = ops[1]
                elif consts[1] == 1:
                    alias = ops[0]
                elif 0 in consts:
                    alias = ops[consts.index(0)]
            case GateKind.OR:
                if consts[0] == 0:
                    alias = ops[1]
                elif consts[1] == 0:
                    alias = ops[0]
                elif 1 in consts:
                    alias = ops[consts.index(1)]
            case GateKind.XOR:
                if consts[0] == 0:
                    alias = ops[1]
                elif consts[1] == 0:
                    alias = ops[0]
            case GateKind.NOT:
                inner = rb.new.nodes[ops[0]]
                if inner.kind == GateKind.NOT:
                    alias = inner.operands[0]
        rb.map[oid] = (alias if alias is not None
                       else rb.keep(oid, node, ops))
    return rb.finish()


def cse(c: Circuit) -> Circuit:
    """Merge structurally identical nodes; commutative gates canonicalize
    operand order first, so Add(a,b) and Add(b,a) unify."""
    rb = _Rebuild(c)
    seen: dict[tuple, int] = {}
    for oid, node in enumerate(c.nodes):
        ops = tuple([rb.map[o] for o in node.operands])
        canon = tuple(sorted(ops)) if node.kind in COMMUTATIVE else ops
        key = (node.kind, canon, node.payload, node.meta)
        if node.kind in (GateKind.INPUT, GateKind.INPUT_BIT):
            key = (node.kind, oid)  # distinct inputs never merge
        if key in seen:
            rb.map[oid] = seen[key]
        else:
            rb.map[oid] = seen[key] = rb.keep(oid, node, ops)
    return rb.finish()


def dce(c: Circuit) -> Circuit:
    """Drop nodes that no output (or input declaration) reaches."""
    live = set()
    stack = [nid for nid, _a, _n in c.outputs]
    stack += [nid for nid, _p, _n in c.inputs]
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        stack.extend(c.nodes[nid].operands)
    rb = _Rebuild(c)
    for oid, node in enumerate(c.nodes):
        if oid in live:
            rb.map[oid] = rb.keep(oid, node)
    return rb.finish()


def strength_reduce(c: Circuit) -> Circuit:
    """Mul with a constant operand becomes MulPlain; multiplying by the
    plaintext constants 0 and 1 disappears entirely."""
    if not _has_kind(c, (GateKind.MUL, GateKind.MUL_PLAIN)):
        return c
    rb = _Rebuild(c)
    for oid, node in enumerate(c.nodes):
        ops = tuple([rb.map[o] for o in node.operands])
        if node.kind == GateKind.MUL:
            consts = [_const_payload(rb.new, o) for o in ops]
            if consts[0] is not None:
                rb.map[oid] = rb.emit(GateKind.MUL_PLAIN, (ops[1],),
                                      node.meta, consts[0])
                continue
            if consts[1] is not None:
                rb.map[oid] = rb.emit(GateKind.MUL_PLAIN, (ops[0],),
                                      node.meta, consts[1])
                continue
        if node.kind == GateKind.MUL_PLAIN:
            if node.payload == 0:
                rb.map[oid] = rb.emit(GateKind.CONST, (), PLAIN, 0)
                continue
            if node.payload == 1:
                rb.map[oid] = ops[0]
                continue
        rb.map[oid] = rb.keep(oid, node, ops)
    return rb.finish()


def tree_reduce(c: Circuit) -> Circuit:
    """Rebalance linear chains of one associative gate kind into trees of
    logarithmic depth. Only single-use, non-output intermediates move."""
    uses: dict[int, int] = {}
    for node in c.nodes:
        for o in node.operands:
            uses[o] = uses.get(o, 0) + 1
    pinned = {nid for nid, _a, _n in c.outputs}
    chain_kinds = (GateKind.ADD, GateKind.MUL, GateKind.AND, GateKind.OR,
                   GateKind.XOR)

    def chain_link(nid: int, kind) -> bool:
        node = c.nodes[nid]
        return (node.kind == kind and uses.get(nid, 0) == 1
                and nid not in pinned)

    # heads are chain tops; every interior link is single-use
    interior: set[int] = set()
    plans: dict[int, list[int]] = {}
    for nid in range(len(c.nodes) - 1, -1, -1):
        node = c.nodes[nid]
        if node.kind not in chain_kinds or nid in interior:
            continue
        leaves: list[int] = []
        links: list[int] = []
        stack = [nid]
        while stack:
            cur = stack.pop()
            if cur != nid and not chain_link(cur, node.kind):
                leaves.append(cur)
                continue
            links.append(cur)
            # right-to-left keeps leaf order stable for determinism
            stack.extend(reversed(c.nodes[cur].operands))
        if len(leaves) >= 4 and len(links) == len(leaves) - 1:
            plans[nid] = leaves
            interior.update(set(links) - {nid})

    rb = _Rebuild(c)
    for oid, node in enumerate(c.nodes):
        if oid in interior:
            continue
        if oid in plans:
            layer = [rb.map[leaf] for leaf in plans[oid]]
            while len(layer) > 1:
                nxt = []
                for i in range(0, len(layer) - 1, 2):
                    nxt.append(rb.emit(node.kind,
                                       (layer[i], layer[i + 1]), node.meta))
                if len(layer) % 2:
                    nxt.append(layer[-1])
                layer = nxt
            rb.map[oid] = layer[0]
        else:
            rb.map[oid] = rb.keep(oid, node)
    return rb.finish()


# -- cost-model-driven comparison re-encoding --

def _scalar_cost(model, kind: GateKind):
    return sum(model.gate_costs.get(kind, {}).values())


def cmp_rewrite(c: Circuit, model) -> Circuit:
    """Re-encode derived comparisons (>=, <=, !=) with whichever gate
    pattern the cost model prices lower.

    Recognized forms for x >= y:   Add(Lt(y,x), Eq(x,y))   and
                                   Sub(Const 1, Lt(x,y))
    and for x != y:                Add(Lt(x,y), Lt(y,x))   and
                                   Sub(Const 1, Eq(x,y)).
    """
    if not _has_kind(c, (GateKind.ADD, GateKind.SUB)):
        return c
    geq_direct = (_scalar_cost(model, GateKind.LT)
                  + _scalar_cost(model, GateKind.EQ)
                  + _scalar_cost(model, GateKind.ADD))
    geq_rewrite = (_scalar_cost(model, GateKind.LT)
                   + _scalar_cost(model, GateKind.SUB))
    neq_direct = (2 * _scalar_cost(model, GateKind.LT)
                  + _scalar_cost(model, GateKind.ADD))
    neq_rewrite = (_scalar_cost(model, GateKind.EQ)
                   + _scalar_cost(model, GateKind.SUB))

    rb = _Rebuild(c)
    for oid, node in enumerate(c.nodes):
        ops = tuple([rb.map[o] for o in node.operands])
        new = rb.new
        replaced = None
        if node.kind == GateKind.ADD:
            kinds = tuple(new.nodes[o].kind for o in ops)
            if set(kinds) == {GateKind.LT, GateKind.EQ} and geq_rewrite < geq_direct:
                lt = new.nodes[ops[kinds.index(GateKind.LT)]]
                eq = new.nodes[ops[kinds.index(GateKind.EQ)]]
                if sorted(lt.operands) == sorted(eq.operands):
                    y, x = lt.operands  # Lt(y, x) means x >= y
                    one = new.add_node(GateKind.CONST, (), PLAIN, 1)
                    inner = new.add_node(GateKind.LT, (x, y), lt.meta)
                    replaced = new.add_node(GateKind.SUB, (one, inner),
                                            node.meta)
            elif kinds == (GateKind.LT, GateKind.LT) and neq_rewrite < neq_direct:
                l1, l2 = new.nodes[ops[0]], new.nodes[ops[1]]
                if l1.operands == tuple(reversed(l2.operands)):
                    x, y = l1.operands
                    one = new.add_node(GateKind.CONST, (), PLAIN, 1)
                    inner = new.add_node(GateKind.EQ, (x, y), l1.meta)
                    replaced = new.add_node(GateKind.SUB, (one, inner),
                                            node.meta)
        elif node.kind == GateKind.SUB:
            lhs, rhs = ops
            if _const_payload(new, lhs) == 1:
                inner = new.nodes[rhs]
                if inner.kind == GateKind.LT and geq_direct < geq_rewrite:
                    x, y = inner.operands  # 1 - Lt(x,y) means x >= y
                    lt = new.add_node(GateKind.LT, (y, x), inner.meta)
                    eq = new.add_node(GateKind.EQ, (x, y), inner.meta)
                    replaced = new.add_node(GateKind.ADD, (lt, eq), node.meta)
                elif inner.kind == GateKind.EQ and neq_direct < neq_rewrite:
                    x, y = inner.operands
                    l1 = new.add_node(GateKind.LT, (x, y), inner.meta)
                    l2 = new.add_node(GateKind.LT, (y, x), inner.meta)
                    replaced = new.add_node(GateKind.ADD, (l1, l2), node.meta)
        rb.map[oid] = (replaced if replaced is not None
                       else rb.keep(oid, node, ops))
    return rb.finish()


PASSES = {
    "const_fold": const_fold,
    "peephole": peephole,
    "cse": cse,
    "dce": dce,
    "strength_reduce": strength_reduce,
    "tree_reduce": tree_reduce,
    "cmp_rewrite": cmp_rewrite,
}

MAX_ROUNDS = 10


def run_passes(c: Circuit, passes: list[str] | None = None,
               model=None) -> Circuit:
    """Run the pass list to a fixpoint (at most MAX_ROUNDS rounds).

    The fixpoint is the round in which every pass returned its input. A
    circuit already at its fixpoint comes back as the very same object,
    so never mutate the result: it may be the circuit passed in."""
    if passes is None:
        passes = DEFAULT_PASSES
    for name in passes:
        if name not in PASSES and name not in PRE_LOWERING_PASSES:
            raise LowerError("UnknownPass", name)
    if model is None:
        from .estimator import additive_model
        model = additive_model()
    for _ in range(MAX_ROUNDS):
        before = c
        for name in passes:
            if name in PRE_LOWERING_PASSES:
                continue
            fn = PASSES[name]
            c = fn(c, model) if name == "cmp_rewrite" else fn(c)
        if c is before:
            break
    return c
