"""Optimization passes over one rewrite engine.

`Builder` builds circuits by structural hashing, ABC's "strash"
(Mishchenko et al., "DAG-aware AIG rewriting", DAC 2006): `add` applies
the enabled local rules in one place (fold, the peephole identities,
strength reduction), then looks the node up by (kind, canonical
operands, payload, meta). The rules are named after the passes
`const_fold`, `peephole`, `strength_reduce` and `cse`, each one walk
through a Builder with only its own rule enabled; `dce`, `pow_rewrite`,
`cmp_rewrite` and `range_fold` walk through one with no rule; `bitblast`
emits through one with the rules of its pass list.

A rule needs a constant operand unless it rewrites a kind in
`CONST_FREE` (Not, Mux, MuxBit, MulPlain, Lt, Eq): fold needs all of them
constant, `IDENTITIES` and strength reduction one. So `rewrite` turns
any other gate with no constant operand away at once.

cse's table also makes the conditional swap (Kolesnikov, Sadeghi and
Schneider, CANS 2009): MuxBit(s, e, t) beside a MuxBit(s, t, e) is
t ^ e ^ that node, two free Xors. A word Mux pair stays: its swap,
t + e - Mux, bitblasts to more ANDs than it saves. A gate a pass builds
is plain: only an Input and a Reveal carry metadata, and the CSE key
holds it so that Reveals to different audiences stay apart.

A pass is a function of the circuit alone, `PASSES[name](c)`, with no
setting or cost model. Passes never mutate their input. A walk copies
nothing before the first node it changes and shares every unchanged
`Node`; a pass that changes nothing returns its input itself, so never
mutate a pass's result. The pipeline runs its passes to a fixpoint (at
most ten rounds), on source and on circuit JSON alike.

`range_fold`, a default pass, is the one pass that assumes the range
contract: it decides comparisons from intervals that start at
|v| < 2^(w-2) for every input, which the clear and shares backends
check. Every other pass keeps the outputs on any input.
"""

from __future__ import annotations

import functools
from collections import Counter

from .circuit import (
    ADD, AND, COMMUTATIVE, CONST, EQ, INPUT, LT, MUL, MUL_PLAIN, MUX, MUX_BIT,
    NOT, OR, PLAIN, REVEAL, SUB, WORD_OPS, XOR, Circuit, Level, Node,
    balanced, contract_log, word_value,
)
from .errors import LowerError

# the kinds a rule rewrites with no constant operand: Not(Not x),
# Mux(s,x,x), MuxBit(s,x,x), MulPlain(x, 0 or 1), Lt(x,x) and Eq(x,x)
CONST_FREE = frozenset({NOT, MUX, MUX_BIT, MUL_PLAIN, LT, EQ})

# kind -> (operand, constant, result): kind(ops) is ops[result] when
# ops[operand] is that constant (x+0 = x, x*1 = x, x&&0 = 0, 1?t:e = t, ...)
IDENTITIES = {
    ADD: ((0, 0, 1), (1, 0, 0)),
    XOR: ((0, 0, 1), (1, 0, 0)),
    SUB: ((1, 0, 0),),
    MUL: ((0, 1, 1), (1, 1, 0)),
    AND: ((0, 1, 1), (1, 1, 0), (0, 0, 0), (1, 0, 1)),
    OR: ((0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)),
    MUX: ((0, 1, 1), (0, 0, 2)),
    MUX_BIT: ((0, 1, 1), (0, 0, 2)),
}

# the local rules, by pass name, and the kinds each may rewrite
RULE_KINDS = {
    "const_fold": frozenset(WORD_OPS) | {MUL_PLAIN, MUX, NOT},
    "peephole": frozenset(IDENTITIES) | {NOT, LT, EQ},
    "strength_reduce": frozenset({MUL, MUL_PLAIN}),
    "cse": frozenset(),
}


def _fold(kind, args: list[Node], payload):
    """The value of kind(args) when it folds, else None: word gates over
    word constants, and Not of a bit constant."""
    if kind is NOT:
        return 1 - args[0].payload if args[0].kind is CONST else None
    for a in args:
        if a.kind is not CONST:
            return None
    return word_value(kind, [a.payload for a in args], payload)


class Builder:
    """Appends nodes to `nodes`, rewriting each on the way in with the
    local rules named in `rules` (other names are ignored)."""

    def __init__(self, rules=(), nodes: list[Node] | None = None):
        self.nodes = [] if nodes is None else nodes
        self.fold = "const_fold" in rules
        self.peephole = "peephole" in rules
        self.strength = "strength_reduce" in rules
        self.table: dict | None = {} if "cse" in rules else None
        self.ruled = frozenset().union(
            *(RULE_KINDS[r] for r in rules if r in RULE_KINDS))
        self.map: list[int] = []  # old id -> new id during a walk

    def rewrite(self, kind, ops: tuple, payload):
        """What the enabled rules make of kind(ops): None when none
        applies, the id of an existing node it equals, or the
        (kind, operands, meta, payload) of the node that replaces it."""
        nodes = self.nodes
        if kind not in CONST_FREE:
            for o in ops:
                if nodes[o].kind is CONST:
                    break
            else:
                return None  # every rule for kind needs a constant operand
        args = [nodes[o] for o in ops]
        if self.fold:
            value = _fold(kind, args, payload)
            if value is not None:
                return (CONST, (), PLAIN, value)
        consts = [a.payload if a.kind is CONST else None for a in args]
        if self.peephole:
            for i, const, result in IDENTITIES.get(kind, ()):
                if consts[i] == const:
                    return ops[result]
            if kind is NOT and args[0].kind is NOT:
                return args[0].operands[0]
            if (kind is MUX or kind is MUX_BIT) and ops[1] == ops[2]:
                return ops[1]
            if (kind is LT or kind is EQ) and ops[0] == ops[1]:
                return (CONST, (), PLAIN, int(kind is EQ))
            if kind is MUX_BIT and {consts[1], consts[2]} == {0, 1}:
                # s ? 1 : 0 is s, and s ? 0 : 1 is Not s
                return ops[0] if consts[1] else (NOT, (ops[0],), PLAIN, None)
        if self.strength:
            if kind is MUL and consts[0] is not None:
                return (MUL_PLAIN, (ops[1],), PLAIN, consts[0])
            if kind is MUL and consts[1] is not None:
                return (MUL_PLAIN, (ops[0],), PLAIN, consts[1])
            if kind is MUL_PLAIN and payload in (0, 1):
                return ops[0] if payload else (CONST, (), PLAIN, 0)
        return None

    def add(self, kind, ops: tuple = (), meta=PLAIN, payload=None,
            node: Node | None = None) -> int:
        """Id of the node for kind(ops) under the enabled rules, existing or
        appended; a walked gate's `node` is reused if its operands are
        `ops`. Operands must be earlier ids; nothing checks."""
        if kind in self.ruled:
            r = self.rewrite(kind, ops, payload)
            if r is not None:
                return r if type(r) is int else self.add(*r)
        nodes = self.nodes
        nid = len(nodes)
        table = self.table
        if table is not None and kind is not INPUT:
            key = (kind, (ops[1], ops[0]) if kind in COMMUTATIVE
                   and ops[0] > ops[1] else ops, payload, meta)
            if kind is MUX_BIT and key not in table:
                s, e, t = ops
                m = table.get((kind, (s, t, e), payload, meta))
                if m is not None:  # the conditional swap: s?e:t = t^e^(s?t:e)
                    return self.add(XOR, (self.add(XOR, (t, e)), m))
            found = table.setdefault(key, nid)
            if found != nid:
                return found
        nodes.append(node if node is not None and node.operands == ops
                     else Node(kind, ops, meta, payload))
        return nid

    def walk(self, c: Circuit, start: int, step=None) -> Circuit:
        """Keep c.nodes[:start] and rebuild each later node, its operands
        mapped through `self.map`: as `step(oid, node, ops)` says (a new
        id, -1 to drop it), or when that is None through `add`."""
        nodes = c.nodes
        self.nodes = nodes[:start]
        m = self.map = list(range(start))
        for oid in range(start, len(nodes)):
            node = nodes[oid]
            ops = node.operands
            if ops:
                ops = tuple([m[o] for o in ops])
            nid = step(oid, node, ops) if step else None
            m.append(self.add(node.kind, ops, node.meta, node.payload, node)
                     if nid is None else nid)
        inputs = [(m[nid], p, n) for nid, p, n in c.inputs]
        outputs = [(m[nid], a, n) for nid, a, n in c.outputs]
        if (self.nodes == nodes and inputs == c.inputs
                and outputs == c.outputs):
            return c
        return Circuit(c.level, c.bitwidth, self.nodes, inputs, outputs)


def _rewrite(c: Circuit, rule: str) -> Circuit:
    """One walk of `c` through a Builder with only `rule` enabled, from
    the first node `add` would not keep; `c` itself if there is none."""
    b = Builder((rule,), c.nodes)
    ruled, table = b.ruled, b.table
    for nid, node in enumerate(c.nodes):
        kind, ops = node.kind, node.operands
        if kind in ruled and b.rewrite(kind, ops, node.payload) is not None:
            return b.walk(c, nid)
        if table is None or kind is INPUT:
            continue
        if kind in COMMUTATIVE and ops[0] > ops[1]:
            ops = (ops[1], ops[0])
        if kind is MUX_BIT and (kind, (ops[0], ops[2], ops[1]), node.payload,
                                node.meta) in table:
            return b.walk(c, nid)  # add makes the conditional swap
        if table.setdefault((kind, ops, node.payload, node.meta), nid) != nid:
            return b.walk(c, nid)
    return c


def const_fold(c: Circuit) -> Circuit:
    """Gates whose operands are all constants become their value."""
    return _rewrite(c, "const_fold")


def peephole(c: Circuit) -> Circuit:
    """Local identities: x && true -> x, x+0 -> x, Mux(b,x,x) -> x,
    Mux(1,t,e) -> t, Lt(x,x) -> 0, Eq(x,x) -> 1, ..."""
    return _rewrite(c, "peephole")


def strength_reduce(c: Circuit) -> Circuit:
    """Mul with a constant operand becomes MulPlain; multiplying by the
    plaintext constants 0 and 1 disappears entirely."""
    return _rewrite(c, "strength_reduce")


def cse(c: Circuit) -> Circuit:
    """Merge structurally identical nodes; commutative gates canonicalize
    operand order first, so Add(a,b) and Add(b,a) unify. A MuxBit that
    mirrors an earlier one becomes two Xors over it (the swap)."""
    return _rewrite(c, "cse")


def dce(c: Circuit) -> Circuit:
    """Drop nodes that no output (or input declaration) reaches."""
    nodes = c.nodes
    live = [False] * len(nodes)
    for nid, _x, _name in c.inputs + c.outputs:
        live[nid] = True
    for nid in range(len(nodes) - 1, -1, -1):  # operands precede users
        if live[nid]:
            for o in nodes[nid].operands:
                live[o] = True
    if all(live):
        return c
    return Builder().walk(c, live.index(False),
                          lambda oid, _node, _ops: None if live[oid] else -1)


def pow_rewrite(c: Circuit) -> Circuit:
    """Each largest Mul chain over one node x, such as pow(x, n) as
    lowering emits it, becomes the `balanced` tree over its leaves with
    each distinct pair built once: x^n at depth ceil(log2 n) and at most
    floor(log2 n) + popcount(n) - 1 Muls, its shared pairs no chain.

    One forward sweep finds the chains. A link is a Mul operand that is
    a based Mul read once (an output is a Reveal, so no output is one).
    A Mul whose operands both read one node x, a link as its base and
    any other operand as itself, gets base x and, as its leaf count, its
    links' counts plus 1 for each other operand. (A Mul read once that
    has no base reads as itself, which the other operand never does.)
    Each Mul on four leaves or more is rebuilt and the links under it
    dropped, unless it is itself dropped as a link under a larger one."""
    nodes = c.nodes
    if not any(n.kind is MUL and MUL in (nodes[n.operands[0]].kind,
                                         nodes[n.operands[1]].kind)
               for n in nodes):  # a chain of four leaves has such a Mul
        return c
    uses = Counter(o for node in nodes for o in node.operands)
    base, size = {}, {}
    for nid, node in enumerate(nodes):
        if node.kind is MUL:
            ops = node.operands
            links = [o for o in ops if o in base and uses[o] == 1]
            x, y = (base[o] if o in links else o for o in ops)
            if x == y:
                base[nid] = x
                size[nid] = sum(size[o] if o in links else 1 for o in ops)
    heads = {nid for nid, n in size.items() if n >= 4}
    if not heads:
        return c
    dropped, stack = set(), list(heads)
    while stack:
        for o in nodes[stack.pop()].operands:
            if o in base and uses[o] == 1 and o not in dropped:
                dropped.add(o)
                stack.append(o)

    b = Builder()

    def step(oid, node, _ops):
        if oid in dropped:
            return -1
        if oid in heads:
            pair = functools.cache(lambda x, y: b.add(MUL, (x, y)))
            return balanced([b.map[base[oid]]] * size[oid], pair)

    return b.walk(c, min(dropped), step)  # every head reads a link


# -- comparison re-encoding --

def cmp_rewrite(c: Circuit) -> Circuit:
    """Re-encode lowering's derived comparisons as one comparison
    subtracted from 1:

        x >= y   Add(Lt(y,x), Eq(x,y))  ->  Sub(Const 1, Lt(x,y))
        x != y   Add(Lt(x,y), Lt(y,x))  ->  Sub(Const 1, Eq(x,y))

    (x <= y is x >= y with its operands swapped.) One comparison in
    place of two takes fewer gates at bool level and under `arith_model`.
    Under `additive_model` it takes half the preprocessing, though x != y
    then takes an Eq's 10 rounds where two parallel Lts took 7. The Add
    is rewritten only when it is the only reader of one of its two
    comparisons: when both have other readers (`a || b` is a + b - a*b),
    the rewrite adds a comparison and removes none.
    """
    one = (CONST, (), PLAIN, 1)
    readers = Counter()  # c's, counted at the first derived comparison

    def sole_reader(ops) -> bool:
        if not readers:
            readers.update([o for n in c.nodes for o in set(n.operands)])
            readers.update([nid for nid, _a, _n in c.outputs])
        return readers[ops[0]] == 1 or readers[ops[1]] == 1

    def replacement(nodes, ops):
        """The comparison to subtract from Add(ops), as `Builder.add`
        arguments; None when the Add is not a derived comparison."""
        n0, n1 = nodes[ops[0]], nodes[ops[1]]
        if {n0.kind, n1.kind} == {LT, EQ}:
            lt, eq = (n0, n1) if n0.kind is LT else (n1, n0)
            y, x = lt.operands  # Lt(y, x) means x >= y
            if sorted(lt.operands) == sorted(eq.operands):
                return LT, (x, y)
        elif (n0.kind is LT and n1.kind is LT
              and n0.operands == n1.operands[::-1]):
            return EQ, n0.operands
        return None

    b = Builder()

    def step(_oid, node, ops):
        cmp = node.kind is ADD and replacement(b.nodes, ops)
        if cmp and sole_reader(node.operands):
            return b.add(SUB, (b.add(*one), b.add(*cmp)))

    for nid, node in enumerate(c.nodes):
        if (node.kind is ADD and replacement(c.nodes, node.operands)
                and sole_reader(node.operands)):
            return b.walk(c, nid, step)
    return c


# -- value ranges --

FOLDS = frozenset({LT, EQ, MUX})  # the kinds range_fold rewrites


def _cmp_plan(kind, xl, xh, yl, yh):
    """What range_fold makes of comparison kind(x, y) from the intervals
    [xl, xh] of x and [yl, yh] of y (None: unbounded): None, or
    (v, i, negate) for the Const v (i None), Sub(Const v, operand i)
    (negate) or operand i minus v."""
    if xl is None or yl is None:
        return None
    if kind is LT:
        if xh < yl or xl >= yh:
            return int(xh < yl), None, False
        if yl == yh and xh == xl + 1:  # Lt(x, v+1), x in {v, v+1}
            return xh, 0, True
        if xl == xh and yh == yl + 1:  # Lt(v, y), y in {v, v+1}
            return yl, 1, False
        return None
    if xh < yl or yh < xl:
        return 0, None, False
    if xl == xh == yl == yh:
        return 1, None, False
    for i, (zl, zh, cl, ch) in enumerate(((xl, xh, yl, yh),
                                          (yl, yh, xl, xh))):
        if zh == zl + 1 and cl == ch:
            # Eq(z, v) is v+1 - z and Eq(z, v+1) is z - v, z in {v, v+1}
            return (zh, i, True) if cl == zl else (zl, i, False)
    return None


def _emit(b: Builder, plan, x) -> int:
    """The id in `b` of what `plan`, as _cmp_plan returns, makes of x."""
    v, i, negate = plan
    if i is not None and not negate and v == 0:
        return x
    k = b.add(CONST, (), PLAIN, v)
    if i is None:
        return k
    return b.add(SUB, (k, x) if negate else (x, k))


class _Cases:
    """range_fold's split of comparisons with a constant, over the
    intervals `lo`, `hi` of `nodes`. A case is kind(word nid, v), or
    kind(v, word nid) if `side` is 1, keyed (kind, side, nid, v)."""

    def __init__(self, nodes: list[Node], lo: list, hi: list, width: int):
        self.nodes, self.lo, self.hi, self.width = nodes, lo, hi, width
        self.planned = set()  # the Mux cases of the comparisons split so far
        self.made = {}  # case key -> the id of its value, built once

    def point(self, nid):
        lo = self.lo[nid]
        return lo if lo is not None and lo == self.hi[nid] else None

    def case(self, kind, side, nid, v):
        """The case kind(word nid, v) equals, through each Add and Sub of
        a constant: its key and plan."""
        lo, hi, point = self.lo, self.hi, self.point
        while True:
            plan = (_cmp_plan(kind, lo[nid], hi[nid], v, v) if side == 0
                    else _cmp_plan(kind, v, v, lo[nid], hi[nid]))
            node = self.nodes[nid]
            if plan is not None or (node.kind is not ADD
                                    and node.kind is not SUB):
                return (kind, side, nid, v), plan
            x, y = node.operands
            if point(y) is not None:
                # Lt(x + k, v) is Lt(x, v - k), Lt(x - k, v) is Lt(x, v + k)
                nid, v = x, v - lo[y] if node.kind is ADD else v + lo[y]
            elif point(x) is not None:
                # Lt(k + y, v) is Lt(y, v - k), Lt(k - y, v) is Lt(k - v, y)
                side ^= node.kind is SUB
                nid, v = y, v - lo[x] if node.kind is ADD else lo[x] - v
            else:
                return (kind, side, nid, v), None

    def arms(self, key):
        """The cases of a Mux's arms, for the key of a case of that Mux."""
        kind, side, nid, v = key
        _s, t, e = self.nodes[nid].operands
        return self.case(kind, side, t, v), self.case(kind, side, e, v)

    def top(self, kind, ops):
        """The case of comparison kind(ops) if one operand is a point and
        each leaf of its cases has a plan, with at most w Mux cases that
        no earlier split made; else None."""
        for side, (word, other) in enumerate((ops, ops[::-1])):
            if self.point(other) is not None:
                top, new = self.case(kind, side, word, self.lo[other]), []
                if self.within(*top, new):
                    return top
                self.planned.difference_update(new)
                break
        return None

    def within(self, key, plan, new: list) -> bool:
        """Whether each leaf of the case has a plan, each Mux it splits
        has a selector in [0, 1], and it adds at most w Mux cases to
        `new` (and to `planned`), so it recurses at most w deep."""
        if plan is not None or key in self.planned:
            return True
        node = self.nodes[key[2]]
        if node.kind is not MUX or len(new) == self.width:
            return False
        s = node.operands[0]
        if self.lo[s] is None or self.lo[s] < 0 or self.hi[s] > 1:
            return False  # a selector not proven a bit must stay read
        self.planned.add(key)
        new.append(key)
        return all(self.within(*arm, new) for arm in self.arms(key))

    def split(self, b: Builder, key, plan) -> int:
        """The id in `b`, during its walk, of a case's value: its leaf,
        or a Mux of its arms' on the Mux's own selector."""
        nid = self.made.get(key)
        if nid is None:
            node = self.nodes[key[2]]
            if plan is not None:
                nid = _emit(b, plan, b.map[key[2]])
            else:
                t, e = self.arms(key)
                nid = b.add(MUX, (b.map[node.operands[0]], self.split(b, *t),
                                  self.split(b, *e)))
            self.made[key] = nid
        return nid


def range_fold(c: Circuit) -> Circuit:
    """Fold what value ranges decide (interval analysis, Cousot and
    Cousot, POPL 1977). One forward walk gives each word an interval
    over exact integers: an Input the range contract |v| < 2^(w-2), a
    Const its value, Add, Sub, Mul and MulPlain interval arithmetic, a
    comparison [0, 1] (its value when decided), a Mux the hull of its
    arms and a Reveal its operand's. An end past 2^(2w) widens to
    unbounded. The walk then rebuilds from the first gate it changes:

        Lt(x, y)            hi(x) < lo(y): 1,  lo(x) >= hi(y): 0
        Eq(x, y)            disjoint intervals: 0, one equal point: 1
        x in {v, v+1}       Lt(x, v+1), Eq(x, v)  ->  Sub(Const v+1, x)
                            Lt(v, x), Eq(x, v+1)  ->  x - v (x if v = 0)
        s in [0, 1]         Mux(s, 1, 0) -> s,  Mux(s, 0, 1) -> 1 - s

    A comparison with a constant v that intervals leave open is split by
    cases (trace partitioning, Mauborgne and Rival, ESOP 2005):

        Lt(Mux(s, t, e), v)     ->  Mux(s, Lt(t, v), Lt(e, v))
        Lt(x + k, v)            ->  Lt(x, v - k), and x - k, k + x, k - x alike

    and likewise Eq and v on the left. It is rewritten when every case
    ends in a leaf that the rules above make a Const or a local Sub,
    each Mux it splits has a selector in [0, 1], and it adds at most w
    Mux cases that no earlier split made, each one multiplication where
    a w-bit comparison takes at least w. Each Mux case keeps its Mux's
    selector, and the comparison sat above that Mux, so no depth rises.

    The clear interpreter computes on exact integers and accepts only
    inputs inside the contract, so on every input it accepts the folded
    circuit has the same outputs. A Mux whose selector is not proven a
    bit stays, and no comparison is split through it (its cases could
    fold to one value, selector and all), so the backends still refuse
    a selector that is not one.
    Bool circuits come back unchanged.
    """
    if c.level == Level.BOOL:
        return c
    nodes = c.nodes
    # only comparisons and Muxes fold: the walk ends at the last of them
    end = next((nid + 1 for nid in range(len(nodes) - 1, -1, -1)
                if nodes[nid].kind in FOLDS), 0)
    cap = 1 << (2 * c.bitwidth)
    bound = (1 << contract_log(c.bitwidth)) - 1
    lo: list[int | None] = []
    hi: list[int | None] = []
    plans = {}  # oid -> (v, i, negate), as _cmp_plan returns
    splits = {}  # oid -> the (key, plan) of a comparison split by cases
    cases = _Cases(nodes, lo, hi, c.bitwidth)
    for nid in range(end):
        node = nodes[nid]
        kind, ops = node.kind, node.operands
        if kind is MUX:
            s, t, e = ops
            tl, th, el, eh = lo[t], hi[t], lo[e], hi[e]
            if tl is None or el is None:
                low = high = None
            else:
                low = tl if tl < el else el
                high = th if th > eh else eh
                if (low == 0 and high == 1 and tl == th and el == eh
                        and lo[s] is not None and lo[s] >= 0 and hi[s] <= 1):
                    plans[nid] = (el, 0, el == 1)  # s, or 1 - s
        elif kind is LT or kind is EQ:
            x, y = ops
            plan = _cmp_plan(kind, lo[x], hi[x], lo[y], hi[y])
            low, high = 0, 1
            if plan is not None:
                plans[nid] = plan
                if plan[1] is None:
                    low = high = plan[0]
            else:
                top = cases.top(kind, ops)
                if top is not None:
                    splits[nid] = top
        elif kind is CONST:
            low = high = node.payload
        elif kind is INPUT:
            low, high = -bound, bound
        elif kind is REVEAL:
            low, high = lo[ops[0]], hi[ops[0]]
        else:
            xl, xh = lo[ops[0]], hi[ops[0]]
            if kind is MUL_PLAIN:
                yl = yh = node.payload
            else:
                yl, yh = lo[ops[1]], hi[ops[1]]
            if xl is None or yl is None:
                low = high = None
            elif kind is ADD:
                low, high = xl + yl, xh + yh
            elif kind is SUB:
                low, high = xl - yh, xh - yl
            else:  # Mul, MulPlain
                ends = (xl * yl, xl * yh, xh * yl, xh * yh)
                low, high = min(ends), max(ends)
            if low is not None and (low < -cap or high > cap):
                low = high = None
        lo.append(low)
        hi.append(high)
    if not plans and not splits:
        return c

    b = Builder()

    def step(oid, node, ops):
        plan = plans.get(oid)
        if plan is not None:
            return _emit(b, plan, None if plan[1] is None else ops[plan[1]])
        top = splits.get(oid)
        if top is not None:
            return cases.split(b, *top)

    return b.walk(c, min(plans.keys() | splits.keys()), step)


# in the order the pipeline runs them: range_fold runs before cse and
# dce, which merge the constants it adds and sweep what it leaves unread
# in the same round
PASSES = {
    "const_fold": const_fold,
    "peephole": peephole,
    "strength_reduce": strength_reduce,
    "pow_rewrite": pow_rewrite,
    "range_fold": range_fold,
    "cse": cse,
    "dce": dce,
    "cmp_rewrite": cmp_rewrite,
}
DEFAULT_PASSES = list(PASSES)

MAX_ROUNDS = 10


def check_pass_names(passes: list[str]):
    """Raise LowerError("UnknownPass") for a name that is not a pass."""
    for name in passes:
        if name not in PASSES:
            raise LowerError("UnknownPass", name)


def run_passes(c: Circuit, passes: list[str] | None = None) -> Circuit:
    """Run the pass list to a fixpoint (at most MAX_ROUNDS rounds).

    The fixpoint is the round in which every pass returned its input. A
    circuit already at its fixpoint comes back as the very same object,
    so never mutate the result: it may be the circuit passed in."""
    passes = DEFAULT_PASSES if passes is None else passes
    check_pass_names(passes)
    for _ in range(MAX_ROUNDS):
        before = c
        for name in passes:
            c = PASSES[name](c)
        if c is before:
            break
    return c
