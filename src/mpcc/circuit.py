"""Acyclic circuit IR with ownership metadata.

Node ids double as topological order: a node may only reference smaller
ids, so acyclicity is a local check and id order is an evaluation order.
Circuits are built append-only through `Circuit.add_node`, which checks
each node's arity, operand order and payload, and are treated as
immutable once built; passes produce new circuits. Ownership metadata
enters at an Input and leaves at a Reveal; every other gate, at both
levels, is `PLAIN`, and `validate` derives its metadata from its operands'.

`Node` and the three metadata classes are immutable values: equal by
value, hashable, and refusing every assignment and deletion, because
passes share unchanged nodes between circuits and every CSE key holds a
meta by value. A node is built once per kept gate and hashed once per
lookup, so both run in C where Python allows it: `Node` is a `__slots__`
class whose `__init__` stores through the slot descriptors, and each
metadata class is a tuple, compared and hashed as one, except that
metadata of different classes is never equal.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import (
    ArityError, ForwardReferenceError, MalformedCircuitError,
    ShareMismatchError,
)
from .sectypes import AdditiveShare, Generic, Scheme


class Level(str, Enum):
    ARITH = "arith"
    BOOL = "bool"


class GateKind(str, Enum):
    # Const, Input and Reveal serve both levels: a circuit's level says
    # whether they carry words or bits
    CONST = "Const"
    INPUT = "Input"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    MUL_PLAIN = "MulPlain"
    LT = "Lt"
    EQ = "Eq"
    MUX = "Mux"
    REVEAL = "Reveal"
    # bit level only
    AND = "And"
    OR = "Or"
    XOR = "Xor"
    NOT = "Not"
    MUX_BIT = "MuxBit"


# the kinds as module globals, which every layer imports: the per-node
# loops test kinds by identity, and a GateKind attribute lookup is slow
CONST, INPUT, ADD, SUB, MUL, MUL_PLAIN, LT, EQ, MUX, REVEAL = (
    GateKind.CONST, GateKind.INPUT, GateKind.ADD, GateKind.SUB, GateKind.MUL,
    GateKind.MUL_PLAIN, GateKind.LT, GateKind.EQ, GateKind.MUX,
    GateKind.REVEAL)
AND, OR, XOR, NOT, MUX_BIT = (
    GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT, GateKind.MUX_BIT)

ARITH_KINDS = frozenset({CONST, INPUT, ADD, SUB, MUL, MUL_PLAIN, LT, EQ, MUX,
                         REVEAL})
BOOL_KINDS = frozenset({CONST, INPUT, REVEAL, AND, OR, XOR, NOT, MUX_BIT})

ARITY = {
    CONST: 0, INPUT: 0, ADD: 2, SUB: 2, MUL: 2, MUL_PLAIN: 1, LT: 2, EQ: 2,
    MUX: 3, REVEAL: 1, AND: 2, OR: 2, XOR: 2, NOT: 1, MUX_BIT: 3,
}

PAYLOAD_KINDS = frozenset({CONST, MUL_PLAIN})

# commutative gates canonicalize operand order during CSE
COMMUTATIVE = frozenset({ADD, MUL, EQ, AND, OR, XOR})

# -- word-gate semantics: the one definition, which lowering's
# compile-time values, const_fold and the clear and shares backends read --

# what each binary word gate computes on exact Python integers
WORD_OPS = {
    ADD: operator.add,
    SUB: operator.sub,
    MUL: operator.mul,
    LT: lambda a, b: int(a < b),
    EQ: lambda a, b: int(a == b),
}


def contract_log(bitwidth: int) -> int:
    """The range contract's exponent: every input of a w-bit circuit
    satisfies |v| < 2^(w-2). The clear and shares backends check it, and
    `optimizer.range_fold` assumes it."""
    return bitwidth - 2


def word_value(kind: GateKind, values, payload=None) -> int | None:
    """The value of word gate `kind` on operand values `values` and its
    `payload`; None for Input, Reveal and the bit gates. A Mux selector is
    read as a truth value: checking that it is a bit is the caller's job."""
    fn = WORD_OPS.get(kind)
    if fn is not None:
        return fn(values[0], values[1])
    if kind is CONST:
        return payload
    if kind is MUL_PLAIN:
        return values[0] * payload
    if kind is MUX:
        return values[1] if values[0] else values[2]
    return None


# -- node metadata --

def _meta_eq(self, other) -> bool:
    # tuple equality, except that the classes must match too: a
    # PlainMeta and an EncMeta over the same set are both that 1-tuple.
    # Each class sets __ne__ to object's, the negation of this, in place
    # of tuple's.
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


class PlainMeta(NamedTuple):
    audience: frozenset | None = None  # set only on Reveal nodes
    __eq__, __ne__, __hash__ = _meta_eq, object.__ne__, tuple.__hash__


class EncMeta(NamedTuple):
    provider: frozenset
    __eq__, __ne__, __hash__ = _meta_eq, object.__ne__, tuple.__hash__


class SharedMeta(NamedTuple):
    provider: frozenset
    players: frozenset
    observers: frozenset
    threshold: int
    __eq__, __ne__, __hash__ = _meta_eq, object.__ne__, tuple.__hash__


Meta = PlainMeta | EncMeta | SharedMeta
PLAIN = PlainMeta()


def combine_share_meta(a: SharedMeta, b: SharedMeta,
                       scheme: Scheme) -> SharedMeta:
    """Metadata of a gate combining two shared operands.

    The provider becomes the union. Observers follow the general rule
    (union) or the refined additive rule (intersection); additive sharing
    additionally requires the n-out-of-n shape |players| == threshold.
    """
    if a.players != b.players:
        raise ShareMismatchError(
            f"players differ: {sorted(a.players)} vs {sorted(b.players)}")
    if a.threshold != b.threshold:
        raise ShareMismatchError(
            f"thresholds differ: {a.threshold} vs {b.threshold}")
    if isinstance(scheme, AdditiveShare):
        if len(a.players) != a.threshold:
            raise ShareMismatchError(
                f"additive sharing requires players.size == threshold "
                f"({len(a.players)} != {a.threshold})")
        observers = a.observers & b.observers
    else:
        observers = a.observers | b.observers
    return SharedMeta(a.provider | b.provider, a.players, observers,
                      a.threshold)


def combine_meta(a: Meta, b: Meta, scheme: Scheme = Generic()) -> Meta:
    """Metadata combination for any operand pair; plain is neutral."""
    if isinstance(a, PlainMeta):
        return b if not isinstance(b, PlainMeta) else PLAIN
    if isinstance(b, PlainMeta):
        return a
    if isinstance(a, SharedMeta) and isinstance(b, SharedMeta):
        return combine_share_meta(a, b, scheme)
    if isinstance(a, EncMeta) and isinstance(b, EncMeta):
        return EncMeta(a.provider | b.provider)
    raise ShareMismatchError("cannot mix encrypted and shared metadata")


def balanced(layer: list, combine):
    """The balanced tree over `layer`: neighbours are combined pairwise,
    level by level, an odd last item moving up a level as it is."""
    while len(layer) > 1:
        pairs = [combine(layer[i], layer[i + 1])
                 for i in range(0, len(layer) - 1, 2)]
        layer = pairs + layer[2 * len(pairs):]
    return layer[0]


class Node:
    """One gate: its kind, operand ids, metadata and payload (the value
    of a constant, the factor of a MulPlain). Immutable, and equal and
    hashed by value."""

    __slots__ = __match_args__ = ("kind", "operands", "meta", "payload")

    def __init__(self, kind: GateKind, operands: tuple[int, ...],
                 meta: Meta = PLAIN, payload: int | None = None):
        _set_kind(self, kind)
        _set_operands(self, operands)
        _set_meta(self, meta)
        _set_payload(self, payload)

    def _values(self) -> tuple:
        return self.kind, self.operands, self.meta, self.payload

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Node:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return ("Node(kind={!r}, operands={!r}, meta={!r}, payload={!r})"
                .format(*self._values()))

    def __reduce__(self):  # copy and pickle cannot set the slots
        return Node, self._values()


_set_kind, _set_operands, _set_meta, _set_payload = (
    Node.kind.__set__, Node.operands.__set__, Node.meta.__set__,
    Node.payload.__set__)


@dataclass
class Circuit:
    level: Level = Level.ARITH
    bitwidth: int = 64
    nodes: list[Node] = field(default_factory=list)
    inputs: list[tuple[int, int, str]] = field(default_factory=list)
    outputs: list[tuple[int, frozenset, str]] = field(default_factory=list)

    def add_node(self, kind: GateKind, operands=(), meta: Meta = PLAIN,
                 payload=None) -> int:
        operands = tuple(operands)
        if len(operands) != ARITY[kind]:
            raise ArityError(
                f"{kind.value} takes {ARITY[kind]} operands, got {len(operands)}")
        nid = len(self.nodes)
        for o in operands:
            if not (0 <= o < nid):
                raise ForwardReferenceError(
                    f"operand {o} of node {nid} is not an earlier node")
        if (kind in PAYLOAD_KINDS) != (payload is not None):
            raise ArityError(f"{kind.value} requires a payload"
                             if payload is None
                             else f"{kind.value} takes no payload")
        self.nodes.append(Node(kind, operands, meta, payload))
        return nid

    def add_input(self, party: int, name: str,
                  meta: Meta | None = None) -> int:
        nid = self.add_node(INPUT, (), meta if meta is not None
                            else EncMeta(frozenset({party})))
        self.inputs.append((nid, party, name))
        return nid

    def add_output(self, nid: int, audience: frozenset, name: str):
        self.outputs.append((nid, frozenset(audience), name))

    def validate(self, scheme: Scheme = Generic()) -> list[str]:
        """The checks `add_node` cannot make: bitwidth, the level's kinds
        and bit constants, the input and output lists, Reveal audiences,
        each share's threshold and provider, and that shares combine: each
        gate but an Input or a Reveal derives `combine_meta` of its
        operands' metadata, and a clash is reported at the gate where the
        shares meet, which reads as plain after. Returns the violations
        (empty = ok)."""
        violations = []
        if not (2 <= self.bitwidth <= 64):
            violations.append(f"bitwidth {self.bitwidth} outside [2, 64]")
        allowed = ARITH_KINDS if self.level == Level.ARITH else BOOL_KINDS
        listed = {nid for nid, _party, _name in self.inputs}
        derived: list[Meta] = []
        for nid, node in enumerate(self.nodes):
            if node.kind not in allowed:
                violations.append(
                    f"node {nid}: {node.kind.value} not allowed at level "
                    f"{self.level.value}")
            if node.kind is INPUT and nid not in listed:
                violations.append(f"node {nid}: input missing from inputs")
            if (node.kind is CONST and self.level == Level.BOOL
                    and node.payload not in (0, 1)):
                violations.append(f"node {nid}: bit constant {node.payload} "
                                  f"is not 0 or 1")
            if node.kind is REVEAL and not (isinstance(node.meta, PlainMeta)
                                            and node.meta.audience):
                violations.append(f"node {nid}: reveal without audience")
            meta = PLAIN
            try:
                for o in node.operands:
                    meta = combine_meta(meta, derived[o], scheme)
            except ShareMismatchError as ex:
                violations.append(f"node {nid}: {ex.message}")
                meta = PLAIN
            derived.append(node.meta if node.kind in (INPUT, REVEAL) else meta)
            if isinstance(node.meta, SharedMeta):
                if node.meta.threshold > len(node.meta.players):
                    violations.append(
                        f"node {nid}: threshold exceeds player count")
                if not node.meta.provider <= node.meta.players:
                    violations.append(
                        f"node {nid}: provider {sorted(node.meta.provider)} "
                        f"not among players {sorted(node.meta.players)}")
        for nid, _party, _name in self.inputs:
            if not (0 <= nid < len(self.nodes)):
                violations.append(f"input id {nid} out of range")
            elif self.nodes[nid].kind is not INPUT:
                violations.append(f"input id {nid} is not an input node")
        for nid, _aud, _name in self.outputs:
            if not (0 <= nid < len(self.nodes)):
                violations.append(f"output id {nid} out of range")
            elif self.nodes[nid].kind is not REVEAL:
                violations.append(f"output id {nid} is not a reveal node")
        if self.level == Level.ARITH:  # bool names each bit by its word
            for what, keys in (("input", [(p, n) for _, p, n in self.inputs]),
                               ("output", [n for _, _, n in self.outputs])):
                if len(set(keys)) < len(keys):
                    violations.append(f"{what} listed twice under one name")
        return violations

    def counts(self) -> Counter:
        """The number of nodes of each kind, in first-seen order."""
        return Counter([node.kind for node in self.nodes])

    # -- serialization --

    def _json_ends(self) -> tuple[dict, dict]:
        """The keys before "nodes" and the keys after it."""
        return ({"level": self.level.value, "bitwidth": self.bitwidth},
                {"inputs": [[nid, party, name]
                            for nid, party, name in self.inputs],
                 "outputs": [[nid, sorted(aud), name]
                             for nid, aud, name in self.outputs]})

    def _node_json(self, nid: int) -> dict:
        n = self.nodes[nid]
        return {"id": nid, "kind": n.kind.value, "operands": list(n.operands),
                "meta": meta_to_json(n.meta), "payload": n.payload}

    def to_json_obj(self) -> dict:
        head, tail = self._json_ends()
        return {**head, "nodes": [self._node_json(nid)
                                  for nid in range(len(self.nodes))], **tail}

    def to_json(self) -> str:
        """`to_json_obj` as text, one compact node object per line. No
        node dict outlives its line, so the peak memory stays a small
        multiple of the text's length."""
        head, tail = self._json_ends()
        nodes = ",\n".join(_compact(self._node_json(nid))
                           for nid in range(len(self.nodes)))
        return (f'{_compact(head)[:-1]},"nodes":[\n{nodes}\n],'
                f'{_compact(tail)[1:]}\n')

    @staticmethod
    def from_json_obj(obj: dict) -> "Circuit":
        """Rebuild a circuit from `to_json_obj` output. Any missing key,
        unknown level or kind, or badly shaped entry raises
        MalformedCircuitError; call validate() for the semantic checks.
        Only an Input's and a Reveal's meta is kept: a gate's is checked
        for shape and loads plain."""
        try:
            obj = _json_shape(obj, dict, "a circuit is a JSON object")
            c = Circuit(Level(obj["level"]), _json_int(obj["bitwidth"]))
            for entry in _json_shape(obj["nodes"], list,
                                     "a circuit's nodes are a list"):
                entry = _json_shape(entry, dict, "a node is a JSON object")
                kind = GateKind(entry["kind"])
                payload = entry.get("payload")
                operands = _json_shape(entry["operands"], list,
                                       "a node's operands are a list")
                meta = meta_from_json(entry["meta"])
                nid = c.add_node(kind, tuple(map(_json_int, operands)),
                                 meta if kind in (INPUT, REVEAL) else PLAIN,
                                 None if payload is None
                                 else _json_int(payload))
                if nid != entry["id"]:
                    raise ForwardReferenceError(
                        f"node id {entry['id']} does not match position "
                        f"{nid}")
            c.inputs = [(_json_int(nid), _json_int(party), _json_str(name))
                        for nid, party, name in _json_triples(
                            obj["inputs"], "inputs", "[id, party, name]")]
            c.outputs = [(_json_int(nid), _json_parties(aud),
                          _json_str(name))
                         for nid, aud, name in _json_triples(
                             obj["outputs"], "outputs", "[id, parties, name]")]
        except KeyError as ex:
            raise MalformedCircuitError(f"missing key {ex}") from ex
        except (TypeError, ValueError, AttributeError) as ex:
            raise MalformedCircuitError(str(ex)) from ex
        return c


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _json_shape(v, cls, shape: str):
    """`v`, if it is a `cls`; else a TypeError that says `shape`."""
    if not isinstance(v, cls):
        raise TypeError(shape)
    return v


def _json_triples(v, what: str, triple: str) -> list:
    """`v`, a list of lists of three, each `triple`."""
    shape = f"a circuit's {what} are a list of {triple} lists"
    for t in _json_shape(v, list, shape):
        if len(_json_shape(t, list, shape)) != 3:
            raise TypeError(shape)
    return v


def _json_int(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool):  # JSON true is no id
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _json_parties(v) -> frozenset:
    if not isinstance(v, list):
        raise TypeError(f"expected a list of parties, got {v!r}")
    return frozenset(map(_json_int, v))


def _json_str(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def meta_to_json(m: Meta) -> dict:
    match m:
        case PlainMeta(audience=None):
            return {"type": "plain"}
        case PlainMeta(audience=aud):
            return {"type": "plain", "audience": sorted(aud)}
        case EncMeta(provider=prov):
            return {"type": "enc", "provider": sorted(prov)}
        case SharedMeta(provider=prov, players=players, observers=obs,
                        threshold=t):
            return {"type": "shared", "provider": sorted(prov),
                    "players": sorted(players), "observers": sorted(obs),
                    "threshold": t}
    raise AssertionError(m)


def meta_from_json(obj: dict) -> Meta:
    """The metadata `meta_to_json` wrote. A badly shaped field raises
    TypeError, which `Circuit.from_json_obj` reports as malformed."""
    match _json_shape(obj, dict, "a node's meta is a JSON object")["type"]:
        case "plain":
            aud = obj.get("audience")
            return PlainMeta(_json_parties(aud) if aud is not None else None)
        case "enc":
            return EncMeta(_json_parties(obj["provider"]))
        case "shared":
            return SharedMeta(_json_parties(obj["provider"]),
                              _json_parties(obj["players"]),
                              _json_parties(obj["observers"]),
                              _json_int(obj["threshold"]))
    raise MalformedCircuitError(f"unknown meta type {obj['type']!r}")
