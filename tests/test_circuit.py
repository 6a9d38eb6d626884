import copy
import json
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build
from mpcc.circuit import (
    ARITH_KINDS, BOOL_KINDS, Circuit, EncMeta, GateKind, Level, Node, PLAIN,
    PlainMeta, SharedMeta, combine_meta, combine_share_meta, meta_from_json,
    meta_to_json,
)
from mpcc.errors import (
    ArityError, ForwardReferenceError, MalformedCircuitError,
    ShareMismatchError,
)
from mpcc.frontend import parse_source
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import run_passes
from mpcc.pipeline import PipelineConfig, compile
from mpcc.sectypes import AdditiveShare, Generic, owners
from mpcc.typecheck import check_program


def shared(provider, players, observers, threshold):
    return SharedMeta(owners(*provider), owners(*players),
                      owners(*observers), threshold)


def test_first_node_gets_id_zero():
    c = Circuit()
    assert c.add_node(GateKind.CONST, (), payload=5) == 0


def test_sequential_ids():
    c = Circuit()
    c.add_node(GateKind.CONST, (), payload=1)
    c.add_node(GateKind.CONST, (), payload=2)
    assert c.add_node(GateKind.ADD, (0, 1)) == 2


def test_forward_reference_rejected():
    c = Circuit()
    c.add_node(GateKind.CONST, (), payload=1)
    c.add_node(GateKind.CONST, (), payload=2)
    with pytest.raises(ForwardReferenceError):
        c.add_node(GateKind.ADD, (5, 0))


def test_arity_checked():
    c = Circuit()
    c.add_node(GateKind.CONST, (), payload=1)
    with pytest.raises(ArityError):
        c.add_node(GateKind.ADD, (0,))
    with pytest.raises(ArityError):
        c.add_node(GateKind.CONST, ())  # payload required
    with pytest.raises(ArityError, match="Reveal takes no payload"):
        c.add_node(GateKind.REVEAL, (0,), PlainMeta(owners(1)), payload=7)
    assert len(c.nodes) == 1


def test_const_input_and_reveal_serve_both_levels():
    assert ARITH_KINDS | BOOL_KINDS == set(GateKind)
    assert ARITH_KINDS & BOOL_KINDS == {GateKind.CONST, GateKind.INPUT,
                                        GateKind.REVEAL}


def test_a_bit_constant_is_0_or_1():
    bits = Circuit(Level.BOOL)
    for v in (0, 1, 2, -1):
        bits.add_node(GateKind.CONST, (), payload=v)
    assert bits.validate() == ["node 2: bit constant 2 is not 0 or 1",
                               "node 3: bit constant -1 is not 0 or 1"]
    words = Circuit()
    words.add_node(GateKind.CONST, (), payload=2)
    assert words.validate() == []


# -- share metadata combination --

def test_generic_observers_union():
    a = shared({1}, {1, 2, 3}, {1, 2}, 3)
    b = shared({2}, {1, 2, 3}, {2, 3}, 3)
    out = combine_share_meta(a, b, Generic())
    assert out.observers == owners(1, 2, 3)
    assert out.provider == owners(1, 2)


def test_additive_observers_intersection():
    a = shared({1}, {1, 2, 3}, {1, 2}, 3)
    b = shared({2}, {1, 2, 3}, {2, 3}, 3)
    out = combine_share_meta(a, b, AdditiveShare(3))
    assert out.observers == owners(2)


def test_additive_requires_n_out_of_n():
    a = shared({1}, {1, 2, 3}, {1}, 2)
    b = shared({2}, {1, 2, 3}, {2}, 2)
    with pytest.raises(ShareMismatchError) as exc:
        combine_share_meta(a, b, AdditiveShare(3))
    assert "players.size == threshold" in str(exc.value)


def test_player_mismatch_named():
    a = shared({1}, {1, 2}, {1}, 2)
    b = shared({2}, {2, 3}, {2}, 2)
    with pytest.raises(ShareMismatchError) as exc:
        combine_share_meta(a, b, Generic())
    assert "players differ" in str(exc.value)


def test_combine_commutative():
    a = shared({1}, {1, 2, 3}, {1, 2}, 3)
    b = shared({2}, {1, 2, 3}, {2, 3}, 3)
    for scheme in (Generic(), AdditiveShare(3)):
        ab = combine_share_meta(a, b, scheme)
        ba = combine_share_meta(b, a, scheme)
        assert ab == ba


def test_combine_enc_meta_is_the_union():
    one, both = EncMeta(owners(1)), EncMeta(owners(1, 2))
    assert combine_meta(one, EncMeta(owners(2))) == both


# -- the value types --

def sample_values():
    """A node and one metadata object of each class, with their fields."""
    return [(Node(GateKind.MUL_PLAIN, (0,), EncMeta(owners(1)), 3),
             ("kind", "operands", "meta", "payload")),
            (PlainMeta(owners(1)), ("audience",)),
            (EncMeta(owners(1)), ("provider",)),
            (shared({1}, {1, 2}, {2}, 2),
             ("provider", "players", "observers", "threshold"))]


@pytest.mark.parametrize("value, fields", sample_values())
def test_fields_refuse_assignment_and_deletion(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1  # no field can be added either


def test_metadata_of_different_classes_is_never_equal():
    s = owners(1, 2)
    assert PlainMeta(s) != EncMeta(s)
    assert not PlainMeta(s) == EncMeta(s)
    assert EncMeta(s) != (s,)  # nor equal to the tuple it is built on
    assert len({PlainMeta(s), EncMeta(s)}) == 2


def test_metadata_built_separately_is_equal_and_hashes_equal():
    for make in (lambda: PlainMeta(), lambda: PlainMeta(owners(1, 2)),
                 lambda: EncMeta(owners(3)),
                 lambda: shared({1}, {1, 2, 3}, {2, 3}, 3)):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert EncMeta(owners(1)) != EncMeta(owners(2))
    assert shared({1}, {1, 2}, {2}, 2) != shared({1}, {1, 2}, {2}, 1)


def test_nodes_are_equal_and_hash_by_value():
    a = Node(GateKind.ADD, (0, 1), EncMeta(owners(1)))
    b = Node(GateKind.ADD, (0, 1), EncMeta(owners(1)))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert Node(GateKind.ADD, (1, 0), EncMeta(owners(1))) != a
    assert Node(GateKind.ADD, (0, 1), PlainMeta(owners(1))) != a
    assert Node(GateKind.CONST, (), PLAIN, 0) != Node(GateKind.CONST, (),
                                                      PLAIN, 1)
    assert a != (a.kind, a.operands, a.meta, a.payload)
    assert repr(a) == ("Node(kind=<GateKind.ADD: 'Add'>, operands=(0, 1), "
                       "meta=EncMeta(provider=frozenset({1})), payload=None)")


def test_circuits_copy_and_pickle_by_value():
    c = build("auction", bitwidth=16, scheme="additive")
    for other in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert other.nodes == c.nodes
        assert other.to_json() == c.to_json()


# -- validation --

def test_empty_circuit_validates():
    assert Circuit().validate() == []


def test_level_purity_violation():
    from mpcc.circuit import Node
    c = Circuit(Level.BOOL)
    c.add_node(GateKind.INPUT, ())
    c.add_node(GateKind.INPUT, ())
    c.add_node(GateKind.AND, (0, 1))
    # sneak a word-level gate past add_node's checks
    c.nodes.append(Node(GateKind.MUL, (0, 1), PLAIN, None))
    violations = c.validate()
    assert any("not allowed at level bool" in v for v in violations)


def test_output_must_be_reveal():
    c = Circuit()
    c.add_node(GateKind.CONST, (), payload=1)
    c.add_output(0, owners(1), "x")
    assert any("not a reveal" in v for v in c.validate())
    c2 = Circuit()
    c2.add_node(GateKind.CONST, (), payload=1)
    c2.add_node(GateKind.REVEAL, (0,), PlainMeta(owners(1)))
    c2.add_output(1, owners(1), "x")
    assert c2.validate() == []


def test_lowered_corpus_circuits_validate():
    for name in ("gcd", "auction", "mergesort", "sum8"):
        assert build(name, bitwidth=16).validate() == []


def test_topological_order_is_identity():
    # the backends evaluate in id order, so operands precede their users
    c = build("gcd", bitwidth=16)
    for nid, node in enumerate(c.nodes):
        for o in node.operands:
            assert o < nid


# -- serialization --

def test_json_round_trip_bit_exact():
    for name in ("gcd", "auction", "pow8"):
        c = build(name, bitwidth=16, scheme="additive")
        text = c.to_json()
        c2 = Circuit.from_json_obj(json.loads(text))
        assert c2.to_json() == text
        assert c2.nodes == c.nodes
        assert c2.outputs == c.outputs


def test_to_json_peak_memory_is_a_small_multiple_of_the_text():
    src = "parties 1;\ninput x : int from 1;\noutput eval({1}, pow(x, 4));\n"
    c = compile(src, PipelineConfig(bitwidth=16, target_level=Level.BOOL,
                                    passes=[]))
    tracemalloc.start()
    try:
        text = c.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == len(c.nodes) + 2  # one line per node
    assert peak < 4 * len(text)  # a dict per node held at once was 10x
    assert Circuit.from_json_obj(json.loads(text)).nodes == c.nodes


def test_meta_json_forms():
    metas = [PLAIN, PlainMeta(owners(1, 2)), EncMeta(owners(3)),
             shared({1}, {1, 2}, {2}, 2)]
    for m in metas:
        assert meta_from_json(meta_to_json(m)) == m


def test_ids_must_match_positions():
    c = build("pow8")
    obj = c.to_json_obj()
    obj["nodes"][0]["id"] = 7
    with pytest.raises(ForwardReferenceError):
        Circuit.from_json_obj(obj)


def drop_nodes(obj):
    del obj["nodes"]


def set_level_mixed(obj):
    obj["level"] = "mixed"


def set_bad_kind(obj):
    obj["nodes"][1]["kind"] = "Frobnicate"


def set_text_operand(obj):
    obj["nodes"][-1]["operands"] = ["0"]


def set_unknown_meta(obj):
    obj["nodes"][0]["meta"] = {"type": "secret"}


def set_gate_meta_unknown(obj):
    # a gate's metadata loads as plain, but its shape is still checked
    next(n for n in obj["nodes"] if n["kind"] == "Mul")["meta"] = {
        "type": "secret"}


def set_short_input(obj):
    obj["inputs"][0] = obj["inputs"][0][:2]


def set_node_to_list(obj):
    obj["nodes"][0] = [0, "Input"]


@pytest.mark.parametrize("breakage", [
    drop_nodes, set_level_mixed, set_bad_kind, set_text_operand,
    set_unknown_meta, set_gate_meta_unknown, set_short_input,
    set_node_to_list])
def test_malformed_json_raises_one_error_type(breakage):
    obj = build("pow8").to_json_obj()
    breakage(obj)
    with pytest.raises(MalformedCircuitError):
        Circuit.from_json_obj(obj)


def json_spots(obj, path=()):
    """The path of every value in a JSON tree, the root's () included."""
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from json_spots(value, path + (key,))


# circuits with plain, audience, encrypted and shared metadata
FUZZ_SOURCES = [build("auction", bitwidth=16).to_json_obj(),
                build("auction", bitwidth=16, scheme="additive").to_json_obj()]
odd_json = st.sampled_from([
    None, True, -1, 1.5, 1 << 70, "x", "", [], {}, [1, "x"], ["1"], [[1]],
    [None], {"type": "secret"}, {"type": "enc", "provider": "12"},
    {"type": "shared", "provider": [1]}]).map(copy.deepcopy)  # fresh


@st.composite
def broken_circuit_json(draw):
    """A corpus circuit's `to_json_obj` with one to three breakages, each
    at a drawn spot: the key or element there dropped, or an odd value put
    in its place. Spots are drawn by region, so that the few top-level
    keys are drawn as often as the many node fields, and metadata
    fields, which hold the most shapes, twice as often."""
    obj = copy.deepcopy(draw(st.sampled_from(FUZZ_SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        spots = list(json_spots(obj))
        metas = [p for p in spots if len(p) > 2 and p[2] == "meta"]
        regions = [[p for p in spots if len(p) <= 1],
                   [p for p in spots if p[:1] in (("inputs",), ("outputs",))],
                   [p for p in spots if p[:1] == ("nodes",)], metas, metas]
        path = draw(st.sampled_from(draw(st.sampled_from(
            [r for r in regions if r]))))
        if not path:
            return draw(odd_json)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(odd_json)
    return obj


PYTHON_WORDS = re.compile(r"'(dict|list|str|int|float|bool|NoneType)'|"
                          r"attribute|subscriptable|iterable|unpack|indices")


@given(broken_circuit_json())
@settings(max_examples=500, deadline=None)
def test_circuit_loader_fails_only_with_malformed_circuit_error(obj):
    try:
        c = Circuit.from_json_obj(obj)
    except MalformedCircuitError as ex:
        # the message names the shape it wanted, not a Python object
        assert not PYTHON_WORDS.search(str(ex)), ex
        return
    # what loads can be checked and written back
    assert isinstance(c.validate(), list)
    assert Circuit.from_json_obj(
        json.loads(c.to_json())).to_json() == c.to_json()


def test_validate_refuses_a_share_provider_that_is_not_a_player():
    # lowering reads its scheme from its config, not from the checked
    # program, so a party-2 input under 2-party sharing can be built
    src = "parties 0, 1, 2;\ninput x : int from 2;\noutput eval({2}, x);\n"
    c = lower_program(check_program(parse_source(src), Generic()),
                      LowerConfig(16, AdditiveShare(2)))
    assert c.validate(AdditiveShare(2)) == [
        "node 0: provider [2] not among players [0, 1]"]


def circuit_file(nodes, outputs):
    """The circuit JSON of word `nodes`, each (kind, operands, meta,
    payload), under inputs x of party 1 and y of party 2 at nodes 0, 1."""
    return {"level": "arith", "bitwidth": 16,
            "nodes": [{"id": nid, "kind": kind, "operands": ops, "meta": meta,
                       "payload": payload}
                      for nid, (kind, ops, meta, payload) in enumerate(nodes)],
            "inputs": [[0, 1, "x"], [1, 2, "y"]], "outputs": outputs}


PLAIN_JSON = {"type": "plain"}


def test_validate_finds_a_share_mismatch_behind_plain_gates():
    # x + 1 and y + 1 are plain in the file; their sum mixes x's
    # encryption with y's sharing
    c = Circuit.from_json_obj(circuit_file([
        ("Input", [], {"type": "enc", "provider": [1]}, None),
        ("Input", [], meta_to_json(shared({2}, {1, 2, 3}, {1, 2, 3}, 3)),
         None),
        ("Const", [], PLAIN_JSON, 1),
        ("Add", [0, 2], PLAIN_JSON, None),
        ("Add", [1, 2], PLAIN_JSON, None),
        ("Add", [3, 4], PLAIN_JSON, None),
        ("Reveal", [5], {"type": "plain", "audience": [1]}, None),
    ], [[6, [1], "z"]]))
    assert c.validate() == [
        "node 5: cannot mix encrypted and shared metadata"]


def test_a_gate_loads_plain_whatever_metadata_its_file_stores():
    # two Add(x, y) that differ only in stored metadata are one gate
    c = Circuit.from_json_obj(circuit_file([
        ("Input", [], {"type": "enc", "provider": [1]}, None),
        ("Input", [], {"type": "enc", "provider": [2]}, None),
        ("Add", [0, 1], {"type": "enc", "provider": [1, 2]}, None),
        ("Add", [0, 1], {"type": "enc", "provider": [1]}, None),
        ("Mul", [2, 3], PLAIN_JSON, None),
        ("Reveal", [4], {"type": "plain", "audience": [1, 2]}, None),
    ], [[5, [1, 2], "z"]]))
    assert [n.meta for n in c.nodes if n.kind is GateKind.ADD] == [PLAIN] * 2
    assert c.validate() == []
    assert run_passes(c).counts()[GateKind.ADD] == 1


def test_validate_checks_input_list_against_input_nodes():
    c = Circuit.from_json_obj(build("pow8").to_json_obj())  # a fresh copy
    assert c.validate() == []
    c.inputs.append((len(c.nodes) - 1, 1, "r"))
    assert c.validate() == [f"input id {len(c.nodes) - 1} is not an input "
                            f"node"]
    nid = c.inputs[0][0]
    c.inputs = c.inputs[1:-1]
    assert c.validate() == [f"node {nid}: input missing from inputs"]
