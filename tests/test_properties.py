import random as stdrandom

from hypothesis import assume, given, settings, strategies as st

from conftest import clear_or_refused
from mpcc.backends.clear import interpret_clear
from mpcc.backends.shares import PRIME, centered, reconstruct, share
from mpcc.circuit import GateKind, SharedMeta, combine_share_meta
from mpcc.estimator import critical_path
from mpcc.frontend import parse_source
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import const_fold, cse, dce, peephole, strength_reduce
from mpcc.sectypes import AdditiveShare, Generic
from mpcc.typecheck import check_program

owner_sets = st.frozensets(st.integers(0, 5), min_size=1, max_size=4)


@given(st.integers(0, PRIME - 1), st.integers(2, 8), st.integers())
@settings(max_examples=200)
def test_share_reconstruct_roundtrip(value, n, seed):
    rng = stdrandom.Random(seed)
    assert reconstruct(share(value, n, rng)) == value


@given(st.integers(-(10 ** 9), 10 ** 9))
def test_centered_lift_inverts_mod(v):
    assert centered(v % PRIME) == v


@given(owner_sets, owner_sets, owner_sets, owner_sets)
def test_combine_share_meta_commutative(p1, p2, o1, o2):
    players = frozenset(range(3))
    a = SharedMeta(p1, players, o1, 3)
    b = SharedMeta(p2, players, o2, 3)
    for scheme in (Generic(), AdditiveShare(3)):
        ab = combine_share_meta(a, b, scheme)
        ba = combine_share_meta(b, a, scheme)
        assert ab.provider == ba.provider
        assert ab.observers == ba.observers


@given(owner_sets, owner_sets, owner_sets)
def test_combine_share_meta_associative_observers(o1, o2, o3):
    players = frozenset(range(3))
    metas = [SharedMeta(frozenset({0}), players, o, 3)
             for o in (o1, o2, o3)]
    for scheme in (Generic(), AdditiveShare(3)):
        left = combine_share_meta(combine_share_meta(metas[0], metas[1],
                                                     scheme),
                                  metas[2], scheme)
        right = combine_share_meta(metas[0],
                                   combine_share_meta(metas[1], metas[2],
                                                      scheme), scheme)
        assert left.observers == right.observers


@st.composite
def small_programs(draw):
    seed = draw(st.integers(0, 10 ** 6))
    from proggen import random_program
    return random_program(seed)


@given(small_programs(), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=60, deadline=None)
def test_every_pass_preserves_cleartext_semantics(program, a, b):
    tp = check_program(program, Generic())
    c = lower_program(tp, LowerConfig())
    inputs = {(1, "a"): a, (2, "b"): b}
    expected = clear_or_refused(c, inputs)
    assume(expected is not None)  # a run outside the contract has no outputs
    for pass_fn in (const_fold, peephole, cse, dce, strength_reduce):
        out = pass_fn(c)
        assert len(out.nodes) <= len(c.nodes)
        assert interpret_clear(out, inputs) == expected


@given(st.integers(1, 64), st.integers(0, 63))
@settings(max_examples=80, deadline=None)
def test_private_index_depth_formula(length, raw_idx):
    import math
    src = (f"parties 1;\n"
           f"input xs : arr(int, {{1}}, {length}) from 1;\n"
           f"input i : int from 1;\n"
           f"output eval({{1}}, xs(i));\n")
    tp = check_program(parse_source(src), Generic())
    c = lower_program(tp, LowerConfig())
    assert critical_path(c, {GateKind.MUX: 1}) == math.ceil(math.log2(length))
    idx = raw_idx % length
    inputs = {(1, f"xs[{k}]"): 100 + k for k in range(length)}
    inputs[(1, "i")] = idx
    assert interpret_clear(c, inputs) == {"out0": 100 + idx}


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_reduce_tree_matches_fold(xs):
    src = (f"parties 1;\ninput xs : arr(int, {{1}}, {len(xs)}) from 1;\n"
           f"output eval({{1}}, reduce(+, xs));\n")
    tp = check_program(parse_source(src), Generic())
    c = lower_program(tp, LowerConfig())
    inputs = {(1, f"xs[{k}]"): v for k, v in enumerate(xs)}
    assert interpret_clear(c, inputs) == {"out0": sum(xs)}
