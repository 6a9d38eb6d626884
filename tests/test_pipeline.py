import dataclasses

import pytest

from conftest import build, corpus_source
from mpcc.backends.boolsim import interpret_bool
from mpcc.bitblast import bitblast
from mpcc.circuit import GateKind, Level
from mpcc.errors import MalformedCircuitError
from mpcc.pipeline import PipelineConfig, compile

BOOL4 = PipelineConfig(bitwidth=4, target_level=Level.BOOL)


def test_source_and_circuit_inputs_meet_the_same_passes():
    lowered = compile(corpus_source("matvec"), PipelineConfig(passes=[]))
    assert lowered.nodes == build("matvec").nodes
    optimized = compile(lowered, PipelineConfig())
    assert optimized.nodes == build("matvec", optimize=True).nodes
    assert compile(lowered, PipelineConfig(passes=[])).nodes == \
        lowered.nodes


def test_bitblast_runs_once_and_only_for_bool_targets():
    arith = compile(corpus_source("adder"), PipelineConfig(bitwidth=4))
    assert arith.level == Level.ARITH
    blasted = compile(corpus_source("adder"), BOOL4)
    assert blasted.level == Level.BOOL
    assert compile(arith, BOOL4).nodes == blasted.nodes
    raw4 = PipelineConfig(bitwidth=4, target_level=Level.BOOL, passes=[])
    assert compile(arith, raw4).nodes == bitblast(arith, 4, passes=[]).nodes
    # a bool circuit is not bitblasted again; its passes run at bool level
    again = compile(blasted, BOOL4)
    assert again.level == Level.BOOL
    assert len(again.nodes) <= len(blasted.nodes)


def test_a_given_circuit_is_bitblasted_at_its_own_width():
    adder16 = compile(corpus_source("adder"), PipelineConfig(bitwidth=16))
    for width in (4, 64):
        cfg = PipelineConfig(bitwidth=width, target_level=Level.BOOL)
        blasted = compile(adder16, cfg)
        assert blasted.bitwidth == 16
        assert len(blasted.inputs) == 2 * 16
        assert interpret_bool(blasted, {(1, "a"): 100, (2, "b"): 27}) == \
            {"out0": 127}


def test_a_given_circuit_is_validated():
    c = dataclasses.replace(build("pow8"), outputs=[(0, frozenset({1}), "x")])
    assert c.nodes[0].kind != GateKind.REVEAL
    with pytest.raises(MalformedCircuitError, match="not a reveal node"):
        compile(c, PipelineConfig())
