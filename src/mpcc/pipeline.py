"""The one compile path: parse -> check -> lower -> optimize -> bitblast.

`compile` is the only code that runs these stages in sequence; the CLI
and the tests both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitblast import bitblast
from .circuit import Circuit, Level
from .errors import MalformedCircuitError
from .frontend import parse_source
from .lowering import LowerConfig, lower_program
from .optimizer import run_passes
from .sectypes import Scheme, Generic
from .typecheck import check_program


@dataclass
class PipelineConfig:
    scheme: Scheme = Generic()
    bitwidth: int = 64
    target_level: Level = Level.ARITH
    passes: list[str] | None = None  # None = DEFAULT_PASSES, [] = none


def compile(source: str | Circuit, cfg: PipelineConfig) -> Circuit:
    """Compile program text, or take an already lowered circuit, to a
    circuit at cfg.target_level.

    Passes run at the level the circuit has before bitblasting: word
    level for source, bool level for a bool circuit. Bitblast emits
    through the pass list's local rules: the bool fixpoint, or the raw
    circuit when the list is empty. cfg.bitwidth applies to source only:
    a given circuit keeps its own width. Raises MalformedCircuitError if
    a given circuit is not well-formed.
    """
    if isinstance(source, Circuit):
        c = source
        violations = c.validate(cfg.scheme)
        if violations:
            raise MalformedCircuitError("; ".join(violations))
    else:
        tp = check_program(parse_source(source), cfg.scheme)
        c = lower_program(tp, LowerConfig(cfg.bitwidth, cfg.scheme))
    c = run_passes(c, cfg.passes)
    if cfg.target_level == Level.BOOL and c.level == Level.ARITH:
        c = bitblast(c, passes=cfg.passes)
    return c
