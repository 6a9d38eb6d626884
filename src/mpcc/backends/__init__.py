"""The backend table. `BACKENDS` maps a name to a `Backend`: the level of
circuit it runs, and `run(c, inputs, parties, seed) -> (outputs, trace
or None)`. `mpcc run --backend NAME` compiles to that level and calls
that `run`; the CLI reads no other list of backends."""

from typing import Callable, NamedTuple

from ..circuit import Level, contract_log
from .boolsim import interpret_bool
from .clear import bind_inputs, interpret_clear
from .shares import simulate_shared


class Backend(NamedTuple):
    level: Level
    run: Callable


def run_bool(c, inputs, parties, seed):
    bind_inputs(c, inputs, contract_log(c.bitwidth))  # the range contract
    return interpret_bool(c, inputs), None


BACKENDS = {
    "clear": Backend(Level.ARITH, lambda c, inputs, parties, seed:
                     (interpret_clear(c, inputs), None)),
    "bool": Backend(Level.BOOL, run_bool),
    "shares": Backend(Level.ARITH, simulate_shared),
}
