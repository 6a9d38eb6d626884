"""Every call the benchmark makes into mpcc, in one place.

Each function wraps one public mpcc call in a span of the tracer it is
given, so the traced run can time every layer from outside. A change to
mpcc's API is made here and nowhere else in the benchmark.

mpcc and its independent AST interpreter (`tests/astref.py`) are
imported from the checkout that holds this directory.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import astref  # noqa: E402
import proggen  # noqa: E402
from mpcc import optimizer  # noqa: E402
from mpcc.backends import boolsim, clear, gatelist, shares  # noqa: E402
from mpcc.bitblast import bitblast as _bitblast  # noqa: E402
from mpcc.circuit import GateKind  # noqa: E402
from mpcc.estimator import additive_model, arith_model, estimate  # noqa: E402
from mpcc.frontend import parse_source, pretty_print, tokenize  # noqa: E402
from mpcc.frontend import syntax as S  # noqa: E402
from mpcc.lowering import LowerConfig, lower_program  # noqa: E402
from mpcc.sectypes import AdditiveShare, Generic  # noqa: E402
from mpcc.typecheck import check_program  # noqa: E402

PARTIES = 3
SCHEMES = {"generic": Generic(), "additive": AdditiveShare(PARTIES)}
NONXOR_KINDS = frozenset({"AND", "OR", "MUX"})  # not free under free-XOR
TRIPLE_KINDS = frozenset({GateKind.MUL, GateKind.MUX})  # one triple each
ARITH_MODEL = arith_model()
ADDITIVE_MODEL = additive_model()


# -- reference side: no compiler code runs here --

# The shares backend computes in the field of p = 2^61 - 1 and lifts each
# result to (-p/2, p/2], so it represents only |v| < 2^60: below the
# 64-bit contract 2^(w-2) = 2^62.
SHARES_LIMIT = shares.PRIME // 2 + 1


class OutOfContract(Exception):
    """A reference value left the range its backends can represent: the
    input generator is wrong."""


def contract_limit(width: int, path: str) -> int:
    """The bound on |v| for every value of a w-bit program sent down
    `path`: the range contract |v| < 2^(w-2), tightened to the shares
    field for programs that run on the shares backend."""
    limit = 1 << (width - 2)
    return min(limit, SHARES_LIMIT) if path == "shares" else limit


class _CheckedRef(astref.RefInterp):
    """The AST interpreter, checking every value it computes against a
    bound on |v|."""

    def __init__(self, program, inputs, limit):
        super().__init__(program, inputs)
        self.limit = limit

    def eval(self, e, env, name=None):
        v = super().eval(e, env, name)
        if isinstance(v, int) and abs(v) >= self.limit:
            raise OutOfContract(f"reference value {v} at {type(e).__name__}"
                                f" leaves |v| < {self.limit}")
        return v


def reference_run(program, inputs: dict, width: int,
                  path: str = "word") -> dict[str, int]:
    """Outputs of `program` under the AST interpreter; raises
    OutOfContract when any intermediate leaves `contract_limit`."""
    return _CheckedRef(program, inputs, contract_limit(width, path)).run()


def random_program(seed: int):
    return proggen.random_program(seed)


def render(program) -> str:
    return pretty_print(program)


def parse_untimed(source: str):
    """Syntax tree for the reference interpreter, parsed during set-up."""
    return parse_source(source)


def input_keys(program) -> list[tuple[int, str]]:
    """The (party, name) keys a program reads, arrays as name[k]."""
    keys = []
    for st in program.main.stmts:
        if isinstance(st, S.ValDecl) and isinstance(st.init, S.InputExpr):
            if isinstance(st.ty, S.ArrType):
                keys += [(st.init.party, f"{st.name}[{k}]")
                         for k in range(st.ty.length.value)]
            else:
                keys.append((st.init.party, st.name))
    return keys


# -- compile stages --

def parse(tr, source: str):
    with tr.span("frontend.parse"):
        program = parse_source(source)
    if tr.active:
        tr.count("frontend.tokens", len(tokenize(source)))
    return program


def check(tr, program, scheme: str):
    with tr.span("typecheck.check"):
        return check_program(program, SCHEMES[scheme])


def lower(tr, typed, width: int, scheme: str):
    cfg = LowerConfig(bitwidth=width, scheme=SCHEMES[scheme])
    with tr.span("lowering.lower"):
        c = lower_program(typed, cfg)
    tr.count("lowering.nodes_out", len(c.nodes))
    return c


def optimize(tr, c, level: str):
    """Run the default pass list to its fixpoint; `level` names the span
    (`word` or `bool`)."""
    with tr.span(f"optimizer.{level}"):
        out = optimizer.run_passes(c)
    tr.count(f"optimizer.{level}_nodes_removed", len(c.nodes) - len(out.nodes))
    return out


def estimate_both(tr, c) -> tuple[int, float, float]:
    """(mul_depth under the arith model, predicted rounds and multicasts
    under the additive model)."""
    with tr.span("estimator.estimate"):
        depth = estimate(c, ARITH_MODEL).depth
    with tr.span("estimator.estimate"):
        totals = estimate(c, ADDITIVE_MODEL).totals
    return depth, float(totals["rounds"]), float(totals["multicasts"])


def bitblast(tr, c, width: int):
    with tr.span("bitblast"):
        b = _bitblast(c, width)
    tr.count("bitblast.nodes_out", len(b.nodes))
    return b


def emit(tr, b) -> str:
    with tr.span("gatelist.emit"):
        text = gatelist.emit_gatelist(b)
    tr.count("gatelist.bytes", len(text))
    return text


def node_count(c) -> int:
    return len(c.nodes)


def input_layout(b) -> list[tuple[int, str]]:
    """(party, name) of each input bit of a bool circuit, LSB first per
    word, in input-wire order."""
    return [(party, name) for _nid, party, name in b.inputs]


def output_names(b) -> list[str]:
    """Name of each output bit of a bool circuit, in output order."""
    return [name for _nid, _aud, name in b.outputs]


# -- backends --

def parse_gates(tr, text: str):
    with tr.span("gatelist.parse"):
        return gatelist.parse_gatelist(text)


def gate_counts(gl) -> tuple[int, int]:
    """(all gates, gates that are not free under free-XOR)."""
    return len(gl.gates), sum(k in NONXOR_KINDS for k, _i, _o in gl.gates)


def eval_gates(tr, gl, bits: list[int]) -> list[int]:
    with tr.span("gatelist.eval"):
        return gatelist.eval_gatelist(gl, bits)


def run_bool(tr, b, inputs: dict) -> dict[str, int]:
    with tr.span("boolsim.run"):
        return boolsim.interpret_bool(b, inputs)


def run_clear(tr, c, inputs: dict) -> dict[str, int]:
    interp = clear.ClearInterpreter(c)
    with tr.span("clear.run"):
        out = interp.run(inputs)
    tr.count("clear.gate_evaluations", interp.gate_evaluations)
    return out


def run_shares(tr, c, inputs: dict, seed: int) -> tuple[dict, dict]:
    """Outputs and the observed costs of one SharedSimulator run."""
    sim = shares.SharedSimulator(c, PARTIES, seed=seed)
    with tr.span("shares.run"):
        out = sim.run(inputs)
    t = sim.trace
    opens = Counter(context for context, _k in sim.open_log)
    useful = sum(n.kind in TRIPLE_KINDS for n in c.nodes)
    stats = {
        "rounds": t.rounds,
        "multicasts": t.multicasts,
        "triples_consumed": t.triples_consumed,
        # the offline phase builds every triple up front; what the online
        # phase did not take is left in the pool
        "triples_generated": t.triples_consumed + len(sim.triples),
        "triples_useful": useful,
        "bits_consumed": t.bits_consumed,
        "bits_generated": t.bits_consumed + len(sim.random_bits),
        "opens.reveal": opens["reveal"],
        "opens.beaver": opens["beaver-open"],
        "opens.comparison": opens["comparison"],
    }
    return out, stats


# -- instrumentation for the traced run only --

@contextlib.contextmanager
def instrumented(tr):
    """Wrap the optimizer's pass table, the offline phase and
    `make_triple` so the traced run sees inside those calls. Everything
    is restored on exit."""
    saved_passes = dict(optimizer.PASSES)
    saved_offline = shares.SharedSimulator.offline_phase
    saved_triple = shares.make_triple

    def wrap_pass(name, fn):
        def traced(*args):
            with tr.span(f"optimizer.pass.{name}"):
                return fn(*args)
        return traced

    def offline_phase(self):
        with tr.span("shares.offline"):
            return saved_offline(self)

    def make_triple(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return saved_triple(*args, **kwargs)
        finally:
            tr.tally("shares.make_triple", time.perf_counter() - t0)

    optimizer.PASSES.update({name: wrap_pass(name, fn)
                             for name, fn in saved_passes.items()})
    shares.SharedSimulator.offline_phase = offline_phase
    shares.make_triple = make_triple
    try:
        yield
    finally:
        optimizer.PASSES.clear()
        optimizer.PASSES.update(saved_passes)
        shares.SharedSimulator.offline_phase = saved_offline
        shares.make_triple = saved_triple
