"""Resource estimation: per-gate cost totals, the weighted depth and the
offline-phase budgets of a circuit under a `CostModel`.

A `CostModel` describes what a protocol costs: a price per gate kind and a
depth weight per gate kind. It does not configure a backend.
`finish_rounds` is the only code that decides which round a gate finishes
in. `critical_path` reads its last round with no list per round; the
shares backend runs it, grouped by `layered_schedule`, under
`additive_model()`, so under that model the estimated `depth` is the round
count of its trace. The offline budget is the shares protocol's own: one
Beaver triple per Mul or Mux and `comparison_budget` per comparison,
whatever the model. Costs are exact rationals so reports never drift.
`load_model` loads built-ins only, the `models/` files named in
`BUILTIN_MODELS`; the CLI reads a user's file for `model_from_json_obj`.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import (
    CONST, EQ, INPUT, LT, MUL, MUX, REVEAL, Circuit, GateKind, Level,
)
from .errors import ModelCoverageError, ObjectiveMissingError

# structurally free node kinds, excluded from gate counts
ZERO_COST_KINDS = frozenset({CONST, INPUT})

COMPARISON_KINDS = frozenset({LT, EQ})
TRIPLE_KINDS = frozenset({MUL, MUX})


@dataclass
class CostModel:
    name: str
    gate_costs: dict[GateKind, dict[str, Fraction]]
    depth_weights: dict[GateKind, int] = field(default_factory=dict)

    def resources(self) -> set[str]:
        out: set[str] = set()
        for costs in self.gate_costs.values():
            out |= set(costs)
        return out


@dataclass
class ResourceReport:
    model_name: str
    totals: dict[str, Fraction]
    gate_counts: dict[GateKind, int]
    depth: int
    triples: Fraction
    random_bits: Fraction

    def to_json_obj(self) -> dict:
        return {
            "model": self.model_name,
            "totals": {k: _num(v) for k, v in sorted(self.totals.items())},
            "gate_counts": {k.value: v for k, v in
                            sorted(self.gate_counts.items(),
                                   key=lambda kv: kv[0].value)},
            "depth": self.depth,
            "preprocessing": {"triples": _num(self.triples),
                              "random_bits": _num(self.random_bits)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def _num(x: Fraction):
    return int(x) if x.denominator == 1 else float(x)


def finish_rounds(c: Circuit, depth_weights: dict[GateKind, int]
                  ) -> list[int]:
    """Each gate's finish round: its depth weight in rounds after its last
    operand (after round 0 if it has none). A Reveal that no gate reads
    gets -1: delivering an output ends no path, so it takes no round."""
    read = {o for node in c.nodes for o in node.operands}
    done = [-1] * len(c.nodes)
    for nid, node in enumerate(c.nodes):
        kind, ops = node.kind, node.operands
        if kind is not REVEAL or nid in read:
            r = max(map(done.__getitem__, ops)) if ops else 0
            done[nid] = r + depth_weights.get(kind, 0)
    return done


def layered_schedule(c: Circuit, depth_weights: dict[GateKind, int]
                     ) -> tuple[list[list[int]], list[int]]:
    """`finish_rounds` as layers: layer r lists, in id order, the gates
    that finish in round r, and layer 0 always exists. The second list
    holds the Reveals that no gate reads, which sit in no layer."""
    done = finish_rounds(c, depth_weights)
    layers: list[list[int]] = [[] for _ in range(max(done, default=0) + 1)]
    for nid, r in enumerate(done):
        if r >= 0:
            layers[r].append(nid)
    return layers, [nid for nid, r in enumerate(done) if r < 0]


def critical_path(c: Circuit, depth_weights: dict[GateKind, int]) -> int:
    """Longest weighted path: the last round of the layered schedule, so
    under a protocol's model it is that protocol's round count."""
    return max(finish_rounds(c, depth_weights), default=0)


def comparison_budget(bitwidth: int) -> tuple[int, int]:
    """(triples, random bits) one comparison takes: 20 * bitwidth
    triples and bitwidth random bits."""
    return 20 * bitwidth, bitwidth


def preprocessing(c: Circuit) -> tuple[int, int]:
    """(Beaver triples, random bits) of the shares backend's offline
    phase: one triple per Mul or Mux and `comparison_budget` per
    comparison."""
    return _preprocessing(c.counts(), c.bitwidth)


def _preprocessing(kinds: Counter, bitwidth: int) -> tuple[int, int]:
    """`preprocessing` from the circuit's count of each kind."""
    tpc, bpc = comparison_budget(bitwidth)
    n_comparisons = sum(kinds[k] for k in COMPARISON_KINDS)
    return (sum(kinds[k] for k in TRIPLE_KINDS) + tpc * n_comparisons,
            bpc * n_comparisons)


def estimate(c: Circuit, model: CostModel) -> ResourceReport:
    """Price each kind once, count times cost. The first kind in node
    order that `model` does not price raises ModelCoverageError."""
    kinds = c.counts()
    counts: dict[GateKind, int] = {}
    totals: dict[str, Fraction] = {r: Fraction(0) for r in model.resources()}
    for kind, n in kinds.items():  # first-seen order
        if kind not in model.gate_costs:
            raise ModelCoverageError(
                f"model {model.name!r} does not price {kind.value}")
        if kind in ZERO_COST_KINDS:
            continue
        counts[kind] = n
        for resource, cost in model.gate_costs[kind].items():
            totals[resource] += n * cost
    triples, bits = _preprocessing(kinds, c.bitwidth)
    return ResourceReport(
        model_name=model.name,
        totals=totals,
        gate_counts=counts,
        depth=critical_path(c, model.depth_weights),
        triples=Fraction(triples),
        random_bits=Fraction(bits),
    )


def rank_backends(c: Circuit, models: list[CostModel],
                  objective: str) -> list[tuple[str, Fraction]]:
    """Order models by their total for one shared resource, ascending;
    ties break on the model name."""
    ranked = []
    for model in models:
        report = estimate(c, model)
        if objective not in report.totals:
            raise ObjectiveMissingError(
                f"model {model.name!r} does not measure {objective!r}")
        ranked.append((model.name, report.totals[objective]))
    ranked.sort(key=lambda pair: (pair[1], pair[0]))
    return ranked


# -- cost model files --

MODEL_KEYS = ("name", "gate_costs", "depth_weights")
BUILTIN_MODELS = ("arith", "additive", "boolean")
MODELS_DIR = pathlib.Path(__file__).parent / "models"


def model_from_json_obj(obj) -> CostModel:
    """The `CostModel` a model file's parsed JSON describes. Any other
    shape raises ModelCoverageError with a one-line message."""
    if not isinstance(obj, dict):
        raise ModelCoverageError("a cost model is a JSON object")
    name, gate_costs = obj.get("name"), obj.get("gate_costs")
    depth_weights = obj.get("depth_weights", {})
    if not (isinstance(name, str) and isinstance(gate_costs, dict)
            and isinstance(depth_weights, dict)
            and all(isinstance(c, dict) for c in gate_costs.values())):
        raise ModelCoverageError(
            "a cost model has a string name and gate_costs, an object of "
            "cost objects, and may have depth_weights, an object of integers")
    unknown = sorted(set(obj) - set(MODEL_KEYS))
    if unknown:
        raise ModelCoverageError(
            f"model {name!r} sets {', '.join(map(repr, unknown))}; a cost "
            f"model has only {', '.join(MODEL_KEYS)}")

    def to_kind(kind: str) -> GateKind:
        try:
            return GateKind(kind)
        except ValueError:
            raise ModelCoverageError(f"unknown gate kind {kind!r} in model "
                                     f"{name!r}") from None

    def frac(v) -> Fraction:
        if isinstance(v, str) and not re.fullmatch(r"\d+(\.\d+)?|\d+/\d+", v):
            # Fraction would expand an exponent string ("1e10000000") in full
            raise ModelCoverageError(f"cost {v!r} is not a decimal or a/b")
        try:
            f = Fraction(str(v))
        except (ValueError, ZeroDivisionError):  # true, null, [], NaN, 1/0
            raise ModelCoverageError(f"cost {v!r} is not a number") from None
        if f < 0:
            raise ModelCoverageError("costs must be nonnegative")
        return f

    def weight(w) -> int:
        if type(w) is not int or w < 0:
            raise ModelCoverageError(
                f"depth weight {w!r} is not a nonnegative integer")
        return w

    return CostModel(
        name=name,
        gate_costs={to_kind(k): {r: frac(v) for r, v in costs.items()}
                    for k, costs in gate_costs.items()},
        depth_weights={to_kind(k): weight(w)
                       for k, w in depth_weights.items()},
    )


@functools.cache
def _builtin_json(name: str) -> dict:
    return json.loads((MODELS_DIR / f"{name}.json").read_text("utf-8"))


def load_model(name: str) -> CostModel:
    """A new `CostModel` of the built-in `name`, one of `BUILTIN_MODELS`,
    from its file in `models/`; this module opens no other file."""
    if name not in BUILTIN_MODELS:
        raise ValueError(f"no built-in cost model {name!r}")
    return model_from_json_obj(_builtin_json(name))


def arith_model() -> CostModel:
    return load_model("arith")


def additive_model() -> CostModel:
    return load_model("additive")


def boolean_model() -> CostModel:
    return load_model("boolean")


def default_model_for(c: Circuit) -> CostModel:
    return boolean_model() if c.level == Level.BOOL else arith_model()
