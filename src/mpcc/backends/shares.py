"""n-out-of-n additive secret sharing over a prime field, with an
explicit offline phase (Beaver triples, random bits) feeding an online
gate-by-gate simulation.

The offline phase fixes every triple and every random bit by a seed
drawn from the simulator's generator, and a triple expands its share
vectors from that seed only when they are first read. An idealized
comparison burns its preprocessing without reading it, so only the
triples that Mul and Mux gates use are ever expanded.

All parties run inside one process, but their share tables are kept
separate: crossing them is only possible through `reconstruct`, and the
simulator logs every reconstruction with the context that performed it
(revealing an output, opening the masked Beaver values, or the idealized
comparison functionality). Comparisons never run a real bit-decomposition
protocol; they open the operands inside the functionality, compare, and
re-share the result bit, consuming the preprocessing budget a real
protocol would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..circuit import WORD_OPS, Circuit, GateKind, Level
from ..errors import (
    BudgetExceededError, IncompleteSharesError, LevelError,
    MuxSelectorError, PlayerMismatchError, TripleExhaustedError,
)
from ..estimator import (
    CostModel, additive_model, comparison_budget, estimate,
)
from .clear import bind_inputs

PRIME = (1 << 61) - 1

ROUNDS_PER_COMPARISON = 7
MULTICASTS_PER_COMPARISON = 7


def centered(v: int, p: int = PRIME) -> int:
    """Lift a field element to the integer in (-p/2, p/2]."""
    v %= p
    return v - p if v > p // 2 else v


@dataclass
class ShareVector:
    shares: list[int | None]
    players: frozenset
    threshold: int

    def __post_init__(self):
        if len(self.shares) != len(self.players):
            raise PlayerMismatchError(
                f"{len(self.shares)} shares for {len(self.players)} players")
        if self.threshold != len(self.players):
            raise PlayerMismatchError(
                "additive sharing is n-out-of-n: threshold must equal the "
                "player count")


def share(value: int, n: int, rng: random.Random,
          p: int = PRIME) -> ShareVector:
    """Split value into n additive shares: n-1 uniform, last one fixes
    the sum."""
    if n < 2:
        raise PlayerMismatchError("need at least 2 parties")
    parts = [rng.randrange(p) for _ in range(n - 1)]
    last = (value - sum(parts)) % p
    return ShareVector(parts + [last], frozenset(range(n)), n)


def reconstruct(sv: ShareVector, p: int = PRIME) -> int:
    if any(s is None for s in sv.shares):
        missing = [i for i, s in enumerate(sv.shares) if s is None]
        raise IncompleteSharesError(
            f"shares of players {missing} are missing; all {sv.threshold} "
            f"are required")
    return sum(sv.shares) % p


class BeaverTriple:
    """Shares of a, b and c = a*b mod p, fixed by `seed`: `.a`, `.b` and
    `.c` are expanded from it, all three at once, on the first read."""

    __slots__ = ("n", "seed", "p", "consumed", "_abc")

    def __init__(self, n: int, seed: int, p: int = PRIME):
        self.n = n
        self.seed = seed
        self.p = p
        self.consumed = False
        self._abc: tuple[ShareVector, ShareVector, ShareVector] | None = None

    @property
    def expanded(self) -> bool:
        return self._abc is not None

    def _shares(self) -> tuple[ShareVector, ShareVector, ShareVector]:
        if self._abc is None:
            rng, n, p = random.Random(self.seed), self.n, self.p
            a = rng.randrange(p)
            b = rng.randrange(p)
            self._abc = (share(a, n, rng, p), share(b, n, rng, p),
                         share(a * b % p, n, rng, p))
        return self._abc

    @property
    def a(self) -> ShareVector:
        return self._shares()[0]

    @property
    def b(self) -> ShareVector:
        return self._shares()[1]

    @property
    def c(self) -> ShareVector:
        return self._shares()[2]


def make_triple(n: int, rng: random.Random, p: int = PRIME) -> BeaverTriple:
    """A triple for n parties whose randomness is fixed now, by one seed
    drawn from `rng`."""
    if n < 2:
        raise PlayerMismatchError("need at least 2 parties")
    return BeaverTriple(n, rng.getrandbits(64), p)


def random_bit(n: int, seed: int, p: int = PRIME) -> ShareVector:
    """The shared uniform bit that an offline-phase seed stands for."""
    rng = random.Random(seed)
    return share(rng.randrange(2), n, rng, p)


def beaver_mul(x: ShareVector, y: ShareVector, t: BeaverTriple,
               p: int = PRIME, open=None) -> ShareVector:
    """One multiplication: open only the masked d = x-a and e = y-b
    (through `open`, which defaults to `reconstruct`), then combine
    c + d*b + e*a + d*e share-wise (the d*e constant lands on player 0)."""
    if open is None:
        def open(sv):
            return reconstruct(sv, p)
    if x.players != y.players or x.players != t.a.players:
        raise PlayerMismatchError("operands and triple must share players")
    if t.consumed:
        raise TripleExhaustedError("Beaver triple already consumed")
    t.consumed = True
    d = open(_masked(x, t.a, p))
    e = open(_masked(y, t.b, p))
    out = []
    for i in range(len(x.shares)):
        s = (t.c.shares[i] + d * t.b.shares[i] + e * t.a.shares[i]) % p
        if i == 0:
            s = (s + d * e) % p
        out.append(s)
    return ShareVector(out, x.players, x.threshold)


def _masked(x: ShareVector, mask: ShareVector, p: int) -> ShareVector:
    """x - mask, share by share; a missing share of x stays missing."""
    return ShareVector([None if s is None else (s - m) % p
                        for s, m in zip(x.shares, mask.shares)],
                       x.players, x.threshold)


@dataclass
class ExecTrace:
    rounds: int = 0
    multicasts: int = 0
    triples_consumed: int = 0
    bits_consumed: int = 0

    def to_json_obj(self):
        return {"rounds": self.rounds, "multicasts": self.multicasts,
                "triples_consumed": self.triples_consumed,
                "bits_consumed": self.bits_consumed}


class SharedSimulator:
    """Executes one validated word-level circuit under additive sharing."""

    def __init__(self, circuit: Circuit, n: int, seed: int = 0,
                 model: CostModel | None = None):
        if circuit.level != Level.ARITH:
            raise LevelError("the sharing simulator runs word-level circuits")
        if n < 2:
            raise PlayerMismatchError("need at least 2 parties")
        self.circuit = circuit
        self.n = n
        self.model = model or additive_model()
        self.p = self.model.prime_modulus or PRIME
        self.rng = random.Random(seed)
        self.players = frozenset(range(n))
        self.trace = ExecTrace()
        self.open_log: list[tuple[str, int]] = []
        self.triples: list[BeaverTriple] = []
        self.random_bits: list[int] = []  # seeds; see random_bit()

    # -- offline phase --

    def offline_phase(self):
        """Generate exactly the budget the estimator computes for the
        circuit: triples for multiplications and comparisons, random bits
        for comparisons. Each is fixed here by a seed from `self.rng`."""
        report = estimate(self.circuit, self.model)
        n_triples = math.ceil(report.triples)
        n_bits = math.ceil(report.random_bits)
        self.triples = [make_triple(self.n, self.rng, self.p)
                        for _ in range(n_triples)]
        self.random_bits = [self.rng.getrandbits(64) for _ in range(n_bits)]

    def take_triples(self, count: int) -> list[BeaverTriple]:
        """Take `count` triples off the pool in one slice."""
        pool = self.triples
        if count > len(pool):
            raise BudgetExceededError(
                "online phase needs more Beaver triples than the offline "
                "phase produced")
        start = len(pool) - count
        taken = pool[start:]
        del pool[start:]
        self.trace.triples_consumed += count
        return taken

    def take_bits(self, count: int):
        if count > len(self.random_bits):
            raise BudgetExceededError(
                "online phase needs more random bits than the offline phase "
                "produced")
        del self.random_bits[len(self.random_bits) - count:]
        self.trace.bits_consumed += count

    # -- share-table access --

    def open(self, sv: ShareVector, context: str) -> int:
        """The only way values cross party boundaries; every use is
        logged with its context."""
        self.open_log.append((context, len(self.open_log)))
        return reconstruct(sv, self.p)

    def public(self, value: int) -> ShareVector:
        shares = [value % self.p] + [0] * (self.n - 1)
        return ShareVector(shares, self.players, self.n)

    def local(self, fn, *svs: ShareVector) -> ShareVector:
        """Apply a per-party local operation share-wise."""
        shares = [fn(*(sv.shares[i] for sv in svs)) % self.p
                  for i in range(self.n)]
        return ShareVector(shares, self.players, self.n)

    # -- online phase --

    def multiply(self, x: ShareVector, y: ShareVector) -> ShareVector:
        [t] = self.take_triples(1)
        out = beaver_mul(x, y, t, self.p,
                         open=lambda sv: self.open(sv, "beaver-open"))
        self.trace.rounds += 1
        self.trace.multicasts += 2
        return out

    def compare(self, kind: GateKind, x: ShareVector,
                y: ShareVector) -> ShareVector:
        """Idealized comparison: operands are opened only inside this
        functionality, the result bit is re-shared, and the preprocessing
        cost of a real protocol is charged."""
        tpc, bpc = comparison_budget(self.model, self.circuit.bitwidth)
        self.take_triples(tpc)
        self.take_bits(bpc)
        self.trace.rounds += ROUNDS_PER_COMPARISON
        self.trace.multicasts += MULTICASTS_PER_COMPARISON
        a = centered(self.open(x, "comparison"), self.p)
        b = centered(self.open(y, "comparison"), self.p)
        return share(WORD_OPS[kind](a, b), self.n, self.rng, self.p)

    def run(self, inputs: dict[tuple[int, str], int]) -> dict[str, int]:
        c = self.circuit
        # the range contract |v| < 2^(w-2), capped by what centered() can
        # lift back out of the field: |v| < 2^60 for p = 2^61 - 1
        input_values = bind_inputs(
            c, inputs,
            min(c.bitwidth - 2, (self.p // 2 + 1).bit_length() - 1))
        self.offline_phase()
        table: list[ShareVector | None] = [None] * len(c.nodes)
        outputs: dict[str, int] = {}
        out_names = {nid: name for nid, _aud, name in c.outputs}
        for nid, node in enumerate(c.nodes):
            a = node.operands
            match node.kind:
                case GateKind.CONST:
                    sv = self.public(node.payload)
                case GateKind.INPUT:
                    sv = share(input_values[nid], self.n, self.rng, self.p)
                case GateKind.ADD | GateKind.SUB:
                    # additive shares are linear: each party adds or
                    # subtracts its own shares
                    sv = self.local(WORD_OPS[node.kind], table[a[0]],
                                    table[a[1]])
                case GateKind.MUL_PLAIN:
                    k = node.payload
                    sv = self.local(lambda u: u * k, table[a[0]])
                case GateKind.MUL:
                    sv = self.multiply(table[a[0]], table[a[1]])
                case GateKind.MUX:
                    # an ideal check, like compare's: it costs no round,
                    # multicast, triple or logged open
                    sel = reconstruct(table[a[0]], self.p)
                    if sel not in (0, 1):
                        raise MuxSelectorError(
                            f"mux selector {centered(sel, self.p)} is not "
                            f"a bit")
                    # sel*(t - e) + e needs a single multiplication
                    diff = self.local(lambda t, e: t - e, table[a[1]],
                                      table[a[2]])
                    prod = self.multiply(table[a[0]], diff)
                    sv = self.local(lambda m, e: m + e, prod, table[a[2]])
                case GateKind.LT | GateKind.LEQ | GateKind.EQ:
                    sv = self.compare(node.kind, table[a[0]], table[a[1]])
                case GateKind.REVEAL:
                    v = centered(self.open(table[a[0]], "reveal"), self.p)
                    if nid in out_names:
                        outputs[out_names[nid]] = v
                    sv = self.public(v)
                case _:
                    raise LevelError(f"{node.kind.value} in word-level "
                                     f"circuit")
            table[nid] = sv
        return outputs


def simulate_shared(circuit: Circuit, inputs: dict[tuple[int, str], int],
                    n: int, seed: int = 0,
                    model: CostModel | None = None
                    ) -> tuple[dict[str, int], ExecTrace]:
    sim = SharedSimulator(circuit, n, seed, model)
    outputs = sim.run(inputs)
    return outputs, sim.trace
