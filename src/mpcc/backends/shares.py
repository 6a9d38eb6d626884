"""n-out-of-n additive secret sharing over the field of `PRIME`, with an
explicit offline phase (Beaver triples, random bits) feeding an online
phase that runs round by round. The protocol is fixed: it takes no cost
model, and `estimator.additive_model()` describes what it costs.

The offline phase generates `estimator.preprocessing(c)`, fixing every
triple and every random bit by a seed drawn from the simulator's
generator; a triple expands its share vectors from that seed only when
they are first read. An idealized comparison burns its preprocessing
without reading it, so only the triples that Mul and Mux gates use are
ever expanded.

The online phase runs `estimator.layered_schedule` under the additive
model's depth weights, layer by layer: a gate finishes 1 round after its
last operand for Mul and Mux, 7 for Lt, 10 for Eq, 1 for a Reveal that
another gate reads and none for a local gate. A Reveal that only
delivers an output is opened after the last round.
`estimate(c, additive_model()).depth` reads the same schedule, so it is
the trace's round count. Every masked Beaver value of a round goes out
in one batched open, and each round is one multicast, as in SPDZ
(Damgard et al., CRYPTO 2012).

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

import random
from dataclasses import dataclass, field

from ..circuit import (
    ADD, CONST, INPUT, MUL, MUL_PLAIN, MUX, REVEAL, SUB, WORD_OPS, Circuit,
    GateKind, Level, contract_log,
)
from ..errors import (
    BudgetExceededError, IncompleteSharesError, LevelError,
    MuxSelectorError, PlayerMismatchError, TripleExhaustedError,
)
from ..estimator import (
    COMPARISON_KINDS, additive_model, comparison_budget, layered_schedule,
    preprocessing,
)
from .clear import bind_inputs

PRIME = (1 << 61) - 1
# the additive model's depth weights, by which the online phase is run
DEPTH_WEIGHTS = additive_model().depth_weights


def centered(v: int) -> int:
    """Lift a field element to the integer in (-PRIME/2, PRIME/2]."""
    v %= PRIME
    return v - PRIME if v > PRIME // 2 else v


@dataclass
class ShareVector:
    """One share per player: n-out-of-n, so every share is needed."""
    shares: list[int | None]


def share(value: int, n: int, rng: random.Random) -> ShareVector:
    """Split value into n additive shares: n-1 uniform, last one fixes
    the sum."""
    if n < 2:
        raise PlayerMismatchError("need at least 2 parties")
    parts = [rng.randrange(PRIME) for _ in range(n - 1)]
    last = (value - sum(parts)) % PRIME
    return ShareVector(parts + [last])


def reconstruct(sv: ShareVector) -> int:
    if any(s is None for s in sv.shares):
        missing = [i for i, s in enumerate(sv.shares) if s is None]
        raise IncompleteSharesError(
            f"shares of players {missing} are missing; all "
            f"{len(sv.shares)} are required")
    return sum(sv.shares) % PRIME


class BeaverTriple:
    """Shares of a, b and c = a*b mod PRIME, fixed by `seed`: `.a`, `.b`
    and `.c` are expanded from it, all three at once, on the first read."""

    __slots__ = ("n", "seed", "consumed", "_abc")

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.consumed = False
        self._abc: tuple[ShareVector, ShareVector, ShareVector] | None = None

    @property
    def expanded(self) -> bool:
        return self._abc is not None

    def _shares(self) -> tuple[ShareVector, ShareVector, ShareVector]:
        if self._abc is None:
            rng, n = random.Random(self.seed), self.n
            a = rng.randrange(PRIME)
            b = rng.randrange(PRIME)
            self._abc = (share(a, n, rng), share(b, n, rng),
                         share(a * b % PRIME, n, rng))
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


def make_triple(n: int, rng: random.Random) -> BeaverTriple:
    """A triple for n parties whose randomness is fixed now, by one seed
    drawn from `rng`."""
    if n < 2:
        raise PlayerMismatchError("need at least 2 parties")
    return BeaverTriple(n, rng.getrandbits(64))


def random_bit(n: int, seed: int) -> ShareVector:
    """The shared uniform bit that an offline-phase seed stands for."""
    rng = random.Random(seed)
    return share(rng.randrange(2), n, rng)


def beaver_masks(x: ShareVector, y: ShareVector, t: BeaverTriple
                 ) -> tuple[ShareVector, ShareVector]:
    """The first half of a Beaver multiplication: use up `t` and return
    the shares of d = x-a and e = y-b, the only values it opens."""
    if not len(x.shares) == len(y.shares) == t.n:
        raise PlayerMismatchError("operands and triple must share players")
    if t.consumed:
        raise TripleExhaustedError("Beaver triple already consumed")
    t.consumed = True
    return _masked(x, t.a), _masked(y, t.b)


def beaver_combine(t: BeaverTriple, d: int, e: int) -> ShareVector:
    """The second half of a Beaver multiplication: shares of x*y from the
    opened d and e, c + d*b + e*a + d*e share-wise (the d*e constant
    lands on player 0)."""
    a, b, c = t.a, t.b, t.c
    out = [(c.shares[i] + d * b.shares[i] + e * a.shares[i]) % PRIME
           for i in range(len(c.shares))]
    out[0] = (out[0] + d * e) % PRIME
    return ShareVector(out)


def _masked(x: ShareVector, mask: ShareVector) -> ShareVector:
    """x - mask, share by share; a missing share of x stays missing."""
    return ShareVector([None if s is None else (s - m) % PRIME
                        for s, m in zip(x.shares, mask.shares)])


@dataclass
class ExecTrace:
    """What an online phase used. `per_round` has one entry per round:
    how many values that round opened, by context. Each round is one
    multicast. A Reveal that only delivers an output is opened after the
    last round and counted in `output_reveals`."""
    triples_consumed: int = 0
    bits_consumed: int = 0
    per_round: list[dict[str, int]] = field(default_factory=list)
    output_reveals: int = 0

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    @property
    def multicasts(self) -> int:
        return len(self.per_round)

    def summary(self) -> dict[str, int]:
        return {"rounds": self.rounds, "multicasts": self.multicasts,
                "triples_consumed": self.triples_consumed,
                "bits_consumed": self.bits_consumed}

    def to_json_obj(self):
        return {**self.summary(),
                "per_round": [{"round": r, **opens}
                              for r, opens in enumerate(self.per_round, 1)],
                "output_reveals": self.output_reveals}


# open_log context -> its key in a per-round trace entry
ROUND_KEYS = {"reveal": "reveal", "beaver-open": "beaver",
              "comparison": "comparison"}


class SharedSimulator:
    """Executes one validated word-level circuit under additive sharing."""

    def __init__(self, circuit: Circuit, n: int, seed: int = 0):
        if circuit.level != Level.ARITH:
            raise LevelError("the sharing simulator runs word-level circuits")
        if n < 2:
            raise PlayerMismatchError("need at least 2 parties")
        self.circuit = circuit
        self.n = n
        self.rng = random.Random(seed)
        self.trace = ExecTrace()
        self.open_log: list[tuple[str, int]] = []
        # opens of the round being run, by per-round trace key
        self.round_opens = dict.fromkeys(ROUND_KEYS.values(), 0)
        self.triples: list[BeaverTriple] = []
        self.random_bits: list[int] = []  # seeds; see random_bit()

    # -- offline phase --

    def offline_phase(self):
        """Generate exactly the budget the estimator computes for the
        circuit: triples for multiplications and comparisons, random bits
        for comparisons. Each is fixed here by a seed from `self.rng`."""
        n_triples, n_bits = preprocessing(self.circuit)
        self.triples = [make_triple(self.n, self.rng)
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
        logged with its context and counted in its round."""
        self.open_log.append((context, len(self.open_log)))
        self.round_opens[ROUND_KEYS[context]] += 1
        return reconstruct(sv)

    def public(self, value: int) -> ShareVector:
        return ShareVector([value % PRIME] + [0] * (self.n - 1))

    def local(self, fn, *svs: ShareVector) -> ShareVector:
        """Apply a per-party local operation share-wise."""
        return ShareVector([fn(*(sv.shares[i] for sv in svs)) % PRIME
                            for i in range(self.n)])

    # -- online phase --

    def multiply(self, pairs: list[tuple[ShareVector, ShareVector]]
                 ) -> list[ShareVector]:
        """Beaver-multiply each pair. All their masked values go out in
        one batched open: every party sends its shares of them in the
        round's one multicast. Each product takes one triple."""
        if not pairs:
            return []
        triples = self.take_triples(len(pairs))
        masked = [m for (x, y), t in zip(pairs, triples)
                  for m in beaver_masks(x, y, t)]
        opened = [self.open(m, "beaver-open") for m in masked]
        return [beaver_combine(t, opened[2 * i], opened[2 * i + 1])
                for i, t in enumerate(triples)]

    def compare(self, kind: GateKind, x: ShareVector,
                y: ShareVector) -> ShareVector:
        """Idealized comparison: operands are opened only inside this
        functionality, the result bit is re-shared, and the preprocessing
        cost of a real protocol is charged."""
        tpc, bpc = comparison_budget(self.circuit.bitwidth)
        self.take_triples(tpc)
        self.take_bits(bpc)
        a = centered(self.open(x, "comparison"))
        b = centered(self.open(y, "comparison"))
        return share(WORD_OPS[kind](a, b), self.n, self.rng)

    def run_layer(self, layer: list[int], table: list[ShareVector | None],
                  input_values: dict[int, int], revealed: dict[int, int]):
        """Run one layer of the schedule. Its gates read only earlier
        layers and earlier gates of this one, so the multiplications go
        first, in one batch, and the rest follow in id order."""
        nodes = self.circuit.nodes
        pairs = []
        for nid in layer:
            node = nodes[nid]
            a = node.operands
            if node.kind is MUL:
                pairs.append((table[a[0]], table[a[1]]))
            elif node.kind is MUX:
                # an ideal check, like compare's: it costs no round,
                # multicast, triple or logged open
                sel = reconstruct(table[a[0]])
                if sel not in (0, 1):
                    raise MuxSelectorError(
                        f"mux selector {centered(sel)} is not a bit")
                # sel*(t - e) + e needs a single multiplication
                pairs.append((table[a[0]],
                              self.local(lambda t, e: t - e, table[a[1]],
                                         table[a[2]])))
        products = iter(self.multiply(pairs))
        for nid in layer:
            node = nodes[nid]
            kind, a = node.kind, node.operands
            if kind is ADD or kind is SUB:
                # additive shares are linear: each party adds or subtracts
                # its own shares
                sv = self.local(WORD_OPS[kind], table[a[0]], table[a[1]])
            elif kind is MUL:
                sv = next(products)
            elif kind is MUX:
                sv = self.local(lambda m, e: m + e, next(products),
                                table[a[2]])
            elif kind in COMPARISON_KINDS:
                sv = self.compare(kind, table[a[0]], table[a[1]])
            elif kind is MUL_PLAIN:
                k = node.payload
                sv = self.local(lambda u: u * k, table[a[0]])
            elif kind is CONST:
                sv = self.public(node.payload)
            elif kind is INPUT:
                sv = share(input_values[nid], self.n, self.rng)
            elif kind is REVEAL:
                v = centered(self.open(table[a[0]], "reveal"))
                revealed[nid] = v
                sv = self.public(v)
            else:
                raise LevelError(f"{kind.value} in word-level circuit")
            table[nid] = sv

    def run(self, inputs: dict[tuple[int, str], int]) -> dict[str, int]:
        c = self.circuit
        # the range contract, capped by what centered() can lift back out
        # of the field: |v| < 2^60 for PRIME = 2^61 - 1
        input_values = bind_inputs(
            c, inputs, min(contract_log(c.bitwidth),
                           (PRIME // 2 + 1).bit_length() - 1))
        self.offline_phase()
        layers, output_reveals = layered_schedule(c, DEPTH_WEIGHTS)
        table: list[ShareVector | None] = [None] * len(c.nodes)
        revealed: dict[int, int] = {}
        self.run_layer(layers[0], table, input_values, revealed)
        for layer in layers[1:]:
            self.round_opens = dict.fromkeys(ROUND_KEYS.values(), 0)
            self.trace.per_round.append(self.round_opens)
            self.run_layer(layer, table, input_values, revealed)
        self.round_opens = dict.fromkeys(ROUND_KEYS.values(), 0)
        self.run_layer(output_reveals, table, input_values, revealed)
        self.trace.output_reveals = self.round_opens["reveal"]
        return {name: revealed[nid] for nid, _aud, name in c.outputs}


def simulate_shared(circuit: Circuit, inputs: dict[tuple[int, str], int],
                    n: int, seed: int = 0
                    ) -> tuple[dict[str, int], ExecTrace]:
    sim = SharedSimulator(circuit, n, seed)
    outputs = sim.run(inputs)
    return outputs, sim.trace
