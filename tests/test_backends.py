import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from astref import reference_run
from conftest import CORPUS_NAMES, build, clear_or_refused
from mpcc.backends import BACKENDS, shares
from mpcc.backends.clear import flatten_inputs, interpret_clear
from mpcc.backends.shares import (
    PRIME, SharedSimulator, beaver_combine, beaver_masks, centered,
    make_triple, random_bit, reconstruct, share, simulate_shared,
)
from mpcc.circuit import Circuit, GateKind, PlainMeta
from mpcc.errors import (
    BudgetExceededError, IncompleteSharesError, MissingInputError,
    MuxSelectorError, OverflowContractError, PlayerMismatchError,
    TripleExhaustedError,
)
from mpcc.estimator import additive_model, estimate
from mpcc.frontend import parse_source
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import run_passes
from mpcc.pipeline import PipelineConfig, compile
from mpcc.sectypes import AdditiveShare, owners
from mpcc.typecheck import check_program
from proggen import random_inputs, random_program

GCD_INPUTS = {(1, "x"): 5, (1, "y"): 15}
AUCTION_INPUTS = flatten_inputs({"0": {"b0": 12}, "1": {"b1": 20},
                                 "2": {"b2": 15}})
MERGESORT_INPUTS = flatten_inputs({"1": {"xs": [3, 1, 5, 2]}})


# -- cleartext interpreter --

def subtractive_steps(x, y):
    lo, hi = sorted((x, y))
    steps = 0
    while lo != 0:
        lo, hi = sorted((hi - lo, lo))
        steps += 1
    return steps


def test_gcd_against_euclid():
    import math
    c = build("gcd", bitwidth=16)
    assert interpret_clear(c, GCD_INPUTS) == {"g": 5}
    rng = random.Random(4)
    checked = 0
    while checked < 30:
        x, y = rng.randrange(0, 25), rng.randrange(0, 25)
        if subtractive_steps(x, y) > 5:
            continue  # outside the corpus bound annotation's contract
        got = interpret_clear(c, {(1, "x"): x, (1, "y"): y})["g"]
        assert got == math.gcd(x, y), (x, y)
        checked += 1


def test_auction_against_second_price_oracle():
    c = build("auction", bitwidth=16)
    out = interpret_clear(c, AUCTION_INPUTS)
    assert out == {"winner": 1, "price": 15}
    rng = random.Random(5)
    for _ in range(60):
        bids = [rng.randrange(0, 200) for _ in range(3)]
        out = interpret_clear(c, flatten_inputs(
            {str(i): {f"b{i}": bids[i]} for i in range(3)}))
        winner = max(range(3), key=lambda i: (bids[i], -i))
        price = sorted(bids)[-2]
        assert out == {"winner": winner, "price": price}, bids


def test_mergesort_against_sorting_oracle():
    c = build("mergesort", bitwidth=16)
    out = interpret_clear(c, MERGESORT_INPUTS)
    assert list(out.values()) == [1, 2, 3, 5]
    rng = random.Random(6)
    for _ in range(40):
        xs = [rng.randrange(0, 99) for _ in range(4)]
        out = interpret_clear(c, flatten_inputs({"1": {"xs": xs}}))
        assert list(out.values()) == sorted(xs), xs


def test_missing_input_error():
    c = build("gcd", bitwidth=16)
    with pytest.raises(MissingInputError):
        interpret_clear(c, {(1, "x"): 5})


def test_overflow_contract_enforced():
    c = build("gcd", bitwidth=16)
    with pytest.raises(OverflowContractError):
        interpret_clear(c, {(1, "x"): 5, (1, "y"): 1 << 14})


def mux_circuit() -> Circuit:
    """out = s ? a : b, with the selector s a party's raw input."""
    c = Circuit(bitwidth=16)
    s = c.add_input(1, "s")
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    m = c.add_node(GateKind.MUX, (s, a, b))
    r = c.add_node(GateKind.REVEAL, (m,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def test_mux_selector_must_be_a_bit():
    c = mux_circuit()
    assert interpret_clear(c, {(1, "s"): 1, (1, "a"): 4, (2, "b"): 9}) == \
        {"out": 4}
    with pytest.raises(MuxSelectorError):
        interpret_clear(c, {(1, "s"): 2, (1, "a"): 4, (2, "b"): 9})


def test_mux_selector_check_survives_python_O():
    """`python -O` strips asserts; the selector check must not be one."""
    script = textwrap.dedent("""
        assert False, "not running under -O"
        from mpcc.errors import MuxSelectorError
        from test_backends import interpret_clear, mux_circuit
        try:
            interpret_clear(mux_circuit(),
                            {(1, "s"): 2, (1, "a"): 4, (2, "b"): 9})
        except MuxSelectorError as err:
            print(err)
    """)
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src"),
                            *sys.path])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "mux selector 2 is not a bit"


def test_shares_mux_selector_must_be_a_bit():
    """The shares MUX checks its selector as the clear interpreter does,
    with the ideal reconstruction: no open, round, multicast or triple."""
    for s, want in [(0, 9), (1, 4)]:
        sim = SharedSimulator(mux_circuit(), 3, seed=5)
        assert sim.run({(1, "s"): s, (1, "a"): 4, (2, "b"): 9}) == \
            {"out": want}
        assert sim.trace.to_json_obj() == {
            "rounds": 1, "multicasts": 1, "triples_consumed": 1,
            "bits_consumed": 0,
            "per_round": [{"round": 1, "reveal": 0, "beaver": 2,
                           "comparison": 0}],
            "output_reveals": 1}
        assert [ctx for ctx, _ in sim.open_log] == \
            ["beaver-open", "beaver-open", "reveal"]
    for s in (2, -1):
        with pytest.raises(MuxSelectorError,
                           match=f"mux selector {s} is not a bit"):
            simulate_shared(mux_circuit(),
                            {(1, "s"): s, (1, "a"): 4, (2, "b"): 9}, 3)


# -- share algebra --

def test_share_reconstruct_identity():
    rng = random.Random(0)
    for _ in range(1000):
        v = rng.randrange(PRIME)
        assert reconstruct(share(v, 3, rng)) == v


def test_share_of_zero_sums_to_zero():
    rng = random.Random(1)
    sv = share(0, 2, rng)
    assert sum(sv.shares) % PRIME == 0


def test_first_share_spread_over_seeds():
    seen = {}
    for seed in range(10000):
        sv = share(5, 3, random.Random(seed))
        first = sv.shares[0]
        seen[first] = seen.get(first, 0) + 1
    assert max(seen.values()) <= 10


def test_missing_share_rejected():
    rng = random.Random(2)
    sv = share(17, 3, rng)
    sv.shares[1] = None
    with pytest.raises(IncompleteSharesError):
        reconstruct(sv)


def test_centered_lift():
    assert centered(5) == 5
    assert centered(PRIME - 3) == -3
    assert centered((-7) % PRIME) == -7


# -- beaver multiplication --

def beaver_product(x, y, t, open=reconstruct):
    """x*y from triple `t`, its two halves composed as
    `SharedSimulator.multiply` composes them, d and e opened by `open`."""
    d, e = beaver_masks(x, y, t)
    return beaver_combine(t, open(d), open(e))


def test_beaver_matches_integer_multiplication():
    rng = random.Random(3)
    for _ in range(500):
        x = rng.randrange(-10 ** 6, 10 ** 6)
        y = rng.randrange(-10 ** 6, 10 ** 6)
        t = make_triple(3, rng)
        z = beaver_product(share(x % PRIME, 3, rng),
                           share(y % PRIME, 3, rng), t)
        assert centered(reconstruct(z)) == x * y


def test_beaver_zero_annihilates():
    rng = random.Random(4)
    t = make_triple(2, rng)
    z = beaver_product(share(0, 2, rng), share(12345, 2, rng), t)
    assert reconstruct(z) == 0


def test_triple_single_use():
    rng = random.Random(5)
    t = make_triple(2, rng)
    x, y = share(3, 2, rng), share(4, 2, rng)
    beaver_product(x, y, t)
    with pytest.raises(TripleExhaustedError):
        beaver_product(x, y, t)


def test_player_mismatch():
    rng = random.Random(6)
    t = make_triple(2, rng)
    with pytest.raises(PlayerMismatchError):
        beaver_product(share(1, 2, rng), share(2, 3, rng), t)


# -- shared simulation --

@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_shared_simulation_matches_clear(seed):
    cases = [
        ("gcd", GCD_INPUTS),
        ("auction", AUCTION_INPUTS),
        ("mergesort", MERGESORT_INPUTS),
    ]
    for name, inputs in cases:
        c = build(name, bitwidth=16, scheme="additive")
        clear = interpret_clear(c, inputs)
        outs, _trace = simulate_shared(c, inputs, 3, seed=seed)
        assert outs == clear, name


SHARED_REVEALS = """parties 0, 1, 2;
input x : int from 1;
input y : int from 2;
val z : int := eval({0, 1, 2}, x) + 1;
output z;
output 7;
output eval({0, 1, 2}, y);
output eval({0, 1, 2}, y < x);
output eval({0, 1, 2}, x);
output z;
output eval({0, 1, 2}, x);
"""


@pytest.mark.parametrize("passes", [None, []])
def test_every_backend_keeps_outputs_that_share_a_reveal(passes):
    """cse merges the three Reveals of x to one audience into one node;
    every backend still returns all seven outputs in program order."""
    inputs = {(1, "x"): 5, (2, "y"): -3}
    results = {}
    for name, backend in BACKENDS.items():
        c = compile(SHARED_REVEALS, PipelineConfig(
            scheme=AdditiveShare(3), target_level=backend.level,
            passes=passes))
        outs, _trace = backend.run(c, inputs, 3, 0)
        results[name] = list(outs.items())
    assert len(results["clear"]) == 7
    for name, outs in results.items():
        assert outs == results["clear"], name


# each program reads x = 2 twice: 2 + 2, and (2 + 1) + (2 + 2)
INPUT_READ_TWICE = {
    "loop": ("val i : int := 0;\nval s : int@{1} := 0;\n"
             "while (i < 2) { input x : int from 1; s := s + x; "
             "i := i + 1; }\noutput eval({1}, s);\n", 4),
    "call": ("fun f(k : int) : int@{1} { input x : int from 1; x + k }\n"
             "output eval({1}, f(1) + f(2));\n", 7),
}


@pytest.mark.parametrize("passes", [None, []])
@pytest.mark.parametrize("name", list(INPUT_READ_TWICE))
def test_an_input_that_runs_twice_reads_one_value(name, passes):
    """An `input` in a loop body or a function called twice is one Input
    node: the bool backend reads it from the word's own bits."""
    body, total = INPUT_READ_TWICE[name]
    src = "parties 1;\n" + body
    inputs = {(1, "x"): 2}
    want = reference_run(parse_source(src), inputs)
    assert list(want.values()) == [total]
    for backend_name, backend in BACKENDS.items():
        c = compile(src, PipelineConfig(bitwidth=16,
                                        target_level=backend.level,
                                        passes=passes))
        outs, _trace = backend.run(c, inputs, 3, 0)
        assert outs == want, backend_name
    word = compile(src, PipelineConfig(bitwidth=16, passes=[]))
    assert [(p, n) for _nid, p, n in word.inputs] == [(1, "x")]


def test_trace_matches_estimator_triples():
    for name in ("gcd", "auction", "mergesort", "pow8", "sum8", "matvec"):
        c = build(name, bitwidth=16, scheme="additive")
        inputs = {
            "gcd": GCD_INPUTS,
            "auction": AUCTION_INPUTS,
            "mergesort": MERGESORT_INPUTS,
            "pow8": {(1, "x"): 2},
            "sum8": flatten_inputs({"1": {"xs": [1] * 8}}),
            "matvec": flatten_inputs({"1": {f"row{r}": [1] * 10
                                            for r in range(3)}}),
        }[name]
        report = estimate(c, additive_model())
        _outs, trace = simulate_shared(c, inputs, 3, seed=0)
        assert trace.triples_consumed == report.triples, name
        assert trace.bits_consumed == report.random_bits, name


# -- the layered schedule: the estimate predicts the trace --

def assert_estimate_predicts_trace(c, input_sets):
    """Run c on each input set: outputs equal the clear interpreter's
    wherever it accepts the run, rounds and multicasts equal the additive
    model's depth, triples and bits its budget, and every run has the
    same per-round trace."""
    report = estimate(c, additive_model())
    traces = []
    for seed, inputs in enumerate(input_sets):
        outs, trace = simulate_shared(c, inputs, 3, seed=seed)
        assert clear_or_refused(c, inputs) in (None, outs)
        assert (trace.rounds, trace.multicasts, trace.triples_consumed,
                trace.bits_consumed) == (report.depth, report.depth,
                                         report.triples, report.random_bits)
        traces.append(trace.to_json_obj())
    assert all(t == traces[0] for t in traces)  # oblivious
    return traces[0]


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_estimate_predicts_corpus_trace(name, width):
    for optimize in (False, True):
        c = build(name, bitwidth=width, scheme="additive", optimize=optimize)
        input_sets = []
        for seed in range(2):
            rng = random.Random(seed)
            input_sets.append({(party, iname): rng.randrange(-20, 40)
                               for _nid, party, iname in c.inputs})
        assert_estimate_predicts_trace(c, input_sets)


@pytest.mark.parametrize("seed", range(40))
def test_estimate_predicts_generated_trace(seed):
    scheme = AdditiveShare(3)
    tp = check_program(random_program(seed), scheme)
    c = run_passes(lower_program(tp, LowerConfig(bitwidth=16, scheme=scheme)))
    assert_estimate_predicts_trace(
        c, [random_inputs(seed * 101 + j) for j in range(2)])


def mid_circuit_reveal_circuit():
    """out = Reveal(a*b) * a: the inner Reveal is read by a gate."""
    c = Circuit(bitwidth=16)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    ab = c.add_node(GateKind.MUL, (a, b))
    opened = c.add_node(GateKind.REVEAL, (ab,), PlainMeta(owners(1, 2)))
    m = c.add_node(GateKind.MUL, (opened, a))
    r = c.add_node(GateKind.REVEAL, (m,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def test_a_reveal_that_a_gate_reads_takes_a_round():
    trace = assert_estimate_predicts_trace(
        mid_circuit_reveal_circuit(),
        [{(1, "a"): 3, (2, "b"): 5}, {(1, "a"): -7, (2, "b"): 2}])
    assert trace["rounds"] == 3
    assert trace["per_round"] == [
        {"round": 1, "reveal": 0, "beaver": 2, "comparison": 0},
        {"round": 2, "reveal": 1, "beaver": 0, "comparison": 0},
        {"round": 3, "reveal": 0, "beaver": 2, "comparison": 0}]
    assert trace["output_reveals"] == 1


def test_independent_gates_share_a_round():
    # mergesort's compare-and-swaps of one level open in the same rounds:
    # each round holds every Beaver opening of its layer
    c = build("mergesort", bitwidth=16, scheme="additive", optimize=True)
    trace = assert_estimate_predicts_trace(c, [MERGESORT_INPUTS])
    products = sum(n.kind in (GateKind.MUL, GateKind.MUX) for n in c.nodes)
    assert sum(r["beaver"] for r in trace["per_round"]) == 2 * products
    assert max(r["beaver"] for r in trace["per_round"]) > 2
    assert trace["rounds"] == 46


def test_adds_only_circuit_needs_no_communication():
    c = Circuit(bitwidth=16)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    s = c.add_node(GateKind.ADD, (a, b))
    s2 = c.add_node(GateKind.SUB, (s, a))
    r = c.add_node(GateKind.REVEAL, (s2,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    outs, trace = simulate_shared(c, {(1, "a"): 7, (2, "b"): 9}, 3)
    assert outs == {"out": 9}
    assert trace.rounds == 0
    assert trace.multicasts == 0
    assert trace.triples_consumed == 0


def test_determinism_under_fixed_seed():
    c = build("auction", bitwidth=16, scheme="additive")
    runs = [simulate_shared(c, AUCTION_INPUTS, 3, seed=99)
            for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_different_party_counts():
    c = build("gcd", bitwidth=16, scheme="additive")
    for n in (2, 3, 5):
        outs, _ = simulate_shared(c, GCD_INPUTS, n, seed=1)
        assert outs == {"g": 5}


def test_negative_values_roundtrip_through_field():
    c = Circuit(bitwidth=16)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    s = c.add_node(GateKind.SUB, (a, b))
    lt = c.add_node(GateKind.LT, (s, a))
    m = c.add_node(GateKind.MUX, (lt, s, a))
    r = c.add_node(GateKind.REVEAL, (m,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    for x, y in [(3, 10), (10, 3), (-5, 5)]:
        clear = interpret_clear(c, {(1, "a"): x, (2, "b"): y})
        shared, _ = simulate_shared(c, {(1, "a"): x, (2, "b"): y}, 3)
        assert shared == clear


def test_share_hygiene_open_contexts():
    c = build("auction", bitwidth=16, scheme="additive")
    sim = SharedSimulator(c, 3, seed=0)
    sim.run(AUCTION_INPUTS)
    contexts = {ctx for ctx, _ in sim.open_log}
    assert contexts <= {"beaver-open", "comparison", "reveal"}
    assert len(sim.open_log) > 0


def test_input_limit_enforced():
    c = build("gcd", bitwidth=16, scheme="additive")
    with pytest.raises(OverflowContractError):
        simulate_shared(c, {(1, "x"): 1 << 40, (1, "y"): 1}, 3)


def add_only_circuit(bitwidth: int) -> Circuit:
    c = Circuit(bitwidth=bitwidth)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    s = c.add_node(GateKind.ADD, (a, b))
    r = c.add_node(GateKind.REVEAL, (s,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    return c


def test_input_bound_follows_the_bitwidth():
    outs, _ = simulate_shared(add_only_circuit(64),
                              {(1, "a"): 1 << 40, (2, "b"): 1}, 3)
    assert outs == {"out": (1 << 40) + 1}
    with pytest.raises(OverflowContractError, match=r"\|v\| < 2\^14"):
        simulate_shared(add_only_circuit(16), {(1, "a"): 1 << 14,
                                               (2, "b"): 1}, 3)


def test_input_bound_is_capped_by_the_field():
    c = add_only_circuit(64)
    outs, _ = simulate_shared(c, {(1, "a"): (1 << 60) - 1, (2, "b"): 0}, 3)
    assert outs == {"out": (1 << 60) - 1}
    with pytest.raises(OverflowContractError, match=r"\|v\| < 2\^60"):
        simulate_shared(c, {(1, "a"): 1 << 60, (2, "b"): 0}, 3)


# -- seeded preprocessing --

def test_only_multiplication_triples_are_expanded(monkeypatch):
    made = []

    def recording(*args, **kwargs):
        t = original(*args, **kwargs)
        made.append(t)
        return t

    original = shares.make_triple
    monkeypatch.setattr(shares, "make_triple", recording)
    c = build("mergesort", bitwidth=16, scheme="additive")
    outs, trace = simulate_shared(c, MERGESORT_INPUTS, 3, seed=0)
    assert list(outs.values()) == [1, 2, 3, 5]
    muls = sum(n.kind in (GateKind.MUL, GateKind.MUX) for n in c.nodes)
    assert len(made) == estimate(c, additive_model()).triples
    assert trace.triples_consumed == len(made)
    assert sum(t.expanded for t in made) == muls
    assert sum(t.consumed for t in made) == muls


def assert_dropped_triple_overruns(kind, expected):
    """With one triple short of the budget, the one gate of `kind` fails
    before it opens anything or takes a triple."""
    class ShortOffline(SharedSimulator):
        def offline_phase(self):
            super().offline_phase()
            self.triples.pop()

    c = Circuit(bitwidth=16)
    a = c.add_input(1, "a")
    b = c.add_input(2, "b")
    g = c.add_node(kind, (a, b))
    r = c.add_node(GateKind.REVEAL, (g,), PlainMeta(owners(1, 2)))
    c.add_output(r, owners(1, 2), "out")
    sim = ShortOffline(c, 3)
    with pytest.raises(BudgetExceededError, match="Beaver triples"):
        sim.run({(1, "a"): 2, (2, "b"): 3})
    assert sim.open_log == []
    assert sim.trace.triples_consumed == 0
    assert SharedSimulator(c, 3).run({(1, "a"): 2, (2, "b"): 3}) == \
        {"out": expected}


def test_dropped_triple_overruns_inside_a_comparison():
    assert_dropped_triple_overruns(GateKind.LT, 1)


def test_dropped_triple_overruns_inside_a_multiplication():
    assert_dropped_triple_overruns(GateKind.MUL, 6)


def test_triple_is_fixed_by_the_offline_rng():
    t1 = make_triple(3, random.Random(42))
    t2 = make_triple(3, random.Random(42))
    assert not t1.expanded
    a, b, c = (reconstruct(sv) for sv in (t1.a, t1.b, t1.c))
    assert t1.expanded
    assert (reconstruct(t2.a), reconstruct(t2.b), reconstruct(t2.c)) == \
        (a, b, c)
    assert c == a * b % PRIME
    assert t1.a.shares == t2.a.shares
    other = make_triple(3, random.Random(43))
    assert reconstruct(other.a) != a


def test_make_triple_checks_the_party_count_at_once():
    with pytest.raises(PlayerMismatchError):
        make_triple(1, random.Random(0))


def test_random_bit_seeds_expand_to_bits():
    sim = SharedSimulator(build("auction", bitwidth=16, scheme="additive"),
                          3, seed=3)
    sim.offline_phase()
    bits = {reconstruct(random_bit(3, s)) for s in sim.random_bits}
    assert bits == {0, 1}


def test_beaver_opens_only_masked_values():
    rng = random.Random(8)
    t = make_triple(3, rng)
    x, y = share(6, 3, rng), share(7, 3, rng)
    opened = []

    def logging_open(sv):
        opened.append(reconstruct(sv))
        return opened[-1]

    z = beaver_product(x, y, t, open=logging_open)
    assert reconstruct(z) == 42
    assert opened == [(6 - reconstruct(t.a)) % PRIME,
                      (7 - reconstruct(t.b)) % PRIME]


def test_simulator_multiply_is_one_beaver_round():
    c = build("pow8", bitwidth=16, scheme="additive",
              optimize=True)  # three Mul gates
    sim = SharedSimulator(c, 3, seed=1)
    assert sim.run({(1, "x"): 2}) == {"out0": 256}
    assert sim.open_log == [("beaver-open", k) for k in range(6)] + \
        [("reveal", 6)]
    assert (sim.trace.rounds, sim.trace.multicasts) == (3, 3)
    t = make_triple(3, sim.rng)
    sim.triples += [t, t]  # the same triple twice in the pool
    x = sim.public(3)
    [z] = sim.multiply([(x, x)])
    assert reconstruct(z) == 9
    with pytest.raises(TripleExhaustedError):
        sim.multiply([(x, x)])


def test_modulo_agrees_across_all_backends():
    from mpcc.typecheck import check_program
    from mpcc.lowering import LowerConfig, lower_program
    from mpcc.sectypes import AdditiveShare
    from mpcc.bitblast import bitblast
    from mpcc.backends.boolsim import interpret_bool
    src = "parties 1;\ninput a : int from 1;\noutput eval({1}, a % 5);\n"
    tp = check_program(parse_source(src), AdditiveShare(3))
    c = lower_program(tp, LowerConfig(bitwidth=16, scheme=AdditiveShare(3)))
    cb = bitblast(c, 16)
    for a in (0, 1, 4, 5, 6, 23, 999):
        clear = interpret_clear(c, {(1, "a"): a})
        assert clear == {"out0": a % 5}
        shared, _ = simulate_shared(c, {(1, "a"): a}, 3, seed=2)
        assert shared == clear
        assert interpret_bool(cb, {(1, "a"): a}) == clear
