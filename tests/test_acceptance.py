"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Every tolerance is exact; the timed criteria assert their wall-time
budgets. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import random
import zlib
import time
from contextlib import contextmanager

import pytest

from astref import reference_run
from conftest import CORPUS_NAMES, build, clear_or_refused, corpus_source
from judgments import JUDGMENTS, run_judgment
from mpcc.backends.boolsim import interpret_bool
from mpcc.backends.clear import ClearInterpreter, flatten_inputs, \
    interpret_clear
from mpcc.backends.shares import (
    PRIME, beaver_combine, beaver_masks, centered, make_triple, reconstruct,
    share, simulate_shared,
)
from mpcc.bitblast import bitblast
from mpcc.circuit import GateKind, contract_log
from mpcc.errors import IncompleteSharesError, OverflowContractError
from mpcc.estimator import additive_model, arith_model, estimate
from mpcc.frontend import parse_source
from mpcc.lowering import LowerConfig, lower_program
from mpcc.optimizer import cmp_rewrite, dce, run_passes, strength_reduce
from mpcc.sectypes import Generic
from mpcc.typecheck import check_program
from proggen import MAX_NODES, count_nodes, random_inputs, random_program


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def test_c1_pow_rewrite_gate_and_depth_counts():
    with criterion(1, "pow(x,8) multiplications and depth"):
        t0 = time.time()
        optimized = run_passes(build("pow8"))
        raw = build("pow8")
        r_opt = estimate(optimized, arith_model())
        r_raw = estimate(raw, arith_model())
        assert r_opt.gate_counts[GateKind.MUL] == 3
        assert r_opt.depth == 3
        assert r_raw.gate_counts[GateKind.MUL] == 7
        assert r_raw.depth == 7
        assert time.time() - t0 < 1.0


def test_c2_comparison_encodings_and_model_choice():
    with criterion(2, "a >= b lowered form and its cmp_rewrite"):
        src = ("parties 1, 2;\ninput a : int from 1;\n"
               "input b : int from 2;\noutput eval({1, 2}, a >= b);\n")
        tp = check_program(parse_source(src), Generic())

        def multiset(c):
            keep = (GateKind.LT, GateKind.EQ, GateKind.ADD, GateKind.SUB)
            return {k.value: v for k, v in c.counts().items() if k in keep}

        lowered = lower_program(tp, LowerConfig())
        assert multiset(lowered) == {"Lt": 1, "Add": 1, "Eq": 1}
        assert multiset(dce(cmp_rewrite(lowered))) == {"Lt": 1, "Sub": 1}


def test_c3_matvec_strength_reduction():
    with criterion(3, "matrix-vector plaintext-scalar elimination"):
        raw = build("matvec")
        reduced = strength_reduce(raw)
        # ten multiplications per output row, five of them by 1
        assert raw.counts()[GateKind.MUL_PLAIN] == 30
        assert reduced.counts()[GateKind.MUL_PLAIN] == 15
        rows, cols = 3, 10
        per_row_before = raw.counts()[GateKind.MUL_PLAIN] // rows
        per_row_after = reduced.counts()[GateKind.MUL_PLAIN] // rows
        assert per_row_before == cols
        assert per_row_before - per_row_after == 5
        vec = [1, 399, 1, 413, 1, 587, 1, 354, 1, 444]
        rng = random.Random(33)
        matrix = [[rng.randrange(50) for _ in range(cols)]
                  for _ in range(rows)]
        ins = flatten_inputs({"1": {f"row{r}": matrix[r]
                                    for r in range(rows)}})
        expect = {f"y{r}": sum(m * v for m, v in zip(matrix[r], vec))
                  for r in range(rows)}
        assert interpret_clear(raw, ins) == expect
        assert interpret_clear(run_passes(raw), ins) == expect


E2E_CASES = [
    ("gcd", {(1, "x"): 5, (1, "y"): 15}, {"g": 5}),
    ("auction",
     flatten_inputs({"0": {"b0": 12}, "1": {"b1": 20}, "2": {"b2": 15}}),
     {"winner": 1, "price": 15}),
    ("mergesort", flatten_inputs({"1": {"xs": [3, 1, 5, 2]}}),
     {"out0": 1, "out1": 2, "out2": 3, "out3": 5}),
]


def brute_force_oracle(name, inputs):
    if name == "gcd":
        return {"g": math.gcd(inputs[(1, "x")], inputs[(1, "y")])}
    if name == "auction":
        bids = [inputs[(i, f"b{i}")] for i in range(3)]
        winner = max(range(3), key=lambda i: (bids[i], -i))
        return {"winner": winner, "price": sorted(bids)[-2]}
    xs = [inputs[(1, f"xs[{k}]")] for k in range(4)]
    return {f"out{k}": v for k, v in enumerate(sorted(xs))}


def test_c4_end_to_end_backend_agreement():
    with criterion(4, "corpus equivalence across all three backends"):
        t0 = time.time()
        for name, inputs, expected in E2E_CASES:
            assert brute_force_oracle(name, inputs) == expected
            c = build(name, bitwidth=16, scheme="additive", optimize=True)
            clear = interpret_clear(c, inputs)
            assert clear == expected, name
            for seed in (0, 7, 91):
                shared_out, _ = simulate_shared(c, inputs, 3, seed=seed)
                assert shared_out == expected, (name, seed)
            boolean = interpret_bool(bitblast(c, 16), inputs)
            assert boolean == expected, name
        assert time.time() - t0 < 10.0


CORPUS_INPUT_GEN = {
    "gcd": lambda rng: {(1, "x"): rng.randrange(0, 30),
                        (1, "y"): rng.randrange(0, 30)},
    "auction": lambda rng: {(i, f"b{i}"): rng.randrange(100)
                            for i in range(3)},
    "mergesort": lambda rng: {(1, f"xs[{k}]"): rng.randrange(100)
                              for k in range(4)},
    "matvec": lambda rng: {(1, f"row{r}[{k}]"): rng.randrange(50)
                           for r in range(3) for k in range(10)},
    "pow8": lambda rng: {(1, "x"): rng.randrange(-4, 5)},
    "adder": lambda rng: {(1, "a"): rng.randrange(-100, 100),
                          (2, "b"): rng.randrange(-100, 100)},
    "sum8": lambda rng: {(1, f"xs[{k}]"): rng.randrange(-50, 50)
                         for k in range(8)},
}


def test_c5_obliviousness():
    with criterion(5, "gate count and structure independent of inputs"):
        for name in CORPUS_NAMES:
            first = build(name, bitwidth=16)
            again_tp = check_program(parse_source(corpus_source(name)),
                                     Generic())
            again = lower_program(again_tp, LowerConfig(bitwidth=16))
            assert again.to_json() == first.to_json(), name
            interp = ClearInterpreter(first)
            program = parse_source(corpus_source(name))
            rng = random.Random(zlib.crc32(name.encode()))
            evaluations = set()
            for _ in range(50):
                ins = CORPUS_INPUT_GEN[name](rng)
                try:
                    interp.run(ins)
                except OverflowContractError:
                    # refused only where the program's own output leaves
                    # the contract: every matvec run at 16 bits
                    outs = reference_run(program, ins).values()
                    assert max(map(abs, outs)) >= 1 << contract_log(16), \
                        (name, ins)
                    continue
                evaluations.add(interp.gate_evaluations)
            assert evaluations <= {len(first.nodes)}, name


def test_c6_optimizer_soundness_on_random_programs():
    with criterion(6, "1000 random programs optimize soundly"):
        t0 = time.time()
        from mpcc.optimizer import cse, dce as dce_pass, peephole
        refused = 0
        for seed in range(1000):
            program = random_program(seed)
            assert count_nodes(program) <= MAX_NODES
            tp = check_program(program, Generic())
            c0 = lower_program(tp, LowerConfig())
            c1 = run_passes(c0)
            assert len(c1.nodes) <= len(c0.nodes)
            for fn in (cse, dce_pass, peephole, strength_reduce):
                assert len(fn(c0).nodes) <= len(c0.nodes)
            for j in range(2):
                ins = random_inputs(seed * 101 + j)
                r0 = clear_or_refused(c0, ins)
                if r0 is None:  # a value leaves the range contract
                    refused += 1
                    continue
                assert r0 == interpret_clear(c1, ins)
                assert r0 == reference_run(program, ins)
        # both runs of seed 882, whose loop squares b to b^8 and then
        # computes b^16 (b = 19, 16), past 2^62, in a value no output reads
        assert refused == 2, refused
        elapsed = time.time() - t0
        assert elapsed < 60.0, elapsed


def test_c7_triple_accounting():
    with criterion(7, "offline triples equal the estimator budget"):
        rng = random.Random(77)
        for name in CORPUS_NAMES:
            c = build(name, bitwidth=16, scheme="additive")
            inputs = CORPUS_INPUT_GEN[name](rng)
            if name == "gcd":
                inputs = {(1, "x"): 5, (1, "y"): 15}
            report = estimate(c, additive_model())
            _outs, trace = simulate_shared(c, inputs, 3, seed=5)
            assert trace.triples_consumed == report.triples, name
            assert trace.bits_consumed == report.random_bits, name


def test_c8_type_system_judgments():
    with criterion(8, "typing-rule judgment table"):
        assert len(JUDGMENTS) >= 30
        names = {j.name for j in JUDGMENTS}
        assert "union rule" in names
        assert "tfhe cross-owner rejection" in names
        assert "eval audience too narrow" in names
        assert "redeclaration rejection" in names
        for j in JUDGMENTS:
            run_judgment(j)


def test_c9_secret_sharing_algebra():
    with criterion(9, "share algebra and Beaver multiplication"):
        t0 = time.time()
        rng = random.Random(123)
        for _ in range(10000):
            v = rng.randrange(PRIME)
            n = rng.choice((2, 3, 5))
            assert reconstruct(share(v, n, rng)) == v
        for _ in range(10000):
            x = rng.randrange(-(10 ** 8), 10 ** 8)
            y = rng.randrange(-(10 ** 8), 10 ** 8)
            t = make_triple(3, rng)
            d, e = beaver_masks(share(x % PRIME, 3, rng),
                                share(y % PRIME, 3, rng), t)
            z = beaver_combine(t, reconstruct(d), reconstruct(e))
            assert centered(reconstruct(z)) == x * y
        for _ in range(50):
            sv = share(rng.randrange(PRIME), 4, rng)
            sv.shares[rng.randrange(4)] = None
            with pytest.raises(IncompleteSharesError):
                reconstruct(sv)
        assert time.time() - t0 < 5.0
