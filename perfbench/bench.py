"""Runs passes of a workload, checks them and turns them into metrics."""

import argparse
import bisect
import contextlib
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import stages
import workloads
from spans import NullTracer, Tracer, tail

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench-out"
SETUP_RUNS = 7  # set-up is timed this many times, each in a fresh process
CALIB_EVERY_S = 0.05  # least time between two calibration samples
LOCAL_SAMPLES = 9  # calibration samples that scale one timing
# median calibration_chunk() time on the reference machine (2-vCPU Xeon
# VM, Python 3.11); reported times are in seconds at that speed
CALIB_REF_S = 0.0015
# counts that every pass of one invocation must repeat exactly
DETERMINISTIC = ("arith_nodes", "bool_gates", "nonxor_gates", "triples",
                 "rounds", "mul_depth")
WORD_PASSES = ("const_fold", "peephole", "strength_reduce", "cse", "dce",
               "cmp_rewrite")
SPAN_SECONDS = {
    "frontend.parse_s": "frontend.parse",
    "typecheck.check_s": "typecheck.check",
    "lowering.lower_s": "lowering.lower",
    "optimizer.word_s": "optimizer.word",
    "bitblast.s": "bitblast",
    "optimizer.bool_s": "optimizer.bool",
    "estimator.estimate_s": "estimator.estimate",
    "gatelist.emit_s": "gatelist.emit",
    "gatelist.parse_s": "gatelist.parse",
    "gatelist.eval_s": "gatelist.eval",
    "boolsim.run_s": "boolsim.run",
    "clear.run_s": "clear.run",
    "shares.offline_s": "shares.offline",
}
COUNTS = {
    "frontend.tokens": "count",
    "lowering.nodes_out": "count",
    "optimizer.word_nodes_removed": "count",
    "bitblast.nodes_out": "count",
    "optimizer.bool_nodes_removed": "count",
    "estimator.predicted_rounds": "count",
    "estimator.predicted_multicasts": "count",
    "gatelist.bytes": "B",
    "clear.gate_evaluations": "count",
    "shares.triples_generated": "count",
    "shares.triples_consumed": "count",
    "shares.triples_useful": "count",
    "shares.bits_generated": "count",
    "shares.bits_consumed": "count",
    "shares.multicasts": "count",
    "shares.rounds": "count",
    "shares.opens.reveal": "count",
    "shares.opens.beaver": "count",
    "shares.opens.comparison": "count",
}
TAILED = ("frontend.parse", "typecheck.check", "lowering.lower",
          "optimizer.word", "bitblast", "optimizer.bool",
          "estimator.estimate", "gatelist.eval", "boolsim.run", "clear.run",
          "shares.run")


class BenchmarkError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Artifact:
    word: object  # the first optimized word circuit
    bool: object = None  # optimized bool circuit, gatelist path only
    text: str | None = None  # emitted gate list, gatelist path only


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    # (job, "compile") or (job, "run", ...) -> (midpoint, seconds), one
    # entry per compile and per backend run
    times: dict = field(default_factory=dict)
    tracer: object = None


# -- one pass --

def compile_job(tr, job, counts: Counter) -> Artifact:
    program = stages.parse(tr, job.source)
    circuits = []
    for scheme in workloads.PATH_SCHEMES[job.path]:
        typed = stages.check(tr, program, scheme)
        c = stages.optimize(tr, stages.lower(tr, typed, job.width, scheme),
                            "word")
        depth, rounds, multicasts = stages.estimate_both(tr, c)
        counts["arith_nodes"] += stages.node_count(c)
        counts["mul_depth"] += depth
        if job.path == "shares":  # over the same runs as shares.rounds
            tr.count("estimator.predicted_rounds", rounds * len(job.inputs))
            tr.count("estimator.predicted_multicasts",
                     multicasts * len(job.inputs))
        circuits.append(c)
    art = Artifact(circuits[0])
    if job.path == "gatelist":
        b = stages.bitblast(tr, art.word, job.width)
        art.bool = stages.optimize(tr, b, "bool")
        art.text = stages.emit(tr, art.bool)
    return art


def encode_bits(layout, inputs: dict) -> list[int]:
    """Input bits in wire order; a word's bits run LSB first."""
    seen = Counter()
    bits = []
    for key in layout:
        bits.append((inputs[key] >> seen[key]) & 1)
        seen[key] += 1
    return bits


def decode_words(names, bits: list[int]) -> dict[str, int]:
    """Regroup output bits by name; a word of w bits reads as w-bit two's
    complement, a single bit as a boolean."""
    words: dict[str, list[int]] = {}
    for name, bit in zip(names, bits):
        words.setdefault(name, []).append(bit)
    out = {}
    for name, ws in words.items():
        v = sum(bit << k for k, bit in enumerate(ws))
        if len(ws) >= 2 and ws[-1]:
            v -= 1 << len(ws)
        out[name] = v
    return out


def run_backend(tr, backend, job, art, gl, i, counts):
    inputs = job.inputs[i]
    if backend == "clear":
        return stages.run_clear(tr, art.word, inputs)
    if backend == "shares":
        out, stats = stages.run_shares(tr, art.word, inputs, seed=i)
        if i == 0:  # counted once per program
            counts["triples"] += stats["triples_generated"]
            counts["rounds"] += stats["rounds"]
        for name, n in stats.items():
            tr.count(f"shares.{name}", n)
        return out
    if backend == "gatelist":
        bits = encode_bits(stages.input_layout(art.bool), inputs)
        return decode_words(stages.output_names(art.bool),
                            stages.eval_gates(tr, gl, bits))
    return stages.run_bool(tr, art.bool, inputs)


def timing(clock, t0: float) -> tuple[float, float]:
    """(midpoint, duration) of an operation that started at `t0`."""
    t1 = clock()
    return time.perf_counter() - (t1 - t0) / 2, t1 - t0


def run_job(tr, job, art, res: "PassResult", clock) -> int:
    """Run every input set on the path's backends, timing each run
    apart; returns how many runs raised or differed from the reference."""
    failed = 0
    gl = None
    if job.path == "gatelist":
        t0 = clock()
        gl = stages.parse_gates(tr, art.text)
        res.times[(job.name, "run", "parse")] = timing(clock, t0)
        gates, nonxor = stages.gate_counts(gl)
        res.counts["bool_gates"] += gates
        res.counts["nonxor_gates"] += nonxor
    for i, expected in enumerate(job.expected):
        with tr.span("input", op=f"{job.name}#{i}"):
            for backend in workloads.BACKENDS[job.path]:
                t0 = clock()
                try:
                    out = run_backend(tr, backend, job, art, gl, i,
                                      res.counts)
                except Exception:
                    traceback.print_exc()
                    out = None
                res.times[(job.name, "run", i, backend)] = timing(clock, t0)
                if out != expected:
                    print(f"perfbench: {job.name} input set {i} on {backend}"
                          f" gave {out}, reference {expected}",
                          file=sys.stderr)
                    failed += 1
    return failed


def calibration_chunk() -> float:
    """Time one fixed piece of pure-Python work: dict updates, tuples,
    big-integer arithmetic and a sort, as a compiler does. mpcc takes no
    part in it, so its time tracks the speed the machine gives this
    process at that moment."""
    t0 = time.perf_counter()
    table = {}
    acc = 1
    nodes = []
    for i in range(1500):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0) + 1
        acc = acc * 6364136223846793005 % 2305843009213693951
        nodes.append((key, acc & 1023, [i]))
    nodes.sort(key=lambda n: n[1])
    return time.perf_counter() - t0


class Speedometer:
    """Calibration samples taken at calls into mpcc, at most every
    CALIB_EVERY_S, so that they see the machine when mpcc does.

    On a shared virtual machine the speed a process gets drifts by tens
    of percent over a minute. Times scaled by the calibration vary far
    less between runs than raw times, while a slower mpcc still reads
    slower, since the calibration does not run mpcc code."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # when each sample ended
        self.spent = 0.0  # seconds spent sampling, taken out of timings
        self._next = 0.0

    def tick(self):
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(calibration_chunk())
            end = time.perf_counter()
            self.stamps.append(end)
            self.spent += end - now
            self._next = end + CALIB_EVERY_S

    def scale(self, at: float) -> float:
        """Converts seconds measured around time `at` to seconds at the
        reference speed, from the LOCAL_SAMPLES samples nearest to it."""
        i = bisect.bisect_left(self.stamps, at)
        lo = max(0, min(i - LOCAL_SAMPLES // 2,
                        len(self.samples) - LOCAL_SAMPLES))
        return CALIB_REF_S / statistics.median(
            self.samples[lo:lo + LOCAL_SAMPLES])


class SampledTracer(NullTracer):
    """Tracing off; each call into mpcc may first take a calibration
    sample, whose time `clock` leaves out."""

    def __init__(self, speed: Speedometer):
        self.speed = speed

    def span(self, name, op=None):
        self.speed.tick()
        return self._null

    def clock(self) -> float:
        return time.perf_counter() - self.speed.spent


def run_pass(jobs, tr) -> PassResult:
    res = PassResult()
    clock = getattr(tr, "clock", time.perf_counter)
    t_pass = clock()
    with tr.span("pass"):
        for job in jobs:
            res.attempted += job.ops
            t0 = clock()
            try:
                with tr.span("compile", op=job.name):
                    art = compile_job(tr, job, res.counts)
                res.times[(job.name, "compile")] = timing(clock, t0)
                with tr.span("run", op=job.name):
                    res.failed += run_job(tr, job, art, res, clock)
            except Exception:
                traceback.print_exc()
                print(f"perfbench: {job.name} failed to compile or run",
                      file=sys.stderr)
                res.failed += job.ops
    res.wall_s = clock() - t_pass
    res.tracer = tr if tr.active else None
    return res


def measure(jobs, seconds: float, trace: bool, speed: Speedometer
            ) -> list[PassResult]:
    """Passes until `seconds` would be exceeded, at least two. With
    tracing, passes alternate untraced and traced, starting untraced,
    and there are at least three: the first pass warms up and only
    later untraced passes are compared with the traced ones."""
    least = 3 if trace else 2
    results = []
    start = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        tr = Tracer() if traced else SampledTracer(speed)
        gc.collect()
        with stages.instrumented(tr) if traced else contextlib.nullcontext():
            results.append(run_pass(jobs, tr))
        typical = statistics.median(r.wall_s for r in results)
        if (len(results) >= least
                and time.perf_counter() - start + typical > seconds):
            return results


def check_determinism(results: list[PassResult]):
    first = {k: results[0].counts[k] for k in DETERMINISTIC}
    for k, r in enumerate(results[1:], 1):
        now = {name: r.counts[name] for name in DETERMINISTIC}
        if now != first:
            raise BenchmarkError(4, f"pass {k} counted {now}, pass 0 "
                                    f"counted {first}")


# -- metrics --

def total(results, part: str, speed: Speedometer | None = None,
          job: str | None = None) -> float:
    """Time of one pass's compiles (part "compile") or backend runs (part
    "run"), only `job`'s when given: each operation's median over the
    passes, summed. With `speed`, each time is first scaled by the
    calibration samples taken around it."""
    keys = {k for r in results for k in r.times
            if k[1] == part and job in (None, k[0])}
    out = 0.0
    for k in keys:
        runs = [r.times[k] for r in results if k in r.times]
        out += statistics.median(
            dt * (speed.scale(at) if speed else 1.0) for at, dt in runs)
    return out


def end_to_end(results, setups, speed: Speedometer) -> dict:
    att = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    counts = results[0].counts
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "compile_s": (total(results, "compile", speed), "s"),
        "run_s": (total(results, "run", speed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "agree_frac": ((att - failed) / att, "frac"),
    }
    for name in DETERMINISTIC:
        m[name] = (counts[name], "count")
    return m


def per_layer(results, jobs, speed: Speedometer) -> dict:
    traced = [r.tracer for r in results if r.tracer is not None]
    plain = [r for r in results if r.tracer is None][1:]  # after warm-up
    med = statistics.median
    m = {}
    for metric, span in SPAN_SECONDS.items():
        m[metric] = (med(t.total(span) for t in traced), "s")
    m["shares.online_s"] = (med(_self_total(t, "shares.run")
                                for t in traced), "s")
    m["shares.make_triple_s"] = (med(t.tallies["shares.make_triple"][1]
                                     for t in traced), "s")
    first = traced[0]
    m["shares.make_triple.calls"] = (first.tallies["shares.make_triple"][0],
                                     "count")
    for metric, unit in COUNTS.items():
        m[metric] = (first.counts[metric], unit)
    gen = first.counts["shares.triples_generated"]
    m["shares.triple_use_ratio"] = (
        first.counts["shares.triples_useful"] / gen if gen else 0.0, "frac")
    for level in ("word", "bool"):
        per_pass = [_pass_spans(t, level) for t in traced]
        calls = {p: len(per_pass[0][p]) for p in WORD_PASSES}
        m[f"optimizer.{level}_rounds"] = (max(calls.values()), "count")
        for p in WORD_PASSES:
            m[f"optimizer.{level}.{p}.s"] = (
                med(sum(s.duration for s in pp[p]) for pp in per_pass), "s")
            if level == "word":
                m[f"optimizer.word.{p}.calls"] = (calls[p], "count")
    for name in TAILED:
        p50, top, n = tail([s.duration for t in traced
                             for s in t.named(name)])
        m[f"{name}.p50_ms"] = (p50 * 1e3, "ms")
        m[f"{name}.tail_ms"] = (top * 1e3, "ms")
        m[f"{name}.n"] = (n, "count")
    for job in jobs:
        if job.row:
            for part in ("compile", "run"):
                m[f"{part}_s.{job.name}"] = (
                    total(plain, part, job=job.name), "s")
    m["bench.calib_ms"] = (statistics.median(speed.samples) * 1e3, "ms")
    m["bench.trace_overhead_s"] = (
        med(r.wall_s for r in results if r.tracer is not None)
        - med(r.wall_s for r in plain), "s")
    return m


def _self_total(tracer, name) -> float:
    own = tracer.self_times()
    return sum(own[s.id] for s in tracer.named(name))


def _pass_spans(tracer, level) -> dict:
    """Pass name -> spans of that optimizer pass under `level`."""
    parents = {s.id for s in tracer.named(f"optimizer.{level}")}
    out = {p: [] for p in WORD_PASSES}
    for s in tracer.spans:
        if s.parent in parents and s.name.startswith("optimizer.pass."):
            name = s.name.removeprefix("optimizer.pass.")
            if name in out:
                out[name].append(s)
    return out


def write_trace(results, workload, seed):
    spans = [[s.to_json_obj() for s in r.tracer.spans]
             for r in results if r.tracer is not None]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "passes": spans}), encoding="utf-8")


# -- entry point --

def scaled_setup(seconds: float) -> float:
    """A set-up time scaled by calibration samples taken right after it."""
    speed = Speedometer()
    for _ in range(LOCAL_SAMPLES):
        speed.samples.append(calibration_chunk())
        speed.stamps.append(time.perf_counter())
    return seconds * speed.scale(time.perf_counter())


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print the set-up time, exit")
    return ap.parse_args(argv)


def main(argv, t0: float) -> int:
    """Run the benchmark; `t0` is when the process started setting up."""
    args = parse_args(argv)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed)
        setup = scaled_setup(time.perf_counter() - t0)
        if args.setup_only:
            print(setup)
            return 0
        setups = [setup] + [setup_probe(args) for _ in range(SETUP_RUNS - 1)]
        speed = Speedometer()
        results = measure(jobs, args.seconds, bool(args.trace), speed)
        check_determinism(results)
    except stages.OutOfContract as e:
        print(f"perfbench: benchmark bug, an input set is out of contract: "
              f"{e}", file=sys.stderr)
        return 3
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return e.code
    if args.trace:
        metrics = per_layer(results, jobs, speed)
        write_trace(results, args.workload, args.seed)
    else:
        metrics = end_to_end(results, setups, speed)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
