"""The three workloads: which programs, at which widths, down which
backend path, on which inputs.

Inputs come only from the workload seed. Every input range keeps every
value the AST interpreter computes inside the range contract
|v| < 2^(w-2), and inside |v| < 2^60 for programs run on the shares
backend (see stages.contract_limit), so a backend that disagrees with
the reference is wrong, not fed an out-of-contract input. The reference checks every value; a
violation on the fixed-range programs is a bug in this file and stops
the benchmark (it is never counted as a failed operation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import stages

CORPUS = ("gcd", "auction", "mergesort", "matvec", "pow8", "adder", "sum8")
WIDTHS = (16, 64)
CORPUS_SETS = 3  # seeded input sets per program and pass
PROGGEN_COUNT = 150
PROGGEN_DRAW_SEED = 2009  # fixed, so every seed compiles the same programs

# Inputs are drawn uniformly from [-bound, bound]. Limits: 2^14 = 16384
# at 16 bits, 2^62 ~ 4.6e18 at 64 bits.
RANGES = {
    # x^8 (and x^2, x^4 on the way): 3^8 = 6561; 199^8 ~ 2.5e18.
    ("pow8", 16): 3, ("pow8", 64): 199,
    # the row coefficients sum to 2202, so a row sum is at most
    # 2202 * bound: 7 * 2202 = 15414; 999 * 2202 ~ 2.2e6.
    ("matvec", 16): 7, ("matvec", 64): 999,
}
# gcd, auction, mergesort, adder and sum8 only add, subtract, compare and
# select: gcd's differences stay within 2 * bound and sum8 within
# 8 * bound. The 64-bit templates (mergesort, lookup) only compare and
# select; the long matvec sums 32 products of two values below 1000.
DEFAULT_RANGE = {16: 7, 64: 999}
# The shares field holds only |v| < 2^60 ~ 1.15e18 (stages.SHARES_LIMIT):
# 181^8 ~ 1.1519e18 is the largest eighth power below it, 182^8 ~ 1.2e18
# is not. These bounds replace RANGES on the shares path.
SHARES_RANGES = {("pow8", 64): 181}
# a private index is drawn inside the table it reads
INDEX_RANGES = {("lookup64", "i"): (0, 63)}
PROGGEN_RANGE = 7  # generated programs; see proggen_jobs


@dataclass
class Job:
    """One program at one width, compiled once per pass and run on each
    of its input sets."""
    name: str
    source: str
    width: int
    path: str  # "shares", "gatelist" or "word"
    inputs: list[dict] = field(default_factory=list)
    expected: list[dict] = field(default_factory=list)
    row: bool = False  # reported as a per-program row

    @property
    def ops(self) -> int:
        """Operations one pass attempts: the compile and each checked
        backend run."""
        return 1 + len(self.inputs) * len(BACKENDS[self.path])


# the schemes each path compiles under, and the backends it runs on
# every input set (the first scheme's circuit is the one that runs)
PATH_SCHEMES = {"shares": ("additive",), "gatelist": ("generic",),
                "word": ("generic", "additive")}
BACKENDS = {"shares": ("clear", "shares"),
            "gatelist": ("clear", "gatelist", "boolsim"),
            "word": ("clear",)}


def corpus_source(name: str) -> str:
    return (stages.ROOT / "corpus" / f"{name}.hml").read_text(
        encoding="utf-8")


def mergesort_source(n: int) -> str:
    """The corpus mergesort, sorting n elements."""
    head = corpus_source("mergesort").partition("input xs")[0]
    outs = "".join(f"output eval({{1}}, sorted({k}));\n" for k in range(n))
    return (head + f"input xs : arr(int, {{1}}, {n}) from 1;\n"
            "val sorted : arr(int, {1}) := mergesort(xs, 0, xs.length);\n"
            + outs)


def lookup_source(n: int) -> str:
    """Party 2 reads a private index into party 1's table of n."""
    return ("parties 1, 2;\n"
            f"input t : arr(int, {{1}}, {n}) from 1;\n"
            "input i : int from 2;\n"
            "output eval({1, 2}, t(i));\n")


def matvec_source(rows: int, cols: int) -> str:
    """An explicit matrix-vector product with public coefficients, half
    of them 1 (which strength reduction removes)."""
    lines = ["parties 1, 2;"]
    lines += [f"input row{r} : arr(int, {{1}}, {cols}) from 1;"
              for r in range(rows)]
    for r in range(rows):
        terms = " + ".join(
            f"row{r}({k})*{1 if k % 2 == 0 else (37 * k + r) % 997 + 2}"
            for k in range(cols))
        lines.append(f"val y{r} : int@{{1}} := {terms};")
    lines += [f"output eval({{1, 2}}, y{r});" for r in range(rows)]
    return "\n".join(lines) + "\n"


TEMPLATES = {
    "mergesort8": lambda: mergesort_source(8),
    "mergesort16": lambda: mergesort_source(16),
    "lookup64": lambda: lookup_source(64),
    "matvec16x32": lambda: matvec_source(16, 32),
}


def draw_inputs(rng: random.Random, program, name: str, width: int,
                path: str = "word") -> dict:
    bound = RANGES.get((name, width), DEFAULT_RANGE[width])
    if path == "shares":
        bound = SHARES_RANGES.get((name, width), bound)
    out = {}
    for party, key in stages.input_keys(program):
        lo, hi = INDEX_RANGES.get((name, key), (-bound, bound))
        out[(party, key)] = rng.randint(lo, hi)
    return out


def fixed_job(name: str, source: str, width: int, path: str, sets: int,
              seed: int, row: bool = False) -> Job:
    """A program whose input ranges come from RANGES (SHARES_RANGES on
    the shares path): any reference value beyond stages.contract_limit
    raises OutOfContract."""
    program = stages.parse_untimed(source)
    rng = random.Random(f"{seed}:{name}:{width}:{path}")
    job = Job(f"{name}-{width}", source, width, path, row=row)
    for _ in range(sets):
        inputs = draw_inputs(rng, program, name, width, path)
        job.inputs.append(inputs)
        job.expected.append(
            stages.reference_run(program, inputs, width, path))
    return job


def proggen_jobs(seed: int) -> list[Job]:
    """A fixed seeded draw of generated programs, each run on one input
    set drawn from the workload seed.

    Generated programs may multiply and raise to powers freely, so no
    fixed range fits all of them. The draw keeps the programs that stay
    in contract on all-zero inputs; each seed then draws inputs in
    [-7, 7] and, if those leave the contract, redraws a few times before
    falling back to the zero inputs known to be in contract.
    """
    draw = random.Random(PROGGEN_DRAW_SEED)
    rng = random.Random(f"{seed}:proggen")
    jobs = []
    while len(jobs) < PROGGEN_COUNT:
        pseed = draw.randrange(10 ** 6)
        program = stages.random_program(pseed)
        zeros = {key: 0 for key in stages.input_keys(program)}
        try:
            expected = stages.reference_run(program, zeros, 64)
        except stages.OutOfContract:
            continue
        inputs = zeros
        for _ in range(8):
            drawn = {key: rng.randint(-PROGGEN_RANGE, PROGGEN_RANGE)
                     for key in zeros}
            try:
                expected = stages.reference_run(program, drawn, 64)
            except stages.OutOfContract:
                continue
            inputs = drawn
            break
        jobs.append(Job(f"proggen.{pseed}", stages.render(program), 64,
                        "word", [inputs], [expected]))
    return jobs


def probes(seed: int, paths: set[str]) -> list[Job]:
    """Two corpus programs sent down the backend paths a workload does
    not otherwise use, so that every layer is called, and every metric
    measured, in every workload: adder@16 through the gate list, pow8@16
    (three multiplications) under shares."""
    out = []
    if "gatelist" not in paths:
        out.append(fixed_job("adder", corpus_source("adder"), 16, "gatelist",
                             1, seed))
    if "shares" not in paths:
        out.append(fixed_job("pow8", corpus_source("pow8"), 16, "shares", 1,
                             seed))
    for job in out:
        job.name = "probe." + job.name
    return out


def corpus_jobs(path: str, sets: int, seed: int) -> list[Job]:
    return [fixed_job(name, corpus_source(name), w, path, sets, seed,
                      row=True)
            for name in CORPUS for w in WIDTHS]


def shares_corpus(seed: int) -> list[Job]:
    jobs = corpus_jobs("shares", CORPUS_SETS, seed)
    return jobs + probes(seed, {"shares"})


def gatelist_corpus(seed: int) -> list[Job]:
    jobs = corpus_jobs("gatelist", CORPUS_SETS, seed)
    return jobs + probes(seed, {"gatelist"})


def compile_mix(seed: int) -> list[Job]:
    jobs = [fixed_job(name, make(), 64, "word", 1, seed)
            for name, make in TEMPLATES.items()]
    jobs += proggen_jobs(seed)
    jobs += corpus_jobs("word", 1, seed)
    return jobs + probes(seed, {"word"})


WORKLOADS = {
    "shares-corpus": shares_corpus,
    "gatelist-corpus": gatelist_corpus,
    "compile-mix": compile_mix,
}
