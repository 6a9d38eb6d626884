"""Command-line driver: check | lower | opt | estimate | run | emit.

Exit codes: 0 success, 1 program or usage error, 2 environment error
(unreadable files; circuit, inputs, spec or cost-model files that are
not JSON or not of the expected shape). Stage inputs may be `.hml`
source or a circuit JSON produced by an earlier stage, so every stage is
pipeable through files; all of them go through `pipeline.compile`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .backends import BACKENDS
from .backends.clear import flatten_inputs
from .backends.gatelist import emit_gatelist
from .circuit import Circuit, Level
from .errors import (
    CompilerError, MalformedCircuitError, ModelCoverageError,
    TypeCheckFailure,
)
from .estimator import (
    BUILTIN_MODELS, default_model_for, estimate, load_model,
    model_from_json_obj, rank_backends,
)
from .frontend import parse_source
from .pipeline import PipelineConfig, compile
from .sectypes import SCHEMES, Scheme
from .typecheck import check_program

# What a spec file may set, and the values it may set them to.
SPEC_CHOICES = {
    # a table itself is its choices: a new entry is a choice at once
    "scheme": SCHEMES,
    "level": ("arith", "bool"),
    "backend": BACKENDS,
}
SPEC_INTS = ("bitwidth", "parties", "seed")
SPEC_NAMES = ("passes", "cost_model")  # one name or a list of names
# Every setting, and its value when neither a flag nor the spec gives it.
DEFAULTS = {"scheme": "generic", "level": "arith", "backend": "clear",
            "bitwidth": 64, "parties": 3, "seed": 0, "passes": None,
            "cost_model": [], "objective": None}
SPEC_KEYS = set(DEFAULTS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpcc",
        description="compile ownership-annotated programs to oblivious "
                    "circuits, estimate their cost, and run them on "
                    "simulated backends")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_pipeline=True, with_passes=True, with_level=True):
        p.add_argument("source", help=".hml source or circuit .json")
        p.add_argument("--spec", help="JSON file with default settings "
                                      "(flags win)")
        p.add_argument("--scheme", choices=SPEC_CHOICES["scheme"])
        p.add_argument("-n", "--parties", type=int,
                       help="party count for the additive scheme/backend")
        if with_pipeline:  # `check` only type-checks and writes nothing
            p.add_argument("--bitwidth", type=int)
            if with_level:  # `run` and `emit` compile to a fixed level
                p.add_argument("--level", choices=SPEC_CHOICES["level"])
            if with_passes:  # `lower` runs no pass
                p.add_argument("--passes", help="comma-separated pass "
                                                "list; '' runs none")
            p.add_argument("-o", "--output", help="write result here "
                                                  "instead of stdout")

    common(sub.add_parser("check", help="type-check a program"),
           with_pipeline=False)
    common(sub.add_parser("lower", help="compile to circuit JSON without "
                                        "optimization"), with_passes=False)
    common(sub.add_parser("opt", help="optimize a circuit"))
    p_est = sub.add_parser("estimate", help="resource report for a circuit")
    common(p_est)
    p_est.add_argument("--cost-model", action="append", default=[],
                       help="builtin name or JSON path; repeat to rank")
    p_est.add_argument("--objective", default=None,
                       help="resource used for ranking several models")
    p_run = sub.add_parser("run", help="execute on a simulated backend")
    common(p_run, with_level=False)
    p_run.add_argument("--backend", choices=SPEC_CHOICES["backend"])
    p_run.add_argument("--inputs", required=True,
                       help='JSON {"parties": {"1": {"x": 5}}}')
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--trace", help="write the shares trace JSON here")
    common(sub.add_parser("emit", help="emit a boolean gate list"),
           with_level=False)
    return ap


def resolve(args, spec: dict):
    """Set each setting on `args` from its flag, else the spec, else the
    default; a flag is given unless None or [] (`--bitwidth 0` is)."""
    for name, default in DEFAULTS.items():
        flag = getattr(args, name, None)
        if flag is None or flag == []:
            setattr(args, name, spec.get(name, default))


def scheme_of(args) -> Scheme:
    return SCHEMES[args.scheme](args.parties)


def pipeline_config(args) -> PipelineConfig:
    passes = args.passes
    if args.command == "lower":
        passes = []  # `lower` is `opt --passes ''`
    elif isinstance(passes, str):
        passes = [p for p in passes.split(",") if p]
    if args.command == "run":
        level = BACKENDS[args.backend].level
    elif args.command == "emit":
        level = Level.BOOL
    else:
        level = Level(args.level)
    return PipelineConfig(
        scheme=scheme_of(args),
        bitwidth=args.bitwidth,
        target_level=level,
        passes=passes,
    )


def read_source(path: str) -> str:
    """The text of `path` as UTF-8, a leading byte-order mark dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise EnvironmentError(f"cannot read {path}: {ex}") from ex


def read_stage_input(path: str) -> str | Circuit:
    """Source text of an `.hml` file, or the circuit in a `.json` file."""
    if path.endswith(".json"):
        return Circuit.from_json_obj(read_json_file(path, "circuit"))
    return read_source(path)


class BadFileError(Exception):
    """A file the CLI reads that is not JSON, or an inputs, spec or
    cost-model file of another shape; it names the kind, then the file."""

    def __init__(self, kind: str, path: str, detail):
        super().__init__(f"bad {kind} file: {path}: {detail}")


def read_json_file(path: str, kind: str):
    try:
        return json.loads(read_source(path))
    except (ValueError, RecursionError) as ex:  # or an int too long to read
        raise BadFileError(kind, path, ex) from ex


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_spec_defaults(args) -> dict:
    if not args.spec:
        return {}
    path = args.spec
    spec = read_json_file(path, "spec")
    if not isinstance(spec, dict):
        raise BadFileError("spec", path, "expected a JSON object of settings")
    for name, value in spec.items():
        if name not in SPEC_KEYS:
            raise BadFileError("spec", path, f"unknown setting {name!r}")
        if name in SPEC_CHOICES and value not in tuple(SPEC_CHOICES[name]):
            raise BadFileError("spec", path, f"{name} must be one of "
                               f"{', '.join(SPEC_CHOICES[name])}")
        if name in SPEC_INTS and not is_int(value):
            raise BadFileError("spec", path, f"{name} must be an integer")
        if name in SPEC_NAMES and not (
                isinstance(value, str) or isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            raise BadFileError("spec", path, f"{name} must be a name or a "
                               f"list of names")
        if name == "objective" and not isinstance(value, str):
            raise BadFileError("spec", path, "objective must be a name")
    return spec


def load_inputs(path: str) -> dict[tuple[int, str], int]:
    obj = read_json_file(path, "inputs")
    parties = obj.get("parties", {}) if isinstance(obj, dict) else None
    if not (isinstance(parties, dict) and all(
            isinstance(values, dict) and all(
                is_int(v) or isinstance(v, list) and all(map(is_int, v))
                for v in values.values())
            for values in parties.values())):
        raise BadFileError("inputs", path, 'expected {"parties": '
                           '{"<party>": {"<name>": <int or list of ints>}}}')
    try:
        return flatten_inputs(parties)
    except ValueError as ex:  # a party that is not a number
        raise BadFileError("inputs", path, ex) from ex


def load_cost_model(name: str):
    """The built-in model `name`, else the model file at path `name`."""
    if name in BUILTIN_MODELS:
        return load_model(name)
    obj = read_json_file(name, "cost model")
    try:
        return model_from_json_obj(obj)
    except ModelCoverageError as ex:
        raise BadFileError("cost model", name, ex) from ex


def write_out(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    check_program(parse_source(read_source(args.source)), scheme_of(args))
    return 0


def cmd_circuit(args) -> int:
    """`lower` and `opt` write the circuit; only `opt` runs the passes."""
    c = compile(read_stage_input(args.source), pipeline_config(args))
    write_out(args, c.to_json())
    return 0


def cmd_estimate(args) -> int:
    c = compile(read_stage_input(args.source), pipeline_config(args))
    model_names = args.cost_model or []
    if isinstance(model_names, str):
        model_names = [model_names]
    models = [load_cost_model(m) for m in model_names]
    if not models:
        models = [default_model_for(c)]
    if len(models) == 1:
        report = estimate(c, models[0])
        write_out(args, report.to_json())
        return 0
    if not args.objective:
        print("ranking several models needs --objective", file=sys.stderr)
        return 1
    ranking = rank_backends(c, models, args.objective)
    write_out(args, json.dumps(
        {"objective": args.objective,
         "ranking": [{"model": name, "total": float(total)}
                     for name, total in ranking]}, indent=2) + "\n")
    return 0


def cmd_run(args) -> int:
    c = compile(read_stage_input(args.source), pipeline_config(args))
    outputs, trace = BACKENDS[args.backend].run(
        c, load_inputs(args.inputs), args.parties, args.seed)
    if trace is not None:
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(trace.to_json_obj(), fh, indent=2)
        print(json.dumps(trace.summary()), file=sys.stderr)
    elif args.trace:
        print(f"backend {args.backend} keeps no trace to write",
              file=sys.stderr)
        return 1
    write_out(args, json.dumps(outputs) + "\n")
    return 0


def cmd_emit(args) -> int:
    c = compile(read_stage_input(args.source), pipeline_config(args))
    write_out(args, emit_gatelist(c))
    return 0


COMMANDS = {"check": cmd_check, "lower": cmd_circuit, "opt": cmd_circuit,
            "estimate": cmd_estimate, "run": cmd_run, "emit": cmd_emit}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve(args, load_spec_defaults(args))
        return COMMANDS[args.command](args)
    except (EnvironmentError, BadFileError) as ex:
        print(f"mpcc: {ex}", file=sys.stderr)
        return 2
    except MalformedCircuitError as ex:
        print(f"mpcc: bad circuit file: {args.source}: {ex}", file=sys.stderr)
        return 2
    except TypeCheckFailure as ex:
        for err in ex.errors:
            line, col = err.pos or (0, 0)
            print(f"{args.source}:{line}:{col}: error[{err.rule}]: "
                  f"{err.message}", file=sys.stderr)
        return 1
    except CompilerError as ex:
        where = (args.source if ex.pos is None
                 else f"{args.source}:{ex.pos[0]}:{ex.pos[1]}")
        print(f"{where}: error: {ex.message}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"{args.source}: error: program nested too deeply",
              file=sys.stderr)
        return 1
    except ValueError as ex:
        print(f"mpcc: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
