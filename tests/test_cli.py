import argparse
import json
import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from astref import reference_run
from conftest import CORPUS, CORPUS_NAMES, ROOT, build, corpus_source
from mpcc.backends import BACKENDS, Backend
from mpcc.backends.boolsim import interpret_bool
from mpcc.backends.clear import flatten_inputs
from mpcc.backends.gatelist import eval_gatelist, parse_gatelist
from mpcc.circuit import Circuit, Level, contract_log
from mpcc.cli import (
    SPEC_CHOICES, SPEC_KEYS, BadFileError, load_cost_model, load_inputs,
    load_spec_defaults, main,
)
from mpcc.errors import MalformedCircuitError
from mpcc.estimator import CostModel, default_model_for, estimate
from mpcc.frontend import parse_source
from mpcc.pipeline import PipelineConfig, compile


def run_cli(*argv):
    return main(list(argv))


def hml(name):
    return str(CORPUS / f"{name}.hml")


def write_inputs(tmp_path, payload):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_check_ok():
    assert run_cli("check", hml("gcd")) == 0


def test_check_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.hml"
    bad.write_text("parties 1;\ninput x : int from 1;\noutput x;\n",
                   encoding="utf-8")
    assert run_cli("check", str(bad)) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:8: error[output-private]" in err


def test_check_missing_file_is_exit_2():
    assert run_cli("check", "/nonexistent/prog.hml") == 2


def test_estimate_pow8(tmp_path, capsys):
    assert run_cli("estimate", hml("pow8"), "--cost-model",
                   str(ROOT / "src" / "mpcc" / "models" / "arith.json")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate_counts"]["Mul"] == 3
    assert report["depth"] == 3


def test_estimate_no_opt(capsys):
    assert run_cli("estimate", hml("pow8"), "--passes", "") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate_counts"]["Mul"] == 7
    assert report["depth"] == 7


def test_run_auction_shares(tmp_path, capsys):
    inputs = write_inputs(tmp_path, {"parties": {"0": {"b0": 12},
                                                 "1": {"b1": 20},
                                                 "2": {"b2": 15}}})
    assert run_cli("run", hml("auction"), "--backend", "shares", "-n", "3",
                   "--scheme", "additive", "--inputs", inputs,
                   "--bitwidth", "16") == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"winner": 1, "price": 15}


def test_run_shares_trace_has_one_entry_per_round(tmp_path, capsys):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 2}}})
    trace = tmp_path / "trace.json"
    assert run_cli("run", hml("pow8"), "--backend", "shares",
                   "--scheme", "additive", "--inputs", inputs,
                   "--bitwidth", "16", "--trace", str(trace)) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"out0": 256}
    summary = {"rounds": 3, "multicasts": 3, "triples_consumed": 3,
               "bits_consumed": 0}
    assert json.loads(captured.err) == summary
    assert json.loads(trace.read_text()) == {
        **summary,
        "per_round": [{"round": r, "reveal": 0, "beaver": 2,
                       "comparison": 0} for r in (1, 2, 3)],
        "output_reveals": 1}


def test_run_clear_gcd(tmp_path, capsys):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 5, "y": 15}}})
    assert run_cli("run", hml("gcd"), "--inputs", inputs,
                   "--bitwidth", "16") == 0
    assert json.loads(capsys.readouterr().out) == {"g": 5}


def test_run_seed_determinism(tmp_path, capsys):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 5, "y": 15}}})
    outs = []
    for _ in range(2):
        assert run_cli("run", hml("gcd"), "--backend", "shares", "-n", "3",
                       "--scheme", "additive", "--inputs", inputs,
                       "--seed", "42", "--bitwidth", "16") == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("emit", "--level", "bool"),  # emit always compiles to bool
    ("lower", "--no-opt"),        # lower runs no pass
    ("check", "-o", "out.txt"),   # check writes nothing
    ("lower", "--passes", ""),    # lower is `opt --passes ''`
    ("opt", "--no-opt"),          # `--passes ''` is the one way to say so
])
def test_a_flag_that_would_change_nothing_is_refused(capsys, argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as ex:
        run_cli(command, hml("adder"), *flags)
    assert ex.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_emit_adder(tmp_path, capsys):
    # emit writes the bool fixpoint; --passes '' writes the raw bitblast; a
    # spec file's level goes unread, as run's does
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"level": "arith"}), encoding="utf-8")
    for flags, gates in (((), "14"), (("--passes", ""), "14"),
                         (("--spec", str(spec)), "14")):
        assert run_cli("emit", hml("adder"), "--bitwidth", "4", *flags) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].split()[0] == gates


def test_emit_optimizes_unless_no_opt(capsys):
    # the adder's raw bitblast already is its fixpoint; mergesort's is not
    gates = []
    for flags in ((), ("--passes", "")):
        assert run_cli("emit", hml("mergesort"), "--bitwidth", "4",
                       *flags) == 0
        gates.append(int(capsys.readouterr().out.split()[0]))
    assert gates[0] < gates[1]


REVEAL_FEEDS_GATES = ("parties 1;\n"
                      "input a : int from 1;\n"
                      "val r : int := eval({1}, a);\n"
                      "val s : int@{1} := a + r;\n"
                      "output eval({1}, s);\n")


@pytest.mark.parametrize("flags", [(), ("--passes", "")])
def test_emit_reveal_that_feeds_gates(tmp_path, capsys, flags):
    # a revealed bit that later gates read shares its operand's wire
    path = tmp_path / "reveal.hml"
    path.write_text(REVEAL_FEEDS_GATES, encoding="utf-8")
    assert run_cli("emit", str(path), "--bitwidth", "4", *flags) == 0
    gl = parse_gatelist(capsys.readouterr().out)
    b = compile(REVEAL_FEEDS_GATES, PipelineConfig(
        bitwidth=4, target_level=Level.BOOL, passes=[] if flags else None))
    for a in range(-3, 4):
        bits = eval_gatelist(gl, [(a >> k) & 1 for k in range(4)])
        s = sum(bit << k for k, bit in enumerate(bits))
        s -= 16 if bits[-1] else 0
        assert s == interpret_bool(b, {(1, "a"): a})["s"] == 2 * a, a


def test_pipe_composability(tmp_path, capsys):
    lowered = tmp_path / "c.json"
    optimized = tmp_path / "c2.json"
    assert run_cli("lower", hml("pow8"), "-o", str(lowered)) == 0
    assert run_cli("opt", str(lowered), "-o", str(optimized)) == 0
    assert run_cli("estimate", str(optimized)) == 0
    piped = capsys.readouterr().out
    assert run_cli("estimate", hml("pow8")) == 0
    direct = capsys.readouterr().out
    assert piped == direct


def test_lower_is_lowering_only_and_opt_rewrites_pow(tmp_path, capsys):
    lowered = tmp_path / "c.json"
    assert run_cli("lower", hml("pow8"), "-o", str(lowered)) == 0
    assert cli_out(capsys, "lower", hml("pow8")) == lowered.read_text()
    piped = cli_out(capsys, "opt", str(lowered))
    assert piped == cli_out(capsys, "opt", hml("pow8"))
    assert json.loads(lowered.read_text())["nodes"] != \
        json.loads(piped)["nodes"]
    optimized = tmp_path / "c2.json"
    optimized.write_text(piped, encoding="utf-8")
    report = json.loads(cli_out(capsys, "estimate", str(optimized)))
    assert report["gate_counts"]["Mul"] == 3
    assert report["depth"] == 3


def test_lower_takes_no_pass_list(capsys):
    with pytest.raises(SystemExit) as ex:
        run_cli("lower", hml("pow8"), "--passes", "cse")
    assert ex.value.code == 2
    assert "--passes" in capsys.readouterr().err


def test_huge_pow_exponent_is_one_diagnostic(tmp_path, capsys):
    # a raw pow(x, n) is n - 1 Muls: the bound keeps lowering small
    src = tmp_path / "huge.hml"
    src.write_text("parties 1;\ninput x : int from 1;\n"
                   "output eval({1}, pow(x, 1000000000));\n",
                   encoding="utf-8")
    for command in ("lower", "opt"):
        assert run_cli(command, str(src)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{src}:3:18: error[pow-exp]: "
                       "pow exponent must be in 0..64"]


def test_a_non_ascii_digit_is_one_diagnostic(tmp_path, capsys):
    # isdigit() holds for a superscript two, but int() refuses it
    src = tmp_path / "square.hml"
    src.write_text("parties 1;\ninput x : int from 1;\n"
                   "output eval({1}, x + 2\u00b2);\n", encoding="utf-8")
    assert run_cli("check", str(src)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:3:23: error: illegal character '\u00b2'"]


def test_a_source_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # some Windows editors start a UTF-8 file with EF BB BF
    plain, marked = tmp_path / "plain.hml", tmp_path / "marked.hml"
    text = corpus_source("gcd").replace("\n", "\r\n")
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for command in ("check", "estimate"):
        assert run_cli(command, str(plain)) == 0
        want = capsys.readouterr()
        assert run_cli(command, str(marked)) == 0
        assert capsys.readouterr() == want
    # a circuit file too
    lowered = tmp_path / "gcd.json"
    assert run_cli("lower", str(plain), "-o", str(lowered)) == 0
    marked.write_bytes(b"\xef\xbb\xbf" + lowered.read_bytes())
    marked = marked.rename(tmp_path / "marked.json")
    assert run_cli("opt", str(lowered)) == 0
    want = capsys.readouterr()
    assert run_cli("opt", str(marked)) == 0
    assert capsys.readouterr() == want


def file_kinds():
    """For each kind of file the CLI reads: a file name, well-formed
    contents, and the argv that reads a file of that kind at PATH."""
    arith = (ROOT / "src" / "mpcc" / "models" / "arith.json").read_bytes()
    return {
        "source": ("p.hml", corpus_source("adder").encode(), ["check"]),
        "circuit": ("c.json", build("adder", bitwidth=8).to_json().encode(),
                    ["opt"]),
        "inputs": ("i.json", b'{"parties": {"1": {"a": 3}, "2": {"b": 4}}}',
                   ["run", hml("adder"), "--bitwidth", "8", "--inputs"]),
        "spec": ("s.json", b'{"bitwidth": 8}', ["opt", hml("adder"),
                                                "--spec"]),
        "cost model": ("m.json", arith, ["estimate", hml("adder"),
                                         "--cost-model"]),
    }


@pytest.mark.parametrize("kind", ["source", "circuit", "inputs", "spec",
                                  "cost model"])
def test_every_file_kind_reads_a_byte_order_mark(tmp_path, capsys, kind):
    name, contents, argv = file_kinds()[kind]
    path = tmp_path / name
    outs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + contents)
        assert run_cli(*argv, str(path)) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind", ["source", "circuit", "inputs", "spec",
                                  "cost model"])
def test_a_file_that_is_not_utf8_is_exit_2(tmp_path, capsys, kind):
    name, _contents, argv = file_kinds()[kind]
    path = tmp_path / name
    path.write_bytes(b"\xff")
    assert run_cli(*argv, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpcc: ")
    assert "codec can't decode" in captured.err
    assert captured.err.count("\n") == 1


def test_a_lexing_or_parse_error_puts_its_position_first(tmp_path, capsys):
    src = tmp_path / "bad.hml"
    src.write_text("parties 1;\ninput a : int from 1;\n"
                   "output eval({1}, a +);\n", encoding="utf-8")
    assert run_cli("check", str(src)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{src}:3:21: error: ")


def test_opt_only_touches_circuit(tmp_path):
    lowered = tmp_path / "c.json"
    optimized = tmp_path / "c2.json"
    assert run_cli("lower", hml("matvec"), "-o", str(lowered)) == 0
    assert run_cli("opt", str(lowered), "-o", str(optimized)) == 0
    raw = json.loads(lowered.read_text())
    opt = json.loads(optimized.read_text())
    assert len(opt["nodes"]) < len(raw["nodes"])


def test_spec_file_with_flag_override(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bitwidth": 16, "passes": []}),
                    encoding="utf-8")
    assert run_cli("estimate", hml("pow8"), "--spec", str(spec)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate_counts"]["Mul"] == 7  # the spec's empty list applies
    # flags win over spec when both set the same knob
    assert run_cli("estimate", hml("pow8"), "--spec", str(spec),
                   "--passes", "pow_rewrite") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gate_counts"]["Mul"] == 3


def test_a_falsy_flag_still_wins_over_the_spec(tmp_path, capsys):
    # a flag is given unless it is None or an empty list
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bitwidth": 16, "objective": "comm"}),
                    encoding="utf-8")
    err = one_line_exit_1(capsys, ["estimate", hml("adder"), "--spec",
                                   str(spec), "--bitwidth", "0"])
    assert "BadBitwidth" in err
    models = [str(ROOT / "src" / "mpcc" / "models" / f"{m}.json")
              for m in ("arith", "additive")]
    err = one_line_exit_1(capsys, ["estimate", hml("adder"), "--spec",
                                   str(spec), "--cost-model", models[0],
                                   "--cost-model", models[1],
                                   "--objective", ""])
    assert err == "ranking several models needs --objective\n"


def test_rank_models(capsys, tmp_path):
    m1 = {"name": "alpha", "gate_costs": {
        "Const": {}, "Input": {}, "Reveal": {}, "Add": {}, "Sub": {},
        "MulPlain": {}, "Mux": {"comm": 2}, "Lt": {"comm": 10},
        "Eq": {"comm": 15}, "Mul": {"comm": 2}}}
    m2 = {"name": "beta", "gate_costs": {
        "Const": {}, "Input": {}, "Reveal": {}, "Add": {}, "Sub": {},
        "MulPlain": {}, "Mux": {"comm": 1}, "Lt": {"comm": 70},
        "Eq": {"comm": 105}, "Mul": {"comm": 1}}}
    p1 = tmp_path / "alpha.json"
    p2 = tmp_path / "beta.json"
    p1.write_text(json.dumps(m1), encoding="utf-8")
    p2.write_text(json.dumps(m2), encoding="utf-8")
    assert run_cli("estimate", hml("auction"), "--cost-model", str(p1),
                   "--cost-model", str(p2), "--objective", "comm",
                   "--bitwidth", "16") == 0
    ranking = json.loads(capsys.readouterr().out)["ranking"]
    assert [r["model"] for r in ranking] == ["alpha", "beta"]


def test_bad_inputs_json_is_exit_2(tmp_path):
    bad = tmp_path / "inputs.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("run", hml("gcd"), "--inputs", str(bad)) == 2


def test_opt_accepts_bool_circuit_json(tmp_path):
    lowered = tmp_path / "bool.json"
    assert run_cli("lower", hml("adder"), "--level", "bool",
                   "--bitwidth", "4", "-o", str(lowered)) == 0
    assert run_cli("opt", str(lowered), "--level", "bool",
                   "-o", str(tmp_path / "bool2.json")) == 0
    assert run_cli("emit", str(lowered),
                   "-o", str(tmp_path / "adder.txt")) == 0
    header = (tmp_path / "adder.txt").read_text().splitlines()[1]
    assert header == "8 4"


def test_tfhe_scheme_compiles_and_runs(tmp_path, capsys):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 5, "y": 15}}})
    assert run_cli("run", hml("gcd"), "--scheme", "tfhe", "--inputs", inputs,
                   "--bitwidth", "16") == 0
    assert json.loads(capsys.readouterr().out) == {"g": 5}


def test_additive_needs_two_parties(capsys):
    assert run_cli("check", hml("gcd"), "--scheme", "additive", "-n", "1") == 1
    assert "at least 2" in capsys.readouterr().err


def cli_out(capsys, *argv):
    assert run_cli(*argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("bitwidth", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cli_matches_in_process_pipeline(tmp_path, capsys, name, bitwidth):
    w = str(bitwidth)
    lowered = compile(corpus_source(name),
                      PipelineConfig(bitwidth=bitwidth, passes=[]))
    optimized = compile(corpus_source(name), PipelineConfig(bitwidth=bitwidth))
    direct = estimate(optimized, default_model_for(optimized)).to_json()
    assert cli_out(capsys, "lower", hml(name), "--bitwidth", w) == \
        lowered.to_json()
    assert cli_out(capsys, "opt", hml(name), "--bitwidth", w) == \
        optimized.to_json()
    assert cli_out(capsys, "estimate", hml(name), "--bitwidth", w) == direct
    # lower | opt | estimate through files
    c1, c2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert run_cli("lower", hml(name), "--bitwidth", w, "-o", c1) == 0
    assert run_cli("opt", c1, "-o", c2) == 0
    assert cli_out(capsys, "estimate", c2) == direct


@pytest.mark.parametrize("name", ["adder", "auction", "sum8", "gcd"])
def test_cli_matches_in_process_pipeline_at_bool_level(capsys, name):
    for command, passes in (("lower", []), ("opt", None)):
        text = cli_out(capsys, command, hml(name), "--bitwidth", "16",
                       "--level", "bool")
        cfg = PipelineConfig(bitwidth=16, target_level=Level.BOOL,
                             passes=passes)
        assert text == compile(corpus_source(name), cfg).to_json()


# the kinds that serve both levels; the name of a kind with "Bit" appended
# (their bit-level twins before) is no kind in a circuit or cost-model file
BOTH_LEVELS = ("Const", "Input", "Reveal")
BIT_TWINS = [f"{kind}Bit" for kind in BOTH_LEVELS]


def no_nodes(obj):
    return {"level": "arith", "bitwidth": 64}


def output_past_end(obj):
    obj["outputs"][0][0] = len(obj["nodes"])
    return obj


def mixed_level(obj):
    obj["level"] = "mixed"
    return obj


def leq_gate(obj):
    # the IR's comparisons are Lt and Eq; a <= b is written with them
    obj["nodes"][2]["kind"] = "Leq"
    return obj


def true_operand(obj):
    obj["nodes"][-1]["operands"] = [True]
    return obj


def unknown_meta_type(obj):
    obj["nodes"][0]["meta"] = {"type": "secret"}
    return obj


def text_provider(obj):
    obj["nodes"][0]["meta"]["provider"] = "12"
    return obj


def mixed_provider(obj):
    obj["nodes"][0]["meta"]["provider"] = [1, "x"]
    return obj


def fractional_threshold(obj):
    obj["nodes"][0]["meta"] = {"type": "shared", "provider": [1],
                               "players": [1, 2], "observers": [1],
                               "threshold": 1.5}
    return obj


def payload_on_reveal(obj):
    # only Const and MulPlain take a payload
    next(n for n in obj["nodes"] if n["kind"] == "Reveal")["payload"] = 7
    return obj


@pytest.mark.parametrize("command", ["estimate", "opt", "run"])
@pytest.mark.parametrize("breakage", [
    no_nodes, output_past_end, mixed_level, leq_gate, true_operand,
    unknown_meta_type, text_provider, mixed_provider,
    fractional_threshold, payload_on_reveal])
def test_malformed_circuit_file_is_exit_2(tmp_path, capsys, command,
                                          breakage):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(breakage(build("adder").to_json_obj())),
                    encoding="utf-8")
    extra = (["--inputs", write_inputs(tmp_path, {"parties": {}})]
             if command == "run" else [])
    assert run_cli(command, str(path), *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpcc: bad circuit file: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def one_line_exit_1(capsys, argv) -> str:
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def circuit_file(tmp_path, name, level):
    path = tmp_path / f"{name}-{level}.json"
    assert run_cli("opt", hml(name), "--level", level, "--bitwidth", "16",
                   "-o", str(path)) == 0
    return str(path)


@pytest.mark.parametrize("backend", ["clear", "shares"])
def test_run_refuses_a_bool_circuit_on_a_word_backend(tmp_path, capsys,
                                                      backend):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 5, "y": 15}}})
    err = one_line_exit_1(capsys, [
        "run", circuit_file(tmp_path, "gcd", "bool"), "--backend", backend,
        "--inputs", inputs])
    assert "word-level" in err


def test_run_compiles_a_word_circuit_file_for_the_bool_backend(tmp_path,
                                                               capsys):
    # a circuit file compiles to the backend's level, as source does, and
    # a word reads as two's complement on every backend
    src = tmp_path / "minus5.hml"
    src.write_text("parties 1;\ninput x : int from 1;\n"
                   "output eval({1}, x - 5);\n", encoding="utf-8")
    path = tmp_path / "minus5.json"
    assert run_cli("opt", str(src), "--bitwidth", "16", "-o", str(path)) == 0
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 2}}})
    for backend in BACKENDS:
        assert run_cli("run", str(path), "--backend", backend,
                       "--inputs", inputs) == 0
        assert capsys.readouterr().out == '{"out0": -3}\n'


def test_run_takes_its_level_from_the_backend(tmp_path, capsys):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 5, "y": 15}}})
    with pytest.raises(SystemExit):
        run_cli("run", hml("gcd"), "--level", "bool", "--inputs", inputs)
    capsys.readouterr()
    # a spec file's level goes unread by run, as opt ignores its backend
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"level": "bool", "bitwidth": 16}),
                    encoding="utf-8")
    assert run_cli("run", hml("gcd"), "--spec", str(spec), "--backend",
                   "shares", "--inputs", inputs) == 0
    assert json.loads(capsys.readouterr().out) == {"g": 5}


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_every_backend_checks_the_range_contract(tmp_path, capsys, backend):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 16384,
                                                       "y": 15}}})
    err = one_line_exit_1(capsys, ["run", hml("gcd"), "--bitwidth", "16",
                                   "--backend", backend, "--inputs", inputs])
    assert err == f"{hml('gcd')}: error: input x=16384 exceeds |v| < 2^14\n"


@pytest.mark.parametrize("backend", ["clear", "bool"])
def test_run_refuses_a_trace_the_backend_does_not_keep(tmp_path, capsys,
                                                       backend):
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 5, "y": 15}}})
    trace = tmp_path / "trace.json"
    err = one_line_exit_1(capsys, [
        "run", hml("gcd"), "--bitwidth", "16", "--backend", backend,
        "--inputs", inputs, "--trace", str(trace)])
    assert backend in err
    assert not trace.exists()


def contract_inputs(name, w, rng):
    """Seeded inputs for corpus program `name` whose every value, the
    outputs included, stays inside the w-bit range contract."""
    limit = 1 << contract_log(w)

    def ints(count, bound):
        return [rng.randrange(-bound + 1, bound) for _ in range(count)]
    if name == "gcd":  # the bound caps the recursion at 5 steps
        return {"1": {"x": rng.randrange(30), "y": rng.randrange(30)}}
    if name == "auction":
        return {str(i): {f"b{i}": rng.randrange(100)} for i in range(3)}
    if name == "mergesort":
        return {"1": {"xs": ints(4, 100)}}
    if name == "matvec":  # each row sums at most 2,202 times its largest
        return {"1": {f"row{r}": ints(10, limit // 2202) for r in range(3)}}
    if name == "pow8":
        return {"1": {"x": ints(1, math.isqrt(math.isqrt(math.isqrt(
            limit - 1))) + 1)[0]}}
    if name == "adder":
        return {"1": {"a": ints(1, limit // 2)[0]},
                "2": {"b": ints(1, limit // 2)[0]}}
    assert name == "sum8"
    return {"1": {"xs": ints(8, limit // 8)}}


@pytest.mark.parametrize("w", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bool_backend_matches_clear_and_the_reference(tmp_path, capsys,
                                                      name, w):
    parties = contract_inputs(name, w, random.Random(f"{name}@{w}"))
    inputs = write_inputs(tmp_path, {"parties": parties})
    outs = []
    for backend in ("clear", "bool"):
        assert run_cli("run", hml(name), "--bitwidth", str(w), "--backend",
                       backend, "--inputs", inputs) == 0
        outs.append(capsys.readouterr().out)
    want = reference_run(parse_source(corpus_source(name)),
                         flatten_inputs(parties))
    assert outs[0] == outs[1] == json.dumps(want) + "\n", parties


@pytest.mark.parametrize("w", [16, 64])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_word_circuit_file_runs_alike_on_every_backend(tmp_path, capsys,
                                                         name, w):
    # the 16-bit contract keeps every value inside the shares field at
    # both widths; the "signed" key of older files is read by no backend
    parties = contract_inputs(name, 16, random.Random(f"{name}@{w}"))
    inputs = write_inputs(tmp_path, {"parties": parties})
    word = tmp_path / "word.json"
    assert run_cli("opt", hml(name), "--bitwidth", str(w), "-o",
                   str(word)) == 0
    unsigned = tmp_path / "unsigned.json"
    unsigned.write_text(json.dumps({**json.loads(word.read_text(
        encoding="utf-8")), "signed": False}), encoding="utf-8")
    outs = []
    for path in (word, unsigned):
        for backend in BACKENDS:
            assert run_cli("run", str(path), "--backend", backend,
                           "--inputs", inputs) == 0
            outs.append(json.loads(capsys.readouterr().out))
    assert outs == [outs[0]] * len(outs), parties


def test_a_backend_added_to_the_table_is_reachable(tmp_path, capsys,
                                                   monkeypatch):
    calls = []

    def toy(c, inputs, parties, seed):
        calls.append((c.level, dict(inputs), parties, seed))
        return {"gates": len(c.nodes)}, None
    monkeypatch.setitem(BACKENDS, "toy", Backend(Level.BOOL, toy))
    inputs = write_inputs(tmp_path, {"parties": {"1": {"a": 3},
                                                 "2": {"b": 4}}})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"backend": "toy", "parties": 4, "seed": 9}),
                    encoding="utf-8")
    assert run_cli("run", hml("adder"), "--bitwidth", "8", "--backend",
                   "toy", "-n", "4", "--seed", "9", "--inputs", inputs) == 0
    assert run_cli("run", hml("adder"), "--bitwidth", "8", "--spec",
                   str(spec), "--inputs", inputs) == 0
    gates = len(compile(corpus_source("adder"), PipelineConfig(
        bitwidth=8, target_level=Level.BOOL)).nodes)
    assert capsys.readouterr().out == f'{{"gates": {gates}}}\n' * 2
    assert calls == [(Level.BOOL, {(1, "a"): 3, (2, "b"): 4}, 4, 9)] * 2


def one_line_exit_2(capsys, argv, kind) -> str:
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mpcc: bad {kind} file: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def bit_twin(kind):
    def rename(obj):
        next(n for n in obj["nodes"] if n["kind"] == kind)["kind"] += "Bit"
        return obj
    return rename


def bit_constant_2(obj):
    next(n for n in obj["nodes"] if n["kind"] == "Const")["payload"] = 2
    return obj


@pytest.mark.parametrize("command", ["estimate", "opt", "emit"])
@pytest.mark.parametrize("breakage, message", [
    *((bit_twin(kind), f"'{kind}Bit' is not a valid GateKind")
      for kind in BOTH_LEVELS),
    (bit_constant_2, "bit constant 2 is not 0 or 1")],
    ids=[*BIT_TWINS, "bit_constant_2"])
def test_malformed_bool_circuit_file_is_exit_2(tmp_path, capsys, command,
                                               breakage, message):
    # the unoptimized 4-bit bool auction holds Const, Input and Reveal
    obj = compile(corpus_source("auction"),
                  PipelineConfig(bitwidth=4, target_level=Level.BOOL,
                                 passes=[])).to_json_obj()
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(breakage(obj)), encoding="utf-8")
    level = [] if command == "emit" else ["--level", "bool"]
    assert message in one_line_exit_2(
        capsys, [command, str(path), *level], "circuit")


TWO_WORDS = ("parties 1;\ninput x : int from 1;\ninput y : int from 1;\n"
             "output eval({1}, x);\noutput eval({1}, x + y);\n")


@pytest.mark.parametrize("key", ["inputs", "outputs"])
def test_word_circuit_that_lists_a_name_twice_is_refused(tmp_path, capsys,
                                                         key):
    # the bool backend would read the second word from the first's bits
    obj = compile(TWO_WORDS, PipelineConfig(bitwidth=16,
                                            passes=[])).to_json_obj()
    obj[key][1][2] = obj[key][0][2]
    with pytest.raises(MalformedCircuitError, match="listed twice"):
        compile(Circuit.from_json_obj(obj), PipelineConfig())
    path = tmp_path / "word.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    inputs = write_inputs(tmp_path, {"parties": {"1": {"x": 2, "y": 3}}})
    for backend in BACKENDS:
        assert "listed twice" in one_line_exit_2(
            capsys, ["run", str(path), "--backend", backend,
                     "--inputs", inputs], "circuit")


def test_bool_circuit_lists_each_bit_under_its_word_name():
    c = compile(TWO_WORDS, PipelineConfig(bitwidth=16,
                                          target_level=Level.BOOL,
                                          passes=[]))
    assert [name for _nid, _party, name in c.inputs] == ["x"] * 16 + ["y"] * 16
    assert c.validate() == []


@pytest.mark.parametrize("content", [
    "{}", "[]", "[1]", '{"name": "m"}', '{"name": 5, "gate_costs": {}}',
    '{"name": "m", "gate_costs": []}', "{not json",
    '{"name": "m", "gate_costs": {"Mul": {"rounds": "1/0"}}}',
    '{"name": "m", "gate_costs": {"Mul": {"rounds": "1e10000000"}}}',
    '{"name": "m", "gate_costs": {}, "depth_weights": {"Mul": 1.7}}',
    '{"name": "m", "gate_costs": {}, "depth_weights": {"Mul": "3"}}',
    '{"name": "m", "gate_costs": {}, "depth_weights": {"Mul": true}}',
    '{"name": "m", "gate_costs": {"Leq": {"comparisons": 1}}}',
    '{"name": "m", "gate_costs": {}, "depth_weights": {"Leq": 7}}',
    # a name or kind that holds a line break is still one line
    '{"name": "a\\nb", "gate_costs": {"Frob\\nnicate": {}}}',
    *(json.dumps({"name": "m", "gate_costs": {twin: {}}})
      for twin in BIT_TWINS),
    *(json.dumps({"name": "m", "gate_costs": {}, "depth_weights": {twin: 1}})
      for twin in BIT_TWINS)])
def test_malformed_cost_model_file_is_exit_2(tmp_path, capsys, content):
    path = tmp_path / "m.json"
    path.write_text(content, encoding="utf-8")
    err = one_line_exit_2(capsys, ["estimate", hml("adder"), "--cost-model",
                                   str(path)], "cost model")
    # the line speaks of the file, not of the loader's Python objects
    assert not re.search(r"'(dict|list|str|int|float|bool|NoneType)'|"
                         r"attribute|subscriptable|iterable", err)


@pytest.mark.parametrize("kind, argv", [
    ("inputs", ["run", hml("adder"), "--inputs"]),
    ("spec", ["opt", hml("adder"), "--spec"]),
    ("cost model", ["estimate", hml("adder"), "--cost-model"])])
def test_a_missing_file_is_one_cannot_read_line(tmp_path, monkeypatch,
                                                capsys, kind, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "missing.json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mpcc: cannot read missing.json: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("content, detail", [
    ("[1]", ""), ('{"level": "arith"', "Expecting"),
    # json.loads refuses to convert an integer of more than 4,300 digits
    ("[" + "1" * 5000 + "]", "digits")],
    ids=["shape", "not-json", "long-int"])
@pytest.mark.parametrize("kind", ["circuit", "inputs", "spec",
                                  "cost model"])
def test_a_bad_file_line_names_the_file(tmp_path, capsys, kind, content,
                                        detail):
    # the CLI parses every JSON file it reads in one place
    name, _contents, argv = file_kinds()[kind]
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    err = one_line_exit_2(capsys, [*argv, str(path)], kind)
    assert err.startswith(f"mpcc: bad {kind} file: {path}: ")
    assert detail in err


def circuit_with(**fields) -> str:
    obj = {"level": "arith", "bitwidth": 8, "nodes": [], "inputs": [],
           "outputs": [], **fields}
    return json.dumps(obj)


@pytest.mark.parametrize("content, shape", [
    ("[1]", "a circuit is a JSON object"),
    (circuit_with(nodes={}), "a circuit's nodes are a list"),
    (circuit_with(nodes=[1]), "a node is a JSON object"),
    (circuit_with(nodes=[{"id": 0, "kind": "Input", "operands": 0,
                          "meta": {"type": "plain"}}]),
     "a node's operands are a list"),
    (circuit_with(nodes=[{"id": 0, "kind": "Input", "operands": [],
                          "meta": []}]), "a node's meta is a JSON object"),
    (circuit_with(inputs=[[0, 1]]),
     "a circuit's inputs are a list of [id, party, name] lists"),
    (circuit_with(outputs=5),
     "a circuit's outputs are a list of [id, parties, name] lists")])
def test_a_circuit_file_of_the_wrong_shape_names_the_shape(tmp_path, capsys,
                                                           content, shape):
    path = tmp_path / "c.json"
    path.write_text(content, encoding="utf-8")
    assert one_line_exit_2(capsys, ["opt", str(path)], "circuit") == (
        f"mpcc: bad circuit file: {path}: {shape}\n")


def test_a_model_name_with_a_line_break_is_one_line(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"name": "a\\nb", "gate_costs": {}}', encoding="utf-8")
    assert one_line_exit_1(capsys, ["estimate", hml("adder"),
                                    "--cost-model", str(path)]) == (
        f"{hml('adder')}: error: model 'a\\nb' does not price Input\n")


def test_a_bad_model_among_several_is_named(tmp_path, capsys):
    good = ROOT / "src" / "mpcc" / "models" / "arith.json"
    bad = tmp_path / "b.json"
    bad.write_text('{"name": "b", "gate_costs": {"Mul": 1}}',
                   encoding="utf-8")
    err = one_line_exit_2(capsys, ["estimate", hml("adder"), "--cost-model",
                                   str(good), "--cost-model", str(bad),
                                   "--objective", "x"], "cost model")
    assert err.startswith(f"mpcc: bad cost model file: {bad}: ")


def assert_model_key_is_exit_2(tmp_path, capsys, key, value):
    """arith.json with one more top-level key is refused, not priced."""
    model = json.loads((ROOT / "src" / "mpcc" / "models" / "arith.json")
                       .read_text(encoding="utf-8"))
    model[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    one_line_exit_2(capsys, ["estimate", hml("adder"), "--cost-model",
                             str(path)], "cost model")


def test_cost_model_with_edge_costs_is_exit_2(tmp_path, capsys):
    assert_model_key_is_exit_2(tmp_path, capsys, "edge_costs",
                               {"Mul->Mul": {"hops": 2}})


@pytest.mark.parametrize("key, value", [
    ("preprocessing", {"triples_per_mul": 2}),
    ("prime_modulus", (1 << 127) - 1)])
def test_cost_model_with_a_removed_key_is_exit_2(tmp_path, capsys, key,
                                                 value):
    assert_model_key_is_exit_2(tmp_path, capsys, key, value)


# leaves that once broke the loader or were silently misread
odd_leaves = st.sampled_from(["1/0", 1.7, True, -1, "x", None, [], {}, 0, 2])
json_values = st.recursive(
    odd_leaves | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
kind_names = st.sampled_from(["Mul", "Add", "Lt", "Const", "Frobnicate"])
per_kind = st.dictionaries(kind_names, odd_leaves, max_size=3)
model_shaped = st.fixed_dictionaries(
    {"name": odd_leaves | st.text(max_size=4),
     "gate_costs": st.dictionaries(
         kind_names, st.dictionaries(st.sampled_from(["rounds", "comm"]),
                                     odd_leaves, max_size=2) | odd_leaves,
         max_size=3) | odd_leaves},
    optional={"depth_weights": per_kind | odd_leaves,
              "preprocessing": json_values, "prime_modulus": odd_leaves})


@given(obj=model_shaped | json_values)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cost_model_loader_fails_only_with_bad_file_error(tmp_path, obj):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    try:
        model = load_cost_model(str(path))
    except BadFileError:
        return
    assert isinstance(model, CostModel)


# leaves and keys an inputs or spec file may hold
party_keys = st.sampled_from(["1", "2", "0", "-1", "x", ""]) | st.text(
    max_size=3)
inputs_shaped = st.fixed_dictionaries({"parties": st.dictionaries(
    party_keys, st.dictionaries(
        st.text(max_size=3), odd_leaves | st.integers() | st.lists(
            odd_leaves | st.integers(), max_size=3), max_size=3)
    | odd_leaves, max_size=3) | odd_leaves})
spec_shaped = st.dictionaries(
    st.sampled_from(sorted(SPEC_KEYS)) | st.text(max_size=4),
    odd_leaves | st.sampled_from([name for names in SPEC_CHOICES.values()
                                  for name in names])
    | st.lists(st.text(max_size=3) | odd_leaves, max_size=2),
    max_size=4)


@given(obj=inputs_shaped | json_values)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_inputs_loader_fails_only_with_bad_file_error(tmp_path, obj):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    try:
        inputs = load_inputs(str(path))
    except BadFileError:
        return
    assert all(type(party) is int and isinstance(name, str)
               and type(v) is int for (party, name), v in inputs.items())


@given(obj=spec_shaped | json_values)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_spec_loader_fails_only_with_bad_file_error(tmp_path, obj):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    try:
        spec = load_spec_defaults(argparse.Namespace(spec=str(path)))
    except BadFileError:
        return
    assert isinstance(spec, dict) and set(spec) <= SPEC_KEYS


@pytest.mark.parametrize("payload", [[], {"parties": []},
                                     {"parties": {"1": 5}},
                                     {"parties": {"one": {"x": 5}}},
                                     {"parties": {"1": {"x": "five"}}},
                                     {"parties": {"1": {"x": 5.9}}},
                                     {"parties": {"1": {"x": True}}},
                                     {"parties": {"1": {"xs": [1, 2.5]}}}])
def test_malformed_inputs_file_is_exit_2(tmp_path, capsys, payload):
    one_line_exit_2(capsys, ["run", hml("adder"), "--inputs",
                             write_inputs(tmp_path, payload)], "inputs")


@pytest.mark.parametrize("command, payload", [
    ("opt", []), ("opt", 5), ("estimate", []),
    ("estimate", {"cost_model": 5}), ("estimate", {"objective": [1]}),
    ("opt", {"bitwidth": [16]}), ("opt", {"bitwidth": "abc"}),
    ("opt", {"seed": None}), ("opt", {"parties": True}),
    ("opt", {"level": "x"}), ("opt", {"scheme": 5}),
    ("opt", {"passes": 5}),
    # a removed or misspelt setting would do nothing: `passes` alone
    # turns the passes off
    ("estimate", {"encoding": "rewrite"}), ("opt", {"bitwdith": 16}),
    ("estimate", {"no_opt": "false"}), ("estimate", {"no_opt": True}),
])
def test_malformed_spec_file_is_exit_2(tmp_path, capsys, command, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    one_line_exit_2(capsys, [command, hml("adder"), "--spec", str(path)],
                    "spec")


# (code, program, the flags of each `opt` run that fails with that code)
LOWERING_ERRORS = [
    ("IndexOutOfRange", "input xs : arr(int, {1}, 3) from 1;\n"
                        "output eval({1}, xs(5));", [()]),
    ("SliceOutOfRange", "input xs : arr(int, {1}, 3) from 1;\n"
                        "output eval({1}, reduce(+, xs.slice(1, 5)));",
     [()]),
    ("DivisionByZero", "output eval({1}, 4 / 0);", [()]),
    ("DivisionByZero", "input a : int from 1;\noutput eval({1}, a % 0);",
     [()]),
    ("LoopCounterStuck", "input a : int from 1;\nval k : int := 0;\n"
                         "while (k < 3) { k := k; }\n"
                         "output eval({1}, a);", [()]),
    ("EmptyArray", "input xs : arr(int, {1}, 0) from 1;\n"
                   "output eval({1}, reduce(+, xs));", [()]),
    ("ArrayShape", "input a : int from 1;\n"
                   "input xs : arr(int, {1}, 3) from 1;\n"
                   "input ys : arr(int, {1}, 2) from 1;\n"
                   "val zs : arr(int, {1}) := if (a < 0) { xs } else { ys };\n"
                   "output eval({1}, zs(0));", [()]),
    ("NoBaseCase", "fun f(x : int@{1}) : int@{1} bound 2 {\n"
                   "  if (x < 0) { f(x - 1) } else { f(x + 1) }\n}\n"
                   "input a : int from 1;\noutput eval({1}, f(a));", [()]),
    ("BadBitwidth", "input a : int from 1;\noutput eval({1}, a);",
     [("--bitwidth", "99")]),
    ("UnknownPass", "input a : int from 1;\noutput eval({1}, a);",
     [("--passes", "nope"), ("--passes", "tree_reduce")]),
]


@pytest.mark.parametrize("code, program, runs", LOWERING_ERRORS,
                         ids=[code for code, _p, _r in LOWERING_ERRORS])
def test_each_lowering_error_is_one_line_and_exit_1(tmp_path, capsys, code,
                                                    program, runs):
    src = tmp_path / "p.hml"
    src.write_text(f"parties 1;\n{program}\n", encoding="utf-8")
    for flags in runs:
        assert run_cli("opt", str(src), *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the position, where the error has one, comes before "error:"
        assert re.fullmatch(rf"{re.escape(str(src))}(:\d+:\d+)?: error: "
                            rf"{code}: [^\n]*\n", captured.err)


# Each type rule whose copy lowering dropped: the checker, which every
# program passes before lowering, refuses the program with that rule.
XS_AND_A = "input xs : arr(int, {1}, 2) from 1;\ninput a : int from 1;\n"
TYPE_RULES = [
    ("unbound", "read", "output eval({1}, y);"),
    ("unbound", "assignment", "y := 1;"),
    ("not-array", "update", "a(0) := 1;"),
    ("not-array", "index", "output eval({1}, a(0));"),
    ("not-array", "length", "output a.length;"),
    ("not-array", "slice", "output eval({1}, reduce(+, a.slice(0, 1)));"),
    ("eval-array", "eval", "output eval({1}, xs);"),
    ("reduce-array", "reduce", "output eval({1}, reduce(+, a));"),
    ("binop-array", "binop", "output eval({1}, xs + 1);"),
    ("pow-int", "pow", "output eval({1}, pow(xs, 2));"),
]


@pytest.mark.parametrize("rule, program", [(r, p) for r, _w, p in TYPE_RULES],
                         ids=[f"{r}-{w}" for r, w, _p in TYPE_RULES])
def test_the_type_checker_owns_names_and_shapes(tmp_path, capsys, rule,
                                                program):
    src = tmp_path / "p.hml"
    src.write_text(f"parties 1;\n{XS_AND_A}{program}\n", encoding="utf-8")
    err = one_line_exit_1(capsys, ["lower", str(src)])
    assert re.fullmatch(rf"{re.escape(str(src))}:4:\d+: error\[{rule}\]: "
                        rf"[^\n]*\n", err)


PARTY_2 = "parties 0, 1, 2;\ninput x : int from 2;\noutput eval({2}, x);\n"


@pytest.mark.parametrize("command", ["check", "lower", "opt", "estimate",
                                     "run", "emit"])
def test_a_party_that_does_not_fit_the_sharing_is_a_type_error(
        tmp_path, capsys, command):
    # a typing rule, so `check` refuses the program as every stage does
    src = tmp_path / "p.hml"
    src.write_text(PARTY_2, encoding="utf-8")
    extra = (["--inputs", write_inputs(tmp_path, {"parties": {"2": {
        "x": 1}}})] if command == "run" else [])
    err = one_line_exit_1(capsys, [command, str(src), "--scheme",
                                   "additive", "-n", "2", *extra])
    assert err == (f"{src}:2:1: error[party-out-of-range]: party 2 does "
                   f"not fit 2-party additive sharing\n")
    assert run_cli(command, str(src), "--scheme", "additive", "-n", "3",
                   *extra) == 0


def test_a_call_with_no_function_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "p.hml"
    src.write_text("parties 1;\noutput f(1, 2);\n", encoding="utf-8")
    assert one_line_exit_1(capsys, ["lower", str(src)]) == (
        f"{src}:2:8: error: unknown function 'f'\n")


# What only compile-time values decide stays with lowering; each error
# names the statement or expression it comes from.
BOUNDED_F = ("fun f(x : int@{1}, n : int) : int@{1} bound %s {\n"
             "  if (n == 0) { x } else { f(x, n - 1) }\n}\n")
XS_YS = ("input xs : arr(int, {1}, 3) from 1;\n"
         "input ys : arr(int, {1}, 2) from 1;\n")
LOWERING_ERRORS_WITH_POSITIONS = [
    ("IndexOutOfRange", "update", 4, "xs(5) with length 2",
     f"parties 1;\n{XS_AND_A}xs(5) := a;\noutput eval({{1}}, a);", ()),
    ("EmptyArray", "private-update", 4, "update of empty array",
     "parties 1;\ninput xs : arr(int, {1}, 0) from 1;\n"
     "input a : int from 1;\nxs(a) := 1;\noutput eval({1}, a);", ()),
    ("EmptyArray", "private-index", 4, "index into empty array",
     "parties 1;\ninput xs : arr(int, {1}, 0) from 1;\n"
     "input a : int from 1;\noutput eval({1}, xs(a));", ()),
    ("NonConstBound", "loop-counter", 4, "loop counter 'i'",
     "parties 1;\ninput a : int from 1;\nval i : int := eval({1}, a);\n"
     "while (i < 3) { i := i + 1; }\noutput eval({1}, a);", ()),
    ("NonConstBound", "function-bound", 6, "bound of 'f'",
     f"parties 1;\n{BOUNDED_F % 'n'}input a : int from 1;\n"
     "output eval({1}, f(a, eval({1}, a)));", ()),
    ("NonConstDivisor", "division", 3, "division needs compile-time",
     "parties 1;\ninput a : int from 1;\noutput eval({1}, eval({1}, a) / 2);",
     ()),
    ("ArrayShape", "if-expression", 5, "arrays of different shape",
     f"parties 1;\ninput a : int from 1;\n{XS_YS}"
     "val zs : arr(int, {1}) := if (a < 0) { xs } else { ys };\n"
     "output eval({1}, zs(0));", ()),
    ("ArrayShape", "if-statement", 5, "arrays of different shape",
     f"parties 1;\ninput a : int from 1;\n{XS_YS}"
     "if (a < 0) { xs := ys; }\noutput eval({1}, xs(0));", ()),
    ("NonConstLength", "input-length", 2, "input array length is missing",
     "parties 1;\ninput xs : arr(int, {1}) from 1;\n"
     "output eval({1}, xs(0));", ()),
    ("NonConstLength", "fill-length", 2, "array length is missing",
     "parties 1;\nval ys : arr(int, {1}) := 0;\n"
     "output eval({1}, ys(0));", ()),
    ("FuelExhausted", "taken-branch", 3, "still recursing with no fuel left",
     f"parties 1;\n{BOUNDED_F % '1'}input a : int from 1;\n"
     "output eval({1}, f(a, 3));", ()),
    ("FuelExhausted", "call", 3, "still recursing with no fuel left",
     "parties 1;\nfun g(x : int@{1}) : int@{1} bound 1 {\n"
     "  val t : int@{1} := g(x);\n  t\n}\ninput a : int from 1;\n"
     "output eval({1}, g(a));", ()),
    ("FuelExhausted", "unconditional", 2, "recurses unconditionally",
     "parties 1;\nfun g(x : int@{1}) : int@{1} bound 1 { g(x) }\n"
     "input a : int from 1;\noutput eval({1}, g(a));", ()),
]


@pytest.mark.parametrize(
    "code, line, message, program, flags",
    [case[:1] + case[2:] for case in LOWERING_ERRORS_WITH_POSITIONS],
    ids=[f"{case[0]}-{case[1]}" for case in LOWERING_ERRORS_WITH_POSITIONS])
def test_a_lowering_error_names_its_position(tmp_path, capsys, code, line,
                                             message, program, flags):
    src = tmp_path / "p.hml"
    src.write_text(f"{program}\n", encoding="utf-8")
    err = one_line_exit_1(capsys, ["lower", str(src), *flags])
    assert re.fullmatch(rf"{re.escape(str(src))}:{line}:\d+: error: "
                        rf"{code}: [^\n]*\n", err)
    assert message in err


def bitwidth_100(obj):
    obj["bitwidth"] = 100
    return obj


def input_id_999(obj):
    obj["inputs"][0][0] = 999
    return obj


def reveal_without_audience(obj):
    next(n for n in obj["nodes"] if n["kind"] == "Reveal")["meta"] = {
        "type": "plain"}
    return obj


def shared_input(node, threshold):
    node["meta"] = {"type": "shared", "provider": node["meta"]["provider"],
                    "players": [1, 2, 3], "observers": [1, 2, 3],
                    "threshold": threshold}


def thresholds_2_and_3(obj):
    shared_input(obj["nodes"][0], 2)
    shared_input(obj["nodes"][1], 3)
    return obj


def enc_beside_shared(obj):
    shared_input(obj["nodes"][1], 3)
    return obj


def provider_not_a_player(obj):
    shared_input(obj["nodes"][0], 3)
    obj["nodes"][0]["meta"]["provider"] = [4]
    return obj


VALIDATE_BREAKAGES = [
    (bitwidth_100, "bitwidth 100 outside [2, 64]"),
    (provider_not_a_player,
     "node 0: provider [4] not among players [1, 2, 3]"),
    (input_id_999, "input id 999 out of range"),
    (reveal_without_audience, "node 3: reveal without audience"),
    (thresholds_2_and_3, "node 2: thresholds differ: 2 vs 3"),
    (enc_beside_shared, "node 2: cannot mix encrypted and shared metadata"),
]


@pytest.mark.parametrize("breakage, message", VALIDATE_BREAKAGES,
                         ids=[b.__name__ for b, _m in VALIDATE_BREAKAGES])
def test_a_circuit_file_that_validate_refuses_is_exit_2(tmp_path, capsys,
                                                        breakage, message):
    # the checks a circuit file can break and add_node cannot see
    obj = breakage(build("adder").to_json_obj())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert message in one_line_exit_2(capsys, ["opt", str(path)], "circuit")


def test_an_undeclared_input_party_is_one_line(tmp_path, capsys):
    src = tmp_path / "p.hml"
    src.write_text("parties 1;\ninput x : int from 2;\n", encoding="utf-8")
    assert one_line_exit_1(capsys, ["check", str(src)]) == (
        f"{src}:2:1: error[party-undeclared]: parties [2] not declared\n")


def test_deeply_nested_program_is_one_diagnostic(tmp_path, capsys):
    # typecheck and lowering recurse on the expression tree; 2,000 terms
    # is well past what either reaches
    terms = " * ".join(f"(a + {i})" for i in range(2000))
    src = tmp_path / "deep.hml"
    src.write_text(f"parties 1;\ninput a : int from 1;\n"
                   f"output eval({{1}}, {terms});\n", encoding="utf-8")
    for command in ("check", "lower"):
        assert run_cli(command, str(src)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{src}: error: program nested too deeply\n"


def test_json_file_nested_too_deeply_is_exit_2(tmp_path, capsys):
    path = str(tmp_path / "deep.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[" * 100000)
    for argv, kind in ((["opt", path], "circuit"),
                       (["opt", hml("adder"), "--spec", path], "spec"),
                       (["run", hml("adder"), "--inputs", path], "inputs"),
                       (["estimate", hml("adder"), "--cost-model", path],
                        "cost model")):
        one_line_exit_2(capsys, argv, kind)
