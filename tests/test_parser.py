import itertools

import pytest

from conftest import CORPUS_NAMES, corpus_source
from mpcc.errors import ParseError
from mpcc.frontend import parse_source, pretty_print
from mpcc.frontend.syntax import (
    CMP_PREC, PREC, ArrLen, Assign, BinOp, Block, Call, IfExpr, IntLit,
    Output, Program, Skip, ValDecl, Var, While, Eval,
)


def test_skip_program():
    p = parse_source("skip;")
    assert p == Program((), [], Block([Skip()]))


def test_gcd_fundef():
    p = parse_source(corpus_source("gcd"))
    assert [f.name for f in p.functions] == ["gcd"]
    gcd = p.functions[0]
    assert gcd.bound == IntLit(5)
    assert len(gcd.params) == 2
    assert isinstance(gcd.body.result, IfExpr)


def test_auction_single_while_over_length():
    p = parse_source(corpus_source("auction"))
    whiles = [s for s in p.main.stmts if isinstance(s, While)]
    assert len(whiles) == 1
    assert whiles[0].var == "i"
    assert whiles[0].bound == ArrLen("bids")
    # loop counter starts at 2, so the loop runs length-2 times
    decl = next(s for s in p.main.stmts
                if isinstance(s, ValDecl) and s.name == "i")
    assert decl.init == IntLit(2)


def test_positions_retained():
    p = parse_source("val x : int := 1;\noutput x;\n")
    assert p.main.stmts[0].pos == (1, 1)
    assert p.main.stmts[1].pos == (2, 1)
    assert p.main.stmts[1].expr.pos == (2, 8)


def test_call_vs_index_disambiguation():
    src = """
fun inc(v : int@{1}) : int@{1} { v + 1 }
input xs : arr(int, {1}, 2) from 1;
val a : int@{1} := inc(xs(0));
output eval({1}, a);
"""
    p = parse_source("parties 1;\n" + src)
    decl = next(s for s in p.main.stmts
                if isinstance(s, ValDecl) and s.name == "a")
    assert isinstance(decl.init, Call)
    assert decl.init.name == "inc"


def test_precedence():
    p = parse_source("val x : int := 1 + 2 * 3 - 4;\n")
    init = p.main.stmts[0].init
    assert init == BinOp("-", BinOp("+", IntLit(1),
                                    BinOp("*", IntLit(2), IntLit(3))),
                         IntLit(4))


@pytest.mark.parametrize("chain", [
    "1 < 2 < 3", "x == y != z", "1 + 2 < 3 < 4",
    # a loop that kept comparisons from chaining only at their own level
    # would read this as (true && 1 < 2) < 3
    "true && 1 < 2 < 3",
])
def test_comparison_non_associative(chain):
    src = f"val x : bool := {chain};\n"
    with pytest.raises(ParseError) as exc:
        parse_source(src)
    second = max(map(src.rfind, ("<", "==", "!=")))
    assert exc.value.pos == (1, second + 1)


def test_every_operator_pair_parses_as_the_table_says():
    a, b, c = Var("a"), Var("b"), Var("c")
    for op1, op2 in itertools.product(PREC, PREC):
        left = BinOp(op2, BinOp(op1, a, b), c)
        right = BinOp(op1, a, BinOp(op2, b, c))
        for tree in (left, right):  # the printer parenthesizes by PREC
            p = Program((), [], Block([Output(tree)]))
            assert parse_source(pretty_print(p)) == p, (op1, op2)
        src = f"output a {op1} b {op2} c;\n"
        if PREC[op1] == PREC[op2] == CMP_PREC:
            with pytest.raises(ParseError):
                parse_source(src)
            continue
        # tighter binds first; equal precedence groups left to right
        want = right if PREC[op2] > PREC[op1] else left
        assert parse_source(src).main.stmts[0].expr == want, (op1, op2)


@pytest.mark.parametrize("bad, expected_kind", [
    ("val x int := 5;", "COLON"),
    ("val x : int := 5", "SEMI"),
    ("while i < 4 { skip; }", "LPAREN"),
    ("output 5", "SEMI"),
])
def test_parse_errors_carry_expectation(bad, expected_kind):
    with pytest.raises(ParseError) as exc:
        parse_source(bad)
    assert expected_kind in exc.value.expected


def test_unknown_function_multiarg():
    with pytest.raises(ParseError):
        parse_source("val x : int := mystery(1, 2);\n")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_round_trip(name):
    p = parse_source(corpus_source(name))
    text = pretty_print(p)
    p2 = parse_source(text)
    assert p2 == p
    # printing is a fixpoint after one round
    assert pretty_print(p2) == text


def test_output_keeps_expression():
    p = parse_source("parties 1;\ninput x : int from 1;\n"
                     "output eval({1}, x);\n")
    out = p.main.stmts[-1]
    assert isinstance(out, Output)
    assert out.expr == Eval((1,), Var("x"))


def test_assignment_and_update_statements():
    p = parse_source("x := 1;\nxs(0) := 2;\n")
    assert isinstance(p.main.stmts[0], Assign)
    assert p.main.stmts[1].index == IntLit(0)
