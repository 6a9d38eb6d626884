import random

import pytest

from conftest import corpus_source
from judgments import JUDGMENTS, run_judgment
from mpcc.errors import TypeCheckFailure
from mpcc.frontend import parse_source
from mpcc.frontend.lexer import tokenize
from mpcc.frontend.parser import Parser
from mpcc.sectypes import (
    AdditiveShare, Generic, Owned, Plain, Tfhe, owners, valid,
)
from mpcc.typecheck import check_expr, check_program


@pytest.mark.parametrize("j", JUDGMENTS, ids=lambda j: j.name)
def test_judgment(j):
    run_judgment(j)


def test_judgment_table_is_large_enough():
    assert len(JUDGMENTS) >= 30


# -- the valid predicate --

@pytest.mark.parametrize("o, o2, scheme, expected", [
    (owners(1), owners(1), Tfhe(), True),
    (owners(1), owners(1, 2), Tfhe(), False),
    (owners(1, 2), owners(1, 2), Tfhe(), False),
    (owners(1), owners(1, 2), Generic(), True),
    (owners(1, 2), owners(1), Generic(), False),
    (owners(1, 2), owners(1, 2, 3), AdditiveShare(3), True),
    (owners(3), owners(1, 2), AdditiveShare(3), False),
])
def test_valid_predicate(o, o2, scheme, expected):
    assert valid(o, o2, scheme) is expected


# -- whole-program checks --

def test_gcd_checks_under_all_schemes():
    p = parse_source(corpus_source("gcd"))
    for scheme in (Generic(), Tfhe(), AdditiveShare(3)):
        tp = check_program(p, scheme)
        assert "gcd" in tp.functions


def test_auction_checks_under_additive_but_not_tfhe():
    p = parse_source(corpus_source("auction"))
    check_program(p, AdditiveShare(3))
    with pytest.raises(TypeCheckFailure):
        check_program(p, Tfhe())


def test_printing_private_value_is_one_error():
    src = "parties 1;\ninput x : int from 1;\noutput x;\n"
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    assert [e.rule for e in exc.value.errors] == ["output-private"]


def test_all_errors_reported_not_just_first():
    src = ("parties 1;\n"
           "input x : int from 1;\n"
           "output x;\n"
           "val x : int := 5;\n"
           "output y;\n")
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    rules = [e.rule for e in exc.value.errors]
    assert "output-private" in rules
    assert "redeclare" in rules
    assert "unbound" in rules
    assert len(rules) >= 3


def test_undeclared_party_rejected():
    src = "parties 1;\ninput x : int from 2;\noutput eval({2}, x);\n"
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    assert any(e.rule == "party-undeclared" for e in exc.value.errors)


@pytest.mark.parametrize("decl, errors", [
    # the party is the inferred owner: one line names it
    ("input x : int from 2;",
     [("party-undeclared", "parties [2] not declared")]),
    ("input xs : arr(int, {2}, 3) from 2;",
     [("party-undeclared", "parties [2] not declared")]),
    # an owner that is not the party: each fault once
    ("input x : int@{3} from 2;",
     [("party-undeclared", "parties [3] not declared"),
      ("party-undeclared", "party 2 not declared"),
      ("input-owner", "input owner must equal the providing party")]),
    ("input xs : arr(int, {1}, n) from 1;",
     [("unbound", "unbound variable 'n'")]),
])
def test_an_input_reports_each_fault_once(decl, errors):
    src = f"parties 1;\n{decl}\n"
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    assert [(e.rule, e.message) for e in exc.value.errors] == errors


def test_party_out_of_range_is_reported_beside_other_errors():
    # under 2-party additive sharing only parties 0 and 1 provide input
    src = "parties 0, 1, 2;\ninput x : int from 2;\noutput x;\n"
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), AdditiveShare(2))
    assert [(e.rule, e.pos) for e in exc.value.errors] == [
        ("party-out-of-range", (2, 1)), ("output-private", (3, 8))]
    assert exc.value.errors[0].message == (
        "party 2 does not fit 2-party additive sharing")
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), AdditiveShare(3))
    assert [e.rule for e in exc.value.errors] == ["output-private"]


def test_party_range_holds_in_a_function_never_called():
    src = ("parties 0, 1, 2;\n"
           "fun f(a : int) : int@{2} { input y : int from 2; y }\n"
           "output 1;\n")
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), AdditiveShare(2))
    assert [e.rule for e in exc.value.errors] == ["party-out-of-range"]
    check_program(parse_source(src), AdditiveShare(3))


def test_bound_must_be_plaintext_over_params():
    src = ("parties 1;\n"
           "fun f(x : int@{1}) : int@{1} bound x { x }\n"
           "input a : int from 1;\n"
           "output eval({1}, f(a));\n")
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    assert any(e.rule == "bound-plain" for e in exc.value.errors)


def test_duplicate_function_names():
    src = ("parties 1;\n"
           "fun f(x : int) : int { x }\n"
           "fun f(y : int) : int { y }\n"
           "skip;\n")
    with pytest.raises(TypeCheckFailure) as exc:
        check_program(parse_source(src), Generic())
    assert any(e.rule == "dup-function" for e in exc.value.errors)


# -- properties --

def random_expr_source(rng, names, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + [str(rng.randrange(5))])
    op = rng.choice(["+", "-", "*"])
    left = random_expr_source(rng, names, depth - 1)
    right = random_expr_source(rng, names, depth - 1)
    return f"({left} {op} {right})"


def parse_expr(src):
    return Parser(tokenize(src)).parse_expr()


def test_derivation_determinism():
    env = {"a": Owned("int", owners(1)), "b": Owned("int", owners(2)),
           "c": Plain("int")}
    rng = random.Random(5)
    for _ in range(300):
        src = random_expr_source(rng, list(env))
        t1 = check_expr(dict(env), parse_expr(src), Generic())
        t2 = check_expr(dict(env), parse_expr(src), Generic())
        assert t1 == t2


def test_owner_monotonicity():
    env = {"a": Owned("int", owners(1)), "b": Owned("int", owners(2)),
           "c": Owned("int", owners(3))}
    rng = random.Random(6)
    for _ in range(300):
        src = random_expr_source(rng, list(env))
        t = check_expr(dict(env), parse_expr(src), Generic())
        used = {name for name in env if name in src}
        allowed = owners(*(q for name in used for q in env[name].owner))
        if isinstance(t, Owned):
            assert t.owner <= allowed


def test_tfhe_acceptance_implies_generic_same_type():
    env = {"a": Owned("int", owners(1)), "b": Owned("int", owners(1)),
           "c": Plain("int")}
    rng = random.Random(7)
    for _ in range(300):
        src = random_expr_source(rng, list(env))
        t_tfhe = check_expr(dict(env), parse_expr(src), Tfhe())
        t_gen = check_expr(dict(env), parse_expr(src), Generic())
        assert t_tfhe == t_gen


def test_weakening():
    env = {"a": Owned("int", owners(1)), "b": Owned("int", owners(2))}
    wide = dict(env, unused=Owned("bool", owners(9)))
    rng = random.Random(8)
    for _ in range(200):
        src = random_expr_source(rng, ["a", "b"])
        assert check_expr(dict(env), parse_expr(src), Generic()) == \
            check_expr(dict(wide), parse_expr(src), Generic())
