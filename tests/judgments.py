"""Table of typing judgments driven by both the unit tests and the
acceptance suite. Each row checks one expression or statement in a given
environment and scheme, expecting either a type, a resulting binding, or
a named rule violation."""

from dataclasses import dataclass

from mpcc.errors import TypeCheckError
from mpcc.frontend.lexer import tokenize
from mpcc.frontend.parser import Parser
from mpcc.sectypes import (
    AdditiveShare, Arr, Generic, Owned, Plain, Tfhe, owners,
)
from mpcc.typecheck import check_expr, check_stmt

GEN = Generic()
TFHE = Tfhe()
ADD3 = AdditiveShare(3)

INT1 = Owned("int", owners(1))
INT2 = Owned("int", owners(2))
INT12 = Owned("int", owners(1, 2))
BOOL1 = Owned("bool", owners(1))
BOOL12 = Owned("bool", owners(1, 2))
ARR1 = Arr(owners(1))


@dataclass
class J:
    name: str
    source: str          # expression, or statement if it ends with ";"
    env: dict
    scheme: object
    expect: object       # SecType | ("env", var, SecType) | ("error", rule)


JUDGMENTS = [
    # literals and variables
    J("int literal", "5", {}, GEN, Plain("int")),
    J("bool literal", "true", {}, GEN, Plain("bool")),
    J("variable lookup", "x", {"x": INT1}, GEN, INT1),
    J("unbound variable", "y", {}, GEN, ("error", "unbound")),
    # plain operators
    J("plain addition", "1 + 2", {}, GEN, Plain("int")),
    J("plain comparison", "1 < 2", {}, GEN, Plain("bool")),
    J("plain conditional", "if (true) { 1 } else { 2 }", {}, GEN,
      Plain("int")),
    # owner-set union on binary operators
    J("union rule", "a + b", {"a": INT1, "b": INT2}, GEN, INT12),
    J("union on comparison", "a < b", {"a": INT1, "b": INT2}, GEN, BOOL12),
    J("plain promotes into owned", "a + 1", {"a": INT1}, GEN, INT1),
    J("owned equality", "a == b", {"a": INT1, "b": INT1}, GEN, BOOL1),
    J("equality kind mismatch", "a == true", {"a": INT1}, GEN,
      ("error", "eq-kind")),
    J("logic needs bools", "1 && 2", {}, GEN, ("error", "binop-kind")),
    J("owned logic", "p && q", {"p": BOOL1, "q": Owned("bool", owners(2))},
      GEN, BOOL12),
    # conditionals over owned data
    J("if unions cond and branches",
      "if (p) { a } else { b }",
      {"p": BOOL1, "a": INT2, "b": Owned("int", owners(3))}, GEN,
      Owned("int", owners(1, 2, 3))),
    J("if branch kind mismatch", "if (p) { 1 } else { true }",
      {"p": BOOL1}, GEN, ("error", "if-branch")),
    J("if condition must be bool", "if (a) { 1 } else { 2 }",
      {"a": INT1}, GEN, ("error", "if-cond")),
    # eval / declassification
    J("eval to owner", "eval({1}, a)", {"a": INT1}, GEN, Plain("int")),
    J("eval to wider audience", "eval({1, 2}, a)", {"a": INT1}, GEN,
      Plain("int")),
    J("eval audience too narrow", "eval({1}, c)", {"c": INT12}, GEN,
      ("error", "eval-valid")),
    J("eval of array", "eval({1}, xs)", {"xs": ARR1}, GEN,
      ("error", "eval-array")),
    # TFHE refinements
    J("tfhe same singleton", "a + c", {"a": INT1, "c": INT1}, TFHE, INT1),
    J("tfhe cross-owner rejection", "a + b", {"a": INT1, "b": INT2}, TFHE,
      ("error", "tfhe-owner")),
    J("tfhe multi-owner set", "a + c", {"a": INT12, "c": INT12}, TFHE,
      ("error", "tfhe-owner")),
    J("tfhe eval singleton", "eval({1}, a)", {"a": INT1}, TFHE,
      Plain("int")),
    J("tfhe eval must match owner", "eval({1, 2}, a)", {"a": INT1}, TFHE,
      ("error", "eval-valid")),
    J("tfhe constant coercion", "a + 1", {"a": INT1}, TFHE, INT1),
    # additive sharing types like the generic scheme
    J("additive union rule", "a * b", {"a": INT1, "b": INT2}, ADD3, INT12),
    J("additive eval subset", "eval({1, 2, 3}, c)", {"c": INT12}, ADD3,
      Plain("int")),
    # division and modulo restrictions
    J("modulo by plain", "a % 7", {"a": INT1}, GEN, INT1),
    J("modulo by owned", "a % b", {"a": INT1, "b": INT2}, GEN,
      ("error", "mod-divisor")),
    J("division is plaintext-only", "a / 2", {"a": INT1}, GEN,
      ("error", "div-plain")),
    # arrays
    J("plain index", "xs(0)", {"xs": ARR1}, GEN, INT1),
    J("private index unions owners", "xs(i)", {"xs": ARR1, "i": INT2}, GEN,
      INT12),
    J("length is plaintext", "xs.length", {"xs": ARR1}, GEN, Plain("int")),
    J("slice bounds plaintext", "xs.slice(i, 2)", {"xs": ARR1, "i": INT1},
      GEN, ("error", "slice-plain")),
    J("reduce over array", "reduce(+, xs)", {"xs": ARR1}, GEN, INT1),
    J("pow keeps ownership", "pow(a, 3)", {"a": INT1}, GEN, INT1),
    J("pow exponent at its bound", "pow(a, 64)", {"a": INT1}, GEN, INT1),
    J("pow exponent over its bound", "pow(a, 65)", {"a": INT1}, GEN,
      ("error", "pow-exp")),
    # statements
    J("skip leaves env", "skip;", {"x": INT1}, GEN, ("env", "x", INT1)),
    J("redeclaration rejection", "val x : int := 6;", {"x": Plain("int")},
      GEN, ("error", "redeclare")),
    J("declaration adds binding", "val y : int@{1} := 5;", {}, GEN,
      ("env", "y", INT1)),
    J("assignment unions owner sets", "x := b * y;",
      {"x": INT1, "b": INT12, "y": INT1}, GEN, ("env", "x", INT12)),
    J("assignment kind mismatch", "x := true;", {"x": INT1}, GEN,
      ("error", "assign-kind")),
    J("output of private data", "output x;", {"x": INT1}, GEN,
      ("error", "output-private")),
    J("output after eval", "output eval({1}, x);", {"x": INT1}, GEN,
      ("env", "x", INT1)),
    J("loop counter must be plain", "while (x < 4) { skip; }",
      {"x": INT1}, GEN, ("error", "loop-counter-plain")),
]


def run_judgment(j: J):
    """Execute one row; raises AssertionError with the row name on any
    disagreement."""
    toks = tokenize(j.source)
    parser = Parser(toks)
    stmt_leads = {"VAL", "OUTPUT", "SKIP", "WHILE", "INPUT"}
    is_stmt = toks[0].kind in stmt_leads or (
        len(toks) > 1 and toks[1].kind == "ASSIGN")
    if is_stmt:
        stmt = parser.parse_stmt()
        try:
            env = check_stmt(dict(j.env), stmt, j.scheme)
        except TypeCheckError as ex:
            assert j.expect == ("error", ex.rule), \
                f"{j.name}: got error[{ex.rule}], expected {j.expect}"
            return
        assert isinstance(j.expect, tuple) and j.expect[0] == "env", \
            f"{j.name}: expected {j.expect}, statement checked with {env}"
        _, var, ty = j.expect
        assert env.get(var) == ty, \
            f"{j.name}: {var} bound to {env.get(var)}, expected {ty}"
    else:
        expr = parser.parse_expr()
        try:
            t = check_expr(dict(j.env), expr, j.scheme)
        except TypeCheckError as ex:
            assert j.expect == ("error", ex.rule), \
                f"{j.name}: got error[{ex.rule}], expected {j.expect}"
            return
        assert t == j.expect, f"{j.name}: got {t}, expected {j.expect}"
