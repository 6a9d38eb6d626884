import pytest

from conftest import CORPUS
from mpcc.errors import LexError
from mpcc.frontend import pretty_print, tokenize
from proggen import random_program


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_val_declaration_tokens():
    assert kinds("val x : int@{1} := 5;") == [
        "VAL", "IDENT", "COLON", "INT", "AT", "LBRACE", "NUM", "RBRACE",
        "ASSIGN", "NUM", "SEMI"]


def test_empty_input():
    assert tokenize("") == []


def test_while_skip_tokens():
    toks = tokenize("while (i < 4) { skip; }")
    # while ( i < 4 ) { skip ; }
    assert [t.kind for t in toks] == [
        "WHILE", "LPAREN", "IDENT", "LT", "NUM", "RPAREN", "LBRACE", "SKIP",
        "SEMI", "RBRACE"]
    assert [t.kind for t in toks][-2:] == ["SEMI", "RBRACE"]


def test_comments_discarded():
    assert kinds("// nothing here\nskip; // trailing\n") == ["SKIP", "SEMI"]


def test_positions_monotonic():
    toks = tokenize("val x : int := 1;\nval y : int := 2;\n")
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_two_char_operators():
    assert kinds("a := b <= c >= d == e != f && g || h") == [
        "IDENT", "ASSIGN", "IDENT", "LE", "IDENT", "GE", "IDENT", "EQ",
        "IDENT", "NE", "IDENT", "ANDAND", "IDENT", "OROR", "IDENT"]


def test_single_equals_is_equality():
    assert kinds("a = b") == ["IDENT", "EQ", "IDENT"]


def test_illegal_character():
    with pytest.raises(LexError) as exc:
        tokenize("val x := 5 # bad")
    assert exc.value.pos == (1, 12)


def test_number_values():
    toks = tokenize("399 0 7")
    assert [t.value for t in toks] == [399, 0, 7]


def test_longest_symbol_first():
    toks = tokenize("a<=-b")
    assert [(t.kind, t.text, t.col) for t in toks] == [
        ("IDENT", "a", 1), ("LE", "<=", 2), ("MINUS", "-", 4),
        ("IDENT", "b", 5)]


@pytest.mark.parametrize("source, char, pos", [
    ("skip;\n// a # in a comment is fine\n  x $ y;\n", "$", (3, 5)),
    ("x := 2\u00b2;", "\u00b2", (1, 7)),  # isdigit() holds, int() refuses it
    ("x := \u00b2;", "\u00b2", (1, 6)),
    ("x := \u00bd;", "\u00bd", (1, 6)),   # numeric, neither digit nor letter
    ("x := \u0663;", "\u0663", (1, 6)),   # a decimal digit, but not ASCII
])
def test_an_illegal_character_is_an_error_at_its_position(source, char, pos):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert exc.value.message == f"illegal character {char!r}"
    assert exc.value.pos == pos


def test_a_word_goes_on_with_any_alphanumeric():
    assert [(t.kind, t.text) for t in tokenize("x² _1 été")] == [
        ("IDENT", "x²"), ("IDENT", "_1"), ("IDENT", "été")]


@pytest.mark.parametrize("source, expect", [
    ("skip;\r\nval x\r\n",
     [("skip", 1, 1), (";", 1, 5), ("val", 2, 1), ("x", 2, 5)]),
    ("\tval\t x", [("val", 1, 2), ("x", 1, 7)]),  # a tab is one column
    ("skip; \t \r\n  \n", [("skip", 1, 1), (";", 1, 5)]),
    ("skip; // the end", [("skip", 1, 1), (";", 1, 5)]),
    ("skip;//", [("skip", 1, 1), (";", 1, 5)]),
])
def test_blanks_line_ends_and_comments(source, expect):
    assert [(t.text, t.line, t.col) for t in tokenize(source)] == expect


def test_every_token_sits_at_its_position():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(CORPUS.glob("*.hml"))]
    sources += [pretty_print(random_program(s)) for s in range(200)]
    for source in sources:
        lines = source.split("\n")
        for t in tokenize(source):
            line = lines[t.line - 1]
            assert line[t.col - 1:t.col - 1 + len(t.text)] == t.text, t
