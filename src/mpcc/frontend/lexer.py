"""Tokenizer for `.hml` source files.

One compiled regex scans each line: blanks (space, tab, carriage
return), then a `//` comment to the end of the line, a number (ASCII
`0-9`), a word (a character for which `isalpha()` holds, or `_`, then
`\\w`, that is `isalnum()` or `_`) or a symbol, longest first. Any other
character, such as the digits `²` and `٣`, is a `LexError` at its line
and column, both counted from 1 in characters.
"""

import re
from typing import NamedTuple

from ..errors import LexError

KEYWORDS = {
    "val": "VAL", "skip": "SKIP", "while": "WHILE", "if": "IF", "else": "ELSE",
    "output": "OUTPUT", "input": "INPUT", "from": "FROM", "fun": "FUN",
    "bound": "BOUND", "eval": "EVAL", "reduce": "REDUCE", "pow": "POW",
    "arr": "ARR", "int": "INT", "bool": "BOOL", "true": "TRUE", "false": "FALSE",
    "parties": "PARTIES", "max": "MAX", "min": "MIN",
}

SYMBOLS = {
    ":=": "ASSIGN", "==": "EQ", "!=": "NE", "<=": "LE", ">=": "GE",
    "&&": "ANDAND", "||": "OROR",
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    ":": "COLON", ";": "SEMI", ",": "COMMA", "@": "AT", ".": "DOT",
    "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "%": "PERCENT",
    "<": "LT", ">": "GT", "=": "EQ",
}

# UWORD is checked for isalpha(), since `[^\W\d]` also admits `²` and
# `½`; BAD excludes the blanks, so that trailing blanks match nothing.
_SCAN = re.compile(
    r"[ \t\r]*(?:(?P<COMMENT>//)|(?P<NUM>[0-9]+)|(?P<WORD>[A-Za-z_]\w*)"
    r"|(?P<UWORD>[^\W\d]\w*)|(?P<SYM>"
    + "|".join(map(re.escape, sorted(SYMBOLS, key=len, reverse=True)))
    + r")|(?P<BAD>[^ \t\r]))").finditer


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int

    @property
    def pos(self):
        return (self.line, self.col)

    @property
    def value(self) -> int:
        return int(self.text)


def tokenize(source: str) -> list[Token]:
    """Scan source text into tokens; `// ...` comments are discarded."""
    toks: list[Token] = []
    for line, text in enumerate(source.split("\n"), 1):
        for m in _SCAN(text):
            group = m.lastgroup
            tok = m[group]
            col = m.start(group) + 1
            if group == "SYM":
                kind = SYMBOLS[tok]
            elif group == "WORD" or (group == "UWORD" and tok[0].isalpha()):
                kind = KEYWORDS.get(tok, "IDENT")
            elif group == "NUM":
                kind = group
            elif group == "COMMENT":
                break
            else:
                raise LexError(f"illegal character {tok[0]!r}", (line, col))
            toks.append(Token(kind, tok, line, col))
    return toks
