"""Recursive-descent parser producing a Program AST.

Expressions are parsed by precedence climbing over `syntax.PREC`, the
table the printer also reads.

Statement and expression position of `if` is disambiguated by backtracking:
inside a function body the trailing result expression may itself be an
if-expression, whose branches hold a single expression rather than
statements. There is no error recovery; the first failure wins.
"""

from ..errors import ParseError
from .lexer import SYMBOLS, Token, tokenize
from .syntax import (
    CMP_PREC, PREC, ArrIndex, ArrLen, ArrSlice, ArrType, Assign, AtomType,
    BinOp, Block, BoolLit, Call, Eval, Expr, FuncDef, IfExpr, IfStmt,
    InputExpr, IntLit, Output, OwnedType, Pow, Program, Reduce, Skip, Stmt,
    ValDecl, Var, While, ArrUpdate, owner_tuple,
)

# token kind -> binary operator; `=` lexes as EQ, which is `==`
BINARY_OPS = {kind: op for op, kind in SYMBOLS.items() if op in PREC}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.functions: set[str] = set()

    # -- token plumbing --

    def peek(self, offset=0) -> Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def at(self, *kinds) -> bool:
        t = self.peek()
        return t is not None and t.kind in kinds

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.tokens[-1].pos if self.tokens else (1, 1)
            raise ParseError("unexpected end of input", last)
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t is None or t.kind != kind:
            pos = t.pos if t else (self.tokens[-1].pos if self.tokens else (1, 1))
            got = t.kind if t else "end of input"
            raise ParseError(f"expected {kind}, got {got}", pos, expected={kind})
        self.i += 1
        return t

    # -- program --

    def parse_program(self) -> Program:
        parties: list[int] = []
        while self.at("PARTIES"):
            self.next()
            parties.append(self.expect("NUM").value)
            while self.at("COMMA"):
                self.next()
                parties.append(self.expect("NUM").value)
            self.expect("SEMI")
        functions = []
        while self.at("FUN"):
            functions.append(self.parse_fundef())
        stmts = []
        while self.peek() is not None:
            stmts.append(self.parse_stmt())
        return Program(owner_tuple(parties), functions, Block(stmts))

    def parse_fundef(self) -> FuncDef:
        pos = self.expect("FUN").pos
        name = self.expect("IDENT").text
        self.functions.add(name)
        self.expect("LPAREN")
        params = []
        if not self.at("RPAREN"):
            while True:
                pname = self.expect("IDENT").text
                self.expect("COLON")
                params.append((pname, self.parse_type()))
                if not self.at("COMMA"):
                    break
                self.next()
        self.expect("RPAREN")
        self.expect("COLON")
        rtype = self.parse_type()
        bound = None
        if self.at("BOUND"):
            self.next()
            bound = self.parse_expr()
        body = self.parse_fn_body()
        return FuncDef(name, params, rtype, bound, body, pos)

    def parse_fn_body(self) -> Block:
        self.expect("LBRACE")
        stmts: list[Stmt] = []
        while True:
            if self.at("RBRACE"):
                t = self.next()
                raise ParseError("function body must end with a result expression",
                                 t.pos)
            mark = self.i
            try:
                stmts.append(self.parse_stmt())
                continue
            except ParseError:
                self.i = mark
            result = self.parse_expr()
            self.expect("RBRACE")
            return Block(stmts, result)

    # -- statements --

    def parse_block(self) -> Block:
        self.expect("LBRACE")
        stmts = []
        while not self.at("RBRACE"):
            stmts.append(self.parse_stmt())
        self.next()
        return Block(stmts)

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if t is None:
            raise ParseError("expected statement", (1, 1))
        if t.kind == "SKIP":
            self.next()
            self.expect("SEMI")
            return Skip(pos=t.pos)
        if t.kind == "VAL":
            self.next()
            name = self.expect("IDENT").text
            self.expect("COLON")
            ty = self.parse_type()
            self.expect("ASSIGN")
            init = self.parse_expr()
            self.expect("SEMI")
            return ValDecl(name, ty, init, pos=t.pos)
        if t.kind == "INPUT":
            return self.parse_input()
        if t.kind == "WHILE":
            self.next()
            self.expect("LPAREN")
            var = self.expect("IDENT").text
            self.expect("LT")
            bound = self.parse_expr()
            self.expect("RPAREN")
            body = self.parse_block()
            return While(var, bound, body, pos=t.pos)
        if t.kind == "IF":
            self.next()
            self.expect("LPAREN")
            cond = self.parse_expr()
            self.expect("RPAREN")
            then = self.parse_block()
            els = None
            if self.at("ELSE"):
                self.next()
                els = self.parse_block()
            return IfStmt(cond, then, els, pos=t.pos)
        if t.kind == "OUTPUT":
            self.next()
            e = self.parse_expr()
            self.expect("SEMI")
            return Output(e, pos=t.pos)
        if t.kind == "IDENT":
            name = self.next().text
            if self.at("ASSIGN"):
                self.next()
                value = self.parse_expr()
                self.expect("SEMI")
                return Assign(name, value, pos=t.pos)
            if self.at("LPAREN"):
                self.next()
                index = self.parse_expr()
                self.expect("RPAREN")
                self.expect("ASSIGN")
                value = self.parse_expr()
                self.expect("SEMI")
                return ArrUpdate(name, index, value, pos=t.pos)
            raise ParseError("expected ':=' or '(' in assignment", t.pos,
                             expected={"ASSIGN", "LPAREN"})
        raise ParseError(f"expected statement, got {t.kind}", t.pos)

    def parse_input(self) -> Stmt:
        t = self.expect("INPUT")
        name = self.expect("IDENT").text
        self.expect("COLON")
        ty = self.parse_type()
        self.expect("FROM")
        party = self.expect("NUM").value
        self.expect("SEMI")
        if isinstance(ty, AtomType):
            ty = OwnedType(ty.kind, (party,))
        return ValDecl(name, ty, InputExpr(party, ty, pos=t.pos), pos=t.pos)

    # -- types --

    def parse_type(self):
        t = self.peek()
        if t is None:
            raise ParseError("expected type", (1, 1))
        if t.kind in ("INT", "BOOL"):
            self.next()
            kind = "int" if t.kind == "INT" else "bool"
            if self.at("AT"):
                self.next()
                return OwnedType(kind, self.parse_owner_set())
            return AtomType(kind)
        if t.kind == "ARR":
            self.next()
            self.expect("LPAREN")
            self.expect("INT")
            self.expect("COMMA")
            owners = self.parse_owner_set()
            length = None
            if self.at("COMMA"):
                self.next()
                length = self.parse_expr()
            self.expect("RPAREN")
            return ArrType(owners, length)
        raise ParseError(f"expected type, got {t.kind}", t.pos,
                         expected={"INT", "BOOL", "ARR"})

    def parse_owner_set(self) -> tuple[int, ...]:
        self.expect("LBRACE")
        parties = [self.expect("NUM").value]
        while self.at("COMMA"):
            self.next()
            parties.append(self.expect("NUM").value)
        self.expect("RBRACE")
        return owner_tuple(parties)

    # -- expressions (precedence climbing) --

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Climb `PREC`: an operand, then each operator of precedence
        `min_prec` to `top`, with a tighter right operand; `top` falls to
        that level, or below it after a comparison, which never chains."""
        e = self.parse_postfix()
        top = max(PREC.values())
        while (t := self.peek()) and (op := BINARY_OPS.get(t.kind)) and (
                min_prec <= PREC[op] <= top):
            self.next()
            e = BinOp(op, e, self.parse_expr(PREC[op] + 1), pos=t.pos)
            top = CMP_PREC - 1 if PREC[op] == CMP_PREC else PREC[op]
        return e

    def parse_postfix(self) -> Expr:
        t = self.peek()
        if t is not None and t.kind == "IDENT":
            self.next()
            name = t.text
            if self.at("LPAREN"):
                self.next()
                args = [self.parse_expr()]
                while self.at("COMMA"):
                    self.next()
                    args.append(self.parse_expr())
                self.expect("RPAREN")
                if name in self.functions:
                    return Call(name, args, pos=t.pos)
                if len(args) != 1:
                    raise ParseError(f"unknown function '{name}'", t.pos)
                return ArrIndex(name, args[0], pos=t.pos)
            if self.at("DOT"):
                self.next()
                attr = self.expect("IDENT")
                if attr.text == "length":
                    return ArrLen(name, pos=t.pos)
                if attr.text == "slice":
                    self.expect("LPAREN")
                    lo = self.parse_expr()
                    self.expect("COMMA")
                    hi = self.parse_expr()
                    self.expect("RPAREN")
                    return ArrSlice(name, lo, hi, pos=t.pos)
                raise ParseError(f"unknown array method '{attr.text}'", attr.pos)
            return Var(name, pos=t.pos)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t is None:
            raise ParseError("expected expression", (1, 1))
        if t.kind == "NUM":
            self.next()
            return IntLit(t.value, pos=t.pos)
        if t.kind == "TRUE":
            self.next()
            return BoolLit(True, pos=t.pos)
        if t.kind == "FALSE":
            self.next()
            return BoolLit(False, pos=t.pos)
        if t.kind == "LPAREN":
            self.next()
            e = self.parse_expr()
            self.expect("RPAREN")
            return e
        if t.kind == "IF":
            self.next()
            self.expect("LPAREN")
            cond = self.parse_expr()
            self.expect("RPAREN")
            self.expect("LBRACE")
            then = self.parse_expr()
            self.expect("RBRACE")
            self.expect("ELSE")
            self.expect("LBRACE")
            els = self.parse_expr()
            self.expect("RBRACE")
            return IfExpr(cond, then, els, pos=t.pos)
        if t.kind == "EVAL":
            self.next()
            self.expect("LPAREN")
            audience = self.parse_owner_set()
            self.expect("COMMA")
            e = self.parse_expr()
            self.expect("RPAREN")
            return Eval(audience, e, pos=t.pos)
        if t.kind == "REDUCE":
            self.next()
            self.expect("LPAREN")
            op_tok = self.next()
            ops = {"PLUS": "+", "STAR": "*", "MAX": "max", "MIN": "min"}
            if op_tok.kind not in ops:
                raise ParseError("expected one of + * max min", op_tok.pos)
            self.expect("COMMA")
            arr = self.parse_expr()
            self.expect("RPAREN")
            return Reduce(ops[op_tok.kind], arr, pos=t.pos)
        if t.kind == "POW":
            self.next()
            self.expect("LPAREN")
            base = self.parse_expr()
            self.expect("COMMA")
            n = self.expect("NUM").value
            self.expect("RPAREN")
            return Pow(base, n, pos=t.pos)
        raise ParseError(f"expected expression, got {t.kind}", t.pos)


def parse(tokens: list[Token]) -> Program:
    return Parser(tokens).parse_program()


def parse_source(source: str) -> Program:
    return parse(tokenize(source))
