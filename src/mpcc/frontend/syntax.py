"""AST node definitions for the source language.

Node equality ignores source positions so that structural comparison works
after pretty-print round trips. Owner sets are stored as sorted tuples to
keep them hashable and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Pos = tuple[int, int]

# The binary operators by precedence, loosest first: the parser climbs this
# table and the printer parenthesizes by it. Comparisons do not chain.
PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
        "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
CMP_PREC = PREC["<"]


def owner_tuple(parties) -> tuple[int, ...]:
    return tuple(sorted(set(parties)))


# -- types as written in source --

@dataclass(frozen=True)
class AtomType:
    kind: str  # "int" | "bool"


@dataclass(frozen=True)
class OwnedType:
    kind: str
    owners: tuple[int, ...]


@dataclass
class ArrType:
    owners: tuple[int, ...]
    length: "Expr | None" = None  # plaintext expression, required where storage is created


TypeSyntax = AtomType | OwnedType | ArrType


# -- expressions --

@dataclass
class Expr:
    pos: Pos = field(default=(0, 0), compare=False, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class Eval(Expr):
    audience: tuple[int, ...] = ()
    expr: Expr = None


@dataclass
class BinOp(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class IfExpr(Expr):
    cond: Expr = None
    then: Expr = None
    els: Expr = None


@dataclass
class Call(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class ArrIndex(Expr):
    name: str = ""
    index: Expr = None


@dataclass
class ArrSlice(Expr):
    name: str = ""
    lo: Expr = None
    hi: Expr = None


@dataclass
class ArrLen(Expr):
    name: str = ""


@dataclass
class Reduce(Expr):
    op: str = "+"
    array: Expr = None


@dataclass
class Pow(Expr):
    base: Expr = None
    exponent: int = 0


@dataclass
class InputExpr(Expr):
    party: int = 0
    ty: TypeSyntax = None


# -- statements --

@dataclass
class Stmt:
    pos: Pos = field(default=(0, 0), compare=False, kw_only=True)


@dataclass
class Block:
    stmts: list[Stmt] = field(default_factory=list)
    result: Expr | None = None  # only function bodies return a value


@dataclass
class Skip(Stmt):
    pass


@dataclass
class ValDecl(Stmt):
    name: str = ""
    ty: TypeSyntax = None
    init: Expr = None


@dataclass
class Assign(Stmt):
    name: str = ""
    value: Expr = None


@dataclass
class ArrUpdate(Stmt):
    name: str = ""
    index: Expr = None
    value: Expr = None


@dataclass
class While(Stmt):
    var: str = ""
    bound: Expr = None  # plaintext expression
    body: Block = None


@dataclass
class IfStmt(Stmt):
    cond: Expr = None
    then: Block = None
    els: Block | None = None


@dataclass
class Output(Stmt):
    expr: Expr = None


# -- top level --

@dataclass
class FuncDef:
    name: str
    params: list[tuple[str, TypeSyntax]]
    return_type: TypeSyntax
    bound: Expr | None
    body: Block
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class Program:
    parties: tuple[int, ...]
    functions: list[FuncDef]
    main: Block


def walk_exprs(e: Expr):
    """Yield e and every sub-expression, depth first."""
    yield e
    match e:
        case Eval(expr=sub) | Pow(base=sub) | Reduce(array=sub) | ArrIndex(index=sub):
            yield from walk_exprs(sub)
        case BinOp(lhs=a, rhs=b):
            yield from walk_exprs(a)
            yield from walk_exprs(b)
        case IfExpr(cond=c, then=t, els=f):
            yield from walk_exprs(c)
            yield from walk_exprs(t)
            yield from walk_exprs(f)
        case Call(args=args):
            for a in args:
                yield from walk_exprs(a)
        case ArrSlice(lo=lo, hi=hi):
            yield from walk_exprs(lo)
            yield from walk_exprs(hi)


def walk_stmts(block: Block):
    """Yield every statement in the block, including nested ones."""
    for s in block.stmts:
        yield s
        match s:
            case While(body=b):
                yield from walk_stmts(b)
            case IfStmt(then=t, els=f):
                yield from walk_stmts(t)
                if f is not None:
                    yield from walk_stmts(f)
