"""Canonical pretty-printer; parse(pretty_print(p)) is structurally p."""

from .syntax import (
    CMP_PREC, PREC, ArrIndex, ArrLen, ArrSlice, ArrType, Assign, AtomType,
    BinOp, Block, BoolLit, Call, Eval, Expr, FuncDef, IfExpr, IfStmt,
    InputExpr, IntLit, Output, OwnedType, Pow, Program, Reduce, Skip, ValDecl,
    Var, While, ArrUpdate,
)


def owners_text(owners) -> str:
    return "{" + ", ".join(str(p) for p in owners) + "}"


def type_text(ty) -> str:
    match ty:
        case AtomType(kind):
            return kind
        case OwnedType(kind, owners):
            return f"{kind}@{owners_text(owners)}"
        case ArrType(owners, length):
            if length is None:
                return f"arr(int, {owners_text(owners)})"
            return f"arr(int, {owners_text(owners)}, {expr_text(length)})"
    raise AssertionError(ty)


def expr_text(e: Expr, parent_prec: int = 0, rhs: bool = False) -> str:
    match e:
        case IntLit(value=v):
            return str(v)
        case BoolLit(value=v):
            return "true" if v else "false"
        case Var(name=name):
            return name
        case BinOp(op=op, lhs=a, rhs=b):
            prec = PREC[op]
            # comparisons are non-associative: parenthesize equal precedence
            left = expr_text(a, prec, rhs=(prec == CMP_PREC))
            right = expr_text(b, prec, rhs=True)
            text = f"{left} {op} {right}"
            if prec < parent_prec or (prec == parent_prec and rhs):
                return f"({text})"
            return text
        case IfExpr(cond=c, then=t, els=f):
            return (f"if ({expr_text(c)}) {{ {expr_text(t)} }} "
                    f"else {{ {expr_text(f)} }}")
        case Eval(audience=aud, expr=sub):
            return f"eval({owners_text(aud)}, {expr_text(sub)})"
        case Call(name=name, args=args):
            return f"{name}({', '.join(expr_text(a) for a in args)})"
        case ArrIndex(name=name, index=i):
            return f"{name}({expr_text(i)})"
        case ArrSlice(name=name, lo=lo, hi=hi):
            return f"{name}.slice({expr_text(lo)}, {expr_text(hi)})"
        case ArrLen(name=name):
            return f"{name}.length"
        case Reduce(op=op, array=arr):
            return f"reduce({op}, {expr_text(arr)})"
        case Pow(base=b, exponent=n):
            return f"pow({expr_text(b)}, {n})"
        case InputExpr():
            raise AssertionError("input expressions print as input statements")
    raise AssertionError(e)


def stmt_lines(s, indent: int) -> list[str]:
    pad = "  " * indent
    match s:
        case Skip():
            return [pad + "skip;"]
        case ValDecl(name=name, ty=ty, init=InputExpr(party=party)):
            return [pad + f"input {name} : {type_text(ty)} from {party};"]
        case ValDecl(name=name, ty=ty, init=init):
            return [pad + f"val {name} : {type_text(ty)} := {expr_text(init)};"]
        case Assign(name=name, value=v):
            return [pad + f"{name} := {expr_text(v)};"]
        case ArrUpdate(name=name, index=i, value=v):
            return [pad + f"{name}({expr_text(i)}) := {expr_text(v)};"]
        case While(var=var, bound=bound, body=body):
            lines = [pad + f"while ({var} < {expr_text(bound)}) {{"]
            lines += block_lines(body, indent + 1)
            lines.append(pad + "}")
            return lines
        case IfStmt(cond=c, then=t, els=f):
            lines = [pad + f"if ({expr_text(c)}) {{"]
            lines += block_lines(t, indent + 1)
            if f is None:
                lines.append(pad + "}")
            else:
                lines.append(pad + "} else {")
                lines += block_lines(f, indent + 1)
                lines.append(pad + "}")
            return lines
        case Output(expr=e):
            return [pad + f"output {expr_text(e)};"]
    raise AssertionError(s)


def block_lines(b: Block, indent: int) -> list[str]:
    lines = []
    for s in b.stmts:
        lines += stmt_lines(s, indent)
    if b.result is not None:
        lines.append("  " * indent + expr_text(b.result))
    return lines


def fundef_lines(f: FuncDef) -> list[str]:
    params = ", ".join(f"{n} : {type_text(t)}" for n, t in f.params)
    head = f"fun {f.name}({params}) : {type_text(f.return_type)}"
    if f.bound is not None:
        head += f" bound {expr_text(f.bound)}"
    return [head + " {"] + block_lines(f.body, 1) + ["}"]


def pretty_print(p: Program) -> str:
    lines: list[str] = []
    if p.parties:
        lines.append("parties " + ", ".join(str(q) for q in p.parties) + ";")
        lines.append("")
    for f in p.functions:
        lines += fundef_lines(f)
        lines.append("")
    lines += block_lines(p.main, 0)
    return "\n".join(lines).rstrip("\n") + "\n"
