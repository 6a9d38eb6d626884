"""Owner-set type checker, parameterized by a security scheme.

All errors in a program are collected and reported together; expressions
that fail to type produce a poison value (None) so checking can continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TypeCheckError, TypeCheckFailure
from .frontend import syntax as S
from .sectypes import (
    AdditiveShare, Arr, Owned, Plain, Scheme, SecType, Tfhe, valid, type_text,
)

ARITH_OPS = {"+", "-", "*"}
CMP_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"==", "!="}
LOGIC_OPS = {"&&", "||"}
MAX_POW_EXPONENT = 64  # pow(x, n) lowers to a chain of n - 1 Muls


@dataclass
class FuncSig:
    name: str
    params: list[tuple[str, SecType]]
    ret: SecType
    defn: S.FuncDef


@dataclass
class TypedProgram:
    program: S.Program
    scheme: Scheme
    functions: dict[str, FuncSig]


@dataclass
class Checker:
    scheme: Scheme
    parties: frozenset[int]
    functions: dict[str, FuncSig] = field(default_factory=dict)
    errors: list[TypeCheckError] = field(default_factory=list)

    def error(self, message, pos, rule):
        self.errors.append(TypeCheckError(message, pos, rule))

    # -- owner-set combination --

    def join_owners(self, types: list[SecType | None], pos, rule) -> frozenset | None:
        """Owner set of the combination of `types`; None means all plain.

        Under TFHE all owned participants must share one singleton set.
        """
        owned = [t.owner for t in types if isinstance(t, (Owned, Arr))]
        if not owned:
            return None
        if isinstance(self.scheme, Tfhe):
            first = owned[0]
            if len(first) != 1 or any(o != first for o in owned):
                self.error("TFHE allows operations only within one singleton "
                           "owner", pos, "tfhe-owner")
                return None
            return first
        out = frozenset()
        for o in owned:
            out |= o
        return out

    def check_owner_literal(self, owner, pos, rule="party-undeclared"):
        extra = frozenset(owner) - self.parties
        if extra:
            self.error(f"parties {sorted(extra)} not declared", pos, rule)

    def from_syntax(self, ty: S.TypeSyntax, env, pos) -> SecType | None:
        match ty:
            case S.AtomType(kind):
                return Plain(kind)
            case S.OwnedType(kind, owner):
                self.check_owner_literal(owner, pos)
                if not owner:
                    self.error("owner set must be nonempty", pos, "owner-empty")
                    return None
                return Owned(kind, frozenset(owner))
            case S.ArrType(owners=owner, length=length):
                self.check_owner_literal(owner, pos)
                if length is not None and env is not None:
                    lt = self.check_expr(env, length)
                    if lt is not None and lt != Plain("int"):
                        self.error("array length must be a plaintext int",
                                   length.pos, "array-length-plain")
                return Arr(frozenset(owner))
        raise AssertionError(ty)

    # -- expressions --

    def check_expr(self, env: dict, e: S.Expr) -> SecType | None:
        match e:
            case S.IntLit():
                return Plain("int")
            case S.BoolLit():
                return Plain("bool")
            case S.Var(name=name):
                if name not in env:
                    self.error(f"unbound variable '{name}'", e.pos, "unbound")
                    return None
                return env[name]
            case S.Eval(audience=aud, expr=sub):
                return self._eval(env, e, frozenset(aud), sub)
            case S.BinOp(op=op, lhs=a, rhs=b):
                return self._binop(env, e, op, a, b)
            case S.IfExpr(cond=c, then=th, els=el):
                return self._if_expr(env, e, c, th, el)
            case S.Call(name=name, args=args):
                return self._call(env, e, name, args)
            case S.ArrIndex(name=name, index=idx):
                arr = self._array_var(env, name, e.pos)
                it = self.check_expr(env, idx)
                if it is not None and atom(it) != "int":
                    self.error("array index must be an int", idx.pos, "index-int")
                if arr is None:
                    return None
                owner = self.join_owners([arr, it], e.pos, "index-owner")
                return Owned("int", owner) if owner else Plain("int")
            case S.ArrSlice(name=name, lo=lo, hi=hi):
                arr = self._array_var(env, name, e.pos)
                for bound in (lo, hi):
                    bt = self.check_expr(env, bound)
                    if bt is not None and bt != Plain("int"):
                        self.error("slice bounds must be plaintext ints",
                                   bound.pos, "slice-plain")
                return arr
            case S.ArrLen(name=name):
                self._array_var(env, name, e.pos)
                return Plain("int")
            case S.Reduce(array=arr_e):
                at = self.check_expr(env, arr_e)
                if at is None:
                    return None
                if not isinstance(at, Arr):
                    self.error("reduce expects an array", arr_e.pos, "reduce-array")
                    return None
                return Owned("int", at.owner)
            case S.Pow(base=base, exponent=n):
                bt = self.check_expr(env, base)
                if not 0 <= n <= MAX_POW_EXPONENT:
                    self.error(f"pow exponent must be in 0..{MAX_POW_EXPONENT}",
                               e.pos, "pow-exp")
                if bt is None:
                    return None
                if atom(bt) != "int":
                    self.error("pow base must be an int", base.pos, "pow-int")
                    return None
                return bt
            case S.InputExpr(party=party, ty=ty):
                # the type reports its undeclared owners, so the party is
                # reported here only when it is not among them
                t = self.from_syntax(ty, env, e.pos)
                owned = isinstance(t, (Owned, Arr))
                if party not in self.parties and not (owned
                                                      and party in t.owner):
                    self.error(f"party {party} not declared", e.pos,
                               "party-undeclared")
                if isinstance(self.scheme, AdditiveShare) and party >= self.scheme.n:
                    self.error(f"party {party} does not fit {self.scheme.n}-party "
                               "additive sharing", e.pos, "party-out-of-range")
                if owned and t.owner != frozenset({party}):
                    self.error("input owner must equal the providing party",
                               e.pos, "input-owner")
                return t
        raise AssertionError(e)

    def _array_var(self, env, name, pos) -> Arr | None:
        if name not in env:
            self.error(f"unbound variable '{name}'", pos, "unbound")
            return None
        t = env[name]
        if not isinstance(t, Arr):
            self.error(f"'{name}' is not an array", pos, "not-array")
            return None
        return t

    def _eval(self, env, e, audience, sub) -> SecType | None:
        self.check_owner_literal(audience, e.pos)
        st = self.check_expr(env, sub)
        if st is None:
            return None
        if isinstance(st, Arr):
            self.error("eval declassifies scalars, not arrays", e.pos, "eval-array")
            return None
        if isinstance(st, Plain):
            # encrypt-constant coercion makes eval of plain data a no-op
            return st
        if not valid(st.owner, audience, self.scheme):
            self.error(
                f"eval audience {sorted(audience)} is not valid for data owned "
                f"by {sorted(st.owner)}", e.pos, "eval-valid")
            return None
        return Plain(st.kind)

    def _binop(self, env, e, op, a, b) -> SecType | None:
        ta = self.check_expr(env, a)
        tb = self.check_expr(env, b)
        if ta is None or tb is None:
            return None
        if isinstance(ta, Arr) or isinstance(tb, Arr):
            self.error("arrays are not operands of binary operators",
                       e.pos, "binop-array")
            return None
        ka, kb = atom(ta), atom(tb)
        if op in ARITH_OPS or op in CMP_OPS or op == "%":
            want, result = "int", ("int" if op in ARITH_OPS or op == "%" else "bool")
        elif op == "/":
            if ta != Plain("int") or tb != Plain("int"):
                self.error("division is only defined on plaintext ints",
                           e.pos, "div-plain")
                return None
            return Plain("int")
        elif op in LOGIC_OPS:
            want, result = "bool", "bool"
        elif op in EQ_OPS:
            if ka != kb:
                self.error(f"'{op}' needs operands of one atomic type "
                           f"({type_text(ta)} vs {type_text(tb)})", e.pos, "eq-kind")
                return None
            want, result = ka, "bool"
        else:
            raise AssertionError(op)
        if ka != want or kb != want:
            self.error(f"'{op}' expects {want} operands "
                       f"({type_text(ta)} vs {type_text(tb)})", e.pos, "binop-kind")
            return None
        if op == "%" and not isinstance(tb, Plain):
            self.error("modulo divisor must be plaintext", e.pos, "mod-divisor")
            return None
        owner = self.join_owners([ta, tb], e.pos, "binop-owner")
        return Owned(result, owner) if owner else Plain(result)

    def _if_expr(self, env, e, c, th, el) -> SecType | None:
        tc = self.check_expr(env, c)
        tt = self.check_expr(env, th)
        te = self.check_expr(env, el)
        if tc is not None and atom(tc) != "bool":
            self.error("if condition must be a bool", c.pos, "if-cond")
        if tt is None or te is None or tc is None:
            return None
        if isinstance(tt, Arr) or isinstance(te, Arr):
            if not (isinstance(tt, Arr) and isinstance(te, Arr)):
                self.error("if branches mix array and scalar", e.pos, "if-branch")
                return None
            owner = self.join_owners([tc, tt, te], e.pos, "if-owner")
            return Arr(owner if owner else tt.owner)
        if atom(tt) != atom(te):
            self.error(f"if branches disagree: {type_text(tt)} vs {type_text(te)}",
                       e.pos, "if-branch")
            return None
        owner = self.join_owners([tc, tt, te], e.pos, "if-owner")
        return Owned(atom(tt), owner) if owner else Plain(atom(tt))

    def _call(self, env, e, name, args) -> SecType | None:
        sig = self.functions.get(name)
        if sig is None:
            self.error(f"unknown function '{name}'", e.pos, "unknown-function")
            return None
        if len(args) != len(sig.params):
            self.error(f"'{name}' takes {len(sig.params)} arguments, got "
                       f"{len(args)}", e.pos, "arity")
            return None
        for arg, (pname, pt) in zip(args, sig.params):
            at = self.check_expr(env, arg)
            if at is not None and not assignable(at, pt):
                self.error(f"argument '{pname}' expects {type_text(pt)}, got "
                           f"{type_text(at)}", arg.pos, "arg-type")
        return sig.ret

    # -- statements --

    def check_stmt(self, env: dict, s: S.Stmt, assigned: set[str]) -> dict:
        """Check `s`, updating `env`, its scope's environment, in place."""
        match s:
            case S.Skip():
                return env
            case S.ValDecl(name=name, ty=ty, init=init):
                if name in env:
                    self.error(f"'{name}' is already declared", s.pos, "redeclare")
                    return env
                if isinstance(init, S.InputExpr):  # it checks its own type
                    declared = it = self.check_expr(env, init)
                else:
                    declared = self.from_syntax(ty, env, s.pos)
                    it = self.check_expr(env, init)
                if declared is None:
                    return env
                if it is not None and not decl_compatible(it, declared):
                    self.error(f"initializer {type_text(it)} does not fit "
                               f"declared {type_text(declared)}", s.pos, "decl-init")
                env[name] = declared
                return env
            case S.Assign(name=name, value=value):
                vt = self.check_expr(env, value)
                if name not in env:
                    self.error(f"assignment to unbound '{name}'", s.pos, "unbound")
                    return env
                old = env[name]
                if vt is None:
                    return env
                new = self._merge_assign(old, vt, s.pos)
                if new is None:
                    return env
                env[name] = new
                assigned.add(name)
                return env
            case S.ArrUpdate(name=name, index=idx, value=value):
                arr = self._array_var(env, name, s.pos)
                it = self.check_expr(env, idx)
                vt = self.check_expr(env, value)
                if it is not None and atom(it) != "int":
                    self.error("array index must be an int", idx.pos, "index-int")
                if vt is not None and atom(vt) != "int":
                    self.error("array update value must be an int", value.pos,
                               "update-int")
                if arr is None:
                    return env
                owner = self.join_owners([arr, it, vt], s.pos, "update-owner")
                env[name] = Arr(owner if owner else arr.owner)
                assigned.add(name)
                return env
            case S.While(var=var, bound=bound, body=body):
                if var not in env:
                    self.error(f"loop counter '{var}' is unbound", s.pos, "unbound")
                elif env[var] != Plain("int"):
                    self.error("loop counter must be a plaintext int", s.pos,
                               "loop-counter-plain")
                bt = self.check_expr(env, bound)
                if bt is not None and bt != Plain("int"):
                    self.error("loop bound must be a plaintext int", bound.pos,
                               "loop-bound-plain")
                # assignments may widen owner sets; iterate to a fixpoint
                for _ in range(1 + len(self.parties) * max(1, len(env))):
                    new_env = self._branch_env(env, body, assigned)
                    if new_env == env:
                        break
                    env.update(new_env)
                return env
            case S.IfStmt(cond=c, then=th, els=el):
                tc = self.check_expr(env, c)
                if tc is not None and atom(tc) != "bool":
                    self.error("if condition must be a bool", c.pos, "if-cond")
                cond_owner = tc.owner if isinstance(tc, Owned) else frozenset()
                branch_assigned: set[str] = set()
                env_then = self._branch_env(env, th, branch_assigned)
                env_else = (self._branch_env(env, el, branch_assigned)
                            if el is not None else env)
                for name in branch_assigned:
                    env[name] = widen(widen(env_then[name], env_else[name]),
                                      with_owner(env[name], cond_owner))
                assigned |= branch_assigned
                return env
            case S.Output(expr=expr):
                t = self.check_expr(env, expr)
                if t is not None and not isinstance(t, Plain):
                    self.error("cannot output private data without eval",
                               expr.pos, "output-private")
                return env
        raise AssertionError(s)

    def _branch_env(self, env: dict, block: S.Block, assigned: set[str]) -> dict:
        """Check a nested block; local declarations do not escape."""
        inner = dict(env)
        inner_assigned: set[str] = set()
        for st in block.stmts:
            inner = self.check_stmt(inner, st, inner_assigned)
        assigned |= {n for n in inner_assigned if n in env}
        return {name: inner.get(name, t) for name, t in env.items()}

    def _merge_assign(self, old: SecType, new: SecType, pos) -> SecType | None:
        if isinstance(old, Arr) != isinstance(new, Arr):
            self.error("cannot assign between array and scalar", pos, "assign-kind")
            return None
        if not isinstance(old, Arr) and atom(old) != atom(new):
            self.error(f"assignment changes atomic type "
                       f"({type_text(old)} := {type_text(new)})", pos, "assign-kind")
            return None
        joined = self.join_owners([old, new], pos, "assign-owner")
        if joined is None:
            return old  # both plain, or a TFHE violation already reported
        return Arr(joined) if isinstance(old, Arr) else Owned(atom(old), joined)

    # -- top level --

    def check_function(self, f: S.FuncDef):
        sig = self.functions[f.name]
        env = dict(sig.params)
        if f.bound is not None:
            bt = self.check_expr(env, f.bound)
            if bt is not None and bt != Plain("int"):
                self.error("bound must be a plaintext int expression over the "
                           "parameters", f.bound.pos, "bound-plain")
        assigned: set[str] = set()
        for st in f.body.stmts:
            env = self.check_stmt(env, st, assigned)
        if f.body.result is None:
            self.error(f"function '{f.name}' has no result expression", f.pos,
                       "fn-result")
            return
        rt = self.check_expr(env, f.body.result)
        if rt is not None and not assignable(rt, sig.ret):
            self.error(f"result {type_text(rt)} does not match declared "
                       f"{type_text(sig.ret)}", f.body.result.pos, "fn-result")


def atom(t: SecType) -> str | None:
    match t:
        case Plain(kind) | Owned(kind, _):
            return kind
        case Arr():
            return "arr"
    return None


def with_owner(t: SecType, owner: frozenset) -> SecType:
    if not owner:
        return t
    match t:
        case Plain(kind):
            return Owned(kind, owner)
        case Owned(kind, o):
            return Owned(kind, o | owner)
        case Arr(o):
            return Arr(o | owner)
    raise AssertionError(t)


def widen(a: SecType, b: SecType) -> SecType:
    """Least upper type of two branch results for one variable."""
    if isinstance(a, Arr) and isinstance(b, Arr):
        return Arr(a.owner | b.owner)
    ob = b.owner if isinstance(b, Owned) else frozenset()
    return with_owner(a, ob)


def assignable(src: SecType, dst: SecType) -> bool:
    """May a value of type src flow where dst is expected?"""
    if src == dst:
        return True
    match (src, dst):
        case (Plain(k1), Owned(k2, _)):
            return k1 == k2
        case (Owned(k1, o1), Owned(k2, o2)):
            return k1 == k2 and o1 <= o2
        case (Arr(o1), Arr(o2)):
            return o1 <= o2
    return False


def decl_compatible(init: SecType, declared: SecType) -> bool:
    if isinstance(declared, Arr) and not isinstance(init, Arr):
        # declaring an array with a scalar initializer fills every slot
        return atom(init) == "int" and (
            isinstance(init, Plain) or init.owner <= declared.owner)
    return assignable(init, declared)


def check_program(p: S.Program, scheme: Scheme) -> TypedProgram:
    ck = Checker(scheme, frozenset(p.parties))
    seen = set()
    for f in p.functions:
        if f.name in seen:
            ck.error(f"duplicate function '{f.name}'", f.pos, "dup-function")
            continue
        seen.add(f.name)
        params = [(n, ck.from_syntax(t, None, f.pos)) for n, t in f.params]
        ret = ck.from_syntax(f.return_type, None, f.pos)
        ck.functions[f.name] = FuncSig(f.name, params, ret, f)
    for f in p.functions:
        if f.name in ck.functions and ck.functions[f.name].defn is f:
            ck.check_function(f)
    env: dict = {}
    assigned: set[str] = set()
    for st in p.main.stmts:
        env = ck.check_stmt(env, st, assigned)
    if ck.errors:
        raise TypeCheckFailure(ck.errors)
    return TypedProgram(p, scheme, ck.functions)


def check_expr(env: dict, e: S.Expr, scheme: Scheme,
               parties: frozenset | None = None) -> SecType:
    """Check one expression in isolation; raises on the first error."""
    ck = Checker(scheme, parties if parties is not None else frozenset(range(64)))
    t = ck.check_expr(dict(env), e)
    if ck.errors:
        raise ck.errors[0]
    return t


def check_stmt(env: dict, s: S.Stmt, scheme: Scheme,
               parties: frozenset | None = None) -> dict:
    """Check one statement in isolation; raises on the first error."""
    ck = Checker(scheme, parties if parties is not None else frozenset(range(64)))
    out = ck.check_stmt(dict(env), s, set())
    if ck.errors:
        raise ck.errors[0]
    return out
