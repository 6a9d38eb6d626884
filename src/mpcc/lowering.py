"""Lowering from a type-checked program to an arithmetic circuit.

Every expression is translated directly into gates, and each constant
value is one Const node per circuit, as in bitblast. Alongside each wire
the lowering tracks a static value when one is known at compile time: a
gate whose operands all have one gets its `circuit.word_value`, the
table the optimizer folds with and the clear backend runs. Static values
drive everything that must be resolved during compilation: loop
unrolling, recursion fuel, array lengths, slice bounds and plaintext
array indices. Private control flow never consults values, so the
produced circuit is a function of the program and its public parameters
only. Nothing is optimized here: pow(x, n) is a chain of n - 1 Muls for
`optimizer.pow_rewrite`, and x >= y, x <= y and x != y are each the sum
of two comparisons for `optimizer.cmp_rewrite`. Only an Input (its owner
or share) and a Reveal (its audience) get metadata.

Each invariant is checked once, where it enters. `check_program`, the
only maker of a `TypedProgram`, has checked every name and every
array/scalar shape, so a lookup here cannot miss and a value is a list
exactly where the types say array. `Circuit.add_node` checks each
node's arity, operand order and payload, so the circuit is valid by
construction. What lowering checks itself is what only compile-time
values decide: lengths, indices, bounds, divisors and fuel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    ADD, CONST, EQ, LT, MUL, MUL_PLAIN, MUX, PLAIN, REVEAL, SUB, Circuit,
    EncMeta, GateKind, Level, PlainMeta, SharedMeta, balanced, contract_log,
    word_value,
)
from .errors import LowerError
from .frontend import syntax as S
from .sectypes import AdditiveShare, Generic, Scheme
from .typecheck import TypedProgram


@dataclass
class LowerConfig:
    bitwidth: int = 64
    scheme: Scheme = Generic()

    def __post_init__(self):
        if not (2 <= self.bitwidth <= 64):
            raise LowerError("BadBitwidth",
                             f"bitwidth {self.bitwidth} outside [2, 64]")


@dataclass(frozen=True)
class Wire:
    nid: int
    static: int | bool | None = None


Value = Wire | list  # arrays are lists of Wire


class Scope:
    """Lexical environment; tracking scopes buffer writes to outer names
    so both branches of an oblivious conditional can be merged."""

    def __init__(self, parent: "Scope | None" = None, track: bool = False):
        self.vars: dict[str, Value] = {}
        self.parent = parent
        self.track = track
        self.writes: dict[str, Value] = {}

    def lookup(self, name: str) -> Value:
        if name in self.vars:
            return self.vars[name]
        if name in self.writes:
            return self.writes[name]
        return self.parent.lookup(name)

    def declare(self, name: str, v: Value):
        self.vars[name] = v

    def assign(self, name: str, v: Value):
        if name in self.vars:
            self.vars[name] = v
        elif self.track:
            self.writes[name] = v
        else:
            self.parent.assign(name, v)


def branch_has_effects(block: S.Block) -> bool:
    """Outputs, reveals and inputs inside an oblivious branch cannot be
    made data independent; they are detected syntactically."""
    exprs = []
    for st in S.walk_stmts(block):
        match st:
            case S.Output():
                return True
            case S.ValDecl(init=e) | S.Assign(value=e):
                exprs.append(e)
            case S.ArrUpdate(index=i, value=v):
                exprs += [i, v]
            case S.While(bound=b):
                exprs.append(b)
            case S.IfStmt(cond=c):
                exprs.append(c)
    for root in exprs:
        for e in S.walk_exprs(root):
            if isinstance(e, (S.Eval, S.InputExpr)):
                return True
    return False


def expr_calls(e: S.Expr, name: str) -> bool:
    return any(isinstance(sub, S.Call) and sub.name == name
               for sub in S.walk_exprs(e))


class Lowering:
    def __init__(self, tp: TypedProgram, cfg: LowerConfig):
        self.tp = tp
        self.cfg = cfg
        self.circuit = Circuit(Level.ARITH, cfg.bitwidth)
        self.inline_stack: dict[str, int | None] = {}
        self.out_counter = 0
        self.out_names: set[str] = set()
        self.consts: dict[int, int] = {}  # payload -> Const node id
        self.inputs: dict[tuple[int, str], int] = {}  # key -> Input node id
        self.stats = {"inline_copies": {}, "base_copies": {}}

    # -- gate emission helpers --

    def emit(self, kind: GateKind, operands: list[Wire], static=None,
             payload=None, meta=PLAIN) -> Wire:
        """Append kind(operands); unless given, its static value is the
        gate's value on its operands' static values, if they all have one."""
        if static is None and operands and operands[0].static is not None:
            statics = [w.static for w in operands]
            if None not in statics:
                static = word_value(kind, statics, payload)
        nid = self.circuit.add_node(kind, [w.nid for w in operands], meta,
                                    payload)
        return Wire(nid, static)

    def const(self, value) -> Wire:
        payload = int(value)
        nid = self.consts.get(payload)
        if nid is None:
            nid = self.consts[payload] = self.circuit.add_node(
                CONST, [], PLAIN, payload)
        return Wire(nid, value)

    def input(self, party: int, name: str) -> Wire:
        """The one Input node of (party, name): a rerun input reads it."""
        nid = self.inputs.get((party, name))
        if nid is None:
            nid = self.inputs[party, name] = self.circuit.add_input(
                party, name, self.input_meta(party))
        return Wire(nid)

    def input_meta(self, party: int):
        if isinstance(self.cfg.scheme, AdditiveShare):
            players = frozenset(range(self.cfg.scheme.n))
            return SharedMeta(frozenset({party}), players, players,
                              self.cfg.scheme.n)
        return EncMeta(frozenset({party}))

    def mux(self, cond: Wire, then: Wire, els: Wire) -> Wire:
        return self.emit(MUX, [cond, then, els])

    def mux_value(self, cond: Wire, then: Value, els: Value, pos) -> Value:
        if not isinstance(then, list):  # then neither is, as the types say
            return self.mux(cond, then, els)
        if len(then) != len(els):
            raise LowerError("ArrayShape", "oblivious branches produce "
                             "arrays of different shape", pos)
        return [self.mux(cond, t, e) for t, e in zip(then, els)]

    # -- program entry --

    def lower_program(self) -> Circuit:
        root = Scope()
        self.lower_block(self.tp.program.main, root)
        return self.circuit

    def lower_block(self, block: S.Block, scope: Scope):
        for st in block.stmts:
            self.lower_stmt(st, scope)

    # -- statements --

    def lower_stmt(self, st: S.Stmt, scope: Scope):
        match st:
            case S.Skip():
                return
            case S.ValDecl(name=name):
                scope.declare(name, self.lower_decl_init(st, scope))
            case S.Assign(name=name, value=value):
                scope.assign(name, self.lower_expr(value, scope))
            case S.ArrUpdate():
                self.lower_update(st, scope)
            case S.While():
                self.unroll_while(st, scope)
            case S.IfStmt():
                self.lower_if_stmt(st, scope)
            case S.Output(expr=expr):
                self.lower_output(expr, scope)
            case _:
                raise AssertionError(st)

    def lower_decl_init(self, st: S.ValDecl, scope: Scope) -> Value:
        ty, init = st.ty, st.init
        if isinstance(init, S.InputExpr):
            return self.lower_input(init, st.name, scope)
        if isinstance(ty, S.ArrType):
            v = self.lower_expr(init, scope)
            if isinstance(v, list):
                return v
            # scalar initializer fills a fresh array of the declared length
            length = self.static_int(ty.length, scope, "NonConstLength",
                                     "array length", st.pos)
            return [self.emit_fill(v) for _ in range(length)]
        return self.lower_expr(init, scope)

    def emit_fill(self, v: Wire) -> Wire:
        if v.static is not None:
            return self.const(v.static)
        return v

    def lower_update(self, st: S.ArrUpdate, scope: Scope):
        arr = scope.lookup(st.name)
        idx = self.lower_expr(st.index, scope)
        val = self.lower_expr(st.value, scope)
        if idx.static is not None:
            k = int(idx.static)
            if not (0 <= k < len(arr)):
                raise LowerError("IndexOutOfRange",
                                 f"{st.name}({k}) with length {len(arr)}",
                                 st.pos)
            new = list(arr)
            new[k] = val
        else:
            new = self.private_update(arr, idx, val, st.pos)
        scope.assign(st.name, new)

    def private_update(self, arr: list[Wire], idx: Wire, val: Wire,
                       pos) -> list[Wire]:
        if not arr:
            raise LowerError("EmptyArray", "update of empty array", pos)
        out = []
        for k, old in enumerate(arr):
            hit = self.emit(EQ, [idx, self.const(k)])
            out.append(self.mux(hit, val, old))
        return out

    def unroll_while(self, st: S.While, scope: Scope):
        bound_w = self.lower_expr(st.bound, scope)
        if bound_w.static is None:
            raise LowerError("NonConstBound",
                             "while bound is not a compile-time constant",
                             st.pos)
        bound = int(bound_w.static)
        while True:
            # only the first pass can fail here: the stuck check below
            # refuses a counter that loses its value in the body
            current = scope.lookup(st.var)
            if current.static is None:
                raise LowerError("NonConstBound",
                                 f"loop counter '{st.var}' is not a "
                                 f"compile-time constant", st.pos)
            if int(current.static) >= bound:
                break
            self.lower_block(st.body, Scope(scope))
            after = scope.lookup(st.var)
            if (after.static is None
                    or int(after.static) <= int(current.static)):
                raise LowerError("LoopCounterStuck",
                                 f"loop counter '{st.var}' must strictly "
                                 f"increase each iteration", st.pos)

    def lower_if_stmt(self, st: S.IfStmt, scope: Scope):
        cond = self.lower_expr(st.cond, scope)
        if cond.static is not None:
            taken = st.then if cond.static else st.els
            if taken is not None:
                self.lower_block(taken, Scope(scope))
            return
        for block in (st.then, st.els):
            if block is not None and branch_has_effects(block):
                raise LowerError("SideEffectUndetectable",
                                 "oblivious branches may not contain "
                                 "output, eval or input", st.pos)
        then_scope = Scope(scope, track=True)
        self.lower_block(st.then, then_scope)
        else_scope = Scope(scope, track=True)
        if st.els is not None:
            self.lower_block(st.els, else_scope)
        for name in sorted(set(then_scope.writes) | set(else_scope.writes)):
            before = scope.lookup(name)
            t = then_scope.writes.get(name, before)
            e = else_scope.writes.get(name, before)
            scope.assign(name, self.mux_value(cond, t, e, st.pos))

    def lower_output(self, expr: S.Expr, scope: Scope):
        if isinstance(expr, S.Eval):
            wire = self.lower_expr(expr, scope)  # emits the Reveal node
            audience = frozenset(expr.audience)
            name = expr.expr.name if isinstance(expr.expr, S.Var) else None
        else:
            value = self.lower_expr(expr, scope)
            audience = frozenset(self.tp.program.parties) or frozenset({0})
            wire = self.emit(REVEAL, [value], meta=PlainMeta(audience))
            name = expr.name if isinstance(expr, S.Var) else None
        if name is None or name in self.out_names:
            name = f"out{self.out_counter}"
        self.out_counter += 1
        self.out_names.add(name)
        self.circuit.add_output(wire.nid, audience, name)

    # -- expressions --

    def lower_expr(self, e: S.Expr, scope: Scope) -> Value:
        match e:
            case S.IntLit(value=v):
                return self.const(v)
            case S.BoolLit(value=v):
                return self.const(v)
            case S.Var(name=name):
                return scope.lookup(name)
            case S.Eval(audience=aud, expr=sub):
                v = self.lower_expr(sub, scope)
                return self.emit(REVEAL, [v], static=v.static,
                                 meta=PlainMeta(frozenset(aud)))
            case S.BinOp():
                return self.lower_binop(e, scope)
            case S.IfExpr(cond=c, then=t, els=f):
                cond = self.lower_expr(c, scope)
                if cond.static is not None:
                    return self.lower_expr(t if cond.static else f, scope)
                return self.mux_value(cond, self.lower_expr(t, scope),
                                      self.lower_expr(f, scope), e.pos)
            case S.Call():
                return self.lower_call(e, scope)
            case S.ArrIndex(name=name, index=idx):
                arr = scope.lookup(name)
                iw = self.lower_expr(idx, scope)
                if iw.static is not None:
                    k = int(iw.static)
                    if not (0 <= k < len(arr)):
                        raise LowerError("IndexOutOfRange",
                                         f"{name}({k}) with length {len(arr)}",
                                         e.pos)
                    return arr[k]
                return self.private_index(arr, iw, e.pos)
            case S.ArrSlice(name=name, lo=lo, hi=hi):
                arr = scope.lookup(name)
                lo_v = self.static_int(lo, scope, "NonConstLength",
                                       "slice bound", e.pos)
                hi_v = self.static_int(hi, scope, "NonConstLength",
                                       "slice bound", e.pos)
                if not (0 <= lo_v <= hi_v <= len(arr)):
                    raise LowerError("SliceOutOfRange",
                                     f"slice({lo_v}, {hi_v}) of length "
                                     f"{len(arr)}", e.pos)
                return arr[lo_v:hi_v]
            case S.ArrLen(name=name):
                return self.const(len(scope.lookup(name)))
            case S.Reduce(op=op, array=arr_e):
                arr = self.lower_expr(arr_e, scope)
                if not arr:
                    raise LowerError("EmptyArray", "reduce of empty array",
                                     e.pos)
                return self.balanced_reduce(op, arr)
            case S.Pow(base=b, exponent=n):
                return self.lower_pow(self.lower_expr(b, scope), n)
        raise AssertionError(e)

    def static_int(self, expr, scope, code, what, pos) -> int:
        """The compile-time value of `expr`; `pos` places a missing one."""
        if expr is None:
            raise LowerError(code, f"{what} is missing", pos)
        w = self.lower_expr(expr, scope)
        if w.static is None:
            raise LowerError(code, f"{what} is not a compile-time constant",
                             expr.pos)
        return int(w.static)

    def lower_input(self, e: S.InputExpr, name: str, scope) -> Value:
        if isinstance(e.ty, S.ArrType):
            length = self.static_int(e.ty.length, scope, "NonConstLength",
                                     "input array length", e.pos)
            return [self.input(e.party, f"{name}[{k}]")
                    for k in range(length)]
        return self.input(e.party, name)

    # -- operators --

    def lower_binop(self, e: S.BinOp, scope: Scope) -> Wire:
        op = e.op
        a = self.lower_expr(e.lhs, scope)
        b = self.lower_expr(e.rhs, scope)
        if op == "+":
            return self.emit(ADD, [a, b])
        if op == "-":
            return self.emit(SUB, [a, b])
        if op == "*":
            return self.lower_mul(a, b)
        if op == "/":
            if a.static is None or b.static is None:
                raise LowerError("NonConstDivisor",
                                 "division needs compile-time operands",
                                 e.pos)
            if b.static == 0:
                raise LowerError("DivisionByZero", "division by zero", e.pos)
            return self.const(int(a.static) // int(b.static))
        if op == "%":
            return self.lower_mod(a, b, e.pos)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self.lower_comparison(op, a, b)
        if op in ("&&", "||"):
            return self.lower_logic(op, a, b)
        raise AssertionError(op)

    def lower_mul(self, a: Wire, b: Wire) -> Wire:
        sa, sb = a.static, b.static
        if sb is not None and sa is None:
            return self.emit(MUL_PLAIN, [a], payload=int(sb))
        if sa is not None and sb is None:
            return self.emit(MUL_PLAIN, [b], payload=int(sa))
        return self.emit(MUL, [a, b])

    def lower_mod(self, a: Wire, b: Wire, pos) -> Wire:
        if b.static is None:
            raise LowerError("NonConstDivisor",
                             "modulo divisor must be a compile-time constant",
                             pos)
        m = int(b.static)
        if m <= 0:
            raise LowerError("DivisionByZero", f"modulo by {m}", pos)
        if a.static is not None:
            return self.const(int(a.static) % m)
        # conditional subtraction of shifted multiples; dividend must be
        # nonnegative and inside the range contract, which m << max_shift
        # is not, so the steps start one shift lower
        r = a
        max_shift = max(0, contract_log(self.cfg.bitwidth)
                        - m.bit_length() + 1)
        for j in range(max_shift - 1, -1, -1):
            c = self.const(m << j)
            short = self.emit(LT, [r, c])
            diff = self.emit(SUB, [r, c])
            r = self.mux(short, r, diff)
        return r

    def lower_comparison(self, op: str, a: Wire, b: Wire) -> Wire:
        if op == "<":
            return self.emit(LT, [a, b])
        if op == ">":
            return self.emit(LT, [b, a])
        if op == "==":
            return self.emit(EQ, [a, b])
        # a sum of two exclusive bits; `optimizer.cmp_rewrite` turns each
        # into one comparison subtracted from 1
        if op in (">=", "<="):
            lt = self.emit(LT, [b, a] if op == ">=" else [a, b])
            eq = self.emit(EQ, [a, b])
            return self.emit(ADD, [lt, eq])
        if op == "!=":
            lt = self.emit(LT, [a, b])
            gt = self.emit(LT, [b, a])
            return self.emit(ADD, [lt, gt])
        raise AssertionError(op)

    def lower_logic(self, op: str, a: Wire, b: Wire) -> Wire:
        if op == "&&":
            return self.emit(MUL, [a, b])
        # a || b  ==  a + b - a*b on {0,1}
        s = self.emit(ADD, [a, b])
        p = self.emit(MUL, [a, b])
        return self.emit(SUB, [s, p])

    def lower_pow(self, base: Wire, n: int) -> Wire:
        if n == 0:
            return self.const(1)
        acc = base
        for _ in range(n - 1):
            acc = self.emit(MUL, [acc, base])
        return acc

    def balanced_reduce(self, op: str, wires: list[Wire]) -> Wire:
        def combine(x: Wire, y: Wire) -> Wire:
            if op == "+":
                return self.emit(ADD, [x, y])
            if op == "*":
                return self.emit(MUL, [x, y])
            if op == "max":
                return self.mux(self.emit(LT, [x, y]), y, x)
            if op == "min":
                return self.mux(self.emit(LT, [y, x]), y, x)
            raise AssertionError(op)

        return balanced(wires, combine)

    def private_index(self, arr: list[Wire], idx: Wire, pos) -> Wire:
        """Balanced multiplexer tree; selector depth is ceil(log2 len)."""
        if not arr:
            raise LowerError("EmptyArray", "index into empty array", pos)
        return self.select(idx, 0, arr)

    def select(self, idx: Wire, lo: int, wires: list[Wire]) -> Wire:
        """wires[idx - lo], by a multiplexer tree split at the middle."""
        if len(wires) == 1:
            return wires[0]
        half = (len(wires) + 1) // 2
        pivot = self.const(lo + half)
        in_left = self.emit(LT, [idx, pivot])
        left = self.select(idx, lo, wires[:half])
        right = self.select(idx, lo + half, wires[half:])
        return self.mux(in_left, left, right)

    # -- calls and fuel --

    def lower_call(self, e: S.Call, scope: Scope) -> Value:
        fn = self.tp.functions[e.name].defn
        args = [self.lower_expr(a, scope) for a in e.args]
        if e.name in self.inline_stack:
            remaining = self.inline_stack[e.name]
            if remaining is None:
                raise LowerError("BoundMissing",
                                 f"recursive function '{e.name}' has no "
                                 f"bound annotation", e.pos)
            if remaining <= 0:
                # recursion outside a collapsible result conditional
                raise LowerError("FuelExhausted",
                                 f"'{e.name}' still recursing with no fuel "
                                 f"left", e.pos)
            fuel = remaining - 1
        elif fn.bound is not None:
            fuel = self.eval_bound(fn, args, e.pos)
        else:
            fuel = None
        return self.inline_with_fuel(fn, args, fuel)

    def eval_bound(self, fn: S.FuncDef, args: list[Value], pos) -> int:
        env = Scope()
        for (pname, _ty), v in zip(fn.params, args):
            env.declare(pname, v)
        w = self.lower_expr(fn.bound, env)
        if w.static is None:
            raise LowerError("NonConstBound",
                             f"bound of '{fn.name}' is not a compile-time "
                             f"constant", pos)
        d = int(w.static)
        if d < 0:
            raise LowerError("BoundNegative",
                             f"bound of '{fn.name}' evaluated to {d}", pos)
        return d

    def inline_with_fuel(self, fn: S.FuncDef, args: list[Value],
                         fuel: int | None) -> Value:
        env = Scope()
        for (pname, _ty), v in zip(fn.params, args):
            env.declare(pname, v)
        saved = self.inline_stack.get(fn.name, "absent")
        self.inline_stack[fn.name] = fuel
        counter = "base_copies" if fuel == 0 else "inline_copies"
        self.stats[counter][fn.name] = self.stats[counter].get(fn.name, 0) + 1
        try:
            self.lower_block(fn.body, env)
            result = self.lower_result(fn, fn.body.result, env, fuel)
        finally:
            if saved == "absent":
                del self.inline_stack[fn.name]
            else:
                self.inline_stack[fn.name] = saved
        return result

    def lower_result(self, fn: S.FuncDef, expr: S.Expr, env: Scope,
                     fuel: int | None) -> Value:
        """Lower a function result; with exhausted fuel, conditionals whose
        one branch recurses collapse to the other branch unconditionally."""
        if isinstance(expr, S.IfExpr):
            rec_then = expr_calls(expr.then, fn.name)
            rec_else = expr_calls(expr.els, fn.name)
            if rec_then or rec_else:
                cond = self.lower_expr(expr.cond, env)
                if cond.static is not None:
                    taken = expr.then if cond.static else expr.els
                    if expr_calls(taken, fn.name) and fuel == 0:
                        raise LowerError(
                            "FuelExhausted",
                            f"'{fn.name}' still recursing with no fuel left",
                            expr.pos)
                    return self.lower_result(fn, taken, env, fuel)
                if fuel == 0:
                    if rec_then and rec_else:
                        raise LowerError("NoBaseCase",
                                         f"'{fn.name}' recurses in both "
                                         f"branches", expr.pos)
                    base = expr.els if rec_then else expr.then
                    return self.lower_result(fn, base, env, fuel)
                then_v = self.lower_result(fn, expr.then, env, fuel)
                else_v = self.lower_result(fn, expr.els, env, fuel)
                return self.mux_value(cond, then_v, else_v, expr.pos)
        if fuel == 0 and expr_calls(expr, fn.name):
            raise LowerError("FuelExhausted",
                             f"'{fn.name}' recurses unconditionally",
                             expr.pos)
        return self.lower_expr(expr, env)


def lower_program(tp: TypedProgram,
                  cfg: LowerConfig | None = None) -> Circuit:
    """Compile a typed program to a word-level (arith) circuit, valid by
    construction; optimizing and bitblasting it is left to
    `pipeline.compile`. A `Lowering` built directly keeps its .stats:
    ["inline_copies"][fn] counts the inlined copies of function fn, and
    ["base_copies"][fn] the fuel-0 base-case copies of fn."""
    cfg = cfg or LowerConfig()
    return Lowering(tp, cfg).lower_program()
