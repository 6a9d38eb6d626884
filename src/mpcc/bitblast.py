"""Word-to-bit lowering (two's complement, LSB first).

Adders are ripple-carry with one AND per bit, the only gate that is not
free under free-XOR (Kolesnikov & Schneider, ICALP 2008): the cell is
t = a^cin, u = b^cin, s = t^b, cout = cin ^ (t & u). Subtraction is a
borrow chain of the same cell, bout = b ^ (t & u), with no Not of b,
or a + ~b + 1 when b is a constant.
Beside a constant operand (a borrow-in of 0, the zero bits of shifted
rows) the cell is a half cell, x^y and x&y beside a 0 or Not(x^y) and
x|y beside a 1, and beside two constants a wire, its Not or a constant.
Lt copies the sign bit of the difference, which is sound for |a-b| <
2^(bitwidth-1); Eq is Not of a balanced Or tree over the bits a_i ^ b_i,
or the balanced And tree of their Nots, whichever takes fewer Nots.
A bit word, such as a comparison's output, is known by its bits above
bit 0, which are the raw constant 0: the cells beside them are wires and
constants, so 1 - b is one Not, and a product with a bit word is a row
of Ands. A Reveal of a constant bit is that constant to the cells that
read it, and a Reveal gate only where the word is an output.

Multipliers sum shifted rows with those cells. Mul(x, y) is the w x w
array; Mul(x, x) is a squarer, x_i at bit 2i and x_i & x_j (i < j) at
bit i+j+1, about w²/4 partial products instead of w²/2 (1,953 non-XOR
gates at 64 bits, against 3,009), with bit 1 constant. A square reads
only the low bits the range contract leaves its operand, padded with
the operand's sign bit, or with 0 for an operand that is itself a
square: every word has |v| < 2^(w-2), and a square below 2^b bounds its
operand below 2^ceil(b/2), so pow8's squares at 64 bits read 9, 16 and
31 bits (1,145 non-XOR gates, against 5,314 at full width). The operand
word keeps every bit another gate reads, so a narrowed square differs
from the full one only on a run that leaves the contract, which the
clear backend refuses. MulPlain(x, c) adds a shifted x per positive
digit of c's non-adjacent form (Reitwiesner, 1960) and subtracts one
per negative digit, so x*7 is 8x - x and x*-1 one negation, where
binary digits cost up to w-1 adders. Partial products go through a
constant-aware And.

Nothing is emitted to be thrown away: an adder's top cell builds no
carry-out, a comparison builds the carry chain and the sign bit but no
difference bit below it, a constant bit is added at its first use, a MuxBit
whose branches are one bit is that bit, one between the constant bits 1
and 0 is its selector (between 0 and 1, its Not), and a word is built
only up to the highest bit a reader reads (`_bits_read`): a square
never reads its operand's top bit nor any bit the contract rules out,
so pow8's x^4 at 64 bits is built to 31 bits. On the corpus's word
fixpoints the final dce finds nothing to drop, in the raw circuit as in
the optimized one.

Gates go through an `optimizer.Builder` with the pass list's local
rules, and dead nodes are swept when "dce" is listed: by default the
output is the bool fixpoint, `run_passes` of the raw (`passes=[]`)
circuit. As at word level, only an Input (its word's owner or share)
and a Reveal (its word Reveal's audience) carry metadata.

A Mux reads only bit 0 of its selector: sound for the 0/1 selectors
lowering emits, silently wrong for others (clear and shares raise
MuxSelectorError).
"""

from __future__ import annotations

from .circuit import (
    AND, CONST, EQ, INPUT, LT, MUL, MUL_PLAIN, MUX, MUX_BIT, NOT, OR, PLAIN,
    REVEAL, XOR, Circuit, GateKind, Level, balanced, contract_log,
)
from .errors import BitblastError, LevelError
from .optimizer import DEFAULT_PASSES, Builder, check_pass_names, dce


class _BitBuilder:
    """Emits bit gates through a `Builder`. A bit is the builder's id of
    its node, or a negative sentinel for a raw constant: ~0 and ~1 (-1
    and -2) for the bits 0 and 1, and one more per Reveal of a constant
    kept for an output. `_const_value` maps each sentinel to its bit, so
    only raw constants steer a cell, never a node a rule folded or one
    the builder returned for an earlier gate."""

    def __init__(self, width: int, passes: list[str]):
        self.builder = Builder(passes)
        self.add = self.builder.add
        self.width = width
        self._const_value: dict[int, int] = {~0: 0, ~1: 1}  # sentinel -> bit
        self._sentinel_ids: list[int | None] = [None, None]  # at ~sentinel

    def emit(self, kind, operands) -> int:
        """The plain gate kind(operands), each sentinel operand mapped
        to its node."""
        for o in operands:
            if o < 0:
                operands = tuple([self.node(o) for o in operands])
                break
        return self.add(kind, operands)

    def node(self, v: int) -> int:
        """The builder's id for bit v. A constant bit's Const node is
        added at its first use, so a constant that no gate reads is never
        added."""
        if v >= 0:
            return v
        nid = self._sentinel_ids[~v]
        if nid is None:
            nid = self._sentinel_ids[~v] = self.add(CONST, (), PLAIN, ~v)
        return nid

    def const_bit(self, b: int) -> int:
        return ~b

    def reveal(self, v: int, meta, output: bool) -> int:
        """Reveal of bit v. Of a constant bit it is that bit, unless
        `output`: an output keeps its Reveal gate, which the cells then
        read as that constant through a sentinel of its own."""
        k = self._const_value.get(v)
        if k is None:
            return self.add(REVEAL, (v,), meta)
        if not output:
            return v
        r = ~len(self._sentinel_ids)
        self._sentinel_ids.append(self.add(REVEAL, (self.node(v),), meta))
        self._const_value[r] = k
        return r

    def const_word(self, value: int) -> list[int]:
        return [~((value >> i) & 1) for i in range(self.width)]

    def full_adder(self, a: int, b: int, cin: int, sum_out: bool = True,
                   carry_out: bool = True,
                   borrow: bool = False) -> tuple[int | None, int | None]:
        """(a ^ b ^ cin, the carry), each None when not asked for; with
        `borrow` the carry is the borrow of a - b - cin, the majority of
        Not a, b and cin.

        With no constant operand this is the one-AND cell: t = a^cin,
        u = b^cin, s = t^b, carry cin ^ (t & u), borrow b ^ (t & u). An
        operand that is a constant bit (a sentinel) makes the carry the
        majority of the other two and that constant (Not a for a borrow's
        constant a): x^y and x&y beside a 0, Not(x^y) and x|y beside a 1,
        and for a borrow of a free a, z ^ (a & z) and Not(a^z) | z.
        Beside two constants the cell is a wire, its Not or a constant.
        Only the raw constants count, never what the builder folded, so
        every pass list picks the same cell."""
        consts = self._const_value
        s = cout = None
        if a not in consts and b not in consts and cin not in consts:
            add = self.add  # no operand is a sentinel
            t = add(XOR, (a, cin))
            u = add(XOR, (b, cin)) if carry_out else None
            if sum_out:
                s = add(XOR, (t, b))
            if carry_out:
                cout = add(XOR, (b if borrow else cin, add(AND, (t, u))))
            return s, cout
        free = [x for x in (a, b, cin) if x not in consts]
        k = sum([consts.get(x, 0) for x in (a, b, cin)])  # the constants' sum
        negated = borrow and a not in consts  # the carry reads Not a
        # the sum of the constants the carry reads
        kc = k + 1 - 2 * consts[a] if borrow and not negated else k
        if len(free) == 2:
            x, z = free
            if sum_out or carry_out and negated and k:
                d = self.emit(XOR, (x, z))
                if k:
                    d = self.emit(NOT, (d,))
                if sum_out:
                    s = d
            if carry_out:
                if not negated:
                    cout = self.emit(OR if kc else AND, (x, z))
                elif k:  # Not a | z, Not(a^z) being the sum bit
                    cout = self.emit(OR, (d, z))
                else:  # Not a & z
                    cout = self.emit(XOR, (z, self.emit(AND, (x, z))))
        elif free:
            x = free[0]
            if k == 1 and (sum_out or carry_out and negated):
                not_x = self.emit(NOT, (x,))
            if sum_out:
                s = not_x if k == 1 else x
            if carry_out:
                cout = ((not_x if negated else x) if kc == 1
                        else self.const_bit(kc >> 1))
        else:
            if sum_out:
                s = self.const_bit(k & 1)
            if carry_out:
                cout = self.const_bit(kc >> 1)
        return s, cout

    def ripple_add(self, a: list[int], b: list[int], cin: int,
                   low_sums: bool = True, borrow: bool = False) -> list[int]:
        """The len(a) bits of a + b + cin (a - b - cin with `borrow`),
        those below the top one None unless `low_sums`. The top cell
        builds no carry-out."""
        out = []
        for i in range(len(a) - 1):
            s, cin = self.full_adder(a[i], b[i], cin, low_sums, True, borrow)
            out.append(s)
        return out + [self.full_adder(a[-1], b[-1], cin, carry_out=False)[0]]

    def difference(self, a: list[int], b: list[int],
                   low_sums: bool = True) -> list[int]:
        """a - b as a borrow chain from a borrow-in of 0, the bits below
        the top one None unless `low_sums`: the top bit alone is the
        borrow chain and one difference bit. A b of raw constant bits
        is added as a + ~b + 1, whose carry cells beside a constant are
        half cells, where a borrow cell would read Not a."""
        consts = self._const_value
        if all(v in consts for v in b):
            return self.ripple_add(
                a, [self.const_bit(1 - consts[v]) for v in b],
                self.const_bit(1), low_sums)
        return self.ripple_add(a, b, self.const_bit(0), low_sums, True)

    def zero_extend(self, bit: int) -> list[int]:
        zero = self.const_bit(0)
        return [bit] + [zero] * (self.width - 1)

    def mux_bit(self, s: int, t: int, e: int) -> int:
        """s ? t : e; t when both branches are one bit or one constant,
        s between the constant bits 1 and 0, and Not s between 0 and 1."""
        consts = self._const_value
        kt, ke = consts.get(t), consts.get(e)
        if t == e or kt is not None and kt == ke:
            return t
        if {kt, ke} == {0, 1}:
            return s if kt else self.emit(NOT, (s,))
        return self.emit(MUX_BIT, (s, t, e))

    def equals(self, a: list[int], b: list[int]) -> int:
        """a == b as Not of the balanced Or tree over the bits a_i ^ b_i,
        or as the balanced And tree over their Nots when that takes fewer
        Nots. Beside a constant bit k, a_i ^ b_i is the other bit or its
        Not, so a constant of mostly 1 bits takes the And tree; two
        constant bits drop out, or make a == b 0 if they differ."""
        consts = self._const_value
        pairs = []
        for x, y in zip(a, b):
            if x in consts:
                x, y = y, x
            if x not in consts:
                pairs.append((x, y))
            elif consts[x] != consts[y]:
                return self.const_bit(0)
        if not pairs:
            return self.const_bit(1)
        # Nots: the Or tree's are one per constant 1 and its root, the
        # And tree's one per other pair
        if 2 * sum([consts.get(y) == 1 for _x, y in pairs]) >= len(pairs):
            sames = [self.emit(NOT, (self.emit(XOR, (x, y)),))
                     if y not in consts
                     else x if consts[y] else self.emit(NOT, (x,))
                     for x, y in pairs]
            return balanced(sames, lambda x, y: self.emit(AND, (x, y)))
        diffs = [self.emit(XOR, (x, y)) if y not in consts
                 else self.emit(NOT, (x,)) if consts[y] else x
                 for x, y in pairs]
        return self.emit(NOT, (balanced(
            diffs, lambda x, y: self.emit(OR, (x, y))),))

    def and_bit(self, x: int, y: int) -> int:
        """x & y; beside a constant bit, that 0 or the other bit."""
        consts = self._const_value
        if x in consts:
            x, y = y, x
        k = consts.get(y)
        if k is None:
            return self.emit(AND, (x, y))
        return x if k else y

    def is_bit(self, word: list[int]) -> bool:
        """Whether every bit of `word` above bit 0 is a constant 0."""
        consts = self._const_value
        return all([consts.get(v) == 0 for v in word[1:]])

    def scale_by_bit(self, bit: int, word: list[int]) -> list[int]:
        return [self.and_bit(bit, w) for w in word]

    def shifted(self, word: list[int], k: int) -> list[int]:
        """`word` shifted up k bits within its length."""
        return ([self.const_bit(0)] * k + word)[:len(word)]

    def multiply(self, a: list[int], b: list[int]) -> list[int]:
        """The len(a) low bits of a*b, one shifted row per bit of b."""
        n, zero = len(a), self.const_bit(0)
        acc = self.scale_by_bit(b[0], a)
        for j in range(1, n):
            row = self.scale_by_bit(b[j], a[:n - j])
            acc = self.ripple_add(acc, [zero] * j + row, zero)
        return acc

    def square(self, x: list[int]) -> list[int]:
        """The len(x) = w low bits of x*x as Σ x_i·2^(2i) + Σ_{i<j}
        (x_i & x_j)·2^(i+j+1): row i holds x_i at bit 2i, a constant 0 at
        bit 2i+1 and x_i & x_j above, about w²/4 partial products where
        `multiply` has w²/2. Bit w-1 of x is not read."""
        w, zero = len(x), self.const_bit(0)
        acc = None
        for i in range((w + 1) // 2):
            row = [zero] * (2 * i) + [x[i], zero] + [
                self.and_bit(x[i], x[j]) for j in range(i + 1, w - i - 1)]
            acc = row[:w] if acc is None else self.ripple_add(
                acc, row[:w], zero)
        return acc

    def mul_plain(self, a: list[int], c: int) -> list[int]:
        """The len(a) low bits of a*c from the signed digits of c: a
        shifted copy of `a` per digit, the first positive one the start,
        the other positive ones added and the negative ones subtracted
        (from 0 if none is positive). The bits of `a` from len(a) - j up
        are not read, j being c's lowest set bit."""
        digits = signed_digits(c, len(a))
        plus = [j for j, d in digits if d > 0]
        minus = [j for j, d in digits if d < 0]
        acc = (self.shifted(a, plus[0]) if plus
               else self.const_word(0)[:len(a)])
        for j in plus[1:]:
            acc = self.ripple_add(acc, self.shifted(a, j), self.const_bit(0))
        for j in minus:
            acc = self.difference(acc, self.shifted(a, j))
        return acc


def signed_digits(c: int, width: int) -> list[tuple[int, int]]:
    """The nonzero digits (position, ±1) of the non-adjacent form of
    c mod 2^width (Reitwiesner, 1960), a digit at 2^width dropped. No
    signed-binary form has fewer, so there are at most as many as c (or
    -c) has set bits: -1 is one digit, where 2^w - 1 has w set bits."""
    c &= (1 << width) - 1
    digits = []
    for j in range(width):
        if c & 1:
            d = 2 - (c & 3)  # 1 when c = 1 mod 4, -1 when c = 3 mod 4
            digits.append((j, d))
            c -= d
        c >>= 1
    return digits


def bitblast(c: Circuit, width: int | None = None,
             passes: list[str] | None = None) -> Circuit:
    """Lower a word-level circuit to boolean gates; semantics are
    preserved modulo 2^width. `passes` (None = DEFAULT_PASSES, [] = the
    raw circuit) names the rules the gates are emitted through."""
    if c.level == Level.BOOL:
        raise LevelError("circuit is already at the bool level")
    passes = DEFAULT_PASSES if passes is None else passes
    check_pass_names(passes)
    width = width or c.bitwidth
    bb = _BitBuilder(width, passes)
    need, narrow = _bits_read(c, width)
    bits: dict[int, list[int | None]] = {}
    input_keys = {nid: (p, n) for nid, p, n in reversed(c.inputs)}
    inputs: list[tuple[int, int, str]] = []
    unread = [None] * width
    shown = {nid for nid, _a, _n in c.outputs}  # the output words

    for nid, node in enumerate(c.nodes):
        a, k = node.operands, need[nid]
        if not k and node.kind is not INPUT:
            bits[nid] = unread  # no bit of it is read
            continue
        low = [bits[o][:k] for o in a]  # what the arithmetic cases read
        match node.kind:
            case GateKind.CONST:
                word = bb.const_word(node.payload)
            case GateKind.INPUT:
                party, name = input_keys[nid]
                word = [bb.add(INPUT, (), node.meta) for _ in range(width)]
                inputs += [(v, party, name) for v in word]
            case GateKind.ADD:
                word = bb.ripple_add(low[0], low[1], bb.const_bit(0))
            case GateKind.SUB:
                word = bb.difference(low[0], low[1])
            case GateKind.MUL:
                if a[0] == a[1]:  # the operand's low bits, sign-extended
                    x = bits[a[0]][:min(k, narrow[nid])]
                    pad = (bb.const_bit(0) if _is_square(c.nodes[a[0]])
                           else x[-1])
                    word = bb.square(x + [pad] * (k - len(x)))
                elif bb.is_bit(low[0]):
                    word = bb.scale_by_bit(low[0][0], low[1])
                elif bb.is_bit(low[1]):
                    word = bb.scale_by_bit(low[1][0], low[0])
                else:
                    word = bb.multiply(low[0], low[1])
            case GateKind.MUL_PLAIN:
                word = bb.mul_plain(low[0], node.payload)
            case GateKind.LT:
                word = bb.zero_extend(
                    bb.difference(bits[a[0]], bits[a[1]], False)[-1])
            case GateKind.EQ:
                word = bb.zero_extend(bb.equals(bits[a[0]], bits[a[1]]))
            case GateKind.MUX:
                sel = bits[a[0]][0]
                word = [bb.mux_bit(sel, t, e) for t, e in zip(low[1], low[2])]
            case GateKind.REVEAL:
                output = nid in shown
                word = [bb.reveal(bit, node.meta, output) for bit in low[0]]
            case _:
                raise BitblastError(
                    f"cannot bit-blast {node.kind.value}")
        bits[nid] = word + [None] * (width - len(word))

    outputs = [(bb.node(v), aud, name)
               for nid, aud, name in c.outputs for v in bits[nid]]
    out = Circuit(Level.BOOL, width, bb.builder.nodes, inputs, outputs)
    return dce(out) if "dce" in passes else out


def _is_square(node) -> bool:
    return node.kind is MUL and node.operands[0] == node.operands[1]


def _bits_read(c: Circuit, width: int) -> tuple[list[int], list[int]]:
    """How many low bits of each word bitblast reads (`need`): all of an
    output's, and of an operand's the most any reader's cells read. The
    low k bits of a sum, difference or product need only the low k bits
    of its operands, a square only k-1 and a product by c only k - j (j
    the lowest set bit of c); a Mux selector gives its bit 0, a
    comparison reads whole words.

    And for each square, how many low bits of its operand the range
    contract leaves it (`narrow`), read backwards: every word has |v| <
    2^(w-2), and |x*x| < 2^b puts |x| below 2^ceil(b/2), so x fits in
    ceil(b/2) bits and a sign bit, or in ceil(b/2) bits if x is itself a
    square and so not negative. That tighter b passes on to x's own
    square cell: x^8 < 2^62 puts x^4 below 2^31, x^2 below 2^16 and x
    within 9 signed bits."""
    need = [0] * len(c.nodes)
    narrow = [width] * len(c.nodes)
    log = [contract_log(width)] * len(c.nodes)  # |v| < 2^log[v]
    for nid, _a, _n in c.outputs:
        need[nid] = width
    for nid in range(len(c.nodes) - 1, -1, -1):
        node, k = c.nodes[nid], need[nid]
        a, kind = node.operands, node.kind
        if not k or not a:
            continue
        if kind in (LT, EQ):
            reads = [width, width]
        elif kind is MUX:
            reads = [1, k, k]
        elif _is_square(node):
            half = -(-log[nid] // 2)
            log[a[0]] = min(log[a[0]], half)
            narrow[nid] = half + (not _is_square(c.nodes[a[0]]))
            reads = [min(max(k - 1, 1), narrow[nid])] * 2
        elif kind is MUL_PLAIN:
            low = node.payload % (1 << k)
            reads = [k + 1 - (low & -low).bit_length() if low else 0]
        else:
            reads = [k] * len(a)
        for o, r in zip(a, reads):
            need[o] = max(need[o], r)
    return need, narrow
