"""Canonical predicates over packet-header bits.

Predicates are reduced ordered binary decision diagrams with hash-consed
nodes, so two predicates denote the same boolean function iff their handles
are equal.  Variable order is fixed: header fields in declaration order,
most-significant bit first within each field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence


class InvalidLayout(ValueError):
    pass


class UnknownField(KeyError):
    pass


class ValueOutOfRange(ValueError):
    pass


class EngineMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


# bytes.translate tables between 0/1 bit values and the digits "0"/"1"
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_OF_BIT = bytes.maketrans(b"\x00\x01", b"01")


def int_bits(value: int, width: int) -> bytes:
    """The width low bits of a non-negative value, most significant first,
    as bytes of 0 and 1."""
    return format(value, f"0{width}b").encode().translate(_BIT_OF_DIGIT)


def field_int(name: str, value) -> int:
    """A field value given as an int or a decimal string.  Floats (inf and
    nan included) and bools are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{name}={value!r} is not an integer")
    return int(value)


# The widest layout.  The boolean ops built on Engine._apply (and, or,
# diff) recurse twice per header bit and set the budget; Engine.first_match,
# atoms.compute_atoms and the atom index's walks take one frame per bit.  A
# 500-bit layout ran past the interpreter's default limit of 1,000 frames;
# 384 bits leaves room for the caller's own frames and keeps the IPv6
# 5-tuple (296 bits) valid.
MAX_WIDTH = 384


@dataclass(frozen=True)
class HeaderLayout:
    """Ordered (name, width) fields, at most MAX_WIDTH bits, defining the
    header bit space."""

    fields: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = set()
        for name, width in self.fields:
            if width < 1:
                raise InvalidLayout(f"field {name!r} has zero width")
            if name in names:
                raise InvalidLayout(f"duplicate field name {name!r}")
            names.add(name)
        if not self.fields:
            raise InvalidLayout("layout has no fields")
        total = sum(w for _, w in self.fields)
        if total > MAX_WIDTH:
            raise InvalidLayout(f"layout is {total} bits wide, more than {MAX_WIDTH}")
        # name -> (offset, width, shift): the field's first bit, its width,
        # and where its value sits in the header packed MSB-first into one int
        place, off = {}, 0
        for name, width in self.fields:
            place[name] = (off, width, total - off - width)
            off += width
        object.__setattr__(self, "_place", place)
        object.__setattr__(self, "_total", total)

    @property
    def total_width(self) -> int:
        return self._total

    def _field(self, name: str) -> tuple[int, int, int]:
        try:
            return self._place[name]
        except (KeyError, TypeError):
            raise UnknownField(name) from None

    def field_width(self, name: str) -> int:
        return self._field(name)[1]

    def field_offset(self, name: str) -> int:
        return self._field(name)[0]

    def interval(self, c: "FieldConstraint") -> tuple[int, int]:
        """The values [lo, hi] of c's field that c matches; ValueOutOfRange
        when a value or prefix length does not fit or a range is reversed."""
        width = self.field_width(c.field)
        if c.kind == "exact":
            if c.value is None or not 0 <= c.value < (1 << width):
                raise ValueOutOfRange(f"exact value {c.value} vs width {width}")
            return c.value, c.value
        if c.kind == "prefix":
            if c.length is None or not 0 <= c.length <= width:
                raise ValueOutOfRange(f"prefix length {c.length} vs width {width}")
            if c.value is None or not 0 <= c.value < (1 << width):
                raise ValueOutOfRange(f"prefix value {c.value} vs width {width}")
            free = width - c.length
            lo = c.value >> free << free
            return lo, lo | ((1 << free) - 1)
        if c.kind == "range":
            if c.lo is None or c.hi is None or not 0 <= c.lo <= c.hi < (1 << width):
                raise ValueOutOfRange(f"range [{c.lo},{c.hi}] vs width {width}")
            return c.lo, c.hi
        raise ValueOutOfRange(f"unknown constraint kind {c.kind!r}")

    def pinned(self, sets: Iterable[tuple[str, int]]) -> dict[int, int]:
        """{variable: bit} of the header bits that writing each (field,
        value) of sets fixes; ValueOutOfRange when a value does not fit."""
        fixed: dict[int, int] = {}
        for name, value in sets:
            off, width, _ = self._field(name)
            if not 0 <= value < (1 << width):
                raise ValueOutOfRange(f"{name}={value} does not fit {width} bits")
            for i, bit in enumerate(int_bits(value, width)):
                fixed[off + i] = bit
        return fixed

    def header(self, values: dict[str, int]) -> "Header":
        """Build a header from per-field values (ints or decimal strings);
        missing fields are 0.  The fields are packed into one int, then
        expanded to bits in one pass."""
        packed = 0
        for name, value in values.items():
            _, w, shift = self._field(name)
            value = field_int(name, value)
            if not 0 <= value < (1 << w):
                raise ValueOutOfRange(f"{name}={value} does not fit {w} bits")
            packed |= value << shift
        return Header(tuple(int_bits(packed, self._total)))

    def header_from_int(self, value: int) -> "Header":
        w = self._total
        if not 0 <= value < (1 << w):
            raise ValueOutOfRange(f"{value} does not fit {w} bits")
        return Header(tuple(int_bits(value, w)))

    def field_value(self, header: "Header", name: str) -> int:
        off, w, _ = self._field(name)
        return int(bytes(header.bits[off:off + w]).translate(_DIGIT_OF_BIT), 2)

    def all_headers(self) -> Iterable["Header"]:
        """Every header in the space; only sensible at small widths."""
        for v in range(1 << self.total_width):
            yield self.header_from_int(v)


@dataclass(frozen=True)
class Header:
    bits: tuple[int, ...]


@dataclass(frozen=True)
class FieldConstraint:
    """Match on one field: exact value, prefix, or inclusive range."""

    field: str
    kind: str  # "exact" | "prefix" | "range"
    value: Optional[int] = None
    length: Optional[int] = None
    lo: Optional[int] = None
    hi: Optional[int] = None

    @staticmethod
    def exact(field: str, value: int) -> "FieldConstraint":
        return FieldConstraint(field, "exact", value=value)

    @staticmethod
    def prefix(field: str, value: int, length: int) -> "FieldConstraint":
        return FieldConstraint(field, "prefix", value=value, length=length)

    @staticmethod
    def range_(field: str, lo: int, hi: int) -> "FieldConstraint":
        return FieldConstraint(field, "range", lo=lo, hi=hi)


@dataclass(frozen=True)
class Predicate:
    """Handle into an engine's shared node store; equal handles = equal functions."""

    engine: "Engine" = field(repr=False, compare=False)
    node: int = 0

    def __and__(self, other: "Predicate") -> "Predicate":
        return self.engine.conj(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return self.engine.disj(self, other)

    def __invert__(self) -> "Predicate":
        return self.engine.neg(self)

    def __sub__(self, other: "Predicate") -> "Predicate":
        return self.engine.diff(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, Predicate)
            and self.engine is other.engine
            and self.node == other.node
        )

    def __hash__(self):
        return hash((id(self.engine), self.node))


FALSE = 0
TRUE = 1


class Engine:
    """Shared node store plus the predicate algebra over one header layout.

    Construction ops (match, the boolean ops, split, first_match, exists,
    restrict) mutate internal tables and need exclusive access; eval and
    query on built predicates are read-only.
    """

    def __init__(self, layout: HeaderLayout):
        self.layout = layout
        self.width = layout.total_width
        # node 0 = false, node 1 = true; terminal var = width sentinel
        self._var = [self.width, self.width]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        # op cache of the public boolean ops and exists; set-up and updates
        # never fill it.  and/not/or/diff keys are ints packed from the
        # operand handles (each < 2**32) with a 2-bit op tag -- and 0, not
        # 1, or 2, diff 3; exists keys are tuples
        self._cache: dict[int | tuple, int] = {}
        self._count: dict[int, int] = {}

    # -- constants -----------------------------------------------------

    @property
    def false_(self) -> Predicate:
        return Predicate(self, FALSE)

    @property
    def true_(self) -> Predicate:
        return Predicate(self, TRUE)

    def _wrap(self, node: int) -> Predicate:
        return Predicate(self, node)

    def _check(self, *preds: Predicate) -> None:
        for p in preds:
            if p.engine is not self:
                raise EngineMismatch("predicate belongs to a different engine")

    # -- node store ----------------------------------------------------

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        n = self._unique.get(key)
        if n is None:
            n = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = n
        return n

    # -- rule-match construction ----------------------------------------

    def match(self, c: FieldConstraint) -> Predicate:
        return self.match_all((c,))

    def match_all(self, constraints: Iterable[FieldConstraint]) -> Predicate:
        """Conjunction of constraints; empty list matches everything.

        Every constraint kind is an interval of its field's values, so the
        conjunction is one interval per field.  The BDD is built from the
        last field up, each field's interval above the fields below it, so
        it creates only the result's own nodes and no op-cache entries.
        """
        spans: dict[str, tuple[int, int]] = {}
        for c in constraints:
            lo, hi = self.layout.interval(c)
            if c.field in spans:
                lo0, hi0 = spans[c.field]
                lo, hi = max(lo, lo0), min(hi, hi0)
            spans[c.field] = (lo, hi)
        node = TRUE
        for name in sorted(spans, key=self.layout.field_offset, reverse=True):
            lo, hi = spans[name]
            if lo > hi:
                return self.false_
            off, width, _ = self.layout._field(name)
            node = self._span(off, width, lo, hi, node)
        return self._wrap(node)

    def _span(self, off: int, width: int, lo: int, hi: int, tail: int) -> int:
        """Headers whose width bits from variable off hold a value in
        [lo, hi] and that satisfy tail, which tests only later variables.

        Above the highest bit where lo and hi differ, every bit is fixed to
        lo's.  Below it hang two chains: lo's end of the interval on its 0
        branch and hi's end on its 1 branch, each starting at its lowest bit
        that leaves the values below free.  Both chains, then the fixed
        bits, are built bottom-up: the order in which a top-down split at
        the interval's middle makes them, which fixes the node handles."""
        mk = self._mk
        last = off + width - 1  # the variable of the field's lowest bit
        d = (lo ^ hi).bit_length()
        free = (1 << d) - 1
        node = tail
        if lo & free or ~hi & free:
            low = high = tail
            x, y = lo & (free >> 1), hi & (free >> 1)
            for i in range((x & -x).bit_length() - 1 if x else d - 1, d - 1):
                low = mk(last - i, FALSE, low) if lo >> i & 1 else mk(last - i, low, tail)
            for i in range(((y + 1) & ~y).bit_length() - 1, d - 1):
                high = mk(last - i, tail, high) if hi >> i & 1 else mk(last - i, high, FALSE)
            node = mk(last - d + 1, low, high)
        for i in range(d, width):
            node = mk(last - i, FALSE, node) if lo >> i & 1 else mk(last - i, node, FALSE)
        return node

    # -- boolean algebra -------------------------------------------------

    def conj(self, a: Predicate, b: Predicate) -> Predicate:
        self._check(a, b)
        return self._wrap(self._and(a.node, b.node))

    def disj(self, a: Predicate, b: Predicate) -> Predicate:
        self._check(a, b)
        return self._wrap(self._or(a.node, b.node))

    def neg(self, a: Predicate) -> Predicate:
        self._check(a)
        return self._wrap(self._not(a.node))

    def diff(self, a: Predicate, b: Predicate) -> Predicate:
        self._check(a, b)
        return self._wrap(self._diff(a.node, b.node))

    def split(self, a: Predicate, p: Predicate) -> tuple[Predicate, Predicate]:
        """(a & p, a - p) in one recursion over both BDDs.

        Its memo lives for this call only, so a split adds nodes but no
        op-cache entries.
        """
        self._check(a, p)
        var, lo, hi, mk = self._var, self._lo, self._hi, self._mk
        memo: dict[int, tuple[int, int]] = {}

        def go(a: int, b: int) -> tuple[int, int]:
            if a == FALSE:
                return FALSE, FALSE
            if b == TRUE or a == b:
                return a, FALSE
            if b == FALSE:
                return FALSE, a
            key = a << 32 | b
            r = memo.get(key)
            if r is None:
                va, vb = var[a], var[b]
                v = va if va < vb else vb
                a0, a1 = (lo[a], hi[a]) if va == v else (a, a)
                b0, b1 = (lo[b], hi[b]) if vb == v else (b, b)
                t0, f0 = go(a0, b0)
                t1, f1 = go(a1, b1)
                r = memo[key] = (mk(v, t0, t1), mk(v, f0, f1))
            return r

        t, f = go(a.node, p.node)
        return self._wrap(t), self._wrap(f)

    def first_match(self, entries: Sequence[tuple[Hashable, Predicate]]) -> dict:
        """{action: the headers on which an entry with that action is the
        first of entries to match}, for (action, predicate) entries in
        priority order.  An entry whose action is None only shadows the
        entries after it; no action whose entries never come first is in
        the result.

        One memoised recursion over all the entries' BDDs, as in
        atoms.compute_atoms: won(vec, v) walks the entries still undecided
        -- vec holds their (action, node) pairs, in order, and v is their
        lowest top variable -- and splits all of them at v in one pass.  On
        each side a node that reaches true ends the vec there, one that
        reaches false drops out, and so do the None entries at its end; a
        side left with one entry is decided.  It returns {action: node} for
        the headers below, joined over the two sides by one node each, so
        the call creates only its results' nodes and no op-cache entries.
        """
        self._check(*(p for _, p in entries))
        var, lo, hi, mk, width = self._var, self._lo, self._hi, self._mk, self.width
        memo: dict[tuple[tuple[Hashable, int], ...], dict] = {}

        def trim(rest: list) -> int:
            """Drop the None entries at the end of rest, which ends in one;
            the lowest top variable of what is left."""
            while rest and rest[-1][0] is None:
                rest.pop()
            return min((var[n] for _, n in rest), default=width)

        def won(vec, v):
            out = memo.get(vec)
            if out is None:
                rest0, rest1 = [], []
                v0 = v1 = width
                done0 = done1 = False
                for e in vec:
                    a, n = e
                    w = var[n]
                    if w != v:
                        # n does not test v (true ends vec): it goes to both sides
                        if not done0:
                            rest0.append(e)
                            if w < v0:
                                v0 = w
                        if not done1:
                            rest1.append(e)
                            if w < v1:
                                v1 = w
                        continue
                    n0, n1 = lo[n], hi[n]
                    if not done0 and n0 != FALSE:
                        rest0.append((a, n0))
                        if n0 == TRUE:
                            done0 = True
                        elif var[n0] < v0:
                            v0 = var[n0]
                    if not done1 and n1 != FALSE:
                        rest1.append((a, n1))
                        if n1 == TRUE:
                            done1 = True
                        elif var[n1] < v1:
                            v1 = var[n1]
                    if done0 and done1:
                        break
                if rest0 and rest0[-1][0] is None:
                    v0 = trim(rest0)
                if rest1 and rest1[-1][0] is None:
                    v1 = trim(rest1)
                off = won(tuple(rest0), v0) if len(rest0) > 1 else dict(rest0)
                on = won(tuple(rest1), v1) if len(rest1) > 1 else dict(rest1)
                out = {a: mk(v, c, on.get(a, FALSE)) for a, c in off.items()}
                for a, c in on.items():
                    if a not in off:
                        out[a] = mk(v, FALSE, c)
                memo[vec] = out
            return out

        # constant entries are decided before the walk
        rest, v = [], width
        for a, p in entries:
            if p.node != FALSE:
                rest.append((a, p.node))
                if p.node == TRUE:
                    break
                v = min(v, var[p.node])
        if rest and rest[-1][0] is None:
            v = trim(rest)
        found = won(tuple(rest), v) if len(rest) > 1 else dict(rest)
        return {a: Predicate(self, n) for a, n in found.items()}

    def _and(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        return self._apply(self._and, (a << 32 | b) << 2, a, b)

    def _or(self, a: int, b: int) -> int:
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE or a == b:
            return a
        if a > b:
            a, b = b, a
        return self._apply(self._or, (a << 32 | b) << 2 | 2, a, b)

    def _diff(self, a: int, b: int) -> int:
        if a == FALSE or b == TRUE or a == b:
            return FALSE
        if b == FALSE:
            return a
        if a == TRUE:
            return self._not(b)
        return self._apply(self._diff, (a << 32 | b) << 2 | 3, a, b)

    def _apply(self, op, key: int, a: int, b: int) -> int:
        """op(a, b) for two internal nodes: split both at the top variable
        and join op over the cofactors, memoised under key."""
        r = self._cache.get(key)
        if r is None:
            va, vb = self._var[a], self._var[b]
            v = min(va, vb)
            a0, a1 = (self._lo[a], self._hi[a]) if va == v else (a, a)
            b0, b1 = (self._lo[b], self._hi[b]) if vb == v else (b, b)
            r = self._mk(v, op(a0, b0), op(a1, b1))
            self._cache[key] = r
        return r

    def _not(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        key = a << 2 | 1
        r = self._cache.get(key)
        if r is None:
            r = self._mk(self._var[a], self._not(self._lo[a]), self._not(self._hi[a]))
            self._cache[key] = r
        return r

    # -- quantification ---------------------------------------------------

    def exists(self, p: Predicate, fields: Iterable[str]) -> Predicate:
        """True on h iff some assignment to the named fields makes p true."""
        self._check(p)
        vars_ = []
        for name in fields:
            off = self.layout.field_offset(name)
            vars_.extend(range(off, off + self.layout.field_width(name)))
        if not vars_:
            return p
        return self._wrap(self._exists(p.node, frozenset(vars_), tuple(sorted(vars_))))

    def _exists(self, n: int, vars_: frozenset, token: tuple) -> int:
        # a node below every quantified variable (terminals included) is
        # its own projection
        if self._var[n] > token[-1]:
            return n
        key = ("ex", n, token)
        r = self._cache.get(key)
        if r is not None:
            return r
        lo = self._exists(self._lo[n], vars_, token)
        hi = self._exists(self._hi[n], vars_, token)
        if self._var[n] in vars_:
            r = self._or(lo, hi)
        else:
            r = self._mk(self._var[n], lo, hi)
        self._cache[key] = r
        return r

    def restrict(self, p: Predicate, sets: Iterable[tuple[str, int]]) -> Predicate:
        """p with the named fields fixed to constants: true on h iff p holds
        on h with those fields overwritten by their values.

        One walk with a memo of its own: it creates only the result's
        nodes, no op-cache entries, and returns a node as it is once its
        variable is below every fixed one.
        """
        self._check(p)
        fixed = self.layout.pinned(sets)
        if not fixed:
            return p
        last = max(fixed)
        var, lo, hi, mk = self._var, self._lo, self._hi, self._mk
        memo: dict[int, int] = {}

        def go(n: int) -> int:
            if var[n] > last:
                return n
            r = memo.get(n)
            if r is None:
                bit = fixed.get(var[n])
                if bit is None:
                    r = mk(var[n], go(lo[n]), go(hi[n]))
                else:
                    r = go(hi[n] if bit else lo[n])
                memo[n] = r
            return r

        return self._wrap(go(p.node))

    # -- evaluation and queries --------------------------------------------

    def eval(self, p: Predicate, h: Header) -> bool:
        self._check(p)
        bits = h.bits
        if len(bits) != self.width:
            raise LengthMismatch(f"header has {len(bits)} bits, layout {self.width}")
        var, lo, hi = self._var, self._lo, self._hi
        n = p.node
        while n > TRUE:
            n = hi[n] if bits[var[n]] else lo[n]
        return n == TRUE

    def implies(self, a: Predicate, b: Predicate) -> bool:
        return self._and(a.node, b.node) == a.node

    def is_false(self, p: Predicate) -> bool:
        return p.node == FALSE

    def is_true(self, p: Predicate) -> bool:
        return p.node == TRUE

    def sat_count(self, p: Predicate) -> int:
        self._check(p)
        return self._satcount(p.node) << self._var[p.node] if p.node > TRUE else (
            (1 << self.width) if p.node == TRUE else 0
        )

    def _satcount(self, n: int) -> int:
        # counts assignments of vars >= var(n); vars above are handled by caller
        if n == TRUE:
            return 1
        if n == FALSE:
            return 0
        r = self._count.get(n)
        if r is None:
            v = self._var[n]
            lo, hi = self._lo[n], self._hi[n]
            r = (self._satcount(lo) << (self._var[lo] - v - 1)) + (
                self._satcount(hi) << (self._var[hi] - v - 1)
            )
            self._count[n] = r
        return r
