"""Canonical predicates over packet-header bits.

Predicates are reduced ordered binary decision diagrams with hash-consed
nodes, so two predicates denote the same boolean function iff their handles
are equal.  Variable order is fixed: header fields in declaration order,
most-significant bit first within each field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


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


@dataclass(frozen=True)
class HeaderLayout:
    """Ordered (name, width) fields defining the header bit space."""

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

    @property
    def total_width(self) -> int:
        return sum(w for _, w in self.fields)

    def field_width(self, name: str) -> int:
        for n, w in self.fields:
            if n == name:
                return w
        raise UnknownField(name)

    def field_offset(self, name: str) -> int:
        off = 0
        for n, w in self.fields:
            if n == name:
                return off
            off += w
        raise UnknownField(name)

    def header(self, values: dict[str, int]) -> "Header":
        """Build a header from per-field integer values; missing fields are 0."""
        bits = [0] * self.total_width
        for name, value in values.items():
            off = self.field_offset(name)
            w = self.field_width(name)
            value = int(value)
            if not 0 <= value < (1 << w):
                raise ValueOutOfRange(f"{name}={value} does not fit {w} bits")
            for i in range(w):
                bits[off + i] = (value >> (w - 1 - i)) & 1
        return Header(tuple(bits))

    def header_from_int(self, value: int) -> "Header":
        w = self.total_width
        if not 0 <= value < (1 << w):
            raise ValueOutOfRange(f"{value} does not fit {w} bits")
        return Header(tuple((value >> (w - 1 - i)) & 1 for i in range(w)))

    def field_value(self, header: "Header", name: str) -> int:
        off = self.field_offset(name)
        w = self.field_width(name)
        v = 0
        for i in range(w):
            v = (v << 1) | header.bits[off + i]
        return v

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

    Construction ops (match/conj/disj/neg/exists) mutate internal tables and
    need exclusive access; eval and query on built predicates are read-only.
    """

    def __init__(self, layout: HeaderLayout):
        self.layout = layout
        self.width = layout.total_width
        # node 0 = false, node 1 = true; terminal var = width sentinel
        self._var = [self.width, self.width]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        # op cache: and/not/or/diff keys are ints packed from the operand
        # handles (each < 2**32) with a 2-bit op tag -- and 0, not 1, or 2,
        # diff 3; exists keys are tuples
        self._cache: dict[int | tuple, int] = {}
        self._count: dict[int, int] = {}

    def clear_cache(self) -> None:
        """Drop the op cache.  It only memoises construction -- serving
        reads _var/_lo/_hi -- so the writer empties it each time it has
        built a structure to publish, and memory follows the live state."""
        self._cache.clear()

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
        width = self.layout.field_width(c.field)
        off = self.layout.field_offset(c.field)
        if c.kind == "exact":
            if c.value is None or not 0 <= c.value < (1 << width):
                raise ValueOutOfRange(f"exact value {c.value} vs width {width}")
            return self._wrap(self._cube(off, c.value, width, width))
        if c.kind == "prefix":
            if c.length is None or not 0 <= c.length <= width:
                raise ValueOutOfRange(f"prefix length {c.length} vs width {width}")
            if c.value is None or not 0 <= c.value < (1 << width):
                raise ValueOutOfRange(f"prefix value {c.value} vs width {width}")
            top = c.value >> (width - c.length) if c.length else 0
            return self._wrap(self._cube(off, top, c.length, c.length))
        if c.kind == "range":
            if c.lo is None or c.hi is None or not 0 <= c.lo <= c.hi < (1 << width):
                raise ValueOutOfRange(f"range [{c.lo},{c.hi}] vs width {width}")
            acc = FALSE
            for val, plen in _range_prefixes(c.lo, c.hi, width):
                top = val >> (width - plen) if plen else 0
                acc = self._or(acc, self._cube(off, top, plen, plen))
            return self._wrap(acc)
        raise ValueOutOfRange(f"unknown constraint kind {c.kind!r}")

    def match_all(self, constraints: Iterable[FieldConstraint]) -> Predicate:
        """Conjunction of constraints; empty list matches everything."""
        p = self.true_
        for c in constraints:
            p = self.conj(p, self.match(c))
        return p

    def _cube(self, offset: int, topbits: int, nbits: int, shift: int) -> int:
        # chain of literals for bits offset..offset+nbits-1, MSB first
        node = TRUE
        for i in range(nbits - 1, -1, -1):
            bit = (topbits >> (shift - 1 - i)) & 1
            var = offset + i
            node = self._mk(var, FALSE, node) if bit else self._mk(var, node, FALSE)
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
        return self._wrap(self._exists(p.node, frozenset(vars_), tuple(sorted(vars_))))

    def _exists(self, n: int, vars_: frozenset, token: tuple) -> int:
        if n <= TRUE:
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

    def witness(self, p: Predicate) -> Header:
        """One header on which p holds: follow hi unless it is false; bits
        off the path are 0."""
        self._check(p)
        if p.node == FALSE:
            raise ValueError("the false predicate has no witness")
        bits = [0] * self.width
        n = p.node
        while n > TRUE:
            if self._hi[n] != FALSE:
                bits[self._var[n]] = 1
                n = self._hi[n]
            else:
                n = self._lo[n]
        return Header(tuple(bits))

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


def _range_prefixes(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Decompose [lo, hi] into maximal aligned prefixes as (value, length)."""
    out = []
    while lo <= hi:
        step = lo & -lo if lo else 1 << width
        while step > hi - lo + 1:
            step >>= 1
        out.append((lo, width - step.bit_length() + 1))
        lo += step
    return out

