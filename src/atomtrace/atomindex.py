"""The atom index: a multi-terminal decision diagram from header bits to atom ids.

Atoms are disjoint and exhaustive, so the map from a header to its atom is
one reduced ordered decision diagram over the header bits whose terminals
are atom ids (an algebraic decision diagram, Bahar et al., ICCAD 1993).
Its nodes live in an IndexStore beside the BDD engine, hash-consed the same
way, so an index is canonical for its partition and ids.  Every node also
carries the int bitset of the atoms it reaches, which lets a product walk
with a predicate's BDD stop wherever the predicate is constant.
"""

from __future__ import annotations

from .bdd import FALSE, TRUE, Engine


class IndexStore:
    """Append-only node store shared by the indexes of one refinement line.

    Node n tests header bit var[n] and goes to lo[n] on 0, hi[n] on 1; a
    terminal has var == width and holds its atom id in lo (and hi).
    bits[n] has bit i set iff atom i is reachable from n.  Handles never
    change, so an index published to readers stays valid while a writer
    appends the next one.
    """

    def __init__(self, width: int):
        self.width = width
        self.var: list[int] = []
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.bits: list[int] = []
        self._unique: dict[tuple[int, int, int], int] = {}

    def __len__(self) -> int:
        return len(self.var)

    def _add(self, key: tuple[int, int, int], bits: int) -> int:
        n = self._unique.get(key)
        if n is None:
            n = self._unique[key] = len(self.var)
            self.var.append(key[0])
            self.lo.append(key[1])
            self.hi.append(key[2])
            self.bits.append(bits)
        return n

    def leaf(self, atom: int) -> int:
        return self._add((self.width, atom, atom), 1 << atom)

    def node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        return self._add((var, lo, hi), self.bits[lo] | self.bits[hi])

    def lookup(self, root: int, bits: tuple[int, ...]) -> int:
        """The atom id of the header with these bits."""
        var, lo, hi, width = self.var, self.lo, self.hi, self.width
        n = root
        while var[n] != width:
            n = hi[n] if bits[var[n]] else lo[n]
        return lo[n]

    def meets(self, root: int, engine: Engine, p: int) -> tuple[int, int]:
        """(inside, outside): the atoms that meet BDD node p and those that
        meet its complement, as bitsets, by one product walk.

        Where p is constant the node's bits go to one side whole; a
        terminal under a non-constant p lies on both sides.
        """
        var, lo, hi, bits, width = self.var, self.lo, self.hi, self.bits, self.width
        pvar, plo, phi = engine._var, engine._lo, engine._hi
        inside = outside = 0
        seen: set[int] = set()

        def walk(n: int, q: int) -> None:
            nonlocal inside, outside
            if q == TRUE:
                inside |= bits[n]
            elif q == FALSE:
                outside |= bits[n]
            elif var[n] == width:
                inside |= bits[n]
                outside |= bits[n]
            elif (key := n << 32 | q) not in seen:
                seen.add(key)
                vn, vq = var[n], pvar[q]
                n0, n1 = (lo[n], hi[n]) if vn <= vq else (n, n)
                q0, q1 = (plo[q], phi[q]) if vq <= vn else (q, q)
                walk(n0, q0)
                walk(n1, q1)

        walk(root, p)
        return inside, outside

    def lands(self, root: int, engine: Engine, p: int, pinned: dict[int, int]) -> int:
        """The atoms that the headers of BDD node p land in once each
        variable of pinned is overwritten by its bit, as a bitset, by one
        product walk.

        At a pinned variable the index follows the bit's branch and p
        takes both of its own.  The walk stops where p is false, and
        where p is true and no pinned variable is at or below the index
        node's; it creates no node of either diagram.
        """
        var, lo, hi, bits, width = self.var, self.lo, self.hi, self.bits, self.width
        pvar, plo, phi = engine._var, engine._lo, engine._hi
        last = max(pinned, default=-1)
        reached = 0
        seen: set[int] = set()

        def walk(n: int, q: int) -> None:
            nonlocal reached
            if q == FALSE:
                return
            vn = var[n]
            if vn == width or (q == TRUE and vn > last):
                reached |= bits[n]
            elif (key := n << 32 | q) not in seen:
                seen.add(key)
                vq = pvar[q]
                v = vn if vn < vq else vq
                q0, q1 = (plo[q], phi[q]) if vq == v else (q, q)
                bit = pinned.get(v)
                if bit is None:
                    n0, n1 = (lo[n], hi[n]) if vn == v else (n, n)
                else:
                    n0 = n1 = (hi[n] if bit else lo[n]) if vn == v else n
                walk(n0, q0)
                walk(n1, q1)

        walk(root, p)
        return reached

    def split(
        self, root: int, engine: Engine, p: int, splits: dict[int, tuple[int, int]]
    ) -> int:
        """The index with each split atom's terminal a replaced by
        ite(p, inside id, outside id), for splits = {a: (inside, outside)}.

        One memoised product walk with p over the nodes that reach a split
        atom; every other node is kept as it is.
        """
        var, lo, hi, bits, width = self.var, self.lo, self.hi, self.bits, self.width
        pvar, plo, phi = engine._var, engine._lo, engine._hi
        mask = 0
        for a in splits:
            mask |= 1 << a
        memo: dict[int, int] = {}

        def sub(n: int, q: int) -> int:
            if not bits[n] & mask:
                return n
            vn = var[n]
            if vn == width and q <= TRUE:
                inside, outside = splits[lo[n]]
                return self.leaf(inside if q == TRUE else outside)
            key = n << 32 | q
            r = memo.get(key)
            if r is None:
                vq = pvar[q]
                v = min(vn, vq)
                n0, n1 = (lo[n], hi[n]) if vn == v else (n, n)
                q0, q1 = (plo[q], phi[q]) if vq == v else (q, q)
                r = memo[key] = self.node(v, sub(n0, q0), sub(n1, q1))
            return r

        return sub(root, p)
