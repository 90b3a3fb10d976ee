"""Network-wide behavior of a classified packet: path, drop point, or loop.

Two implementations of the same semantics live here.  The table path is
the production path: compile_behavior_map builds one atom-keyed table per
box, and walk is the one hop loop over them, which trace runs on atom ids
and the label plane on labels.  The raw-header reference simulator walks
rules and ACL entries directly and is used as an independent oracle in
tests and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .aptree import classify
from .atoms import AtomSet, atom_of_header
from .bdd import FieldConstraint, Header, int_bits
from .model import Box, NetworkSnapshot, CompiledNetwork


class BadIngress(ValueError):
    pass


@dataclass(frozen=True)
class Hop:
    box: str
    in_port: str
    atom: int  # atom id on the header plane, label on the label plane
    out_port: Optional[str] = None


@dataclass(frozen=True)
class Delivered:
    box: str
    port: str


@dataclass(frozen=True)
class Dropped:
    box: str
    reason: str  # "acl_in", "acl_out", "no_route" or "rule_drop"


@dataclass(frozen=True)
class Loop:
    box: str
    atom: int


Disposition = Union[Delivered, Dropped, Loop]


@dataclass(frozen=True)
class BehaviorReport:
    hops: tuple[Hop, ...]
    disposition: Disposition

    def to_json(self) -> dict:
        d = self.disposition
        if isinstance(d, Delivered):
            dj = {"kind": "delivered", "box": d.box, "port": d.port}
        elif isinstance(d, Dropped):
            dj = {"kind": "dropped", "box": d.box, "reason": d.reason}
        else:
            dj = {"kind": "loop", "box": d.box, "atom": d.atom}
        return {
            "hops": [
                {"box": h.box, "in_port": h.in_port, "atom": h.atom, "out_port": h.out_port}
                for h in self.hops
            ],
            "disposition": dj,
        }


@dataclass(frozen=True)
class BoxTable:
    """One box's behavior as lookups keyed by atom id, or by label once relabelled."""

    forward: dict[int, str]  # key -> out port
    drop: frozenset[int]  # keys whose winning rule drops
    acl_permit: dict[tuple[str, str], frozenset[int]]  # (port, dir) -> keys
    rewrite: dict[int, int]  # key -> key

    def relabel(self, new: dict[int, int]) -> "BoxTable":
        """The same table with every key k replaced by new[k]."""
        return BoxTable(
            {new[k]: port for k, port in self.forward.items()},
            frozenset(new[k] for k in self.drop),
            {pd: frozenset(new[k] for k in ks) for pd, ks in self.acl_permit.items()},
            {new[a]: new[b] for a, b in self.rewrite.items()},
        )


@dataclass(frozen=True)
class BehaviorMap:
    """Per-box behavior resolved down to atom ids."""

    tables: dict[str, BoxTable]  # box -> table keyed by atom id
    atom_rewrite: dict[str, dict[int, int]]  # rewriter box -> its table's rewrite


def compile_behavior_map(
    compiled: CompiledNetwork,
    atom_set: AtomSet,
    snapshot: NetworkSnapshot,
    rewrites: dict[str, dict[int, int]],
) -> BehaviorMap:
    """Resolve every compiled predicate to the set of atoms it contains.

    Requires the atom set to have been computed over all compiled predicates,
    and rewrites to map every rewriter box to its {atom: image atom} table:
    pipeline.close_over_rewrites computes both.  Raises UnknownPredicate
    for a compiled predicate the atom set does not know.
    """
    members = atom_set.members_of
    tables: dict[str, BoxTable] = {}
    for box in snapshot.boxes:
        forward: dict[int, str] = {}
        for port in box.ports:
            for aid in members(compiled.port_preds[(box.id, port)]):
                assert aid not in forward, f"box {box.id}: atom {aid} reaches two ports"
                forward[aid] = port
        drop = members(compiled.drop_preds[box.id])
        acl_permit = {
            (acl.port, acl.direction): members(
                compiled.acl_preds[(box.id, acl.port, acl.direction)]
            )
            for acl in box.acls
        }
        tables[box.id] = BoxTable(forward, drop, acl_permit, rewrites.get(box.id, {}))
    return BehaviorMap(tables, rewrites)


def walk(
    tables: dict[str, BoxTable],
    snapshot: NetworkSnapshot,
    key: int,
    ingress: tuple[str, str],
) -> BehaviorReport:
    """Follow a packet with the given table key from an external ingress port.

    Per box: inbound ACL, then the forwarding port for the key, then
    outbound ACL, then key rewrite, then the link.  A key missing from a
    box's forwarding table is dropped there.  Loop detection keys on
    (box, key) because rewriters may legitimately bring a packet back to a
    box with a different key.  Hop records carry the key in the atom slot.
    """
    if ingress not in snapshot.external_ports:
        raise BadIngress(f"{ingress} is not an external port")
    link_map = snapshot.link_map
    box_id, in_port = ingress
    hops: list[Hop] = []
    visited: set[tuple[str, int]] = set()

    while True:
        state = (box_id, key)
        if state in visited:
            hops.append(Hop(box_id, in_port, key))
            return BehaviorReport(tuple(hops), Loop(box_id, key))
        visited.add(state)
        table = tables[box_id]

        permit = table.acl_permit.get((in_port, "in"))
        if permit is not None and key not in permit:
            hops.append(Hop(box_id, in_port, key))
            return BehaviorReport(tuple(hops), Dropped(box_id, "acl_in"))

        out_port = table.forward.get(key)
        if out_port is None:
            hops.append(Hop(box_id, in_port, key))
            reason = "rule_drop" if key in table.drop else "no_route"
            return BehaviorReport(tuple(hops), Dropped(box_id, reason))

        permit = table.acl_permit.get((out_port, "out"))
        if permit is not None and key not in permit:
            hops.append(Hop(box_id, in_port, key, out_port))
            return BehaviorReport(tuple(hops), Dropped(box_id, "acl_out"))

        hops.append(Hop(box_id, in_port, key, out_port))
        key = table.rewrite.get(key, key)

        if (box_id, out_port) in snapshot.external_ports:
            return BehaviorReport(tuple(hops), Delivered(box_id, out_port))
        box_id, in_port = link_map[(box_id, out_port)]


def trace(
    bmap: BehaviorMap,
    snapshot: NetworkSnapshot,
    atom_id: int,
    ingress: tuple[str, str],
) -> BehaviorReport:
    """Follow a packet of the given atom from an external ingress port."""
    return walk(bmap.tables, snapshot, atom_id, ingress)


def identify(
    tree,
    bmap: BehaviorMap,
    snapshot: NetworkSnapshot,
    h: Header,
    ingress: tuple[str, str],
) -> BehaviorReport:
    """The end-to-end two-stage query: classify then trace."""
    return trace(bmap, snapshot, classify(tree, h), ingress)


# ---------------------------------------------------------------------------
# Independent raw-header reference simulator (oracle).
# ---------------------------------------------------------------------------


def constraint_matches(layout, c: FieldConstraint, h: Header) -> bool:
    v = layout.field_value(h, c.field)
    if c.kind == "exact":
        return v == c.value
    if c.kind == "prefix":
        w = layout.field_width(c.field)
        return (v >> (w - c.length)) == (c.value >> (w - c.length)) if c.length else True
    if c.kind == "range":
        return c.lo <= v <= c.hi
    raise ValueError(c.kind)


def _match_all(layout, constraints, h) -> bool:
    return all(constraint_matches(layout, c, h) for c in constraints)


def _acl_permits(layout, acl, h) -> bool:
    for entry in acl.entries:
        if _match_all(layout, entry.match, h):
            return entry.verdict == "permit"
    return acl.default == "permit"


def _lookup(layout, box: Box, h: Header):
    """Winning rule action: ('forward', port) | ('rule_drop',) | ('no_route',)."""
    for rule in sorted(box.rules, key=lambda r: -r.priority):
        if _match_all(layout, rule.match, h):
            if rule.out_port is None:
                return ("rule_drop", None)
            return ("forward", rule.out_port)
    return ("no_route", None)


def reference_trace(
    snapshot: NetworkSnapshot, h: Header, ingress: tuple[str, str]
) -> BehaviorReport:
    """Simulate the packet directly on rules and ACL entries, no predicates.

    Hop atoms are reported as -1; callers compare against the atom-level
    trace by mapping each hop's header to its atom.  Loop detection keys on
    (box, header bits).
    """
    if ingress not in snapshot.external_ports:
        raise BadIngress(f"{ingress} is not an external port")
    layout = snapshot.layout
    box_map = snapshot.box_map
    link_map = snapshot.link_map
    box_id, in_port = ingress
    hops: list[tuple[str, str, Header, Optional[str]]] = []
    visited: set[tuple[str, tuple[int, ...]]] = set()

    while True:
        state = (box_id, h.bits)
        if state in visited:
            hops.append((box_id, in_port, h, None))
            return RawReport(tuple(hops), Loop(box_id, -1))
        visited.add(state)
        box = box_map[box_id]

        acl = _find_acl(box, in_port, "in")
        if acl is not None and not _acl_permits(layout, acl, h):
            hops.append((box_id, in_port, h, None))
            return RawReport(tuple(hops), Dropped(box_id, "acl_in"))

        outcome, out_port = _lookup(layout, box, h)
        if outcome != "forward":
            hops.append((box_id, in_port, h, None))
            return RawReport(tuple(hops), Dropped(box_id, outcome))

        acl = _find_acl(box, out_port, "out")
        if acl is not None and not _acl_permits(layout, acl, h):
            hops.append((box_id, in_port, h, out_port))
            return RawReport(tuple(hops), Dropped(box_id, "acl_out"))

        hops.append((box_id, in_port, h, out_port))

        if box.rewrite is not None and _match_all(layout, box.rewrite.match, h):
            bits = list(h.bits)
            for fname, value in box.rewrite.sets:
                off = layout.field_offset(fname)
                w = layout.field_width(fname)
                bits[off:off + w] = int_bits(value, w)
            h = Header(tuple(bits))

        if (box_id, out_port) in snapshot.external_ports:
            return RawReport(tuple(hops), Delivered(box_id, out_port))
        box_id, in_port = link_map[(box_id, out_port)]


@dataclass(frozen=True)
class RawReport:
    """Reference-simulator outcome carrying the raw headers seen at each hop."""

    hops: tuple[tuple[str, str, Header, Optional[str]], ...]
    disposition: Disposition


def _find_acl(box: Box, port: str, direction: str):
    for acl in box.acls:
        if acl.port == port and acl.direction == direction:
            return acl
    return None


def reports_agree(
    atom_set: AtomSet, atom_report: BehaviorReport, raw_report: RawReport
) -> bool:
    """Compare the atom-level report with the raw oracle, atom by atom."""
    if len(atom_report.hops) != len(raw_report.hops):
        return False
    for hop, (box, in_port, h, out_port) in zip(atom_report.hops, raw_report.hops):
        if (hop.box, hop.in_port, hop.out_port) != (box, in_port, out_port):
            return False
        if hop.atom != atom_of_header(atom_set, h):
            return False
    a, b = atom_report.disposition, raw_report.disposition
    if type(a) is not type(b):
        return False
    if isinstance(a, Delivered):
        return (a.box, a.port) == (b.box, b.port)
    if isinstance(a, Dropped):
        return (a.box, a.reason) == (b.box, b.reason)
    # Loop: the raw simulator cannot name the atom; compare the box and the
    # atom of the final (repeated-state) hop header.
    last_raw = raw_report.hops[-1][2]
    return a.box == b.box and a.atom == atom_of_header(atom_set, last_raw)
