"""Outsourced processing plane: atoms become opaque labels.

Every in-cloud decision is a label-table lookup; no box table contains a
field constraint or a header bit.  Header-modifying boxes are emulated by
label rewrites whose targets were precomputed to land in single atoms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .atoms import AtomSet
from .bdd import Header
from .behavior import (
    BadIngress,
    BehaviorMap,
    BehaviorReport,
    Delivered,
    Dropped,
    Hop,
    Loop,
    identify,
)
from .model import CompiledNetwork, NetworkSnapshot
# the rewrite-image routine lives in rewrite.py; these stay importable here
from .rewrite import ImageSplit, rewrite_image  # noqa: F401


@dataclass(frozen=True)
class BoxTable:
    """Label-only behavior of one in-cloud box."""

    forward: dict[int, str]  # label -> out port
    drop: frozenset[int]  # labels whose winning rule drops
    acl_permit: dict[tuple[str, str], frozenset[int]]  # (port, dir) -> labels
    rewrite: dict[int, int]  # label -> label


@dataclass(frozen=True)
class LabeledPacket:
    label: int
    payload: bytes = b""  # opaque; stands in for the (possibly encrypted) header


@dataclass(frozen=True)
class LabelPlane:
    label_of: dict[int, int]  # atom id -> 32-bit label
    atom_of: dict[int, int]
    box_tables: dict[str, BoxTable]

    def encode(self, atom_id: int) -> int:
        return self.label_of[atom_id]

    def decode(self, label: int) -> int:
        return self.atom_of[label]


def _assign_labels(atom_ids: Iterable[int], agent_key: int) -> dict[int, int]:
    """Keyed pseudorandom injective 32-bit labels; collisions retried."""
    labels: dict[int, int] = {}
    used: set[int] = set()
    for aid in sorted(atom_ids):
        attempt = 0
        while True:
            digest = hashlib.blake2b(
                f"{agent_key}:{aid}:{attempt}".encode(), digest_size=4
            ).digest()
            label = int.from_bytes(digest, "big")
            if label not in used:
                break
            attempt += 1
        used.add(label)
        labels[aid] = label
    return labels


def build_label_plane(
    atom_set: AtomSet,
    compiled: CompiledNetwork,
    snapshot: NetworkSnapshot,
    agent_key: int,
    bmap: BehaviorMap,
) -> LabelPlane:
    """Convert every box's atom-level behavior to label tables."""
    label_of = _assign_labels(atom_set.order, agent_key)
    atom_of = {l: a for a, l in label_of.items()}

    tables: dict[str, BoxTable] = {}
    for box in snapshot.boxes:
        forward: dict[int, str] = {}
        for port in box.ports:
            for aid in bmap.port_atoms[(box.id, port)]:
                forward[label_of[aid]] = port
        drop = frozenset(label_of[aid] for aid in bmap.drop_atoms.get(box.id, ()))
        acl_permit = {
            (port, direction): frozenset(label_of[aid] for aid in atoms)
            for (b, port, direction), atoms in bmap.permit_atoms.items()
            if b == box.id
        }
        rewrite = {
            label_of[a]: label_of[b]
            for a, b in bmap.atom_rewrite.get(box.id, {}).items()
        }
        tables[box.id] = BoxTable(forward, drop, acl_permit, rewrite)
    return LabelPlane(label_of, atom_of, tables)


def simulate_cloud(
    plane: LabelPlane,
    snapshot: NetworkSnapshot,
    pkt: LabeledPacket,
    ingress: tuple[str, str],
) -> BehaviorReport:
    """Traverse the network making every decision by label lookup only.

    Mirrors behavior.trace; hop records carry labels in the atom slot.  A
    label unknown to a box's forwarding table where a decision is required
    is dropped as unroutable.
    """
    if ingress not in snapshot.external_ports:
        raise BadIngress(f"{ingress} is not an external port")
    link_map = snapshot.link_map
    box_id, in_port = ingress
    label = pkt.label
    hops: list[Hop] = []
    visited: set[tuple[str, int]] = set()

    while True:
        state = (box_id, label)
        if state in visited:
            hops.append(Hop(box_id, in_port, label))
            return BehaviorReport(tuple(hops), Loop(box_id, label))
        visited.add(state)
        table = plane.box_tables[box_id]

        permit = table.acl_permit.get((in_port, "in"))
        if permit is not None and label not in permit:
            hops.append(Hop(box_id, in_port, label))
            return BehaviorReport(tuple(hops), Dropped(box_id, "acl_in"))

        out_port = table.forward.get(label)
        if out_port is None:
            hops.append(Hop(box_id, in_port, label))
            reason = "rule_drop" if label in table.drop else "no_route"
            return BehaviorReport(tuple(hops), Dropped(box_id, reason))

        permit = table.acl_permit.get((out_port, "out"))
        if permit is not None and label not in permit:
            hops.append(Hop(box_id, in_port, label, out_port))
            return BehaviorReport(tuple(hops), Dropped(box_id, "acl_out"))

        hops.append(Hop(box_id, in_port, label, out_port))

        if label in table.rewrite:
            label = table.rewrite[label]

        if (box_id, out_port) in snapshot.external_ports:
            return BehaviorReport(tuple(hops), Delivered(box_id, out_port))
        box_id, in_port = link_map[(box_id, out_port)]


@dataclass(frozen=True)
class Divergence:
    header: Header
    ingress: tuple[str, str]
    expected: BehaviorReport
    actual: BehaviorReport


@dataclass(frozen=True)
class EquivalenceReport:
    checked: int
    divergences: tuple[Divergence, ...]

    @property
    def ok(self) -> bool:
        return not self.divergences


def decode_report(plane: LabelPlane, report: BehaviorReport) -> BehaviorReport:
    """Map labels back to atom ids for comparison with the header plane."""
    hops = tuple(
        Hop(h.box, h.in_port, plane.decode(h.atom), h.out_port) for h in report.hops
    )
    d = report.disposition
    if isinstance(d, Loop):
        d = Loop(d.box, plane.decode(d.atom))
    return BehaviorReport(hops, d)


def equivalence_check(
    plane: LabelPlane,
    tree,
    bmap: BehaviorMap,
    snapshot: NetworkSnapshot,
    headers: Iterable[Header],
) -> EquivalenceReport:
    """Header-plane identify vs label-plane simulation, every ingress."""
    from .aptree import classify

    checked = 0
    divergences = []
    ingresses = sorted(snapshot.external_ports)
    for h in headers:
        atom = classify(tree, h)
        for ingress in ingresses:
            checked += 1
            expected = identify(tree, bmap, snapshot, h, ingress)
            cloud = simulate_cloud(
                plane, snapshot, LabeledPacket(plane.encode(atom)), ingress
            )
            actual = decode_report(plane, cloud)
            if actual != expected:
                divergences.append(Divergence(h, ingress, expected, actual))
    return EquivalenceReport(checked, tuple(divergences))


def serialize_tables(plane: LabelPlane) -> dict:
    """JSON-able dump of the in-cloud tables; labels and actions only."""
    out = {}
    for box_id, t in sorted(plane.box_tables.items()):
        out[box_id] = {
            "forward": {str(l): p for l, p in sorted(t.forward.items())},
            "drop": sorted(t.drop),
            "acl": [
                {"port": port, "dir": direction, "permit": sorted(labels)}
                for (port, direction), labels in sorted(t.acl_permit.items())
            ],
            "rewrite": {str(a): b for a, b in sorted(t.rewrite.items())},
        }
    return out
