"""Outsourced processing plane: atoms become opaque labels.

Every in-cloud decision is a label-table lookup; no box table contains a
field constraint or a header bit.  Header-modifying boxes are emulated by
label rewrites whose targets were precomputed to land in single atoms.
"""

from __future__ import annotations

# hashlib.blake2b is this same class; importing hashlib would also load
# OpenSSL's _hashlib (~3.6 MB of RSS) for nothing
from _blake2 import blake2b
from dataclasses import dataclass
from typing import Iterable

from .aptree import classify
from .atoms import AtomSet, ids_of
from .bdd import Header
from .behavior import BehaviorMap, BehaviorReport, BoxTable, Hop, Loop, trace, walk
from .model import NetworkSnapshot


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
            digest = blake2b(
                f"{agent_key}:{aid}:{attempt}".encode(), digest_size=4
            ).digest()
            label = int.from_bytes(digest, "big")
            if label not in used:
                break
            attempt += 1
        used.add(label)
        labels[aid] = label
    return labels


def build_label_plane(atom_set: AtomSet, agent_key: int, bmap: BehaviorMap) -> LabelPlane:
    """Relabel every box's atom-keyed table with keyed labels."""
    label_of = _assign_labels(ids_of(atom_set.live), agent_key)
    atom_of = {l: a for a, l in label_of.items()}
    tables = {b: t.relabel(label_of) for b, t in bmap.tables.items()}
    return LabelPlane(label_of, atom_of, tables)


def simulate_cloud(
    plane: LabelPlane,
    snapshot: NetworkSnapshot,
    pkt: LabeledPacket,
    ingress: tuple[str, str],
) -> BehaviorReport:
    """Traverse the network making every decision by label lookup only.

    Hop records carry labels in the atom slot.  A label unknown to a box's
    forwarding table where a decision is required is dropped as unroutable.
    """
    return walk(plane.box_tables, snapshot, pkt.label, ingress)


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
    """Header-plane trace vs label-plane simulation, every ingress."""
    checked = 0
    divergences = []
    ingresses = sorted(snapshot.external_ports)
    for h in headers:
        atom = classify(tree, h)
        for ingress in ingresses:
            checked += 1
            expected = trace(bmap, snapshot, atom, ingress)
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
