"""Network snapshot parsing and compilation of boxes into predicates."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .bdd import (
    Engine, EngineMismatch, FieldConstraint, HeaderLayout, Predicate, ValueOutOfRange, field_int,
)


class SnapshotError(ValueError):
    """Base for snapshot validation failures; message names the offender."""


class SnapshotSyntaxError(SnapshotError):
    pass


class UnknownBoxRef(SnapshotError):
    pass


class DuplicatePort(SnapshotError):
    pass


class BadConstraint(SnapshotError):
    pass


@dataclass(frozen=True)
class FwdRule:
    priority: int
    match: tuple[FieldConstraint, ...]
    out_port: Optional[str]  # None means drop


@dataclass(frozen=True)
class AclEntry:
    match: tuple[FieldConstraint, ...]
    verdict: str  # "permit" | "deny"


@dataclass(frozen=True)
class Acl:
    port: str
    direction: str  # "in" | "out"
    entries: tuple[AclEntry, ...]
    default: str = "deny"


@dataclass(frozen=True)
class RewriteSpec:
    match: tuple[FieldConstraint, ...]
    sets: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Box:
    id: str
    kind: str  # "switch" | "firewall" | "rewriter"
    ports: tuple[str, ...]
    rules: tuple[FwdRule, ...] = ()
    acls: tuple[Acl, ...] = ()
    rewrite: Optional[RewriteSpec] = None


@dataclass(frozen=True)
class NetworkSnapshot:
    layout: HeaderLayout
    boxes: tuple[Box, ...]
    links: tuple[tuple[str, str, str, str], ...]

    @property
    def box_map(self) -> dict[str, Box]:
        return {b.id: b for b in self.boxes}

    @property
    def link_map(self) -> dict[tuple[str, str], tuple[str, str]]:
        m = {}
        for a, pa, b, pb in self.links:
            m[(a, pa)] = (b, pb)
            m[(b, pb)] = (a, pa)
        return m

    @property
    def external_ports(self) -> frozenset[tuple[str, str]]:
        linked = set(self.link_map)
        return frozenset(
            (b.id, p) for b in self.boxes for p in b.ports if (b.id, p) not in linked
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_value(raw, width: int, where: str) -> int:
    if isinstance(raw, str) and "." in raw:
        if width != 32:
            raise BadConstraint(f"{where}: dotted quad on a {width}-bit field")
        parts = raw.split(".")
        if len(parts) != 4 or any(not p.isdigit() or int(p) > 255 for p in parts):
            raise BadConstraint(f"{where}: bad IPv4 literal {raw!r}")
        return (
            (int(parts[0]) << 24) | (int(parts[1]) << 16) | (int(parts[2]) << 8) | int(parts[3])
        )
    try:
        return field_int(where, raw)
    except (TypeError, ValueError):
        raise BadConstraint(f"{where}: bad integer {raw!r}")


def _parse_constraint(obj: dict, layout: HeaderLayout, where: str) -> FieldConstraint:
    try:
        fname = obj["field"]
        kind = obj["kind"]
    except (KeyError, TypeError):
        raise BadConstraint(f"{where}: constraint needs 'field' and 'kind'")
    try:
        width = layout.field_width(fname)
    except KeyError:
        raise BadConstraint(f"{where}: unknown field {fname!r}")
    if kind == "exact":
        return FieldConstraint.exact(fname, _parse_value(obj.get("value"), width, where))
    if kind == "prefix":
        length = obj.get("length")
        if not _is_int(length):
            raise BadConstraint(f"{where}: bad prefix length {length!r}")
        return FieldConstraint.prefix(
            fname, _parse_value(obj.get("value"), width, where), length
        )
    if kind == "range":
        return FieldConstraint.range_(
            fname,
            _parse_value(obj.get("lo"), width, where),
            _parse_value(obj.get("hi"), width, where),
        )
    raise BadConstraint(f"{where}: unknown constraint kind {kind!r}")


def _parse_match(objs, layout, where) -> tuple[FieldConstraint, ...]:
    if not isinstance(objs, list):
        raise BadConstraint(f"{where}: match must be a list")
    match = tuple(_parse_constraint(o, layout, where) for o in objs)
    try:
        for c in match:
            layout.interval(c)
    except ValueOutOfRange as e:
        raise BadConstraint(f"{where}: {e}") from e
    return match


def _objects(parent: dict, key: str, where: str) -> list[dict]:
    """parent[key] as a list of JSON objects; absent means empty."""
    items = parent.get(key, [])
    if not isinstance(items, list) or not all(isinstance(o, dict) for o in items):
        raise SnapshotSyntaxError(f"{where}: {key!r} must be a list of objects")
    return items


def _strings(items) -> bool:
    return isinstance(items, list) and all(isinstance(x, str) for x in items)


def parse_snapshot(document: Union[bytes, str, dict]) -> NetworkSnapshot:
    """Parse and validate the snapshot JSON document."""
    if isinstance(document, (bytes, str)):
        try:
            doc = json.loads(document)
        except UnicodeDecodeError as e:
            raise SnapshotSyntaxError(f"invalid text encoding: {e}") from e
        except (ValueError, RecursionError) as e:
            # malformed JSON, an integer past the interpreter's digit limit,
            # or nesting past its recursion limit
            raise SnapshotSyntaxError(f"invalid JSON: {e}") from e
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SnapshotSyntaxError("top level must be an object")

    try:
        layout = HeaderLayout(
            tuple((f["name"], field_int("width", f["width"])) for f in doc.get("layout", []))
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SnapshotSyntaxError(f"bad layout: {e}") from e

    boxes = []
    seen_boxes = set()
    for bobj in _objects(doc, "boxes", "snapshot"):
        bid = bobj.get("id")
        if not isinstance(bid, str) or not bid:
            raise SnapshotSyntaxError("box without a string id")
        if bid in seen_boxes:
            raise SnapshotSyntaxError(f"duplicate box id {bid!r}")
        seen_boxes.add(bid)
        kind = bobj.get("kind", "switch")
        if kind not in ("switch", "firewall", "rewriter"):
            raise SnapshotSyntaxError(f"box {bid!r}: unknown kind {kind!r}")
        ports = bobj.get("ports", [])
        if not _strings(ports):
            raise SnapshotSyntaxError(f"box {bid!r}: ports must be a list of strings")
        ports = tuple(ports)
        if len(set(ports)) != len(ports):
            raise DuplicatePort(f"box {bid!r}: duplicate port id")

        rules = []
        seen_prio = set()
        for robj in _objects(bobj, "rules", f"box {bid!r}"):
            where = f"box {bid!r} rule"
            prio = robj.get("priority")
            if not _is_int(prio):
                raise SnapshotSyntaxError(f"{where}: bad priority {prio!r}")
            if prio in seen_prio:
                raise SnapshotSyntaxError(
                    f"box {bid!r}: duplicate rule priority {prio}"
                )
            seen_prio.add(prio)
            action = robj.get("action")
            if action == "drop":
                out = None
            elif isinstance(action, dict) and "forward" in action:
                out = action["forward"]
                if out not in ports:
                    raise UnknownBoxRef(
                        f"box {bid!r}: rule forwards to missing port {out!r}"
                    )
            else:
                raise SnapshotSyntaxError(f"{where}: bad action {action!r}")
            rules.append(
                FwdRule(prio, _parse_match(robj.get("match", []), layout, where), out)
            )

        acls = []
        seen_attach = set()
        for aobj in _objects(bobj, "acls", f"box {bid!r}"):
            where = f"box {bid!r} acl"
            port = aobj.get("port")
            if port not in ports:
                raise UnknownBoxRef(f"{where}: attached to missing port {port!r}")
            direction = aobj.get("dir", "in")
            if direction not in ("in", "out"):
                raise SnapshotSyntaxError(f"{where}: bad direction {direction!r}")
            if (port, direction) in seen_attach:
                raise SnapshotSyntaxError(
                    f"{where}: second ACL on port {port!r} dir {direction!r}"
                )
            seen_attach.add((port, direction))
            default = aobj.get("default", "deny")
            if default not in ("permit", "deny"):
                raise SnapshotSyntaxError(f"{where}: bad default {default!r}")
            entries = []
            for eobj in _objects(aobj, "entries", where):
                verdict = eobj.get("verdict")
                if verdict not in ("permit", "deny"):
                    raise SnapshotSyntaxError(f"{where}: bad verdict {verdict!r}")
                entries.append(
                    AclEntry(_parse_match(eobj.get("match", []), layout, where), verdict)
                )
            acls.append(Acl(port, direction, tuple(entries), default))

        rewrite = None
        if "rewrite" in bobj and bobj["rewrite"] is not None:
            robj = bobj["rewrite"]
            where = f"box {bid!r} rewrite"
            if not isinstance(robj, dict):
                raise SnapshotSyntaxError(f"{where}: not an object")
            if kind != "rewriter":
                raise SnapshotSyntaxError(f"{where}: rewrite on a non-rewriter box")
            sets = []
            seen_fields = set()
            for sobj in _objects(robj, "sets", where):
                fname = sobj.get("field")
                if not isinstance(fname, str):
                    raise SnapshotSyntaxError(f"{where}: bad field {fname!r}")
                if fname in seen_fields:
                    raise SnapshotSyntaxError(f"{where}: field {fname!r} set twice")
                seen_fields.add(fname)
                try:
                    width = layout.field_width(fname)
                except KeyError:
                    raise BadConstraint(f"{where}: unknown field {fname!r}")
                value = _parse_value(sobj.get("value"), width, where)
                if not 0 <= value < (1 << width):
                    raise BadConstraint(f"{where}: value {value} vs width {width}")
                sets.append((fname, value))
            rewrite = RewriteSpec(
                _parse_match(robj.get("match", []), layout, where), tuple(sets)
            )

        boxes.append(Box(bid, kind, ports, tuple(rules), tuple(acls), rewrite))

    links = []
    used_ports = set()
    bmap = {bx.id: bx for bx in boxes}
    links_in = doc.get("links", [])
    if not isinstance(links_in, list):
        raise SnapshotSyntaxError("snapshot: 'links' must be a list")
    for lobj in links_in:
        if not (_strings(lobj) and len(lobj) == 4):
            raise SnapshotSyntaxError(f"bad link {lobj!r}")
        a, pa, b, pb = lobj
        for end_box, end_port in ((a, pa), (b, pb)):
            if end_box not in bmap:
                raise UnknownBoxRef(f"link references missing box {end_box!r}")
            if end_port not in bmap[end_box].ports:
                raise UnknownBoxRef(
                    f"link references missing port {end_box!r}:{end_port!r}"
                )
            if (end_box, end_port) in used_ports:
                raise DuplicatePort(
                    f"port {end_box!r}:{end_port!r} appears in two links"
                )
            used_ports.add((end_box, end_port))
        links.append((a, pa, b, pb))

    return NetworkSnapshot(layout, tuple(boxes), tuple(links))


AclKey = tuple[str, str, str]  # (box, port, dir)

# a box's first-match action for its drop rules: unlike None, which only
# shadows, it has a result, and no port name equals it
_DROP = object()


def _permit(verdict: str) -> Optional[bool]:
    """An ACL verdict as a first-match action: permits have a result, and
    denies only shadow."""
    return True if verdict == "permit" else None


@dataclass(frozen=True)
class CompiledNetwork:
    """Predicates for every port, drop set, rewrite match, and ACL."""

    engine: Engine
    port_preds: dict[tuple[str, str], Predicate]
    drop_preds: dict[str, Predicate]  # headers whose winning rule drops
    acl_preds: dict[AclKey, Predicate]  # permitted set
    rewrite_match: dict[str, Predicate]
    all_preds: tuple[Predicate, ...]


def compile_network(snapshot: NetworkSnapshot, engine: Engine) -> CompiledNetwork:
    """Compile forwarding rules and ACLs into canonical predicates.

    A box's port and drop predicates come from one Engine.first_match over
    its rules, highest priority first: each rule's headers minus those of
    every higher rule, joined per out port, so at most one port predicate
    is true for any header.  An ACL's permitted set comes from one over its
    entries and then its default.  Each call creates only the nodes of its
    results, and no op-cache entries.
    """
    if snapshot.layout != engine.layout:
        raise EngineMismatch("snapshot layout differs from engine layout")

    port_preds: dict[tuple[str, str], Predicate] = {}
    drop_preds: dict[str, Predicate] = {}
    acl_preds: dict[AclKey, Predicate] = {}
    rewrite_match: dict[str, Predicate] = {}
    ordered: list[Predicate] = []
    false = engine.false_

    for box in sorted(snapshot.boxes, key=lambda b: b.id):
        won = engine.first_match([
            (_DROP if rule.out_port is None else rule.out_port, engine.match_all(rule.match))
            for rule in sorted(box.rules, key=lambda r: -r.priority)
        ])
        for port in box.ports:
            port_preds[(box.id, port)] = won.get(port, false)
        drop_preds[box.id] = won.get(_DROP, false)

        for port in sorted(box.ports):
            ordered.append(port_preds[(box.id, port)])
        ordered.append(drop_preds[box.id])

        if box.rewrite is not None:
            rewrite_match[box.id] = engine.match_all(box.rewrite.match)
            ordered.append(rewrite_match[box.id])

        for acl in sorted(box.acls, key=lambda a: (a.port, a.direction)):
            # deny entries only shadow, so the denied set is never built
            entries = [(_permit(e.verdict), engine.match_all(e.match)) for e in acl.entries]
            entries.append((_permit(acl.default), engine.true_))
            permitted = engine.first_match(entries).get(True, false)
            acl_preds[(box.id, acl.port, acl.direction)] = permitted
            ordered.append(permitted)

    seen = set()
    all_preds = []
    for p in ordered:
        if p.node in (0, 1) or p.node in seen:
            continue
        seen.add(p.node)
        all_preds.append(p)

    return CompiledNetwork(
        engine, port_preds, drop_preds, acl_preds, rewrite_match, tuple(all_preds)
    )
