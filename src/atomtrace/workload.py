"""Synthetic snapshots, update streams, and header samples.

Everything is a pure function of the spec, so the same seed reproduces
byte-identical snapshot documents across runs and machines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .bdd import HeaderLayout
from .model import NetworkSnapshot, parse_snapshot

TUPLE5 = HeaderLayout(
    (("src", 32), ("dst", 32), ("proto", 8), ("sport", 16), ("dport", 16))
)


class InfeasibleSpec(ValueError):
    pass


@dataclass(frozen=True)
class WorkloadSpec:
    seed: int = 0
    layout: HeaderLayout = TUPLE5
    box_count: int = 4
    rules_per_box: tuple[int, int] = (2, 8)  # inclusive bounds
    acls_per_box: tuple[int, int] = (0, 1)
    acl_entries: tuple[int, int] = (1, 3)
    prefix_len: tuple[int, int] = (1, 8)
    extra_links: int = 1
    rule_field: str = "dst"
    update_count: int = 0
    add_ratio: float = 0.7
    header_samples: int = 100


def generate(spec: WorkloadSpec) -> tuple[dict, list[dict], list[dict]]:
    """Build (snapshot document, update stream, header sample) from the spec.

    Topology is a random spanning tree plus extra links; forwarding rules
    are random prefixes on the rule field with longest-prefix-match
    priorities; ACLs are small first-match filters attached to external
    ports.
    """
    if spec.box_count < 1:
        raise InfeasibleSpec("need at least one box")
    for name in ("rules_per_box", "acls_per_box", "acl_entries", "prefix_len"):
        lo, hi = getattr(spec, name)
        if lo > hi:
            raise InfeasibleSpec(f"{name} range ({lo}, {hi}) is empty")
    fwidth = spec.layout.field_width(spec.rule_field)
    if spec.prefix_len[1] > fwidth:
        raise InfeasibleSpec(
            f"prefix length {spec.prefix_len[1]} exceeds field width {fwidth}"
        )
    rng = random.Random(spec.seed)

    box_ids = [f"b{i:02d}" for i in range(spec.box_count)]
    ports: dict[str, list[str]] = {b: [] for b in box_ids}

    def new_port(b: str) -> str:
        p = f"p{len(ports[b])}"
        ports[b].append(p)
        return p

    links = []
    for i in range(1, spec.box_count):
        j = rng.randrange(i)
        a, b = box_ids[j], box_ids[i]
        links.append([a, new_port(a), b, new_port(b)])
    for _ in range(spec.extra_links):
        if spec.box_count < 2:
            break
        i, j = rng.sample(range(spec.box_count), 2)
        a, b = box_ids[i], box_ids[j]
        links.append([a, new_port(a), b, new_port(b)])
    for b in box_ids:
        new_port(b)  # one external port per box

    def random_prefix() -> dict:
        plen = rng.randint(*spec.prefix_len)
        value = rng.getrandbits(plen) << (fwidth - plen) if plen else 0
        return {
            "field": spec.rule_field,
            "kind": "prefix",
            "value": value,
            "length": plen,
        }

    boxes = []
    for b in box_ids:
        n_rules = rng.randint(*spec.rules_per_box)
        rules = []
        for k in range(n_rules):
            c = random_prefix()
            # LPM order with unique priorities: length dominates, index breaks ties
            prio = c["length"] * 10000 + k
            if rng.random() < 0.05:
                action = "drop"
            else:
                action = {"forward": rng.choice(ports[b])}
            rules.append({"priority": prio, "match": [c], "action": action})

        acls = []
        for _ in range(rng.randint(*spec.acls_per_box)):
            entries = [
                {"match": [random_prefix()], "verdict": rng.choice(["permit", "deny"])}
                for _ in range(rng.randint(*spec.acl_entries))
            ]
            acls.append(
                {
                    "port": ports[b][-1],  # external port
                    "dir": rng.choice(["in", "out"]),
                    "default": "permit",
                    "entries": entries,
                }
            )
        boxes.append(
            {"id": b, "kind": "switch", "ports": ports[b], "rules": rules, "acls": acls}
        )

    doc = {
        "layout": [{"name": n, "width": w} for n, w in spec.layout.fields],
        "boxes": boxes,
        "links": links,
    }

    updates: list[dict] = []
    live: list[list[dict]] = []
    seen_adds: set[tuple] = set()
    key_space = sum(1 << l for l in range(spec.prefix_len[0], spec.prefix_len[1] + 1))
    for _ in range(spec.update_count):
        if live and rng.random() >= spec.add_ratio:
            victim = live.pop(rng.randrange(len(live)))
            updates.append({"op": "remove", "pred": victim})
        else:
            # distinct constraints so a remove never names an already-dead handle
            if len(seen_adds) >= key_space:
                raise InfeasibleSpec(
                    f"update stream needs more than {key_space} distinct prefixes"
                )
            while True:
                c = random_prefix()
                key = (c["value"], c["length"])
                if key not in seen_adds:
                    seen_adds.add(key)
                    break
            constraints = [c]
            live.append(constraints)
            updates.append({"op": "add", "pred": constraints})

    headers = []
    for _ in range(spec.header_samples):
        headers.append(
            {name: rng.getrandbits(width) for name, width in spec.layout.fields}
        )

    return doc, updates, headers


def generate_snapshot(spec: WorkloadSpec) -> NetworkSnapshot:
    doc, _, _ = generate(spec)
    return parse_snapshot(doc)


def snapshot_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, indent=1).encode()
