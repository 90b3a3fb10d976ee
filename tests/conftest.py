import json

import pytest

from atomtrace import Engine, HeaderLayout, parse_snapshot
from atomtrace.pipeline import build_pipeline

SMALL = HeaderLayout((("h", 4),))

# Two boxes: s1 filters 11** at its external port and routes 1*** onward,
# s2 routes 10** out its external port.  Three atoms: 10**, 11**, 0***.
TWO_BOX_DOC = {
    "layout": [{"name": "h", "width": 4}],
    "boxes": [
        {
            "id": "s1",
            "kind": "switch",
            "ports": ["ext", "p1"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                    "action": {"forward": "p1"},
                }
            ],
            "acls": [
                {
                    "port": "ext",
                    "dir": "in",
                    "default": "permit",
                    "entries": [
                        {
                            "match": [
                                {"field": "h", "kind": "prefix", "value": 12, "length": 2}
                            ],
                            "verdict": "deny",
                        }
                    ],
                }
            ],
        },
        {
            "id": "s2",
            "kind": "switch",
            "ports": ["pin", "pext"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 2}],
                    "action": {"forward": "pext"},
                }
            ],
        },
    ],
    "links": [["s1", "p1", "s2", "pin"]],
}

# Two boxes throwing 1*** at each other forever.
LOOP_DOC = {
    "layout": [{"name": "h", "width": 4}],
    "boxes": [
        {
            "id": "l1",
            "kind": "switch",
            "ports": ["ext1", "a"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                    "action": {"forward": "a"},
                }
            ],
        },
        {
            "id": "l2",
            "kind": "switch",
            "ports": ["ext2", "b"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                    "action": {"forward": "b"},
                }
            ],
        },
    ],
    "links": [["l1", "a", "l2", "b"]],
}

# Rewriter chain: r1 forwards everything to s2, clearing the top bit of
# headers matching hi=1, lo=0xx; s2 delivers hi=0 traffic.
REWRITE_DOC = {
    "layout": [{"name": "hi", "width": 1}, {"name": "lo", "width": 3}],
    "boxes": [
        {
            "id": "r1",
            "kind": "rewriter",
            "ports": ["ext", "p1"],
            "rules": [{"priority": 1, "match": [], "action": {"forward": "p1"}}],
            "rewrite": {
                "match": [
                    {"field": "hi", "kind": "exact", "value": 1},
                    {"field": "lo", "kind": "prefix", "value": 0, "length": 1},
                ],
                "sets": [{"field": "hi", "value": 0}],
            },
        },
        {
            "id": "s2",
            "kind": "switch",
            "ports": ["pin", "pext"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "hi", "kind": "exact", "value": 0}],
                    "action": {"forward": "pext"},
                }
            ],
        },
    ],
    "links": [["r1", "p1", "s2", "pin"]],
}


def live_nodes(engine, roots) -> set[int]:
    """The BDD nodes reachable from the root nodes."""
    seen, stack = set(), list(roots)
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            if n > 1:
                stack += [engine._lo[n], engine._hi[n]]
    return seen


def match_nodes(snapshot, engine) -> list[int]:
    """The root nodes of every rule's and every ACL entry's match."""
    return [
        engine.match_all(x.match).node
        for box in snapshot.boxes
        for x in box.rules + tuple(e for acl in box.acls for e in acl.entries)
    ]


def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


@pytest.fixture
def small_engine():
    return Engine(SMALL)


@pytest.fixture
def two_box():
    return parse_snapshot(doc_bytes(TWO_BOX_DOC))


@pytest.fixture
def two_box_pipeline(two_box):
    return build_pipeline(two_box)


@pytest.fixture
def loop_pipeline():
    return build_pipeline(parse_snapshot(doc_bytes(LOOP_DOC)))


@pytest.fixture
def rewrite_pipeline():
    return build_pipeline(parse_snapshot(doc_bytes(REWRITE_DOC)))
