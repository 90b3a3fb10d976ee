"""The digests of perfbench's snapshots and of the versions their update
streams publish equal the committed golden file (tests/digest.py), in both
modes: atoms named by id, and atoms named by predicate."""

import functools
import json

import pytest

from tests import digest


@functools.cache
def computed(name):
    return digest.workload_digests(name)


@pytest.mark.parametrize("name, mode", [
    pytest.param(name, mode, id=name if mode == "exact" else f"{name}-{mode}")
    for name in sorted(digest.WORKLOADS) for mode in digest.MODES
])
def test_digests_equal_the_golden_file(name, mode):
    golden = json.loads(digest.GOLDEN.read_text())
    assert computed(name)[mode] == golden[mode][name]
