"""The digests of perfbench's snapshots and of the versions their update
streams publish equal the committed golden file (tests/digest.py)."""

import json

import pytest

from tests import digest


@pytest.mark.parametrize("name", sorted(digest.WORKLOADS))
def test_digests_equal_the_golden_file(name):
    golden = json.loads(digest.GOLDEN.read_text())
    assert digest.workload_digests(name) == golden[name]
