"""Fixtures shared by the test modules."""

import pytest

from srsct import kernels, parallel


@pytest.fixture
def admm_blocks(monkeypatch):
    """A function that sets, whatever the host, how many row blocks the
    membership ADMM's kernels cut their fields into from then on: the block
    floor is lowered to one entry and that many product threads are assumed."""
    monkeypatch.setattr(kernels, "MIN_BLOCK_ENTRIES", 1)

    def cut(count):
        monkeypatch.setattr(parallel, "product_threads", lambda: count)
    return cut
