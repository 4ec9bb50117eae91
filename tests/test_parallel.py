"""The block rule and the block runner of `srsct.parallel`."""

import threading
import time

import numpy as np
import pytest

from srsct import parallel


class TestBlockCount:
    def test_one_block_per_thread_of_at_least_the_minimum(self, monkeypatch):
        monkeypatch.setattr(parallel, "product_threads", lambda: 3)
        assert parallel.block_count(10, 4) == 2
        assert parallel.block_count(12, 4) == 3
        assert parallel.block_count(100, 4) == 3
        assert parallel.block_count(3, 4) == 1
        assert parallel.block_count(0, 4) == 1

    def test_one_block_without_blas_control(self, monkeypatch):
        monkeypatch.setattr(parallel, "_BLAS", None)
        assert parallel.block_count(10 ** 9, 1) == 1


class TestSpans:
    @pytest.mark.parametrize("length,count", [(1, 1), (5, 1), (5, 2), (7, 3), (8, 8), (100, 7)])
    def test_consecutive_nonempty_nearly_equal_slices(self, length, count):
        slices = parallel.spans(length, count)
        assert len(slices) == count
        covered = [i for part in slices for i in range(length)[part]]
        assert covered == list(range(length))
        sizes = [part.stop - part.start for part in slices]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestMapBlocks:
    def test_results_in_block_order(self):
        assert parallel.map_blocks(lambda b: b * b, (1, 2, 3)) == [1, 4, 9]

    def test_waits_for_every_block_before_raising(self):
        # the calling thread's block fails at once while a pool block still
        # runs: the error may reach the caller only after that block is done
        finished = threading.Event()

        def fn(block):
            if block == 0:
                raise RuntimeError("block 0 failed")
            time.sleep(0.2)
            finished.set()

        with pytest.raises(RuntimeError, match="block 0 failed"):
            parallel.map_blocks(fn, (0, 1))
        assert finished.is_set()

    def test_raises_the_first_failing_block_in_order(self):
        def fn(block):
            if block > 0:
                time.sleep(0.05 * (3 - block))  # with two pool threads, block 2 fails first
                raise ValueError(f"block {block} failed")
            return block

        with pytest.raises(ValueError, match="block 1 failed"):
            parallel.map_blocks(fn, (0, 1, 2))

    def test_pool_blocks_keep_the_callers_error_state(self):
        def fn(block):
            return np.geterr()["over"]

        with np.errstate(over="ignore"):
            assert parallel.map_blocks(fn, (0, 1, 2)) == ["ignore"] * 3
