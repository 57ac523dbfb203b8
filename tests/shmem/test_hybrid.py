"""Tests for the size-based hybrid intranode mechanism's pick."""

import numpy as np
import pytest

from repro.shmem.mechanisms import HybridMechanism, KernelCopy, PosixShmem
from repro.sim.batchline import BatchDivergence


@pytest.fixture()
def mech():
    return HybridMechanism(PosixShmem(), KernelCopy(), threshold=4096)


def test_mixed_size_vector_splits_at_the_threshold(mech):
    nbytes = np.array([64, 4096, 100, 8192], dtype=np.int64)
    with pytest.raises(BatchDivergence) as info:
        mech.pick(nbytes)
    assert info.value.mask.tolist() == (nbytes < 4096).tolist()


def test_uniform_size_vectors_pick_their_side(mech):
    small = np.array([1, 64, 4095], dtype=np.int64)
    large = np.array([4096, 8192], dtype=np.int64)
    assert mech.pick(small) is mech.small
    assert mech.pick(large) is mech.large


def test_scalar_sizes_pick_their_side(mech):
    assert mech.pick(4095) is mech.small
    assert mech.pick(4096) is mech.large
    assert mech.pick(0) is mech.small
