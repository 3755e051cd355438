import numpy as np
import pytest

from pcnn.seedstreams import SeedStreams

# the edges of one and two uint32 words, then draws from all of int64
IDS = np.concatenate([[0, 1, 2**32 - 1, 2**32, 2**63 - 1],
                      np.random.default_rng(0).integers(0, 2**63 - 1, size=60)])


def reference(prefix, ids):
    """The first random() of one numpy generator per id."""
    return np.array([np.random.default_rng(np.random.SeedSequence([*prefix, rid])).random()
                     for rid in ids])


# seeds of one, two and three uint32 words, so entropy of 3 to 6 words
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**33, 2**70])
def test_matches_numpy_generators(seed):
    streams = SeedStreams([seed, 1234567], IDS)
    np.testing.assert_array_equal(streams.random, reference([seed, 1234567], IDS))


def test_no_ids():
    assert SeedStreams([3], np.array([], dtype=np.int64)).random.shape == (0,)


def test_negative_prefix_rejected():
    # as numpy's SeedSequence does; a word mask would read -1 as 2**32 - 1
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SeedStreams([-1, 5], [4])
