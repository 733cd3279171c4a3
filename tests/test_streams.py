import numpy as np
import pytest

from feelsim import streams
from feelsim.streams import reseed, stream_seeds, substream

# one-word seeds up to the largest, the first two-word seed, the top bit of the second
# word, the first and the last four-word seeds (the largest that fill SeedSequence's pool
# of four words exactly), a five-word seed and a seed of 42 words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**96, 2**128 - 1, 2**128 + 1, 10**400]
DOMAINS = sorted(v for k, v in vars(streams).items() if k.startswith("DOMAIN_"))


def tag_rows(width):
    """60 rows of `width` tags led by each domain in turn: small tags, one-word extremes
    and a few others."""
    rng = np.random.default_rng(width)
    values = [0, 1, 2, 99, 2**31 - 1, 2**32 - 1, *rng.integers(0, 2**32, size=4).tolist()]
    rows = [tuple(row) for row in rng.choice(values, size=(60, width)).tolist()]
    if width:
        rows = [(DOMAINS[i % len(DOMAINS)], *row[1:]) for i, row in enumerate(rows)]
    return rows


def draws(rng):
    """Several kinds of draw in a row from one generator."""
    shuffled = np.arange(9)
    rng.shuffle(shuffled)
    return (rng.permutation(11).tolist(), rng.choice(30, size=5, replace=False).tolist(),
            rng.standard_normal(3).tolist(), rng.integers(0, 2**40, size=4).tolist(),
            shuffled.tolist())


class TestStreamStates:
    """stream_seeds restates numpy's SeedSequence and PCG64 seeding; a numpy release
    that changed either fails here rather than moving results silently."""

    @pytest.mark.parametrize("width", range(5))
    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32-1", "2^32", "2^63", "2^96",
                                                  "2^128-1", "2^128+1", "10^400"])
    def test_equal_to_substream(self, seed, width):
        rows = tag_rows(width)
        reused = np.random.Generator(np.random.PCG64(0))
        for row, pair in zip(rows, stream_seeds(seed, rows), strict=True):
            fresh = substream(seed, *row)
            assert reseed(reused, pair).bit_generator.state == fresh.bit_generator.state
            assert draws(reused) == draws(fresh)

    def test_rows_may_be_an_integer_array(self):
        rows = np.array([[5, 0, 3, 7], [6, 1, 2, 9]], dtype=np.uint32)
        reused = np.random.Generator(np.random.PCG64(0))
        states = [reseed(reused, pair).bit_generator.state for pair in stream_seeds(8, rows)]
        assert states == [substream(8, *row).bit_generator.state for row in rows.tolist()]

    def test_no_rows(self):
        assert stream_seeds(3, []) == []

    @pytest.mark.parametrize("tag", [2**32, 2**70, -1])
    def test_tag_outside_one_word_raises(self, tag):
        with pytest.raises(ValueError):
            stream_seeds(1, [(5, 0, 1), (5, 0, tag)])

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            stream_seeds(-1, [(5, 0, 1)])
