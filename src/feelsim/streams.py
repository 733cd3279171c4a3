"""Deterministic random-stream derivation.

Every stochastic draw in the simulator comes from a generator keyed by
(root seed, domain, *tags).  Streams are independent of the order in which
they are opened, so per-worker work can run in any order or grouping
without changing results.
"""
from __future__ import annotations

import numpy as np

# domain tags; keep values stable, results depend on them
DOMAIN_INIT = 0
DOMAIN_DATA = 1
DOMAIN_PARTITION = 2
DOMAIN_PROFILE = 3
DOMAIN_SELECT = 4
DOMAIN_TRAIN = 5
DOMAIN_CHANNEL = 6
DOMAIN_DEADLINE = 7


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Return the generator for a (seed, *tags) coordinate.

    Same coordinate -> same stream, always.  Distinct coordinates give
    statistically independent streams.
    """
    key = tuple(int(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
