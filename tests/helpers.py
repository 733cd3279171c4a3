"""Helpers shared by the test modules."""
import numpy as np

from feelsim.learning import LabeledDataset


def joined(shards):
    """Datasets laid end to end as one training matrix, with each one's row range in it:
    the (data, shards) pair that local_round takes."""
    ends = np.cumsum([0, *(len(s) for s in shards)]).tolist()
    data = LabeledDataset(np.concatenate([s.features for s in shards]),
                          np.concatenate([s.labels for s in shards]))
    return data, [range(a, b) for a, b in zip(ends, ends[1:])]
