"""Helpers shared by the test modules."""
import importlib.util
from pathlib import Path

import numpy as np

from feelsim.learning import LabeledDataset

ROOT = Path(__file__).resolve().parent.parent


def joined(shards):
    """Datasets laid end to end as one training matrix, with each one's row range in it:
    the (data, shards) pair that local_round takes."""
    ends = np.cumsum([0, *(len(s) for s in shards)]).tolist()
    data = LabeledDataset(np.concatenate([s.features for s in shards]),
                          np.concatenate([s.labels for s in shards]))
    return data, [range(a, b) for a, b in zip(ends, ends[1:])]


def load_tool(name):
    """The script tools/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
