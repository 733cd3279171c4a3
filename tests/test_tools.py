import numpy as np

from helpers import load_tool


def test_digest_matrix_builds_every_config():
    # building a config validates it: a renamed or removed field in a case's overrides,
    # or a shipped config that no longer loads, fails here and not in a later byte check
    tool = load_tool("digest_matrix")
    runs = list(tool.run_configs())
    assert len(runs) == len(tool.CASES) * len(tool.SEEDS) + len(tool.EXTRA)
    assert {name for name, _, _ in runs} == set(tool.CASES) | set(tool.EXTRA_CASES)


def test_digest_matrix_header_names_the_blas_environment(monkeypatch):
    # the 784-wide digests move with the BLAS thread count, so the header must say it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    line = load_tool("digest_matrix").header()
    assert f"numpy={np.__version__}" in line
    assert "OPENBLAS_NUM_THREADS=3" in line
    assert "OMP_NUM_THREADS=unset" in line
    assert "MKL_NUM_THREADS=" in line
