from helpers import load_tool


def test_digest_matrix_builds_every_config():
    # building a config validates it: a renamed or removed field in a case's overrides,
    # or a shipped config that no longer loads, fails here and not in a later byte check
    tool = load_tool("digest_matrix")
    runs = list(tool.run_configs())
    assert len(runs) == len(tool.CASES) * len(tool.SEEDS) + len(tool.EXTRA)
    assert {name for name, _, _ in runs} == set(tool.CASES) | set(tool.EXTRA_CASES)
