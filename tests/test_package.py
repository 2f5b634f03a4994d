"""The package namespace."""

import partition_gf


def test_every_exported_name_resolves():
    missing = [name for name in partition_gf.__all__ if not hasattr(partition_gf, name)]
    assert missing == []
