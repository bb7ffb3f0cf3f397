"""The package namespace: what `from tailcast import *` brings in."""
import tailcast


def test_all_names_resolve_once():
    missing = [name for name in tailcast.__all__ if not hasattr(tailcast, name)]
    assert missing == []
    assert len(set(tailcast.__all__)) == len(tailcast.__all__)
