"""Zero-count stand-in; see the package docstring."""

from types import SimpleNamespace


def jit_cache_stats() -> SimpleNamespace:
    """No engine caches code, so there are no hits or misses."""
    return SimpleNamespace(hits=0, misses=0)
