"""Stub for the repository benchmark, which still imports
``decode_cache_stats`` here and ``jit.jit_cache_stats`` for its
``vm.decode_cache.*`` and ``vm.jit_cache.*`` metrics.  The VM has one
engine, the reference interpreter; this package goes when the next
benchmark change drops those metrics."""

from .jit import jit_cache_stats as decode_cache_stats

__all__ = ["decode_cache_stats"]
