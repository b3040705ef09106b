"""repro.cache — content-addressed compilation caching.

Keys digest the canonical IR text plus the full pipeline configuration
(enabled passes, kernel config, mcpu, program type, ctx size), so two
textually identical functions compiled the same way share one entry —
and *any* configuration change is automatically a different key (the
invalidation rule: there is none, keys are immutable facts).

::

    from repro.cache import CompilationCache

    cache = CompilationCache(directory=".merlin-cache")
    program, report = pipeline.compile(func, module, cache=cache)
    print(cache.stats.hit_rate)
"""

from .keys import (
    SCHEMA_VERSION,
    canonical_text,
    compose_key,
    kernel_fingerprint,
    key_for_bytecode,
    key_for_function,
)
from .store import CacheStats, CompilationCache, scan_cache_tree

__all__ = [
    "SCHEMA_VERSION",
    "canonical_text",
    "compose_key",
    "kernel_fingerprint",
    "key_for_bytecode",
    "key_for_function",
    "CacheStats",
    "CompilationCache",
    "scan_cache_tree",
]
