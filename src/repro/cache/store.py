"""The compilation cache: an in-memory LRU layer over an optional
on-disk content-addressed store.

Entries are stored *pickled* even in memory: every ``get`` deserializes
a private copy, so callers can freely mutate the returned program (the
bytecode passes rewrite in place) without corrupting the cache — the
same property the disk layer gets for free.  Deserializing is orders of
magnitude cheaper than recompiling, which is the whole point.  A caller
that needs only hit-or-miss (the serve daemon answering a repeat from
its memo) uses :meth:`CompilationCache.lookup`, which skips that copy
on a memory hit.

The disk layout is ``<dir>/<digest[:2]>/<digest>.pkl`` (git-style
sharding keeps directories small at service scale); writes go through a
temp file + ``os.replace`` so concurrent writers — e.g. the parallel
batch compiler's worker processes — can never expose a torn entry.
The store never removes a disk entry itself; a reader that already
opened a file another process replaced or removed keeps its fd
(POSIX), and a reader that arrives after a removal sees a plain miss
and recompiles.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import FrozenSet, Optional, Tuple

from .. import ir
from ..core.pipeline import MerlinReport
from ..isa import BpfProgram, ProgramType
from ..verifier import KernelConfig
from . import keys as _keys


def _is_entry(name: str) -> bool:
    """A committed disk entry, not a writer's ``.tmp-*`` transient."""
    return name.endswith(".pkl") and not name.startswith(".")


def scan_cache_tree(cache_dir: str) -> dict:
    """Walk a disk store and load every entry — the torn-entry detector
    a service bench runs over its shared tree.

    Transient ``.tmp-*`` files (a writer was mid-flight when the walk
    passed) are counted separately, never as corruption; a ``torn``
    entry is one that exists but does not load."""
    entries = torn = transients = 0
    total_bytes = 0
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            path = os.path.join(root, name)
            if not _is_entry(name):
                if ".tmp-" in name:
                    transients += 1
                continue
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "rb") as handle:
                    pickle.load(handle)
            except FileNotFoundError:
                entries -= 1   # removed mid-walk: fine
            except Exception:
                torn += 1
    return {"entries": entries, "torn": torn,
            "transients": transients, "bytes": total_bytes}


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, mergeable across worker processes.

    ``write_errors``/``read_errors`` count disk-layer I/O failures the
    cache absorbed (permission loss, the directory replaced, torn
    bytes): the store degrades to memory-only behavior instead of
    propagating them, and a long-running service surfaces the counters
    through its stats endpoint.

    The fields are the one list of counter names: :meth:`merge`,
    :meth:`since` and :meth:`to_dict` all iterate them, in this order
    (the order the ``stats`` op shows).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0        # memory-LRU overflow
    memory_hits: int = 0
    disk_hits: int = 0
    write_errors: int = 0
    read_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        for counter in fields(self):
            setattr(self, counter.name, getattr(self, counter.name)
                    + getattr(other, counter.name))

    def since(self, before: "CacheStats") -> "CacheStats":
        """The counters accrued after the snapshot *before* (the
        counters are cumulative)."""
        return CacheStats(**{
            counter.name: getattr(self, counter.name)
            - getattr(before, counter.name) for counter in fields(self)})

    def to_dict(self) -> dict:
        out = asdict(self)
        out["hit_rate"] = round(self.hit_rate, 4)
        return out


class CompilationCache:
    """Content-addressed cache of ``(BpfProgram, MerlinReport)`` pairs.

    ``max_memory_entries`` bounds the LRU layer; overflow evicts the
    least-recently-used entry (still recoverable from disk when a
    ``directory`` is configured).  ``directory=None`` keeps the cache
    purely in-memory.

    Two threads may share one handle: the serve daemon looks entries up
    on its event loop while its dispatch thread compiles through the
    same store.  Each memory-layer step is a single dict operation, and
    a hit that another thread evicted right after the lookup read it is
    still a hit.
    """

    #: consecutive disk-write failures before the store stops trying —
    #: a filesystem gone read-only (EROFS, quota, revoked mount) fails
    #: every subsequent write, and probing it forever just burns a
    #: syscall + an exception per ``put``
    WRITE_DEGRADE_AFTER = 3

    def __init__(self, directory: Optional[str] = None,
                 max_memory_entries: int = 1024):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.directory = directory
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._consecutive_write_errors = 0
        self._write_degraded = False
        self.stats = CacheStats()
        if directory is not None:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError:
                # directory unusable from the start (read-only parent):
                # run memory-only rather than refusing to start
                self.stats.write_errors += 1
                self._write_degraded = True

    # ------------------------------------------------------------- keys
    def key_for_function(self, func: ir.Function,
                         module: Optional[ir.Module] = None, *,
                         enabled: FrozenSet[str], kernel: KernelConfig,
                         prog_type: ProgramType = ProgramType.XDP,
                         mcpu: str = "v2", ctx_size: int = 64,
                         validate: bool = False,
                         pgo: Optional[str] = None,
                         superopt: Optional[str] = None) -> str:
        return _keys.key_for_function(
            func, module, enabled=enabled, kernel=kernel,
            prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size,
            validate=validate, pgo=pgo, superopt=superopt)

    # ----------------------------------------------------------- lookup
    def get_object(self, key: str) -> Optional[object]:
        """Raw object lookup — the machinery behind :meth:`get`, also
        used directly by the superoptimizer's rewrite memo (entries in
        the ``key_for_window`` namespace are :class:`RewriteMemoEntry`
        objects, not program/report pairs)."""
        hit = self.lookup(key)
        if hit is None:
            return None
        blob, entry = hit
        return pickle.loads(blob) if entry is None else entry

    def lookup(self, key: str) -> Optional[Tuple[bytes, Optional[object]]]:
        """One lookup that deserializes only what it must validate.

        Counts the hit or miss (memory or disk) and refreshes the LRU
        order — all of :meth:`get_object`'s work.  A memory hit returns
        ``(blob, None)`` without unpickling; a disk hit returns
        ``(blob, entry)``, ``entry`` being the validating unpickle of
        the bytes it read.  A caller that already holds what the entry
        decodes to (the serve daemon's memoized answer) pays a lookup
        and nothing more."""
        blob = self._memory.get(key)
        if blob is not None:
            try:
                self._memory.move_to_end(key)
            except KeyError:
                pass  # a thread sharing this handle evicted it since
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return blob, None
        if self.directory is not None:
            try:
                with open(self._path(key), "rb") as handle:
                    blob = handle.read()
                entry = pickle.loads(blob)
            except FileNotFoundError:
                entry = None  # a plain miss, not a fault
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError):
                # unreadable or torn entry (permission loss, directory
                # replaced, schema drift): degrade to a miss
                entry = None
                self.stats.read_errors += 1
            if entry is not None:
                self._remember(key, blob)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return blob, entry
        self.stats.misses += 1
        return None

    def put_object(self, key: str, obj: object) -> None:
        """Store an arbitrary picklable object under *key* (see
        :meth:`get_object`)."""
        blob = pickle.dumps(obj)
        self._remember(key, blob)
        if self.directory is not None:
            self._write_disk(key, blob)
        self.stats.stores += 1

    def get(self, key: str) -> Optional[Tuple[BpfProgram, MerlinReport]]:
        return self.get_object(key)

    def put(self, key: str, program: BpfProgram, report: MerlinReport) -> None:
        self.put_object(key, (program, report))

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        if self.directory is None:
            return False
        try:
            return os.path.exists(self._path(key))
        except OSError:  # e.g. the directory replaced by a file
            return False

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the LRU layer (disk entries, if any, survive)."""
        self._memory.clear()

    @property
    def write_degraded(self) -> bool:
        """True once the disk layer stopped accepting writes (e.g. the
        filesystem went read-only mid-run).  Reads are still attempted —
        a read-only mount serves existing entries fine — and ``get``
        never re-raises either way."""
        return self._write_degraded

    # ---------------------------------------------------------- helpers
    def _remember(self, key: str, blob: bytes) -> None:
        self._memory[key] = blob
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, key[:2], f"{key}.pkl")

    def _write_disk(self, key: str, blob: bytes) -> None:
        """Best-effort: a failed disk write (permission lost, directory
        deleted or replaced mid-run) degrades the store to memory-only
        for that entry instead of taking the caller down.  After
        ``WRITE_DEGRADE_AFTER`` failures in a row the degradation goes
        sticky and later ``put`` calls skip the disk entirely; one
        successful write re-arms the counter."""
        if self._write_degraded:
            return
        path = self._path(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".tmp-", suffix=".pkl")
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
            self._consecutive_write_errors = 0
        except OSError:
            self.stats.write_errors += 1
            self._consecutive_write_errors += 1
            if self._consecutive_write_errors >= self.WRITE_DEGRADE_AFTER:
                self._write_degraded = True
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
