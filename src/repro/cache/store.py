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

Long-lived stores need a retention policy too: ``ttl_seconds`` expires
entries that have not been *touched* (written or read) for that long,
and ``max_disk_bytes`` bounds the tree with an LRU :meth:`sweep` (disk
hits touch the entry's mtime, so mtime order is access order).  Both
removal paths go through an atomic tombstone — ``os.replace`` the entry
to a ``.tomb-*`` name, then unlink — so exactly one of N racing
evictors claims each entry (the loser's rename raises) and counters
never double-count.  A reader that already opened the file keeps its
fd across the unlink (POSIX), so eviction can never tear an in-flight
read; a reader that arrives after the rename sees a plain miss and
recompiles.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import FrozenSet, Optional, Tuple

from .. import ir
from ..core.pipeline import MerlinReport
from ..isa import BpfProgram, ProgramType
from ..verifier import KernelConfig
from . import keys as _keys


def _is_entry(name: str) -> bool:
    """A committed disk entry, not a ``.tmp-*`` or ``.tomb-*`` transient."""
    return name.endswith(".pkl") and not name.startswith(".")


def scan_cache_tree(cache_dir: str) -> dict:
    """Walk a disk store and load every entry — the torn-entry detector
    a service bench runs over its shared tree.

    Transient ``.tmp-*`` / ``.tomb-*`` files (a writer or evictor was
    mid-flight when the walk passed) are counted separately, never as
    corruption; a ``torn`` entry is one that exists but does not load."""
    entries = torn = transients = 0
    total_bytes = 0
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            path = os.path.join(root, name)
            if not _is_entry(name):
                if ".tmp-" in name or ".tomb-" in name:
                    transients += 1
                continue
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "rb") as handle:
                    pickle.load(handle)
            except FileNotFoundError:
                entries -= 1   # evicted mid-walk: fine
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
    expired: int = 0          # TTL removals (memory or disk)
    disk_evictions: int = 0   # size-budget sweep removals

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

    ``ttl_seconds`` is an *idle* TTL: an entry untouched (no store, no
    hit) for that long is expired on next sight — lazily at lookup and
    eagerly by :meth:`sweep`.  ``max_disk_bytes`` is the disk-tree size
    budget :meth:`sweep` enforces LRU-first; neither bound is enforced
    unless set, keeping the PR-2 behavior for existing callers.

    Two threads may share one handle: the serve daemon looks entries up
    on its event loop while its dispatch thread compiles through the
    same store.  Each memory-layer step is a single dict operation, and
    an idle entry another thread evicted between a lookup's read and
    its expiry counts as already gone.
    """

    #: consecutive disk-write failures before the store stops trying —
    #: a filesystem gone read-only (EROFS, quota, revoked mount) fails
    #: every subsequent write, and probing it forever just burns a
    #: syscall + an exception per ``put``
    WRITE_DEGRADE_AFTER = 3

    def __init__(self, directory: Optional[str] = None,
                 max_memory_entries: int = 1024,
                 ttl_seconds: Optional[float] = None,
                 max_disk_bytes: Optional[int] = None):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        self.directory = directory
        self.max_memory_entries = max_memory_entries
        self.ttl_seconds = ttl_seconds
        self.max_disk_bytes = max_disk_bytes
        #: memory layer holds (blob, last-touched wall-clock timestamp)
        self._memory: "OrderedDict[str, Tuple[bytes, float]]" = OrderedDict()
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
                         verify_after: bool = False,
                         validate: bool = False,
                         pgo: Optional[str] = None,
                         superopt: Optional[str] = None) -> str:
        return _keys.key_for_function(
            func, module, enabled=enabled, kernel=kernel,
            prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size,
            verify_after=verify_after, validate=validate, pgo=pgo,
            superopt=superopt)

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

        Counts the hit or miss (memory or disk), refreshes the LRU
        order and the idle TTL, and expires an idle entry — all of
        :meth:`get_object`'s work.  A memory hit returns
        ``(blob, None)`` without unpickling; a disk hit returns
        ``(blob, entry)``, ``entry`` being the validating unpickle of
        the bytes it read.  A caller that already holds what the entry
        decodes to (the serve daemon's memoized answer) pays a lookup
        and nothing more."""
        now = time.time()
        cached = self._memory.get(key)
        if cached is not None:
            blob, touched = cached
            if self.ttl_seconds is not None \
                    and now - touched > self.ttl_seconds:
                # idle too long: drop it and fall through to disk,
                # which will agree (its mtime is at least as old).  A
                # thread sharing this handle may have evicted it since
                # the read: then it is not this lookup's to count
                if self._memory.pop(key, None) is not None:
                    self.stats.expired += 1
            else:
                self._memory[key] = (blob, now)
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return blob, None
        if self.directory is not None:
            path = self._path(key)
            try:
                if self.ttl_seconds is not None:
                    age = now - os.stat(path).st_mtime
                    if age > self.ttl_seconds:
                        if self._tombstone(path):
                            self.stats.expired += 1
                        raise FileNotFoundError(path)
                with open(path, "rb") as handle:
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
                # a disk hit is an access: refresh the entry's mtime so
                # the LRU sweep and the idle TTL both see it as hot
                try:
                    os.utime(path, None)
                except OSError:
                    pass
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

    # ------------------------------------------------------ ttl / sweep
    def sweep(self, now: Optional[float] = None) -> dict:
        """Enforce the retention policy over the disk tree.

        Two passes in one walk: entries idle beyond ``ttl_seconds`` are
        expired unconditionally, then — if ``max_disk_bytes`` is set and
        the survivors still exceed it — the least-recently-touched
        entries are evicted until the tree fits.  Safe to run from any
        number of processes concurrently: the tombstone rename makes
        each removal claimed by exactly one sweeper, and in-flight
        readers keep their fd.  Returns the counts for this call.
        """
        removed = {"expired": 0, "evicted": 0, "scanned": 0,
                   "bytes": 0, "bytes_freed": 0}
        if self.directory is None:
            return removed
        now = time.time() if now is None else now
        entries = []  # (mtime, size, path)
        try:
            shards = os.scandir(self.directory)
        except OSError:
            return removed
        with shards:
            for shard in shards:
                if not shard.is_dir(follow_symlinks=False):
                    continue
                try:
                    files = os.scandir(shard.path)
                except OSError:
                    continue
                with files:
                    for entry in files:
                        name = entry.name
                        try:
                            stat = entry.stat(follow_symlinks=False)
                        except OSError:
                            continue  # raced with another sweeper
                        if not _is_entry(name):
                            # temp file (``.tmp-*.pkl``) or tombstone
                            # left by a crashed writer/sweeper: reap
                            # it once clearly abandoned
                            if now - stat.st_mtime > 300:
                                try:
                                    os.unlink(entry.path)
                                except OSError:
                                    pass
                            continue
                        entries.append((stat.st_mtime, stat.st_size,
                                        entry.path))
        removed["scanned"] = len(entries)
        live_bytes = sum(size for _mtime, size, _path in entries)
        survivors = []
        for mtime, size, path in entries:
            if self.ttl_seconds is not None \
                    and now - mtime > self.ttl_seconds:
                claimed = self._tombstone(path)
                if claimed:
                    self.stats.expired += 1
                    removed["expired"] += 1
                    removed["bytes_freed"] += size
                if claimed is not None:
                    live_bytes -= size
                continue
            survivors.append((mtime, size, path))
        if self.max_disk_bytes is not None \
                and live_bytes > self.max_disk_bytes:
            survivors.sort()  # oldest mtime (= least recently touched) first
            for mtime, size, path in survivors:
                if live_bytes <= self.max_disk_bytes:
                    break
                claimed = self._tombstone(path)
                if claimed:
                    self.stats.disk_evictions += 1
                    removed["evicted"] += 1
                    removed["bytes_freed"] += size
                if claimed is not None:
                    # claimed here, or already removed by a racing
                    # sweeper: either way its bytes left the tree
                    live_bytes -= size
        removed["bytes"] = live_bytes
        return removed

    def _tombstone(self, path: str) -> Optional[bool]:
        """Atomically claim and remove one disk entry.

        The rename either succeeds (this process owns the removal) or
        raises because another evictor got there first — so N racing
        sweepers remove the entry exactly once between them, and a
        reader can never observe a half-deleted file: the path either
        resolves to the complete entry or not at all.

        Returns True when this call claimed the entry, False when it
        was already gone, and None when the claim failed for another
        reason (the entry may still be on disk).
        """
        tomb = f"{path[:-4]}.tomb-{os.getpid()}-{id(self) & 0xffff}"
        try:
            os.replace(path, tomb)
        except FileNotFoundError:
            return False  # already claimed (or the tree vanished)
        except OSError:
            return None
        try:
            os.unlink(tomb)
        except OSError:
            pass  # sweep() reaps stale tombstones later
        return True

    # ---------------------------------------------------------- helpers
    def _remember(self, key: str, blob: bytes) -> None:
        self._memory[key] = (blob, time.time())
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
