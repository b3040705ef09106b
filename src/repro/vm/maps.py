"""eBPF map implementations (array, hash, per-CPU array, LRU hash).

Lookups return guest *addresses* of value storage, exactly like the
kernel: programs then read/write the value bytes directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..isa import MapSpec
from .memory import Memory, Region

BPF_ANY = 0
BPF_NOEXIST = 1
BPF_EXIST = 2


class MapError(Exception):
    """Raised on misuse of a map (bad key size, full map...)."""


class BpfMap:
    """Common behaviour: keys are raw bytes, values live in guest memory."""

    def __init__(self, spec: MapSpec, memory: Memory):
        self.spec = spec
        self.memory = memory

    def lookup(self, key: bytes) -> int:
        """Return the guest address of the value, or 0 if absent."""
        raise NotImplementedError

    def update(self, key: bytes, value: bytes, flags: int = BPF_ANY) -> int:
        """Insert/replace; returns 0 on success, negative errno style."""
        raise NotImplementedError

    def delete(self, key: bytes) -> int:
        raise NotImplementedError

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.spec.key_size:
            raise MapError(
                f"map {self.spec.name}: key size {len(key)} != "
                f"{self.spec.key_size}"
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.spec.value_size:
            raise MapError(
                f"map {self.spec.name}: value size {len(value)} != "
                f"{self.spec.value_size}"
            )


class ArrayMap(BpfMap):
    """Fixed-size array indexed by a u32 key; storage is preallocated."""

    def __init__(self, spec: MapSpec, memory: Memory):
        super().__init__(spec, memory)
        if spec.key_size != 4:
            raise MapError("array maps require 4-byte keys")
        self.region = memory.add_dynamic(
            f"map:{spec.name}", spec.value_size * spec.max_entries
        )

    def _index(self, key: bytes) -> Optional[int]:
        self._check_key(key)
        index = int.from_bytes(key, "little")
        if index >= self.spec.max_entries:
            return None
        return index

    def lookup(self, key: bytes) -> int:
        index = self._index(key)
        if index is None:
            return 0
        return self.region.base + index * self.spec.value_size

    def update(self, key: bytes, value: bytes, flags: int = BPF_ANY) -> int:
        self._check_value(value)
        index = self._index(key)
        if index is None:
            return -22  # -EINVAL
        if flags == BPF_NOEXIST:
            return -17  # -EEXIST: array entries always exist
        offset = index * self.spec.value_size
        self.region.data[offset : offset + len(value)] = value
        return 0

    def delete(self, key: bytes) -> int:
        return -22  # array entries cannot be deleted


class PerCpuArrayMap(ArrayMap):
    """Modelled as a single-CPU array (the simulator runs one core)."""


class HashMap(BpfMap):
    """Hash map with per-entry dynamically allocated value storage."""

    def __init__(self, spec: MapSpec, memory: Memory):
        super().__init__(spec, memory)
        self.entries: "OrderedDict[bytes, Region]" = OrderedDict()
        self._counter = 0

    def lookup(self, key: bytes) -> int:
        self._check_key(key)
        region = self.entries.get(key)
        return region.base if region is not None else 0

    def update(self, key: bytes, value: bytes, flags: int = BPF_ANY) -> int:
        self._check_key(key)
        self._check_value(value)
        existing = self.entries.get(key)
        if existing is not None:
            if flags == BPF_NOEXIST:
                return -17
            existing.data[:] = value
            return 0
        if flags == BPF_EXIST:
            return -2  # -ENOENT
        if len(self.entries) >= self.spec.max_entries:
            evicted = self._evict()
            if not evicted:
                return -7  # -E2BIG
        self._counter += 1
        region = self.memory.add_dynamic(
            f"map:{self.spec.name}:{self._counter}", self.spec.value_size
        )
        region.data[:] = value
        self.entries[key] = region
        return 0

    def delete(self, key: bytes) -> int:
        self._check_key(key)
        region = self.entries.pop(key, None)
        if region is None:
            return -2
        self.memory.remove_region(region.name)
        return 0

    def _evict(self) -> bool:
        return False  # plain hash maps reject inserts when full


class LruHashMap(HashMap):
    """Hash map that evicts the least-recently-used entry when full."""

    def lookup(self, key: bytes) -> int:
        addr = super().lookup(key)
        if addr:
            self.entries.move_to_end(key)
        return addr

    def _evict(self) -> bool:
        if not self.entries:
            return False
        _, region = self.entries.popitem(last=False)
        self.memory.remove_region(region.name)
        return True


_MAP_TYPES = {
    "array": ArrayMap,
    "percpu_array": PerCpuArrayMap,
    "hash": HashMap,
    "lru_hash": LruHashMap,
}


def create_map(spec: MapSpec, memory: Memory) -> BpfMap:
    """Instantiate the right map class for *spec*."""
    try:
        cls = _MAP_TYPES[spec.map_type]
    except KeyError:
        raise MapError(f"unknown map type {spec.map_type!r}") from None
    return cls(spec, memory)
