"""Flat memory model for the eBPF virtual machine.

Guest "addresses" are plain integers carved into disjoint windows, one
per region (stack, context, packet, map values...).  Accesses are
bounds-checked; a bad access raises :class:`MemoryFault` — the runtime
equivalent of what the static verifier is supposed to rule out.

Region lookup is O(1) in the common case: regions are indexed by the
``addr >> 28`` window they occupy (the bases are laid out on
``_WINDOW = 0x1000_0000`` boundaries), so :meth:`Memory.find` probes one
bucket instead of scanning every region.  Regions come and go only
through :meth:`Memory.add_region` and :meth:`Memory.remove_region`;
both drop the index, and the next lookup rebuilds it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

_PACK = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}

STACK_BASE = 0x1000_0000
CTX_BASE = 0x2000_0000
PACKET_BASE = 0x3000_0000
MAP_BASE = 0x4000_0000
SCRATCH_BASE = 0x5000_0000

_WINDOW = 0x1000_0000
_WINDOW_SHIFT = 28


class MemoryFault(Exception):
    """Raised on out-of-bounds or unmapped guest memory access."""


@dataclass
class Region:
    name: str
    base: int
    data: bytearray

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.end


class Memory:
    """A collection of disjoint regions addressed by integer pointers."""

    def __init__(self) -> None:
        self.regions: Dict[str, Region] = {}
        self._next_dynamic = MAP_BASE
        self._buckets: Optional[Dict[int, List[Region]]] = None

    # ------------------------------------------------------------ index
    def _rebuild(self) -> Dict[int, List[Region]]:
        """Index every region under each window it overlaps (a region
        that straddles a ``_WINDOW`` boundary appears in both)."""
        buckets: Dict[int, List[Region]] = {}
        for region in self.regions.values():
            first = region.base >> _WINDOW_SHIFT
            last = max(region.end - 1, region.base) >> _WINDOW_SHIFT
            for window in range(first, last + 1):
                buckets.setdefault(window, []).append(region)
        self._buckets = buckets
        return buckets

    # ---------------------------------------------------------- regions
    def add_region(self, name: str, base: int, size: int) -> Region:
        region = Region(name, base, bytearray(size))
        self.regions[name] = region
        self._buckets = None
        return region

    def remove_region(self, name: str) -> None:
        """Unmap region *name*: its addresses fault from now on."""
        del self.regions[name]
        self._buckets = None

    def add_dynamic(self, name: str, size: int) -> Region:
        """Allocate a region at the next free dynamic address."""
        aligned = (size + 63) // 64 * 64 or 64
        region = self.add_region(name, self._next_dynamic, size)
        self._next_dynamic += aligned + 64  # red zone between allocations
        return region

    def find(self, addr: int, size: int) -> Region:
        buckets = self._buckets
        if buckets is None:
            buckets = self._rebuild()
        candidates = buckets.get(addr >> _WINDOW_SHIFT)
        if candidates is not None:
            for region in candidates:
                if region.base <= addr and addr + size <= region.base + len(
                        region.data):
                    return region
        raise MemoryFault(f"unmapped access: {size} bytes at {addr:#x}")

    def load(self, addr: int, size: int) -> int:
        region = self.find(addr, size)
        offset = addr - region.base
        return struct.unpack_from(_PACK[size], region.data, offset)[0]

    def store(self, addr: int, size: int, value: int) -> None:
        region = self.find(addr, size)
        offset = addr - region.base
        struct.pack_into(_PACK[size], region.data, offset, value & ((1 << (size * 8)) - 1))

    def load_bytes(self, addr: int, size: int) -> bytes:
        region = self.find(addr, size)
        offset = addr - region.base
        return bytes(region.data[offset : offset + size])

    def store_bytes(self, addr: int, data: bytes) -> None:
        region = self.find(addr, len(data))
        offset = addr - region.base
        region.data[offset : offset + len(data)] = data
