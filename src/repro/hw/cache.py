"""A set-associative, write-allocate, LRU data cache model.

Default geometry approximates a modern L1D: 32 KiB, 64-byte lines,
8-way.  Each program memory access is looked up; a miss costs the
configured penalty on top of the hit latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class CacheStats:
    references: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.references if self.references else 0.0


class CacheModel:
    """LRU set-associative cache keyed by line address."""

    def __init__(
        self,
        size_bytes: int = 32 * 1024,
        line_bytes: int = 64,
        ways: int = 8,
        hit_latency: int = 4,
        miss_penalty: int = 40,
    ):
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must be a multiple of line*ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty
        # per-set list of tags, most-recently-used last
        self.sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        self.sets = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _touch_line(self, line_addr: int) -> bool:
        """Access one line; True on hit."""
        index = line_addr % self.num_sets
        tag = line_addr // self.num_sets
        entries = self.sets[index]
        if tag in entries:
            entries.remove(tag)
            entries.append(tag)
            return True
        entries.append(tag)
        if len(entries) > self.ways:
            entries.pop(0)
        return False

    def access(self, addr: int, size: int) -> int:
        """Model an access; returns its latency in cycles.

        Equivalent to calling :meth:`_touch_line` per covered line, but
        inlined — this is the hottest call in the VM's execute loop —
        with one behavioural no-op shortcut: a tag that is already
        most-recently-used skips the remove/append reshuffle (removing
        and re-appending the last element is the identity).
        """
        line = addr // self.line_bytes
        last_line = (addr + size - 1) // self.line_bytes if size > 1 else line
        stats = self.stats
        num_sets = self.num_sets
        sets = self.sets
        latency = self.hit_latency
        while True:
            stats.references += 1
            entries = sets[line % num_sets]
            tag = line // num_sets
            if entries and entries[-1] == tag:
                pass  # already MRU
            elif tag in entries:
                entries.remove(tag)
                entries.append(tag)
            else:
                stats.misses += 1
                latency += self.miss_penalty
                entries.append(tag)
                if len(entries) > self.ways:
                    entries.pop(0)
            if line == last_line:
                return latency
            line += 1
