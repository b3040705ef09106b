"""Runtime implementations of the eBPF helper functions.

Helpers receive the machine (for memory/maps/counters) and the five
argument registers; they return the new r0 value.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, TYPE_CHECKING

from ..isa.helpers import HELPER_IDS, HELPER_NAMES
from ..isa.semantics import signed
from .maps import BpfMap
from .memory import MemoryFault

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import Machine

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


class HelperError(Exception):
    """Raised when a helper is called with invalid state."""


class TaskContext:
    """The 'current task' a tracing program observes."""

    def __init__(self, pid: int = 1234, tgid: int = 1234, uid: int = 1000,
                 gid: int = 1000, comm: str = "postmark"):
        self.pid = pid
        self.tgid = tgid
        self.uid = uid
        self.gid = gid
        self.comm = comm


class HelperRuntime:
    """Dispatch table from helper id to implementation."""

    def __init__(self, machine: "Machine", seed: int = 0):
        self.machine = machine
        self.rng = random.Random(seed)
        self.printk_count = 0
        self.output_bytes = 0  # bytes pushed to user space (perf/ringbuf)
        self.redirects: List[int] = []  # ifindexes passed to redirect()
        self._table: Dict[int, Callable[[List[int]], int]] = {
            HELPER_IDS["map_lookup_elem"]: self._map_lookup_elem,
            HELPER_IDS["map_update_elem"]: self._map_update_elem,
            HELPER_IDS["map_delete_elem"]: self._map_delete_elem,
            HELPER_IDS["probe_read"]: self._probe_read,
            HELPER_IDS["probe_read_str"]: self._probe_read,
            HELPER_IDS["ktime_get_ns"]: self._ktime_get_ns,
            HELPER_IDS["ktime_get_boot_ns"]: self._ktime_get_ns,
            HELPER_IDS["trace_printk"]: self._trace_printk,
            HELPER_IDS["get_prandom_u32"]: self._get_prandom_u32,
            HELPER_IDS["get_smp_processor_id"]: self._get_smp_processor_id,
            HELPER_IDS["get_current_pid_tgid"]: self._get_current_pid_tgid,
            HELPER_IDS["get_current_uid_gid"]: self._get_current_uid_gid,
            HELPER_IDS["get_current_comm"]: self._get_current_comm,
            HELPER_IDS["redirect"]: self._redirect,
            HELPER_IDS["redirect_map"]: self._redirect,
            HELPER_IDS["perf_event_output"]: self._perf_event_output,
            HELPER_IDS["ringbuf_output"]: self._ringbuf_output,
            HELPER_IDS["csum_diff"]: self._csum_diff,
            HELPER_IDS["xdp_adjust_head"]: self._xdp_adjust_head,
            HELPER_IDS["fib_lookup"]: self._fib_lookup,
        }

    def call(self, helper_id: int, args: List[int]) -> int:
        impl = self._table.get(helper_id)
        if impl is None:
            name = HELPER_NAMES.get(helper_id, str(helper_id))
            raise HelperError(f"helper {name} not implemented")
        return impl(args) & _U64

    # --- maps ---------------------------------------------------------------
    def _resolve_map(self, handle: int) -> BpfMap:
        bpf_map = self.machine.maps_by_id.get(handle)
        if bpf_map is None:
            raise HelperError(f"bad map handle {handle:#x}")
        return bpf_map

    def _map_lookup_elem(self, args: List[int]) -> int:
        bpf_map = self._resolve_map(args[0])
        key = self.machine.memory.load_bytes(args[1], bpf_map.spec.key_size)
        self.machine.touch_memory(args[1], bpf_map.spec.key_size)
        return bpf_map.lookup(key)

    def _map_update_elem(self, args: List[int]) -> int:
        bpf_map = self._resolve_map(args[0])
        key = self.machine.memory.load_bytes(args[1], bpf_map.spec.key_size)
        value = self.machine.memory.load_bytes(args[2], bpf_map.spec.value_size)
        self.machine.touch_memory(args[1], bpf_map.spec.key_size)
        self.machine.touch_memory(args[2], bpf_map.spec.value_size)
        return bpf_map.update(key, value, args[3] & 0xFF)

    def _map_delete_elem(self, args: List[int]) -> int:
        bpf_map = self._resolve_map(args[0])
        key = self.machine.memory.load_bytes(args[1], bpf_map.spec.key_size)
        return bpf_map.delete(key)

    # --- probes / task state ----------------------------------------------
    def _probe_read(self, args: List[int]) -> int:
        dst, size, src = args[0], args[1], args[2]
        if size == 0:
            return 0
        try:
            data = self.machine.memory.load_bytes(src, size)
        except MemoryFault:
            return -14  # -EFAULT
        self.machine.memory.store_bytes(dst, data)
        self.machine.touch_memory(src, size)
        self.machine.touch_memory(dst, size)
        return 0

    def _ktime_get_ns(self, args: List[int]) -> int:
        # the simulated clock advances with executed cycles (~1 GHz core)
        return 1_000_000_000 + self.machine.counters.cycles

    def _get_prandom_u32(self, args: List[int]) -> int:
        return self.rng.getrandbits(32)

    def _get_smp_processor_id(self, args: List[int]) -> int:
        return 0

    def _get_current_pid_tgid(self, args: List[int]) -> int:
        task = self.machine.task
        return (task.tgid << 32) | task.pid

    def _get_current_uid_gid(self, args: List[int]) -> int:
        task = self.machine.task
        return (task.gid << 32) | task.uid

    def _get_current_comm(self, args: List[int]) -> int:
        buf, size = args[0], args[1]
        comm = self.machine.task.comm.encode()[: max(size - 1, 0)] + b"\x00"
        comm = comm.ljust(size, b"\x00")
        self.machine.memory.store_bytes(buf, comm[:size])
        return 0

    def _trace_printk(self, args: List[int]) -> int:
        self.printk_count += 1
        return 0

    # --- user-space output ----------------------------------------------------
    def _perf_event_output(self, args: List[int]) -> int:
        # (ctx, map, flags, data, size)
        size = args[4]
        self.output_bytes += size
        return 0

    def _ringbuf_output(self, args: List[int]) -> int:
        # (ringbuf, data, size, flags)
        size = args[2]
        self.output_bytes += size
        return 0

    # --- networking -----------------------------------------------------------
    def _redirect(self, args: List[int]) -> int:
        self.redirects.append(args[0] & _U32)
        return 4  # XDP_REDIRECT

    def _csum_diff(self, args: List[int]) -> int:
        from_ptr, from_size, to_ptr, to_size, seed = args[:5]
        csum = seed & _U32
        if from_size:
            data = self.machine.memory.load_bytes(from_ptr, from_size)
            self.machine.touch_memory(from_ptr, from_size)
            csum = (csum - sum(data)) & _U32
        if to_size:
            data = self.machine.memory.load_bytes(to_ptr, to_size)
            self.machine.touch_memory(to_ptr, to_size)
            csum = (csum + sum(data)) & _U32
        return csum

    def _xdp_adjust_head(self, args: List[int]) -> int:
        ctx_addr, delta = args[0], args[1]
        from .memory import PACKET_BASE

        data = self.machine.memory.load(ctx_addr, 8)
        data_end = self.machine.memory.load(ctx_addr + 8, 8)
        new_data = data + signed(delta, 64)
        if new_data < PACKET_BASE or new_data >= data_end:
            return -22  # would leave the headroom/packet region
        self.machine.memory.store(ctx_addr, 8, new_data)
        return 0

    def _fib_lookup(self, args: List[int]) -> int:
        # (ctx, params, plen, flags): resolve from the params struct so
        # the result genuinely depends on the program-written inputs
        params = args[1]
        try:
            family = self.machine.memory.load(params + 0, 4)
            proto = self.machine.memory.load(params + 4, 4)
            saddr = self.machine.memory.load(params + 8, 4)
            daddr = self.machine.memory.load(params + 12, 4)
            ifindex = self.machine.memory.load(params + 16, 4)
        except MemoryFault:
            return -14
        if family != 0:  # only AF_INET is routable in the model
            return -22
        oif = 2 + ((daddr ^ saddr ^ proto ^ ifindex) % 3)
        try:
            self.machine.memory.store(params + 56, 4, oif)
        except MemoryFault:
            return -22
        return 0
