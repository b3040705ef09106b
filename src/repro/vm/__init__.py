"""eBPF virtual machine: interpreter, maps, helpers, cost model."""

from .cost import ALU_COST, DEFAULT_HELPER_COST, HELPER_COST, base_cost
from .helpers import HelperError, HelperRuntime, TaskContext
from .interpreter import Machine, RunResult, VmFault
from .maps import (
    ArrayMap,
    BPF_ANY,
    BPF_EXIST,
    BPF_NOEXIST,
    BpfMap,
    HashMap,
    LruHashMap,
    MapError,
    PerCpuArrayMap,
    create_map,
)
from .memory import (
    CTX_BASE,
    MAP_BASE,
    Memory,
    MemoryFault,
    PACKET_BASE,
    Region,
    STACK_BASE,
)

__all__ = [
    "ALU_COST",
    "DEFAULT_HELPER_COST",
    "HELPER_COST",
    "base_cost",
    "HelperError",
    "HelperRuntime",
    "TaskContext",
    "Machine",
    "RunResult",
    "VmFault",
    "ArrayMap",
    "BPF_ANY",
    "BPF_EXIST",
    "BPF_NOEXIST",
    "BpfMap",
    "HashMap",
    "LruHashMap",
    "MapError",
    "PerCpuArrayMap",
    "create_map",
    "CTX_BASE",
    "MAP_BASE",
    "Memory",
    "MemoryFault",
    "PACKET_BASE",
    "Region",
    "STACK_BASE",
]
