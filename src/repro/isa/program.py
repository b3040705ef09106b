"""Program container: a named sequence of eBPF instructions plus metadata."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from . import opcodes as op
from .instruction import Instruction, encoded_length, ni


class ProgramType(enum.Enum):
    """Attachment type, mirroring ``bpf_prog_type``."""

    XDP = "xdp"
    TRACEPOINT = "tracepoint"
    KPROBE = "kprobe"
    SOCKET_FILTER = "socket_filter"
    CGROUP_SKB = "cgroup_skb"
    LSM = "lsm"


class XdpAction(enum.IntEnum):
    """Return codes of an XDP program."""

    ABORTED = 0
    DROP = 1
    PASS = 2
    TX = 3
    REDIRECT = 4


@dataclass
class MapSpec:
    """Declaration of an eBPF map used by a program."""

    name: str
    map_type: str  # "array", "hash", "percpu_array", "lru_hash"
    key_size: int
    value_size: int
    max_entries: int

    def __post_init__(self) -> None:
        if self.key_size <= 0 or self.value_size <= 0:
            raise ValueError("map key/value sizes must be positive")
        if self.max_entries <= 0:
            raise ValueError("max_entries must be positive")


@dataclass
class BpfProgram:
    """A loadable eBPF program.

    ``insns`` is a flat list of logical instructions; branch offsets are
    relative slot counts exactly as in the kernel (an ``ld_imm64``
    occupies two slots).
    """

    name: str
    insns: List[Instruction]
    prog_type: ProgramType = ProgramType.XDP
    maps: Dict[str, MapSpec] = field(default_factory=dict)
    mcpu: str = "v2"
    ctx_size: int = 64  # bytes of context accessible via r1 at entry

    @property
    def ni(self) -> int:
        """Number of Instructions: encoded bytes / 8 (paper's metric)."""
        return ni(self.insns)

    @property
    def size_bytes(self) -> int:
        return encoded_length(self.insns)

    def encode(self) -> bytes:
        return b"".join(insn.encode() for insn in self.insns)

    @classmethod
    def from_bytes(cls, name: str, data: bytes, **kwargs) -> "BpfProgram":
        return cls(name, Instruction.decode_stream(data), **kwargs)

    def copy(self, insns: Optional[Sequence[Instruction]] = None) -> "BpfProgram":
        """A shallow copy, optionally with a replacement instruction list."""
        return BpfProgram(
            name=self.name,
            insns=list(self.insns if insns is None else insns),
            prog_type=self.prog_type,
            maps=dict(self.maps),
            mcpu=self.mcpu,
            ctx_size=self.ctx_size,
        )

    # --- slot <-> index mapping ------------------------------------------
    def slot_offsets(self) -> List[int]:
        """Slot offset of each logical instruction."""
        offsets, slot = [], 0
        for insn in self.insns:
            offsets.append(slot)
            slot += op.SLOTS[insn.opcode]
        return offsets

    def __str__(self) -> str:  # pragma: no cover - convenience
        from .disassembler import disassemble

        return disassemble(self.insns)


def total_ni(programs: Iterable[BpfProgram]) -> int:
    """Summed NI across a collection of programs."""
    return sum(program.ni for program in programs)
