"""eBPF opcode constants and tables.

Follows the kernel's instruction-set specification
(Documentation/bpf/standardization/instruction-set.rst).  Every eBPF
instruction is 8 bytes::

    byte 0   : opcode
    byte 1   : dst_reg (low nibble) | src_reg (high nibble)
    bytes 2-3: signed 16-bit offset
    bytes 4-7: signed 32-bit immediate

The only exception is ``ld_imm64`` (opcode 0x18), which occupies two
consecutive 8-byte slots; the second slot carries the upper 32 bits of
the immediate in its imm field.
"""

from __future__ import annotations

# --- instruction classes (low 3 bits of opcode) -------------------------
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04  # 32-bit ALU ("ALU32")
BPF_JMP = 0x05
BPF_JMP32 = 0x06
BPF_ALU64 = 0x07

CLASS_MASK = 0x07

# --- size field for load/store (bits 3-4) --------------------------------
BPF_W = 0x00  # 4 bytes
BPF_H = 0x08  # 2 bytes
BPF_B = 0x10  # 1 byte
BPF_DW = 0x18  # 8 bytes

SIZE_MASK = 0x18

#: opcode size field -> access width in bytes
SIZE_BYTES = {BPF_W: 4, BPF_H: 2, BPF_B: 1, BPF_DW: 8}
#: access width in bytes -> opcode size field
BYTES_SIZE = {v: k for k, v in SIZE_BYTES.items()}

# --- mode field for load/store (bits 5-7) --------------------------------
BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_ATOMIC = 0xC0

MODE_MASK = 0xE0

# --- source operand flag for ALU/JMP (bit 3) -----------------------------
BPF_K = 0x00  # use the 32-bit immediate
BPF_X = 0x08  # use src_reg

SRC_MASK = 0x08

# --- ALU operations (bits 4-7) --------------------------------------------
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0
BPF_MOV = 0xB0
BPF_ARSH = 0xC0
BPF_END = 0xD0

ALU_OP_MASK = 0xF0

ALU_OP_NAMES = {
    BPF_ADD: "add",
    BPF_SUB: "sub",
    BPF_MUL: "mul",
    BPF_DIV: "div",
    BPF_OR: "or",
    BPF_AND: "and",
    BPF_LSH: "lsh",
    BPF_RSH: "rsh",
    BPF_NEG: "neg",
    BPF_MOD: "mod",
    BPF_XOR: "xor",
    BPF_MOV: "mov",
    BPF_ARSH: "arsh",
    BPF_END: "end",
}
ALU_OP_BY_NAME = {v: k for k, v in ALU_OP_NAMES.items()}

# --- JMP operations (bits 4-7) ---------------------------------------------
BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40
BPF_JNE = 0x50
BPF_JSGT = 0x60
BPF_JSGE = 0x70
BPF_CALL = 0x80
BPF_EXIT = 0x90
BPF_JLT = 0xA0
BPF_JLE = 0xB0
BPF_JSLT = 0xC0
BPF_JSLE = 0xD0

JMP_OP_MASK = 0xF0

JMP_OP_NAMES = {
    BPF_JA: "ja",
    BPF_JEQ: "jeq",
    BPF_JGT: "jgt",
    BPF_JGE: "jge",
    BPF_JSET: "jset",
    BPF_JNE: "jne",
    BPF_JSGT: "jsgt",
    BPF_JSGE: "jsge",
    BPF_CALL: "call",
    BPF_EXIT: "exit",
    BPF_JLT: "jlt",
    BPF_JLE: "jle",
    BPF_JSLT: "jslt",
    BPF_JSLE: "jsle",
}
JMP_OP_BY_NAME = {v: k for k, v in JMP_OP_NAMES.items()}

# --- atomic op encodings (in the imm field of a BPF_ATOMIC instruction) ---
BPF_ATOMIC_ADD = BPF_ADD
BPF_ATOMIC_OR = BPF_OR
BPF_ATOMIC_AND = BPF_AND
BPF_ATOMIC_XOR = BPF_XOR
BPF_FETCH = 0x01
BPF_XCHG = 0xE0 | BPF_FETCH
BPF_CMPXCHG = 0xF0 | BPF_FETCH

#: the atomic operations (``imm & ~BPF_FETCH``) that combine memory
#: with src as the ALU operation of the same code does
ATOMIC_ALU_OPS = (BPF_ATOMIC_ADD, BPF_ATOMIC_OR, BPF_ATOMIC_AND,
                  BPF_ATOMIC_XOR)

ATOMIC_OP_NAMES = {
    BPF_ATOMIC_ADD: "add",
    BPF_ATOMIC_OR: "or",
    BPF_ATOMIC_AND: "and",
    BPF_ATOMIC_XOR: "xor",
    BPF_ATOMIC_ADD | BPF_FETCH: "add_fetch",
    BPF_ATOMIC_OR | BPF_FETCH: "or_fetch",
    BPF_ATOMIC_AND | BPF_FETCH: "and_fetch",
    BPF_ATOMIC_XOR | BPF_FETCH: "xor_fetch",
    BPF_XCHG: "xchg",
    BPF_CMPXCHG: "cmpxchg",
}

# --- registers -------------------------------------------------------------
NUM_REGS = 11  # r0..r10
R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10 = range(11)
FP = R10  # read-only frame pointer
CALLER_SAVED = (R0, R1, R2, R3, R4, R5)
CALLEE_SAVED = (R6, R7, R8, R9)
ARG_REGS = (R1, R2, R3, R4, R5)

STACK_SIZE = 512  # bytes of stack below r10


# --- per-opcode tables --------------------------------------------------------
# Everything an instruction's classification depends on is its opcode
# byte, so it is decoded once here for all 256 values and
# ``Instruction``'s properties read these tuples by index.

#: how an instruction reads registers (``Instruction.uses``)
USE_NONE, USE_DST, USE_SRC, USE_DST_SRC, USE_ATOMIC, USE_ARGS, USE_R0 = range(7)
#: how an instruction writes registers (``Instruction.defs``)
DEF_NONE, DEF_DST, DEF_CALL, DEF_ATOMIC = range(4)

_LD_IMM64 = BPF_LD | BPF_IMM | BPF_DW


def _decode(opcode: int) -> tuple:
    """Every table's entry for one opcode byte, in the order the tables
    are unpacked below."""
    cls = opcode & CLASS_MASK
    code = opcode & ALU_OP_MASK
    alu = cls in (BPF_ALU, BPF_ALU64)
    jump = cls in (BPF_JMP, BPF_JMP32)
    ld_imm64 = opcode == _LD_IMM64
    call = cls == BPF_JMP and code == BPF_CALL
    exit_ = cls == BPF_JMP and code == BPF_EXIT
    load = cls in (BPF_LD, BPF_LDX) and not ld_imm64
    store = cls in (BPF_ST, BPF_STX)
    atomic = cls == BPF_STX and (opcode & MODE_MASK) == BPF_ATOMIC
    uses_imm = (opcode & SRC_MASK) == BPF_K if alu or jump else True
    if ld_imm64:
        use = USE_NONE
    elif alu:
        if code in (BPF_NEG, BPF_END):
            use = USE_DST
        elif code == BPF_MOV:
            use = USE_NONE if uses_imm else USE_SRC
        else:
            use = USE_DST if uses_imm else USE_DST_SRC
    elif load:
        use = USE_SRC
    elif atomic:
        use = USE_ATOMIC
    elif store:
        use = USE_DST if cls == BPF_ST else USE_DST_SRC
    elif call:
        use = USE_ARGS
    elif exit_:
        use = USE_R0
    elif jump:
        if code == BPF_JA:
            use = USE_NONE
        else:
            use = USE_DST if uses_imm else USE_DST_SRC
    else:
        use = USE_NONE
    if alu or ld_imm64 or load:
        define = DEF_DST
    elif call:
        define = DEF_CALL
    elif atomic:
        define = DEF_ATOMIC
    else:
        define = DEF_NONE
    width = SIZE_BYTES[opcode & SIZE_MASK] if load or store or ld_imm64 else 0
    return (cls, code, alu, cls == BPF_ALU64, cls == BPF_ALU, jump, call,
            exit_, load, store, load or store, atomic, cls == BPF_ST,
            ld_imm64, uses_imm, 2 if ld_imm64 else 1, width, use, define)


(
    INSN_CLASS,  # opcode & CLASS_MASK
    OP_CODE,  # ALU or JMP operation: opcode & 0xF0
    IS_ALU,  # ALU or ALU64 class
    IS_ALU64,
    IS_ALU32,
    IS_JUMP,  # JMP or JMP32 class (includes call and exit)
    IS_CALL,
    IS_EXIT,
    IS_LOAD,  # LD/LDX class except ld_imm64
    IS_STORE,  # ST/STX class (includes atomics)
    IS_MEMORY,
    IS_ATOMIC,
    IS_STORE_IMM,  # ST class
    IS_LD_IMM64,
    USES_IMM,  # the operand is the immediate, not src
    SLOTS,  # 8-byte encoding slots
    ACCESS_BYTES,  # memory access width, 0 when not a memory access
    USE_KIND,
    DEF_KIND,
) = zip(*(_decode(opcode) for opcode in range(256)))
