"""IR textual parser tests, including print/parse roundtrips."""

import pytest

from repro import ir
from repro.ir import (
    IRBuilder,
    IRParseError,
    parse_function,
    parse_type,
    print_function,
    validate_function,
)
from repro.ir import instructions as iri


SIMPLE = """
define i64 @f(i8* %ctx) {
entry:
  %1 = gep i16* %ctx, i64 36
  %2 = load i16, i16* %1, align 1
  %3 = zext i16 %2 to i64
  ret i64 %3
}
"""


def forward_gep_function() -> ir.Function:
    """entry -> def -> use, with the blocks listed entry, use, def: the
    ``gep`` in ``use`` takes as its base a pointer that ``def``, printed
    after it, defines."""
    func = ir.Function("f", ir.I64, [ir.pointer(ir.I8)], ["ctx"])
    entry, use, define = (func.add_block(name)
                          for name in ("entry", "use", "def"))
    builder = IRBuilder(entry)
    builder.br(define)
    builder.position_at_end(define)
    base = builder.gep_const(func.args[0], 4, ir.I32)
    builder.br(use)
    builder.position_at_end(use)
    field = builder.gep_const(base, 2, ir.I16)
    builder.ret(builder.zext(builder.load(field), ir.I64))
    validate_function(func)
    return func


class TestParseType:
    def test_ints(self):
        assert parse_type("i64") is ir.I64
        assert parse_type("i8") is ir.I8

    def test_pointers(self):
        assert parse_type("i32*") == ir.pointer(ir.I32)
        assert parse_type("i8**") == ir.pointer(ir.pointer(ir.I8))

    def test_void(self):
        assert parse_type("void").is_void

    def test_bad(self):
        with pytest.raises(ValueError):
            parse_type("f64")


class TestParseFunction:
    def test_simple(self):
        func = parse_function(SIMPLE)
        validate_function(func)
        assert func.name == "f"
        assert func.return_type == ir.I64
        assert len(func.entry.instructions) == 4
        load = func.entry.instructions[1]
        assert isinstance(load, iri.Load)
        assert load.align == 1

    def test_control_flow_and_phi(self):
        func = parse_function("""
define i64 @g(i64 %x) {
entry:
  %1 = icmp ugt i64 %x, 10
  br i1 %1, label %big, label %small
big:
  %2 = add i64 %x, 1
  br label %join
small:
  %3 = add i64 %x, 2
  br label %join
join:
  %4 = phi i64 [ %2, %big ], [ %3, %small ]
  ret i64 %4
}
""")
        validate_function(func)
        assert len(func.blocks) == 4
        phi = func.blocks[-1].phis()[0]
        assert len(phi.incoming()) == 2

    def test_store_and_atomicrmw(self):
        func = parse_function("""
define void @h(i64* %p) {
entry:
  store i64 7, i64* %p, align 8
  %1 = atomicrmw add ptr %p, i64 3 monotonic, align 8
  ret void
}
""")
        validate_function(func)
        rmw = func.entry.instructions[1]
        assert isinstance(rmw, iri.AtomicRMW)
        assert rmw.rmw_op == "add" and rmw.align == 8

    def test_alloca_and_call(self):
        func = parse_function("""
define i64 @k() {
entry:
  %1 = alloca i64, align 8
  store i64 0, i64* %1, align 8
  %2 = call i64 @ktime_get_ns()
  %3 = load i64, i64* %1, align 8
  %4 = add i64 %2, %3
  ret i64 %4
}
""")
        validate_function(func)
        call = func.entry.instructions[2]
        assert isinstance(call, iri.Call)
        assert call.callee == "ktime_get_ns"

    def test_intra_block_use_before_def_fails_validation(self):
        """The parser accepts any textual order (forward references are
        legal SSA when dominance holds); *dominance* is the structural
        validator's job."""
        func = parse_function("""
define i64 @bad() {
entry:
  %1 = add i64 %2, 1
  %2 = add i64 1, 1
  ret i64 %1
}
""")
        with pytest.raises(Exception, match="before its definition"):
            validate_function(func)

    def test_forward_reference_across_blocks(self):
        """Branch folding can leave a dominating block printed *after*
        its use site (layout order != dominance order); the printed IR
        must still re-parse — the regression behind fuzz seeds 72/93/174
        on the certificate axis."""
        func = parse_function("""
define i64 @f() {
entry:
  br label %later
use:
  %2 = add i64 %1, 1
  ret i64 %2
later:
  %1 = add i64 40, 1
  br label %use
}
""")
        validate_function(func)
        add = func.blocks[1].instructions[0]
        assert isinstance(add, iri.BinaryOp)
        # the operand is the real defining instruction, not a placeholder
        assert add.operands[0] is func.blocks[2].instructions[0]
        # and the function round-trips
        assert print_function(parse_function(print_function(func))) == \
            print_function(func)

    def test_forward_gep_base(self):
        """The text names a gep's result type, not its base's, so a base
        defined in a block printed later resolves to the pointer its
        definition has."""
        text = print_function(forward_gep_function())
        assert "gep i16* %1, i64 2" in text
        func = parse_function(text)
        validate_function(func)
        gep = func.blocks[1].instructions[0]
        assert gep.ptr is func.blocks[2].instructions[0]
        assert gep.ptr.type == ir.pointer(ir.I32)
        assert print_function(func) == text

    def test_forward_gep_base_must_be_a_pointer(self):
        with pytest.raises(IRParseError, match="used as a pointer"):
            parse_function("""
define i64 @bad() {
entry:
  br label %later
use:
  %2 = gep i8* %1, i64 1
  ret i64 0
later:
  %1 = add i64 40, 1
  br label %use
}
""")

    def test_undefined_forward_reference_rejected(self):
        with pytest.raises(IRParseError, match="undefined value %nope"):
            parse_function("""
define i64 @bad() {
entry:
  %1 = add i64 %nope, 1
  ret i64 %1
}
""")

    def test_type_mismatched_forward_reference_rejected(self):
        with pytest.raises(IRParseError, match="used as i64"):
            parse_function("""
define i64 @bad() {
entry:
  br label %later
use:
  %2 = add i64 %1, 1
  ret i64 %2
later:
  %1 = icmp eq i64 1, 1
  br label %use
}
""")

    def test_unknown_instruction_rejected(self):
        with pytest.raises(IRParseError):
            parse_function("""
define i64 @bad() {
entry:
  %1 = frobnicate i64 1, 2
  ret i64 %1
}
""")


class TestRoundtrip:
    def _roundtrip(self, func):
        func.renumber()
        text = print_function(func)
        again = parse_function(text)
        validate_function(again)
        assert print_function(again) == text

    def test_simple_roundtrip(self):
        self._roundtrip(parse_function(SIMPLE))

    def test_frontend_output_roundtrips(self):
        from repro.frontend import compile_source

        module = compile_source("""
map array m(u32, u64, 4);

u64 f(u8* ctx) {
    u64 total = 0;
    for (u64 i = 0; i < 8; i += 1) {
        total += *(u8*)(ctx + i);
    }
    u32 key = 0;
    u64* v = map_lookup(m, &key);
    if (v != 0) { *v += total; }
    return total;
}
""")
        self._roundtrip(module.get("f"))

    def test_parsed_function_compiles_and_runs(self):
        from repro.codegen import compile_function
        from repro.isa import ProgramType
        from repro.vm import Machine

        func = parse_function(SIMPLE)
        program = compile_function(func, prog_type=ProgramType.TRACEPOINT,
                                   ctx_size=64)
        ctx = bytes(36) + (0xBEEF).to_bytes(2, "little") + bytes(26)
        assert Machine(program).run(ctx=ctx).return_value == 0xBEEF
