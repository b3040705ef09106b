"""IR core tests: types, values, instructions, builder, validator."""

import pytest

from repro import ir
from repro.ir import (
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
    ArrayType,
    Constant,
    Function,
    IRBuilder,
    IRValidationError,
    IntType,
    Module,
    PointerType,
    instructions as iri,
    int_type,
    make_struct,
    natural_alignment,
    pointer,
    print_function,
    validate_function,
)


class TestTypes:
    def test_sizes(self):
        assert I8.size_bytes == 1
        assert I16.size_bytes == 2
        assert I32.size_bytes == 4
        assert I64.size_bytes == 8
        assert pointer(I8).size_bytes == 8
        assert VOID.size_bytes == 0

    def test_masks(self):
        assert I8.mask == 0xFF
        assert I32.mask == 0xFFFFFFFF

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            IntType(24)

    def test_int_type_lookup(self):
        assert int_type(32) is I32

    def test_array_type(self):
        arr = ArrayType(I32, 10)
        assert arr.size_bytes == 40
        assert natural_alignment(arr) == 4

    def test_struct_layout_with_padding(self):
        s = make_struct("demo", [("a", I8), ("b", I64), ("c", I16)])
        assert s.field("a").offset == 0
        assert s.field("b").offset == 8  # padded for alignment
        assert s.field("c").offset == 16
        assert s.size_bytes == 24

    def test_packed_struct_layout(self):
        s = make_struct("packed", [("a", I8), ("b", I64)], packed=True)
        assert s.field("b").offset == 1

    def test_struct_unknown_field(self):
        s = make_struct("demo", [("a", I8)])
        with pytest.raises(KeyError):
            s.field("missing")

    def test_natural_alignment(self):
        assert natural_alignment(I64) == 8
        assert natural_alignment(pointer(I8)) == 8
        assert natural_alignment(I16) == 2


class TestConstants:
    def test_wrapping(self):
        assert Constant(I8, 256).value == 0
        assert Constant(I8, -1).value == 255

    def test_signed_view(self):
        assert Constant(I32, 0xFFFFFFFF).signed == -1
        assert Constant(I32, 5).signed == 5

    def test_equality_and_hash(self):
        assert Constant(I32, 5) == Constant(I32, 5)
        assert Constant(I32, 5) != Constant(I64, 5)
        assert hash(Constant(I32, 5)) == hash(Constant(I32, 5))


def _simple_function():
    func = Function("f", I64, [pointer(I8)], ["ctx"])
    block = func.add_block("entry")
    builder = IRBuilder(block)
    return func, builder


class TestBuilderAndUses:
    def test_use_lists_track_operands(self):
        func, b = _simple_function()
        x = b.add(b.i64(1), b.i64(2))
        y = b.add(x, b.i64(3))
        b.ret(y)
        assert y in x.uses

    def test_rauw(self):
        func, b = _simple_function()
        x = b.add(b.i64(1), b.i64(2))
        y = b.add(x, x)
        replacement = b.i64(9)
        x.replace_all_uses_with(replacement)
        assert y.operands == [replacement, replacement]
        assert x.uses == []

    def test_erase_detaches(self):
        func, b = _simple_function()
        x = b.add(b.i64(1), b.i64(2))
        y = b.mul(x, b.i64(2))
        b.ret(y)
        y.replace_all_uses_with(x)
        y.erase()
        assert y not in x.uses
        assert y.parent is None

    def test_terminated_block_rejects_append(self):
        func, b = _simple_function()
        b.ret(b.i64(0))
        with pytest.raises(ValueError):
            b.add(b.i64(1), b.i64(1))

    def test_binop_type_mismatch_rejected(self):
        func, b = _simple_function()
        with pytest.raises(TypeError):
            b.add(b.i64(1), b.i32(1))

    def test_store_type_mismatch_rejected(self):
        func, b = _simple_function()
        slot = b.alloca(I64)
        with pytest.raises(TypeError):
            b.store(b.i32(1), slot)

    def test_load_requires_pointer(self):
        func, b = _simple_function()
        with pytest.raises(TypeError):
            b.load(b.i64(0))

    def test_atomicrmw_type_checks(self):
        func, b = _simple_function()
        slot = b.alloca(I64)
        rmw = b.atomic_rmw("add", slot, b.i64(1))
        assert rmw.type == I64
        with pytest.raises(TypeError):
            b.atomic_rmw("add", slot, b.i32(1))

    def test_phi_incoming(self):
        func = Function("g", I64)
        a = func.add_block("a")
        c = func.add_block("c")
        b_ = func.add_block("b")
        builder = IRBuilder(a)
        va = builder.i64(1)
        builder.br(c)
        builder.position_at_end(b_)
        builder.br(c)
        builder.position_at_end(c)
        phi = builder.phi(I64)
        phi.add_incoming(va, a)
        phi.add_incoming(builder.i64(2), b_)
        builder.ret(phi)
        assert phi.incoming_for(a) is va

    def test_block_name_uniquified(self):
        func = Function("g", I64)
        b1 = func.add_block("loop")
        b2 = func.add_block("loop")
        assert b1.name != b2.name

    def test_block_names_match_a_probe_from_one(self):
        """``add_block`` keeps a suffix per base name; its names must be
        the first free of ``name``, ``name1``, ``name2``, ... as a probe
        from 1 finds, after any mix of adds, direct appends and
        removals."""
        import random

        def reference(names, name):
            if name not in names:
                return name
            counter = 1
            while f"{name}{counter}" in names:
                counter += 1
            return f"{name}{counter}"

        rng = random.Random(7)
        func = Function("g", I64)
        for _ in range(3000):
            names = {block.name for block in func.blocks}
            roll = rng.random()
            if roll < 0.6:
                base = rng.choice(["x", "x1", "if.then", "bb0", "y"])
                expected = reference(names, base)
                assert func.add_block(base).name == expected
            elif roll < 0.7:
                name = rng.choice(["x", "x1", "y"]) + str(rng.randrange(30))
                if name not in names:
                    func.append_block(ir.BasicBlock(name, func))
            elif func.blocks:
                func.remove_block(rng.choice(func.blocks))
        assert len(func.blocks) > 100

    def test_predecessors(self):
        func, b = _simple_function()
        exit_blk = func.add_block("exit")
        b.br(exit_blk)
        preds = func.predecessors()
        assert preds[exit_blk] == [func.entry]


class TestFoldAddress:
    """``ir.fold_address``: constant-offset geps and bitcasts fold into
    ``(base, byte offset)``; any other value is the base."""

    def test_negative_offsets_add_up(self):
        func, b = _simple_function()
        ctx = func.args[0]
        inner = b.gep_const(ctx, 16, I8)
        outer = b.gep_const(inner, -24, I64)
        assert ir.fold_address(outer) == (ctx, -8)

    def test_folds_through_a_mid_chain_bitcast(self):
        func, b = _simple_function()
        ctx = func.args[0]
        first = b.gep_const(ctx, 4, I32)
        cast = b.bitcast(first, pointer(I8))
        last = b.gep_const(cast, 2, I16)
        assert ir.fold_address(last) == (ctx, 6)

    def test_variable_offset_gep_is_the_base(self):
        func, b = _simple_function()
        ctx = func.args[0]
        index = b.zext(b.load(ctx, align=1), I64)
        dynamic = b.gep(ctx, index, I8)
        field = b.gep_const(b.bitcast(dynamic, pointer(I8)), 8, I32)
        assert ir.fold_address(field) == (dynamic, 8)
        assert ir.fold_address(dynamic) == (dynamic, 0)


class TestValidator:
    def test_valid_function_passes(self):
        func, b = _simple_function()
        p = b.gep_const(func.args[0], 4, I32)
        v = b.load(p, align=1)
        z = b.zext(v, I64)
        b.ret(z)
        validate_function(func)

    def test_missing_terminator_rejected(self):
        func, b = _simple_function()
        b.add(b.i64(1), b.i64(1))
        with pytest.raises(IRValidationError, match="no terminator"):
            validate_function(func)

    def test_empty_function_rejected(self):
        func = Function("empty", I64)
        with pytest.raises(IRValidationError):
            validate_function(func)

    def test_ret_type_mismatch_rejected(self):
        func, b = _simple_function()
        b.ret(b.i32(0))
        with pytest.raises(IRValidationError, match="ret type"):
            validate_function(func)

    def test_void_ret_with_value_rejected(self):
        func = Function("v", VOID)
        block = func.add_block("entry")
        builder = IRBuilder(block)
        builder.ret(Constant(I64, 1))
        with pytest.raises(IRValidationError):
            validate_function(func)

    def test_use_before_def_rejected(self):
        func, b = _simple_function()
        x = b.add(b.i64(1), b.i64(1))
        y = b.add(x, b.i64(2))
        b.ret(y)
        # move y's definition before x's
        block = func.entry
        block.instructions.remove(y)
        block.instructions.insert(0, y)
        with pytest.raises(IRValidationError):
            validate_function(func)

    def test_phi_with_wrong_preds_rejected(self):
        func = Function("g", I64)
        a = func.add_block("a")
        c = func.add_block("c")
        builder = IRBuilder(a)
        builder.br(c)
        builder.position_at_end(c)
        phi = builder.phi(I64)
        phi.add_incoming(Constant(I64, 1), c)  # wrong: pred is 'a'
        builder.ret(phi)
        with pytest.raises(IRValidationError, match="phi"):
            validate_function(func)


class TestPrinter:
    def test_renders_key_syntax(self):
        func, b = _simple_function()
        p = b.gep_const(func.args[0], 0x24, I16)
        v = b.load(p, align=1)
        slot = b.alloca(I64, align=8)
        b.store(b.i64(1), slot, align=8)
        rmw = b.atomic_rmw("add", slot, b.i64(2))
        z = b.zext(v, I64)
        b.ret(z)
        text = print_function(func)
        assert "load i16, i16*" in text
        assert "align 1" in text
        assert "atomicrmw add" in text
        assert "monotonic, align 8" in text
        assert "zext i16" in text

    def test_module_printing(self):
        module = Module("m")
        func, b = _simple_function()
        b.ret(b.i64(0))
        module.add_function(func)
        from repro.ir import print_module

        assert "define i64 @f" in print_module(module)

    def test_duplicate_function_rejected(self):
        module = Module("m")
        func, b = _simple_function()
        b.ret(b.i64(0))
        module.add_function(func)
        with pytest.raises(ValueError):
            module.add_function(func)
