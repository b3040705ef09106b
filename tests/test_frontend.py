"""Frontend tests: lexer, parser, and semantic end-to-end behaviour.

Semantic tests compile mini-C, run the program in the VM, and check the
returned value — exercising the whole pipeline under each language
feature.
"""

import struct

import pytest

from repro.frontend import (
    CompileError,
    LexError,
    ParseError,
    compile_source,
    parse,
    tokenize,
)
from repro.codegen import compile_function
from repro.ir import validate_module
from repro.isa import ProgramType
from repro.vm import Machine


def run_expr(body: str, ctx: bytes = b"\x00" * 64, optimize: bool = False) -> int:
    """Compile 'u64 f(u8* ctx) { <body> }' and run it."""
    source = f"u64 f(u8* ctx) {{ {body} }}"
    module = compile_source(source)
    validate_module(module)
    if optimize:
        from repro.core import MerlinPipeline

        program, _ = MerlinPipeline().compile(
            module.get("f"), module, prog_type=ProgramType.TRACEPOINT,
            ctx_size=64,
        )
    else:
        program = compile_function(module.get("f"), module,
                                   prog_type=ProgramType.TRACEPOINT,
                                   ctx_size=64)
    return Machine(program).run(ctx=ctx).return_value


class TestLexer:
    def test_tokens(self):
        kinds = [t.kind for t in tokenize("u64 x = 0x10; // hi")]
        assert kinds == ["kw", "name", "punct", "num", "punct", "eof"]

    def test_line_numbers(self):
        tokens = tokenize("a\n\nb")
        assert tokens[0].line == 1
        assert tokens[1].line == 3

    def test_longest_match(self):
        texts = [t.text for t in tokenize("a <<= b << c < d")]
        assert "<<=" in texts and "<<" in texts and "<" in texts

    def test_block_comment(self):
        assert [t.kind for t in tokenize("/* x\ny */ a")][0] == "name"

    def test_bad_char(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestParser:
    def test_precedence(self):
        # 2 + 3 * 4 == 14, not 20
        assert run_expr("return 2 + 3 * 4;") == 14

    def test_parens(self):
        assert run_expr("return (2 + 3) * 4;") == 20

    def test_shift_precedence(self):
        assert run_expr("return 1 << 2 + 1;") == 8

    def test_comparison_result(self):
        assert run_expr("return 3 < 5;") == 1
        assert run_expr("return 5 < 3;") == 0

    def test_unary_minus(self):
        assert run_expr("u64 a = 5; return 0 - (0 - a);") == 5

    def test_sizeof(self):
        assert run_expr("return sizeof(u32) + sizeof(u64*);") == 12

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("u64 f() { return 0 }")

    def test_bad_map_kind(self):
        with pytest.raises(ParseError):
            parse("map treemap m(u32, u32, 4);")

    def test_conditional_expr(self):
        assert run_expr("u64 a = 5; return a > 3 ? 10 : 20;") == 10

    def test_postfix_increment(self):
        assert run_expr("u64 a = 5; a++; return a;") == 6


class TestSemantics:
    def test_arithmetic(self):
        assert run_expr("u64 a = 7; u64 b = 3; return a * b + a / b - a % b;") \
            == 21 + 2 - 1

    def test_bitwise(self):
        assert run_expr("u64 a = 0xf0; u64 b = 0x0f; "
                        "return (a | b) ^ (a & b);") == 0xFF

    def test_u32_wraparound(self):
        assert run_expr("u32 a = 0xffffffff; a = a + 1; return a;") == 0

    def test_u8_truncation(self):
        assert run_expr("u8 a = (u8)300; return a;") == 300 % 256

    def test_if_else(self):
        body = """
        u64 x = 10;
        if (x > 5) { return 1; } else { return 2; }
        """
        assert run_expr(body) == 1

    def test_nested_if(self):
        body = """
        u64 x = 7;
        if (x > 5) { if (x > 8) { return 1; } return 2; }
        return 3;
        """
        assert run_expr(body) == 2

    def test_while_loop(self):
        assert run_expr(
            "u64 i = 0; u64 s = 0; while (i < 10) { s += i; i += 1; } return s;"
        ) == 45

    def test_for_loop(self):
        assert run_expr(
            "u64 s = 0; for (u64 i = 0; i < 5; i += 1) { s += i * i; } return s;"
        ) == 30

    def test_break_continue(self):
        body = """
        u64 s = 0;
        for (u64 i = 0; i < 10; i += 1) {
            if (i == 3) { continue; }
            if (i == 6) { break; }
            s += i;
        }
        return s;
        """
        assert run_expr(body) == 0 + 1 + 2 + 4 + 5

    def test_short_circuit_and(self):
        body = """
        u64 a = 0;
        u64 c = 0;
        if (a != 0 && 10 / a > 1) { c = 1; }
        return c;
        """
        assert run_expr(body) == 0  # no div-by-zero because && shortcuts

    def test_short_circuit_or(self):
        assert run_expr("u64 a = 1; return a == 1 || a == 99;") == 1

    def test_logical_not(self):
        assert run_expr("u64 a = 0; return !a;") == 1

    def test_ctx_loads(self):
        ctx = struct.pack("<QQ", 1234, 5678) + bytes(48)
        assert run_expr("return *(u64*)(ctx + 8);", ctx=ctx) == 5678

    def test_unaligned_u16_read(self):
        ctx = bytes([0, 0, 0, 0x34, 0x12]) + bytes(59)
        assert run_expr("return *(u16*)(ctx + 3);", ctx=ctx) == 0x1234

    def test_local_array_and_pointer(self):
        body = """
        u8 buf[8];
        buf[0] = 42;
        buf[1] = 7;
        return (u64)buf[0] + (u64)buf[1];
        """
        assert run_expr(body) == 49

    def test_address_of_local(self):
        body = """
        u64 x = 5;
        u64* p = &x;
        *p = 9;
        return x;
        """
        assert run_expr(body) == 9

    def test_loop_variable_phi(self):
        # SSA phi construction across a loop with two live variables
        body = """
        u64 a = 1;
        u64 b = 1;
        for (u64 i = 0; i < 10; i += 1) {
            u64 t = a + b;
            a = b;
            b = t;
        }
        return b;
        """
        assert run_expr(body) == 144  # fib(12)

    def test_variable_shadowing_use_before_decl_rejected(self):
        with pytest.raises(CompileError):
            run_expr("return q;")

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(CompileError):
            run_expr("q = 1; return 0;")

    def test_unknown_function_rejected(self):
        with pytest.raises(CompileError):
            run_expr("return frobnicate();")

    def test_return_value_coerced(self):
        assert run_expr("u8 a = 200; return a;") == 200


class TestMaps:
    def test_map_counter(self, counter_source):
        module = compile_source(counter_source)
        program = compile_function(module.get("count"), module,
                                   prog_type=ProgramType.TRACEPOINT,
                                   ctx_size=64)
        machine = Machine(program)
        for _ in range(5):
            machine.run(ctx=b"\x00" * 64)
        value = struct.unpack("<Q", bytes(
            machine.maps["counters"].region.data[:8]))[0]
        assert value == 5

    def test_map_update_and_delete(self):
        source = """
map hash kv(u64, u64, 16);

u64 f(u8* ctx) {
    u64 key = 7;
    u64 val = 99;
    map_update(kv, &key, &val, BPF_ANY);
    u64* got = map_lookup(kv, &key);
    if (got == 0) { return 0; }
    u64 result = *got;
    map_delete(kv, &key);
    u64* gone = map_lookup(kv, &key);
    if (gone != 0) { return 0; }
    return result;
}
"""
        module = compile_source(source)
        program = compile_function(module.get("f"), module,
                                   prog_type=ProgramType.TRACEPOINT,
                                   ctx_size=64)
        assert Machine(program).run(ctx=b"\x00" * 64).return_value == 99

    def test_map_as_nonfirst_argument(self):
        source = """
map percpu_array events(u32, u64, 1);

u64 f(u8* ctx) {
    u8 data[16];
    *(u64*)(data + 0) = 1;
    *(u64*)(data + 8) = 2;
    perf_event_output(ctx, events, 0, data, 16);
    return 0;
}
"""
        module = compile_source(source)
        program = compile_function(module.get("f"), module,
                                   prog_type=ProgramType.TRACEPOINT,
                                   ctx_size=64)
        machine = Machine(program)
        machine.run(ctx=b"\x00" * 64)
        assert machine.helpers.output_bytes == 16


class TestOptimizedSemantics:
    """Every language feature must behave identically under Merlin."""

    CASES = [
        "u64 s = 0; for (u64 i = 0; i < 8; i += 1) { s = s * 3 + i; } return s;",
        "u32 a = 0xdeadbeef; return (a >> 16) & 0xff;",
        "u64 x = *(u32*)(ctx + 5); return x >> 3;",
        "u8 buf[16]; buf[3] = 9; *(u32*)(buf + 4) = 77; "
        "return (u64)buf[3] + *(u32*)(buf + 4);",
        "u64 x = 2; u64 y = x > 1 ? 100 : 200; return y + x;",
    ]

    @pytest.mark.parametrize("body", CASES)
    def test_merlin_preserves_semantics(self, body):
        ctx = bytes(range(64))
        assert run_expr(body, ctx=ctx) == run_expr(body, ctx=ctx,
                                                   optimize=True)


# ------------------------------------------------ long chains of ``if``s
def if_chain(n: int, shape: str) -> str:
    """*n* sequential ``if``s over a u64 loaded from ctx offset 0:
    ``reads`` increments ``y`` in each and then reads ``z``, defined
    before them all; ``writes`` sets ``x`` in each and then reads it."""
    if shape == "reads":
        body = "\n".join(f"    if (c > {i}) {{ y = y + 1; }}"
                         for i in range(n))
        return (f"u64 f(u8* ctx) {{\n    u64 c = *(u64*)(ctx + 0);\n"
                f"    u64 y = 0;\n    u64 z = 7;\n{body}\n"
                f"    return z + y;\n}}")
    body = "\n".join(f"    if (c > {i}) {{ x = {i}; }}" for i in range(n))
    return (f"u64 f(u8* ctx) {{\n    u64 c = *(u64*)(ctx + 0);\n"
            f"    u64 x = 0;\n{body}\n    return x;\n}}")


class TestLongIfChains:
    """A read after thousands of ``if``s resolves on explicit stacks,
    in steps linear in the chain, building only the phis it keeps."""

    @pytest.mark.parametrize("shape", ["reads", "writes"])
    def test_a_thousand_ifs_compile(self, shape):
        module = compile_source(if_chain(1000, shape))
        validate_module(module)
        phis = [i for i in module.get("f").instructions()
                if i.opcode == "phi"]
        assert len(phis) == 1000

    @pytest.mark.parametrize("shape", ["reads", "writes"])
    def test_ssa_steps_grow_linearly(self, monkeypatch, shape):
        from repro.frontend import codegen

        built = []

        class Counting(codegen._SSA):
            def __init__(self, func):
                super().__init__(func)
                built.append(self)

        monkeypatch.setattr(codegen, "_SSA", Counting)
        steps = {}
        for n in (250, 500):
            built.clear()
            compile_source(if_chain(n, shape))
            steps[n] = sum(ssa.steps for ssa in built)
        assert steps[500] <= 2.2 * steps[250], steps


def test_phi_construction_count(monkeypatch):
    """Phis built and kept over the 19 XDP programs and the first 20 by
    name of each suite at scale 0.05.  Braun's place-then-erase built
    2,682 and kept 526 (1,814 and 352 on programs without loops)."""
    from repro.ir import instructions as iri
    from repro.workloads.suites import generate_suite
    from repro.workloads.xdp import ALL_XDP

    built = [0]
    real_init = iri.Phi.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(iri.Phi, "__init__", counting)
    sources = [(w.name, w.source) for w in ALL_XDP]
    for suite in ("sysdig", "tetragon", "tracee"):
        programs = sorted(generate_suite(suite, scale=0.05),
                          key=lambda p: p.name)[:20]
        sources += [(p.name, p.source) for p in programs]
    totals = {False: [0, 0], True: [0, 0]}  # loops? -> [built, kept]
    for name, source in sources:
        before = built[0]
        module = compile_source(source, name)
        blocks = [b for func in module for b in func.blocks]
        loops = any(b.name.startswith(("while.", "for.")) for b in blocks)
        totals[loops][0] += built[0] - before
        totals[loops][1] += sum(i.opcode == "phi" for b in blocks
                                for i in b.instructions)
    assert len(sources) == 79
    assert totals[False] == [352, 352]
    assert totals[True] == [268, 174]
