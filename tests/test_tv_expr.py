"""Unit tests for the translation validator's expression domain."""

import pytest

from repro.isa import assemble
from repro.tv.expr import (
    Const,
    Op,
    Sym,
    const,
    evaluate,
    expr_tnum,
    mkop,
    normalize_deep,
    prove_equal,
    sample_envs,
    support_masks,
    symbols_of,
    tnum_decide,
)
from repro.tv.state import run_region

pytestmark = pytest.mark.tv

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1
X = Sym(("r", 1))
Y = Sym(("r", 2))


class TestEvaluate:
    def test_div_by_zero_is_zero(self):
        assert evaluate(mkop("div", 64, Const(9), Const(0)), {}) == 0

    def test_mod_by_zero_keeps_value(self):
        assert evaluate(mkop("mod", 64, Const(9), Const(0)), {}) == 9

    def test_shift_amount_mod_width(self):
        assert evaluate(mkop("lsh", 32, Const(1), Const(33)), {}) == 2
        assert evaluate(mkop("lsh", 64, Const(1), Const(65)), {}) == 2

    def test_alu32_zero_extends(self):
        # 32-bit add wraps at 2**32 and clears the upper half
        got = evaluate(mkop("add", 32, X, Const(1)), {X: U64})
        assert got == 0

    def test_arsh_is_signed(self):
        got = evaluate(mkop("arsh", 64, Const(1 << 63), Const(63)), {})
        assert got == U64

    def test_sub_wraps(self):
        assert evaluate(mkop("sub", 64, Const(0), Const(1)), {}) == U64

    def test_env_lookup(self):
        assert evaluate(mkop("xor", 64, X, Y), {X: 0xFF, Y: 0x0F}) == 0xF0

    def test_bswap64_keeps_the_high_half(self):
        """The term ``run_region`` builds for ``be64``/``le64`` reads
        what the VM returns (``tests/test_vm.py``)."""
        env = {Sym(("r", 0)): 0x1122334455667788}
        for asm, want in (("r0 = be64 r0", 0x8877665544332211),
                          ("r0 = le64 r0", 0x1122334455667788)):
            term = run_region(assemble(asm)).regs[0]
            assert evaluate(term, env) == want

    def test_end_encodings_read_as_the_vm_runs_them(self):
        """0xd7 (64-bit class) swaps unconditionally; where the VM
        faults (0xdf, a width other than 16, 32 or 64), TV gives up."""
        from repro.isa import Instruction
        from repro.tv.state import Unsupported

        env = {Sym(("r", 0)): 0x1234}
        term = run_region([Instruction(0xd7, dst=0, imm=16)]).regs[0]
        assert evaluate(term, env) == 0x3412
        for opcode, imm in ((0xdf, 16), (0xdc, 12), (0xd4, 24), (0xd7, 8)):
            with pytest.raises(Unsupported, match="reserved END"):
                run_region([Instruction(opcode, dst=0, imm=imm)])


class TestNormalize:
    def test_const_folding(self):
        assert mkop("add", 64, Const(2), Const(3)) == Const(5)

    def test_commutative_const_right(self):
        assert mkop("add", 64, Const(3), X) == mkop("add", 64, X, Const(3))

    def test_neutral_element_64(self):
        assert mkop("add", 64, X, Const(0)) == X
        assert mkop("or", 64, X, Const(0)) == X
        assert mkop("and", 64, X, Const(U64)) == X

    def test_no_neutral_element_32(self):
        # x add32 0 truncates x, so it must NOT collapse to x
        assert mkop("add", 32, X, Const(0)) != X

    def test_add_chain_collects_constants(self):
        chained = mkop("add", 64, mkop("add", 64, X, Const(3)), Const(4))
        assert chained == mkop("add", 64, X, Const(7))

    def test_and_chain_merges_masks(self):
        chained = mkop("and", 64, mkop("and", 64, X, Const(0xFF)),
                       Const(0xF0))
        assert chained == mkop("and", 64, X, Const(0xF0))

    def test_zero_extension_idiom(self):
        # shl 32 / shr 32 == and with the low-word mask (the CC rewrite)
        shifts = mkop("rsh", 64, mkop("lsh", 64, X, Const(32)), Const(32))
        assert shifts == mkop("and", 64, X, Const(U32))

    def test_masked_shift_idiom(self):
        # (x & (0xffffffff << k)) >> k == ((x << 32) >> (32 + k)) — the
        # peephole rewrite, for every mask shift k
        for k in (1, 4, 28):
            mask = (U32 << k) & U32
            before = mkop("rsh", 64, mkop("and", 64, X, Const(mask)),
                          Const(k))
            after = mkop("rsh", 64, mkop("lsh", 64, X, Const(32)),
                         Const(32 + k))
            assert normalize_deep(before) == normalize_deep(after), k


class TestProveEqual:
    def test_symbolic_proof(self):
        a = mkop("add", 64, X, Const(5))
        b = mkop("add", 64, Const(5), X)
        assert prove_equal(a, b) == ("proved", "symbolic", None)

    def test_refutation_carries_counterexample(self):
        a = mkop("add", 64, X, Const(1))
        b = mkop("add", 64, X, Const(2))
        status, _method, env = prove_equal(a, b)
        assert status == "refuted"
        assert evaluate(a, env) != evaluate(b, env)

    def test_exhaustive_enumeration_proves(self):
        # narrow support: only 3 bits of X matter on each side, so the
        # enumerator covers the full space and issues a real proof
        a = mkop("mul", 64, mkop("and", 64, X, Const(7)), Const(2))
        b = mkop("lsh", 64, mkop("and", 64, X, Const(7)), Const(1))
        status, method, env = prove_equal(a, b)
        assert status == "proved"
        assert env is None

    def test_exhaustive_enumeration_refutes(self):
        a = mkop("and", 64, X, Const(3))
        b = mkop("and", 64, X, Const(1))
        status, _method, env = prove_equal(a, b)
        assert status == "refuted"
        assert evaluate(a, env) != evaluate(b, env)

    def test_identical_syms(self):
        assert prove_equal(X, X)[0] == "proved"

    def test_different_syms_refuted(self):
        assert prove_equal(X, Y)[0] == "refuted"


class TestSupportMasks:
    def test_and_narrows(self):
        masks = {}
        support_masks(mkop("and", 64, X, Const(0xF)), into=masks)
        assert masks[X] == 0xF

    def test_add_carry_widens_downward_only(self):
        masks = {}
        support_masks(mkop("and", 64, mkop("add", 64, X, Y), Const(0xF0)),
                      into=masks)
        # carries propagate upward: bits 0..7 of the inputs can reach
        # the masked byte, higher bits cannot
        assert masks[X] == 0xFF
        assert masks[Y] == 0xFF

    def test_rsh_shifts_demand(self):
        masks = {}
        support_masks(
            mkop("and", 64, mkop("rsh", 64, X, Const(8)), Const(0xF)),
            into=masks)
        assert masks[X] == 0xF00


class TestTermGrowth:
    def test_op_size_saturates(self):
        from repro.tv.expr import SIZE_CAP, expr_size

        expr = X
        for _ in range(40):  # tree size 2**40, DAG size 41
            expr = Op("add", 64, (expr, expr))
        assert expr_size(expr) == SIZE_CAP

    def test_normalize_deep_is_dag_linear(self):
        # a register folded into itself doubles the *tree* per step; the
        # memoized normalizer must still finish instantly
        expr = mkop("add", 64, X, Const(1))
        for _ in range(60):
            expr = Op("add", 64, (expr, expr))
        assert normalize_deep(expr) is not None

    def test_run_region_caps_term_growth(self):
        from repro.isa import instruction as ins
        from repro.tv.state import Unsupported, run_region

        doubling = [ins.alu64("add", 1, src=1) for _ in range(40)]
        with pytest.raises(Unsupported, match="node cap"):
            run_region(doubling)


class TestTnum:
    def test_tnum_contains_concrete_values(self):
        expr = mkop("add", 64, mkop("and", 64, X, Const(0xFF)), Const(1))
        tn = expr_tnum(expr)
        for env in sample_envs(sorted(symbols_of(expr), key=repr), seed=3):
            assert tn.contains(evaluate(expr, env))

    def test_tnum_decides_disjoint_eq(self):
        # (x|16) can never equal 3: bit 4 is known-set vs known-clear
        cond = Op("jeq", 64, (mkop("or", 64, X, Const(16)), Const(3)))
        assert tnum_decide(cond) is False

    def test_tnum_undecided_returns_none(self):
        cond = Op("jeq", 64, (X, Const(3)))
        assert tnum_decide(cond) is None
