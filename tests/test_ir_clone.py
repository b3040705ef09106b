"""``ir.clone_function`` against the textual round trip it replaced.

``MerlinPipeline.compile`` used to copy its input with
``parse_function(print_function(func))``.  The clone must give exactly
that: the same printed text, the same class and field values for every
instruction, operands and use lists equal position by position (with a
fresh constant, ``undef`` or ``@map`` symbol per operand), and the same
name counter and taken names.  The corpus is the output digest test's
(the 19 XDP programs, the largest suite programs at scale 0.2 and the
source fuzz programs of seeds 0-99), each function as the frontend
emits it and after the IR passes, plus hand-written functions for the
parser's use-list order.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro import ir
from repro.core import MerlinPipeline
from repro.frontend import compile_source
from repro.ir import BasicBlock, Value, clone_function, parse_function, \
    print_function

from tests.test_ir_parser import forward_gep_function
from tests.test_output_digest import _cases


def _reachable(func: ir.Function) -> List[object]:
    """Every object the function is made of: arguments, blocks,
    instructions and their operands."""
    objects: List[object] = [*func.args, *func.blocks]
    for insn in func.instructions():
        objects.append(insn)
        objects.extend(insn.operands)
    return objects


def shape(func: ir.Function):
    """*func* as plain data, with every value named by its position:
    an argument by its index, an instruction by its block and index,
    any other operand by its kind, fields and the slot where it first
    appears (so shared and fresh operands read differently)."""
    where: Dict[int, tuple] = {}
    for index, arg in enumerate(func.args):
        where[id(arg)] = ("arg", index)
    block_index = {id(block): i for i, block in enumerate(func.blocks)}
    for b, block in enumerate(func.blocks):
        for i, insn in enumerate(block.instructions):
            where[id(insn)] = ("insn", b, i)
    slot = 0

    def ref(value: Value) -> tuple:
        nonlocal slot
        found = where.get(id(value))
        if found is None:
            found = where[id(value)] = (
                type(value).__name__, slot, value.type,
                getattr(value, "value", None), value.name)
        slot += 1
        return found

    def fields(insn: ir.IRInstruction) -> dict:
        out = {}
        for key, field in vars(insn).items():
            if key in ("operands", "uses", "parent"):
                continue
            if isinstance(field, BasicBlock):
                field = ("block", block_index[id(field)])
            elif key == "incoming_blocks":
                field = [block_index[id(block)] for block in field]
            out[key] = field
        return out

    values = []
    for insn in func.instructions():
        values.append((type(insn).__name__, fields(insn),
                       [ref(operand) for operand in insn.operands]))
    # use lists, read after every operand has its name; a user outside
    # the function reads as foreign
    uses = []
    seen = set()
    for value in [*func.args, *func.instructions(),
                  *(o for i in func.instructions() for o in i.operands)]:
        if id(value) not in seen:
            seen.add(id(value))
            uses.append((where[id(value)],
                         [where.get(id(user), "foreign")
                          for user in value.uses]))
    return {
        "text": print_function(func),
        "function": (func.name, func.return_type,
                     [(a.name, a.type, a.index) for a in func.args]),
        "blocks": [(block.name, block.parent is func)
                   for block in func.blocks],
        "block_names": sorted(func._block_names),
        "values": values,
        "uses": uses,
        "name_counter": func._name_counter,
        "taken": dict(func._taken),
    }


def assert_clone_is_round_trip(func: ir.Function) -> None:
    clone = clone_function(func)
    assert shape(clone) == shape(parse_function(print_function(func)))
    original = {id(o) for o in _reachable(func)}
    assert not any(id(o) in original for o in _reachable(clone))


@pytest.fixture(scope="module")
def corpus():
    """Each digest-corpus function as the frontend emits it, and a copy
    of it after the IR passes."""
    pipeline = MerlinPipeline()
    functions = []
    for name, source, entry, *_ in _cases():
        module = compile_source(source, name)
        func = module.get(entry)
        optimized = parse_function(print_function(func))
        pipeline.optimize_ir(optimized, module)
        functions += [(name, func), (f"{name} (IR passes)", optimized)]
    return functions


def test_clone_equals_round_trip_over_the_digest_corpus(corpus):
    assert len(corpus) == 250
    for name, func in corpus:
        try:
            assert_clone_is_round_trip(func)
        except AssertionError:
            pytest.fail(f"{name}: clone differs from the round trip")


USE_BEFORE_DEF = """
define i64 @f(i64 %a) {
entry:
  br label %def
use:
  %u = add i64 %d, %d
  %w = add i64 %d, 1
  ret i64 %u
def:
  %d = add i64 %a, 1
  %x = add i64 %d, 2
  br label %use
}
"""

LATER_PHI_INCOMING = """
define i64 @f(i64 %a) {
entry:
  %x = add i64 %a, 1
  br label %head
head:
  %p = phi i64 [ %x, %entry ], [ %n, %body ]
  %c = icmp ult i64 %p, 10
  br i1 %c, label %body, label %exit
body:
  %n = add i64 %p, %x
  %m = mul i64 %n, 2
  br label %head
exit:
  ret i64 %p
}
"""

UNDEF_AND_MAP = """
define i64 @f(i8* %ctx) {
entry:
  %k = alloca i64, align 8
  store i64 undef, i64* %k, align 8
  %v = call i64 @bpf_map_lookup_elem(i8* @counts, i64* %k)
  %c = icmp eq i64 %v, 0
  br i1 %c, label %miss, label %hit
miss:
  br label %hit
hit:
  %r = phi i64 [ undef, %miss ], [ %v, %entry ]
  %s = call i64 @bpf_map_update_elem(i8* @counts, i64* %k, i64 %r)
  ret i64 %r
}
"""


def _users(value: Value) -> List[str]:
    return [user.name or type(user).__name__ for user in value.uses]


def _value(func: ir.Function, name: str) -> Value:
    return next(i for i in func.instructions() if i.name == name)


def _shuffled(text: str) -> ir.Function:
    """*text* parsed, with every use list reversed: the clone must
    rebuild the parser's order, not copy the input's."""
    func = parse_function(text)
    for value in [*func.args, *func.instructions()]:
        value.uses.reverse()
    return func


def test_use_before_textual_definition():
    """Users after the definition come first, one entry per operand;
    users before it (a forward reference) follow, one entry each."""
    func = _shuffled(USE_BEFORE_DEF)
    assert_clone_is_round_trip(func)
    assert _users(_value(clone_function(func), "d")) == ["x", "u", "w"]


def test_gep_base_defined_in_a_later_block():
    """A forward reference through a gep's base, which the text gives
    without its type, orders its users like any other."""
    func = forward_gep_function()
    assert_clone_is_round_trip(func)
    assert _users(clone_function(func).blocks[2].instructions[0]) == ["2"]


def test_phi_incoming_defined_in_a_later_block():
    """Phi edges are added after everything else, so a phi's use of a
    value comes after every other use, wherever the phi is."""
    func = _shuffled(LATER_PHI_INCOMING)
    assert_clone_is_round_trip(func)
    clone = clone_function(func)
    assert _users(_value(clone, "x")) == ["n", "p"]
    assert _users(_value(clone, "n")) == ["m", "p"]
    assert _users(_value(clone, "p")) == ["c", "n", "Ret"]


def test_undef_and_map_operands_are_fresh_per_operand():
    func = _shuffled(UNDEF_AND_MAP)
    assert_clone_is_round_trip(func)
    clone = clone_function(func)
    symbols = [op for i in clone.instructions() for op in i.operands
               if isinstance(op, ir.GlobalSymbol)]
    undefs = [op for i in clone.instructions() for op in i.operands
              if isinstance(op, ir.UndefValue)]
    assert [s.name for s in symbols] == ["counts", "counts"]
    assert symbols[0] is not symbols[1]
    assert len(undefs) == 2 and undefs[0] is not undefs[1]
    assert all(s.type == ir.pointer(ir.I8) for s in symbols)


def test_names_follow_the_text():
    """The counter restarts at zero, and a void instruction loses its
    name (the text has none), as in the parser."""
    func = parse_function(USE_BEFORE_DEF)
    branch = next(i for i in func.instructions() if i.type.is_void)
    branch.name = "void"
    func.take_name("void")
    func.next_name()
    assert_clone_is_round_trip(func)
    clone = clone_function(func)
    assert clone._name_counter == 0
    assert "void" not in clone._taken


def test_clone_leaves_its_input_as_it_was():
    """What the clone reads of its input, use lists included, is as it
    was (``MerlinPipeline.compile``'s purity test checks the whole
    compile over the XDP set)."""
    func = _shuffled(LATER_PHI_INCOMING)
    before = shape(func)
    clone_function(func)
    assert shape(func) == before
