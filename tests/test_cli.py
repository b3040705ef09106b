"""CLI smoke tests."""

import pytest

from repro.cli import main

SOURCE = """
u32 f(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_DROP; }
    u16 proto = *(u16*)(data + 12);
    if (proto == 0x0800) { return XDP_PASS; }
    return XDP_DROP;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def test_compile(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "exit" in out

def test_compile_merlin_smaller(source_file, capsys):
    main(["compile", source_file])
    plain = capsys.readouterr().out
    main(["compile", source_file, "--merlin"])
    merlin = capsys.readouterr().out
    assert len(merlin.splitlines()) <= len(plain.splitlines())


def test_verify_ok(source_file, capsys):
    assert main(["verify", source_file, "--merlin"]) == 0
    assert "ok=True" in capsys.readouterr().out


def test_verify_rejects_bad(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("""
u32 f(u8* ctx) {
    u64 data = ctx->data;
    return (u32)*(u8*)(data + 0);
}
""")
    assert main(["verify", str(bad)]) == 1
    assert "rejected" in capsys.readouterr().out


def test_run(source_file, capsys):
    assert main(["run", source_file, "--merlin"]) == 0
    out = capsys.readouterr().out
    assert "action=PASS" in out
    assert "cycles=" in out


def test_optimize_report(source_file, capsys):
    assert main(["optimize", source_file]) == 0
    out = capsys.readouterr().out
    assert "NI" in out and "verifier: ok=True" in out


def test_old_kernel_flag(source_file, capsys):
    assert main(["verify", source_file, "--kernel", "4.15"]) == 0


def test_run_merlin_honours_kernel(tmp_path, capsys):
    # kernel 4.15 has no ALU32, so Merlin keeps the shift pair there
    # and compacts it to a 32-bit move only on 6.5
    path = tmp_path / "alu32.c"
    path.write_text("u64 f(u8* ctx) { u64 a = *(u64*)(ctx + 0); "
                    "u32 b = (u32)a * 5; return (u64)b; }\n")
    for kernel, insns in (("4.15", 6), ("6.5", 5)):
        assert main(["run", str(path), "--merlin", "--kernel", kernel,
                     "--prog-type", "tracepoint", "--ctx-size", "64"]) == 0
        assert f"instructions={insns} " in capsys.readouterr().out
