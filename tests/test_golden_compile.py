"""Golden output: the optimized bytes, NI, mcpu, per-pass rewrite
counts and cache key of a fixed program set must not change.

The contract is that a speed or simplicity change leaves compiler output
and cache keys untouched.  ``golden_compile.json`` pins that output for
the 19 XDP programs plus the first four programs by name of each suite
(``generate_suite(suite, scale=0.05)``).  Regenerate it only for a change
that is meant to alter output, from the repository root::

    PYTHONPATH=src python tests/test_golden_compile.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.cache import CompilationCache
from repro.core import MerlinPipeline
from repro.frontend import compile_source
from repro.isa import ProgramType
from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite
from repro.workloads.xdp import ALL_XDP, XDP_CTX_SIZE

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_compile.json")
SUITES = ("sysdig", "tetragon", "tracee")


def _cases():
    """(name, source, entry, prog_type, mcpu, ctx_size) per program."""
    cases = [(w.name, w.source, w.entry, ProgramType.XDP, "v2", XDP_CTX_SIZE)
             for w in ALL_XDP]
    for suite in SUITES:
        programs = sorted(generate_suite(suite, scale=0.05),
                          key=lambda p: p.name)[:4]
        cases += [(p.name, p.source, p.entry, ProgramType.TRACEPOINT, "v3",
                   TRACE_CTX_SIZE) for p in programs]
    return cases


def _digest(pipeline, cache, name, source, entry, prog_type, mcpu,
            ctx_size) -> dict:
    module = compile_source(source, name)
    func = module.get(entry)
    program, report = pipeline.compile(func, module, prog_type=prog_type,
                                       mcpu=mcpu, ctx_size=ctx_size)
    key = cache.key_for_function(
        func, module, enabled=pipeline.enabled, kernel=pipeline.kernel,
        prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size)
    return {
        "bytes_sha256": hashlib.sha256(program.encode()).hexdigest(),
        "mcpu": program.mcpu,
        "ni_original": report.ni_original,
        "ni_optimized": report.ni_optimized,
        "rewrites": [[s.name, s.rewrites] for s in report.pass_stats],
        "cache_key": key,
    }


def digests() -> dict:
    pipeline = MerlinPipeline()
    cache = CompilationCache()
    return {case[0]: _digest(pipeline, cache, *case) for case in _cases()}


@pytest.fixture(scope="module")
def current():
    return digests()


def test_program_set_is_pinned(current):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert len(golden) == len(ALL_XDP) + 4 * len(SUITES)
    assert sorted(current) == sorted(golden)


@pytest.mark.parametrize("name", [case[0] for case in _cases()])
def test_output_matches_golden(current, name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert current[name] == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_compile.py"
                 " --write")
    rows = sorted(digests().items())
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(row, sort_keys=True)}"
            for name, row in rows) + "\n}\n")
