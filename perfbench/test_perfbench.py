"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

* ``BENCHMARK.json`` lists exactly the metrics ``metrics.py`` reports,
  within the limits the benchmark contract sets;
* the exact metrics and per-layer counts repeat bit for bit across two
  processes with different ``PYTHONHASHSEED`` (the tiered programs);
* outside a checkout with ``src/repro`` the command fails without
  printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, EXACT_LAYER_COUNTS, PER_LAYER  # noqa: E402

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert 2 <= len(doc["workloads"]) <= 8
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert _NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert _NAME.match(metric["name"]) and _UNIT.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def _probe(seed: int) -> dict:
    """Exact totals and counts of a small tiered draw (run in a child)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core import MerlinPipeline

    import wl_compile
    from common import SpeedClock
    from tracer import Tracer

    tracer = Tracer().install()
    tracer.active = True
    state = {"progs": [p for p in wl_compile.draw(seed) if p.tiers],
             "pipeline": MerlinPipeline()}
    record = wl_compile.run(state, seed, 0.0, SpeedClock(), tracer)
    counts = dict(tracer.layer_metrics())
    counts["bytecode_passes.analysis.builds"] = \
        counts.pop("bytecode_passes.analysis.calls", 0)
    counts.update(record.layers)
    return {"failures": record.failures,
            "exact": record.exact.metrics(),
            "counts": {name: counts.get(name, 0)
                       for name in EXACT_LAYER_COUNTS}}


def _probe_in_child(seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, __file__, "--probe", str(seed)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_exact_metrics_repeat_across_hash_seeds():
    first = _probe_in_child(7, "1")
    second = _probe_in_child(7, "4242")
    assert first["failures"] == [] and second["failures"] == []
    assert first["exact"] == second["exact"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["superopt.searches"] > 0
    assert first["counts"]["vm.insns"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__" and sys.argv[1:2] == ["--probe"]:
    print(json.dumps(_probe(int(sys.argv[2]))))
elif __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
