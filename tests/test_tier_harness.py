"""Tests for the tier harness (repro.eval.tierperf) and ``repro
bench-tier``: a fresh run reproduces the committed BENCH files, and the
verb writes its report and rejects unknown suites."""

import json
from pathlib import Path

from repro.cli import main
from repro.eval.tierperf import bench_tier

ROOT = Path(__file__).resolve().parent.parent


def _committed(tier):
    report = json.loads((ROOT / f"BENCH_{tier}.json").read_text())
    return {suite["suite"]: suite for suite in report["suites"]}


class TestCommittedBench:
    def test_layout_xdp_entry_reproduces(self):
        report = bench_tier("layout", ["xdp"])
        assert report.suites[0].to_dict() == _committed("layout")["xdp"]

    def test_superopt_xdp_rows_reproduce(self):
        # the memo counters are not compared: the committed run shares
        # its memo with the three suites before xdp, so they differ
        report = bench_tier("superopt", ["xdp"], count=4)
        suite = report.suites[0]
        rows = [row.to_dict() for row in suite.table]
        assert rows == _committed("superopt")["xdp"]["table"][:4]
        assert suite.behavior_identical and suite.witnesses_certified
        assert suite.witnesses == suite.rewrites > 0


class TestBenchTierCli:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "layout.json"
        assert main(["bench-tier", "layout", "--suite", "xdp", "--count",
                     "2", "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["tier"] == "layout"
        assert [suite["programs"] for suite in document["suites"]] == [2]

    def test_default_out_names_the_tier(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench-tier", "superopt", "--suite", "xdp", "--count",
                     "1"]) == 0
        document = json.loads((tmp_path / "BENCH_superopt.json").read_text())
        assert document["tier"] == "superopt"

    def test_rejects_unknown_suite(self, capsys):
        assert main(["bench-tier", "layout", "--suite", "xdp,nope",
                     "--out", ""]) == 2
        assert "unknown suite 'nope'" in capsys.readouterr().err
