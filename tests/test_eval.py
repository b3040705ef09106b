"""Evaluation-harness tests: RQ1-RQ5 machinery."""

import pytest

from repro.core import MerlinPipeline
from repro.eval import (
    CORE_FREQ_HZ,
    NetworkEval,
    SecuritySystem,
    STAGE_ORDER,
    average_reduction,
    compare_verifier_cost,
    measure_compactness,
    measure_compile_cost,
    overhead_reduction,
    pct,
    render_series,
    render_table,
    run_lmbench,
    run_postmark,
    state_change_across_kernels,
    summarize,
)
from repro.eval.compile_cost import COMPILE_REPEATS
from repro.workloads.suites import generate_suite
from repro.workloads.xdp import BY_NAME, compile_workload


@pytest.fixture(scope="module")
def xdp1_pair():
    return (compile_workload(BY_NAME["xdp1"]),
            compile_workload(BY_NAME["xdp1"], optimize=True))


@pytest.fixture(scope="module")
def sysdig_systems():
    progs = generate_suite("sysdig", seed=1, scale=0.05, count=4)
    original = SecuritySystem.from_suite("sysdig", progs, optimize=False)
    merlin = SecuritySystem.from_suite("sysdig+merlin", progs, optimize=True)
    return original, merlin


class TestCompactnessHarness:
    def test_staged_measurement(self):
        workload = BY_NAME["xdp1"]
        result = measure_compactness(workload.source, workload.entry,
                                     name=workload.name)
        assert result.verified
        assert result.ni_baseline > 0
        assert list(result.ni_after_stage) == list(STAGE_ORDER)
        # cumulative NI is monotonically non-increasing
        values = [result.ni_baseline] + list(result.ni_after_stage.values())
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_contributions_sum_to_total(self):
        workload = BY_NAME["xdp_ddos_mitigator"]
        result = measure_compactness(workload.source, workload.entry)
        total = sum(result.contribution(stage) for stage in STAGE_ORDER)
        assert total == pytest.approx(result.total_reduction, abs=1e-9)

    def test_summarize(self):
        workload = BY_NAME["xdp1"]
        result = measure_compactness(workload.source, workload.entry)
        summary = summarize([result])
        assert summary["avg_reduction"] == result.total_reduction
        assert summary["all_verified"] == 1.0
        assert "contrib_dao" in summary


class TestNetworkHarness:
    def test_merlin_has_higher_throughput(self, xdp1_pair):
        baseline, optimized = xdp1_pair
        ev = NetworkEval(packets=200, warmup=30)
        perf_base = ev.measure(baseline)
        perf_opt = ev.measure(optimized)
        assert perf_opt.throughput_mpps > perf_base.throughput_mpps
        assert perf_opt.cycles_per_packet < perf_base.cycles_per_packet

    def test_latency_monotonic_in_load(self, xdp1_pair):
        baseline, _ = xdp1_pair
        ev = NetworkEval(packets=150, warmup=30)
        perf = ev.measure(baseline)
        mpps = perf.throughput_mpps
        latencies = [ev.latency_us(perf, load * mpps)
                     for load in (0.3, 0.7, 0.95, 1.2)]
        assert latencies == sorted(latencies)

    def test_saturation_bounded_by_queue(self, xdp1_pair):
        baseline, _ = xdp1_pair
        ev = NetworkEval(packets=150, warmup=30)
        perf = ev.measure(baseline)
        saturated = ev.latency_us(perf, perf.throughput_mpps * 2)
        from repro.eval import BASE_LATENCY_US, QUEUE_DEPTH

        assert saturated == pytest.approx(
            BASE_LATENCY_US + QUEUE_DEPTH * perf.service_time_us
        )

    def test_table3_row_structure(self, xdp1_pair):
        baseline, optimized = xdp1_pair
        ev = NetworkEval(packets=150, warmup=30)
        row = ev.table3_row({
            "clang": ev.measure(baseline),
            "merlin": ev.measure(optimized),
        })
        assert "throughput_clang" in row
        assert "latency_low_merlin" in row
        assert row["latency_saturate_clang"] >= row["latency_low_clang"]

    def test_counters_window_scaling(self, xdp1_pair):
        baseline, _ = xdp1_pair
        ev = NetworkEval(packets=150, warmup=30)
        perf = ev.measure(baseline)
        low = ev.counters_in_window(perf, 0.3 * perf.throughput_mpps)
        sat = ev.counters_in_window(perf, 1.2 * perf.throughput_mpps)
        assert sat.instructions > low.instructions
        assert sat.context_switches > low.context_switches

    def test_forwarding_actions(self):
        # the four Table-3 programs forward (TX/redirect) seeded traffic
        from repro.workloads.xdp import FORWARDING

        ev = NetworkEval(packets=100, warmup=20)
        for name in FORWARDING[:2]:
            perf = ev.measure(compile_workload(BY_NAME[name]))
            assert 3 in perf.actions or 4 in perf.actions, name


class TestOverheadHarness:
    def test_equation1(self):
        # vanilla 1.0, original 2.0 (100% overhead), merlin 1.5 (50%)
        assert overhead_reduction(1.0, 2.0, 1.5) == pytest.approx(0.5)

    def test_equation1_no_overhead(self):
        assert overhead_reduction(1.0, 1.0, 1.0) == 0.0

    def test_lmbench_rows(self, sysdig_systems):
        original, merlin = sysdig_systems
        results = run_lmbench(original, merlin)
        assert len(results) == 15
        for row in results:
            assert row.with_merlin_us <= row.with_original_us + 1e-9
            assert row.with_original_us >= row.vanilla_us

    def test_average_reduction_positive(self, sysdig_systems):
        original, merlin = sysdig_systems
        results = run_lmbench(original, merlin)
        assert average_reduction(results) > 0

    def test_postmark(self, sysdig_systems):
        original, merlin = sysdig_systems
        row = run_postmark(original, merlin)
        assert row.with_merlin_us <= row.with_original_us
        assert row.reduction >= 0

    def test_event_cost_cached(self, sysdig_systems):
        original, _ = sysdig_systems
        first = original.event_cost("sys_enter")
        second = original.event_cost("sys_enter")
        assert first is second

    def test_event_counters_scale_with_count(self, sysdig_systems):
        original, _ = sysdig_systems
        once = original.event_counters((("sys_enter", 1),))
        many = original.event_counters((("sys_enter", 10),))
        assert many.instructions == 10 * once.instructions


class TestVerifierStatsHarness:
    def test_comparison(self, xdp1_pair):
        baseline, optimized = xdp1_pair
        comparison = compare_verifier_cost(baseline, optimized)
        assert comparison.both_ok
        assert 0 <= comparison.npi_reduction <= 1
        assert comparison.npi_after <= comparison.npi_before

    def test_state_changes_across_kernels(self, xdp1_pair):
        baseline, optimized = xdp1_pair
        changes = state_change_across_kernels(baseline, optimized)
        assert set(changes) == {"5.19", "6.5"}
        for peak, total in changes.values():
            assert isinstance(peak, float)
            assert isinstance(total, float)


class TestCompileCostHarness:
    def test_per_optimizer_times(self):
        workload = BY_NAME["xdp1"]
        cost = measure_compile_cost(workload.source, workload.entry)
        assert cost.total_seconds > 0
        assert set(cost.per_optimizer) >= {"DAO", "MoF", "CC", "PO", "SLM",
                                           "CP/DCE", "Dep"}
        assert all(v >= 0 for v in cost.per_optimizer.values())

    def test_dep_is_the_measured_analysis_time(self):
        reports = []

        class Recording(MerlinPipeline):
            def compile(self, *args, **kwargs):
                program, report = super().compile(*args, **kwargs)
                reports.append(report)
                return program, report

        workload = BY_NAME["xdp-balancer"]
        cost = measure_compile_cost(workload.source, workload.entry,
                                    pipeline=Recording())
        assert len(reports) == COMPILE_REPEATS
        report = min(reports, key=lambda r: r.compile_seconds)
        bytecode = [s for s in report.pass_stats if s.tier == "bytecode"]
        recorded = sum(s.details.get("analysis_ns", 0) for s in bytecode)
        assert recorded > 0
        assert cost.per_optimizer["Dep"] == recorded * 1e-9
        bars = cost.per_optimizer
        ir_share = {"SLM": report.time_of("slm-ir"),
                    "CP/DCE": report.time_of("constprop")
                    + report.time_of("dce")}
        bytecode_bars = sum(bars[label] - ir_share.get(label, 0.0)
                            for label in ("CC", "PO", "SLM", "CP/DCE"))
        bytecode_total = sum(s.time_seconds for s in bytecode)
        assert bars["Dep"] + bytecode_bars <= bytecode_total + 1e-9

    def test_cost_grows_with_size(self):
        small = BY_NAME["xdp1"]
        big = BY_NAME["xdp-balancer"]
        cost_small = measure_compile_cost(small.source, small.entry)
        cost_big = measure_compile_cost(big.source, big.entry)
        assert cost_big.total_seconds > cost_small.total_seconds
        assert cost_big.ni > cost_small.ni


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in text
        assert "a" in text and "2.500" in text

    def test_render_series(self):
        text = render_series("fig", [(1, 2)], x_label="ni", y_label="s")
        assert "fig" in text and "ni" in text

    def test_pct(self):
        assert pct(0.5) == "50.00%"
