"""One benchmark for the whole Merlin path.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 8 --trace 0

Workloads: ``compile``, ``event-stream``, ``serve`` (see
``perfbench/README.md``).  The run builds its inputs from
``--seed``, measures for about ``--seconds`` seconds, checks every
output, prints each metric by name with its unit, writes a full record
to ``.perfbench/results/`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits nonzero when any output check fails.

``--trace 1`` installs the tracing wrappers (``tracer.py``) before
setup, and also runs the untraced benchmark once in a child process to
report the tracing overhead.  An untraced run samples its set-up time
in two more fresh processes (``--setup-only``) and reports the median
of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("compile", "event-stream", "serve")
SETUP_SAMPLES = 3
MAX_SLICES = 8
CHILD_TIMEOUT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time, and stop")
    parser.add_argument("--no-setup-samples", action="store_true",
                        help="report this process's set-up time only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _self_argv(args, *extra: str) -> list:
    return [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", *extra]


def _last_json_line(argv: list) -> dict:
    out = subprocess.run(argv, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"child run failed ({out.returncode}): "
                           f"{out.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- phases
def do_setup(args, clock, record):
    """Build the workload's inputs and bring the system up; returns the
    workload state.  Everything here counts toward ``setup_s``."""
    if args.workload == "compile":
        import wl_compile

        return wl_compile.setup(args.seed, clock)
    if args.workload == "event-stream":
        import wl_stream

        return wl_stream.setup(args.seed, clock, record)
    import wl_serve

    trace_out = None
    if args.trace:
        trace_out = os.path.join(".perfbench", "tmp",
                                 f"serve-trace-{os.getpid()}.json")
    state = wl_serve.setup(args.seed, clock, record, trace_out)
    state["trace_out"] = trace_out
    return state


def do_run(args, state, clock, tracer, record):
    if args.workload == "compile":
        import wl_compile

        return wl_compile.run(state, args.seed, args.seconds, clock, tracer)
    if args.workload == "event-stream":
        import wl_stream

        return wl_stream.run(state, args.seed, args.seconds, clock, tracer,
                             record)
    import wl_serve

    return wl_serve.run(state, args.seed, args.seconds, clock, tracer,
                        record)


def teardown(args, state) -> None:
    if args.workload == "serve" and state is not None:
        state["daemon"].close()


# --------------------------------------------------------------- metrics
def sliced_quantile(entries, q: float) -> float:
    """The q-quantile of (start, value) pairs, made robust to a host
    stall: the run is cut into up to ``MAX_SLICES`` consecutive time
    slices, as many as keep ten samples beyond the quantile in each,
    and the median of the slices' quantiles is reported."""
    from common import quantile

    ordered = [value for _start, value in sorted(entries)]
    slices = max(1, min(MAX_SLICES, int(len(ordered) * (1 - q) // 10)))
    bounds = [len(ordered) * k // slices for k in range(slices + 1)]
    return statistics.median(quantile(ordered[lo:hi], q)
                             for lo, hi in zip(bounds, bounds[1:]))


def end_to_end(record, clock, setup_s: float):
    fixed = record.fixed_wait_s

    def times_ms(entries, normalize: bool):
        if not normalize:
            return [(s, d * 1000.0) for s, d in entries]
        return [(s, (min(d, fixed) + max(d - fixed, 0.0)
                     * clock.factor_for(s, s + d)) * 1000.0)
                for s, d in entries]

    metrics = {"setup_s": setup_s, "peak_rss_mb": record.peak_rss_mib}
    raw = {}
    for normalize, out in ((True, metrics), (False, raw)):
        cold = times_ms(record.cold, normalize)
        warm = times_ms(record.warm, normalize)
        out["cold_ms_p50"] = sliced_quantile(cold, 0.5)
        out["warm_ms_p50"] = sliced_quantile(warm, 0.5)
        out["warm_ms_p90"] = sliced_quantile(warm, 0.9)
    metrics.update(record.exact.metrics())
    return metrics, raw


def per_layer(args, record, tracer, state, untraced) -> dict:
    from metrics import PER_LAYER

    layers = dict(tracer.layer_metrics())
    if args.workload == "serve":
        layers = {}
        trace_out = state.get("trace_out")
        if trace_out and os.path.exists(trace_out):
            with open(trace_out) as handle:
                layers.update(json.load(handle))
            os.unlink(trace_out)
        final = record.info.get("final_stats") or {}
        vm_stats = final.get("vm", {})
        decode = vm_stats.get("decode_cache", {})
        jit = vm_stats.get("jit_cache", {})
    else:
        from repro.vm.engine import decode_cache_stats
        from repro.vm.engine.jit import jit_cache_stats

        decode = vars(decode_cache_stats())
        jit = vars(jit_cache_stats())
    layers["bytecode_passes.analysis.builds"] = layers.pop(
        "bytecode_passes.analysis.calls", 0)
    layers.update({"vm.decode_cache.hits": decode.get("hits", 0),
                   "vm.decode_cache.misses": decode.get("misses", 0),
                   "vm.jit_cache.hits": jit.get("hits", 0),
                   "vm.jit_cache.misses": jit.get("misses", 0)})
    runs = layers.get("hw.runs", 0)
    if runs:
        layers["hw.insns_per_run"] = layers["vm.insns"] / runs
        layers["hw.cache_misses_per_run"] = layers["hw.cache_misses"] / runs
        layers["hw.branch_misses_per_run"] = \
            layers["hw.branch_misses"] / runs
    layers.update(record.layers)
    residual = sum(tracer.residuals_s)
    layers["trace.residual_s"] = residual
    layers["trace.residual_pct"] = (100.0 * residual / tracer.op_total_s
                                    if tracer.op_total_s else 0.0)
    traced = record.info["metrics"]
    for kind in ("cold", "warm"):
        key = f"{kind}_ms_p50"
        layers[f"trace.{kind}_overhead_pct"] = \
            100.0 * (traced[key] / untraced[key]["value"] - 1.0)
    return {name: layers.get(name, 0) for name, _unit, _better in PER_LAYER}


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root: src/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    from common import (SpeedClock, environment, process_age_s, quantile,
                        tail_ok)
    from metrics import END_TO_END, TAIL, UNITS
    from tracer import Tracer
    from workload import RunRecord

    clock = SpeedClock()
    clock.calibrate(3)
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    record = RunRecord()
    state = None
    try:
        state = do_setup(args, clock, record)
        clock.calibrate(3)
        setup_raw = process_age_s() - clock.paused_s
        setup_norm = setup_raw * clock.factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_norm,
                              "setup_raw_s": setup_raw}))
            return 0
        record = do_run(args, state, clock, tracer, record)
    finally:
        tracer.active = False
        teardown(args, state)

    setup_samples = [setup_norm]
    if not args.trace and not args.no_setup_samples:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(
                _last_json_line(_self_argv(args, "--setup-only"))["setup_s"])
    metrics, raw = end_to_end(record, clock, statistics.median(setup_samples))
    record.info["metrics"] = metrics
    untraced = None
    if args.trace:
        untraced = _last_json_line(_self_argv(args, "--no-setup-samples"))
        untraced = untraced["metrics"]
        reported = per_layer(args, record, tracer, state, untraced)
        tracer.uninstall()
    else:
        reported = {name: metrics[name] for name, *_ in END_TO_END}

    correct = not record.failures
    env = environment(args.seed)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "correct": correct, "attempted": record.attempted,
        "failed": len(record.failures), "failures": record.failures,
        "metrics": metrics, "raw_ms": raw,
        "setup_samples_s": setup_samples, "setup_raw_s": setup_raw,
        "speed_factor": clock.factor(), "speed_trace": clock.trace(),
        "samples": {"cold": len(record.cold), "warm": len(record.warm)},
        "raw_deciles_ms": {
            kind: [quantile([d * 1e3 for _s, d in ops], q / 10)
                   for q in range(11)]
            for kind, ops in (("cold", record.cold), ("warm", record.warm))},
        "tails_ok": {"cold_ms_p50": tail_ok(len(record.cold), 0.5),
                     "warm_ms_p90": tail_ok(len(record.warm), 0.9)},
        "window_s": record.window_s, "info": record.info,
        "fixed_wait_s": record.fixed_wait_s,
        "ops": {kind: [[s, d, clock.factor_for(s, s + d)] for s, d in ops]
                for kind, ops in (("cold", record.cold),
                                  ("warm", record.warm))},
        "untraced_metrics": untraced,
        "per_layer": reported if args.trace else None,
    }
    results = os.path.join(".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(detail, handle, indent=2, default=str)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"python={env['python']} nproc={env['nproc']} "
          f"git={env['git_sha'] or '-'} src={env['source_digest']} "
          f"engine={env['default_engine']}")
    print(f"  ops: {len(record.cold)} cold, {len(record.warm)} warm, "
          f"{record.attempted} attempted, {len(record.failures)} failed, "
          f"failed_frac {len(record.failures) / max(record.attempted, 1):g}; "
          f"window {record.window_s:.2f} s; speed factor "
          f"{clock.factor():.3f}")
    for failure in record.failures[:10]:
        print(f"  FAILED {failure}")
    for name, value in reported.items():
        print(f"  {name:<36} {value:>14.6g} {UNITS[name]}")
    if not args.trace:
        name, unit = TAIL
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit} "
              f"(tail, not gated)")
    print(f"  record: {path}")
    print(json.dumps({
        "correct": correct, "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in reported.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
