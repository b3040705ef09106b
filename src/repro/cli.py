"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the real eBPF workflow:

* ``compile``  — mini-C source -> eBPF assembly (optionally via Merlin)
* ``verify``   — run the kernel-verifier model over a program
* ``run``      — execute a program on a packet or context
* ``optimize`` — show Merlin's per-pass report for a source file
* ``fuzz``     — differential-fuzz the optimizer against the baseline
* ``tv``       — certify per-pass semantic equivalence (translation
  validation) over benchmark suites and/or a fuzz corpus
* ``bench``    — batch-compile a Table-1 suite (parallel, cached)
* ``bench-tier`` — measure one post-pass tier (``layout``: the
  profile-guided layout's branch-miss/cycle deltas; ``superopt``: the
  caching superoptimizer's compactness wins over Merlin-only) and write
  ``BENCH_<tier>.json``
* ``serve``    — run the optimization-as-a-service daemon (JSON lines
  over a local socket, admission batching, shared warm cache)
* ``bench-serve`` — replay Zipf-skewed synthetic tenant traffic (or a
  recorded trace) against a daemon and write the
  cold-vs-warm ``BENCH_service.json``
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import XDP_CTX_SIZE, compile_baseline, compile_bpf, optimize as _optimize
from .core.pipeline import TIERS
from .isa import ProgramType, disassemble
from .verifier import KERNELS, verify as _verify
from .vm import Machine
from .workloads.packets import build_packet


def _prog_kwargs(args) -> dict:
    return dict(
        prog_type=ProgramType(args.prog_type),
        mcpu=args.mcpu,
        ctx_size=args.ctx_size,
    )


def _build(args, merlin: bool) -> tuple:
    """Parse the source once and compile its entry function: through
    Merlin for *merlin* (``--kernel``, ``--pgo`` and ``--superopt``
    apply), else natively with a ``None`` report."""
    source = open(args.source).read() if args.source != "-" else sys.stdin.read()
    module = compile_bpf(source)
    entry = args.entry or next(iter(module.functions))
    if merlin:
        return _optimize(module, entry, kernel=KERNELS[args.kernel],
                         pgo=args.pgo, superopt=args.superopt,
                         **_prog_kwargs(args))
    return compile_baseline(module, entry, **_prog_kwargs(args)), None


def cmd_compile(args) -> int:
    program, report = _build(args, args.merlin)
    if args.merlin:
        print(f"; merlin: {report.ni_original} -> {report.ni_optimized} "
              f"insns ({report.ni_reduction:.1%} reduction)", file=sys.stderr)
        layout_rewrites = report.rewrites_of("layout")
        if layout_rewrites:
            print(f"; layout: {layout_rewrites} rewrite(s)", file=sys.stderr)
        superopt_rewrites = report.rewrites_of("superopt")
        if superopt_rewrites:
            print(f"; superopt: {superopt_rewrites} rewrite(s)",
                  file=sys.stderr)
    else:
        print(f"; baseline: {program.ni} insns", file=sys.stderr)
    print(disassemble(program.insns))
    return 0


def cmd_verify(args) -> int:
    program, _ = _build(args, args.merlin)
    result = _verify(program, KERNELS[args.kernel])
    print(f"ok={result.ok} npi={result.npi} states={result.total_states} "
          f"peak={result.peak_states} "
          f"time={result.verification_time_ns / 1000:.1f}us")
    if not result.ok:
        print(f"rejected: {result.reason}")
    return 0 if result.ok else 1


def cmd_run(args) -> int:
    program, _ = _build(args, args.merlin)
    machine = Machine(program)
    if args.prog_type == "xdp":
        packet = build_packet(args.packet_size, dst_port=args.dst_port)
        result = machine.run(packet=packet)
        actions = {0: "ABORTED", 1: "DROP", 2: "PASS", 3: "TX", 4: "REDIRECT"}
        print(f"action={actions.get(result.xdp_action, result.xdp_action)} "
              f"r0={result.return_value}")
    else:
        ctx = bytes(args.ctx_size)
        result = machine.run(ctx=ctx)
        print(f"r0={result.return_value}")
    counters = result.counters
    print(f"instructions={counters.instructions} cycles={counters.cycles} "
          f"cache_refs={counters.cache_references} "
          f"cache_misses={counters.cache_misses}")
    return 0


def cmd_optimize(args) -> int:
    program, report = _build(args, merlin=True)
    print(f"{report.name}: NI {report.ni_original} -> "
          f"{report.ni_optimized} ({report.ni_reduction:.1%}) in "
          f"{report.compile_seconds:.3f}s")
    for stat in report.pass_stats:
        marker = f"{stat.rewrites:4d} rewrites" if stat.rewrites else "   -"
        print(f"  [{stat.tier:8s}] {stat.name:14s} {marker}  "
              f"{stat.time_seconds * 1000:7.2f}ms")
    result = _verify(program, KERNELS[args.kernel])
    print(f"verifier: ok={result.ok} npi={result.npi}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import LAYERS, TIER_AXES, run_campaign

    layers = [l.strip() for l in args.layers.split(",")] if args.layers \
        else list(LAYERS)
    for layer in layers:
        if layer not in LAYERS:
            print(f"unknown layer {layer!r} (choose from {', '.join(LAYERS)})",
                  file=sys.stderr)
            return 2

    progress = None if args.json else (
        lambda line: print(line, file=sys.stderr))
    report = run_campaign(
        seed=args.seed,
        budget=args.budget,
        corpus_dir=args.corpus,
        layers=layers,
        kernel=KERNELS[args.kernel],
        tests_per_program=args.tests,
        minimize=not args.no_minimize,
        jobs=args.jobs,
        certify=not args.no_certify,
        tiers=tuple(tier for tier in TIER_AXES
                    if not getattr(args, f"no_{tier}")),
        progress=progress,
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"fuzz: {report.programs_run}/{report.budget} programs "
              f"({report.programs_skipped} skipped) in "
              f"{report.elapsed_seconds:.1f}s — "
              f"{len(report.findings)} divergence(s), "
              f"{report.roundtrip_failures} round-trip failure(s)")
        for finding in report.findings:
            print(f"  {finding.divergence.describe()}")
            if finding.bisect is not None:
                print(f"    bisected: {finding.bisect.describe()}")
            if finding.minimized is not None:
                print(f"    minimized to {finding.minimized.statements} "
                      f"statements")
            if finding.reproducer_path is not None:
                print(f"    reproducer: {finding.reproducer_path}")
    return 0 if report.clean else 1


def cmd_tv(args) -> int:
    """Certify every Merlin pass application over suites and a corpus."""
    from .core import MerlinPipeline
    from .frontend import compile_source
    from .tv import CertificateReport
    from .workloads.suites import PROFILES, TRACE_CTX_SIZE, generate_suite

    suites = [s.strip() for s in args.suite.split(",") if s.strip()] \
        if args.suite else []
    known = set(PROFILES) | {"xdp"}
    for suite in suites:
        if suite not in known:
            print(f"unknown suite {suite!r} (choose from "
                  f"{', '.join(sorted(known))})", file=sys.stderr)
            return 2

    kernel = KERNELS[args.kernel]
    pipeline = MerlinPipeline(kernel=kernel)
    report = CertificateReport(seed=args.seed)
    skipped: List[tuple] = []

    def certify(name: str, build) -> None:
        try:
            merlin = build()
        except Exception as exc:
            # the program never compiles (e.g. generated code exceeding
            # the stack budget): nothing was optimized, nothing to certify
            skipped.append((name, f"{type(exc).__name__}: {exc}"))
            return
        report.add(name, merlin.certificates)

    for suite in suites:
        if suite == "xdp":
            from .workloads.xdp import ALL_XDP, XDP_CTX_SIZE as _XDP_CTX

            for workload in ALL_XDP:
                module = compile_source(workload.source, workload.name)
                func = module.get(workload.entry)
                certify(workload.name, lambda f=func, m=module: pipeline.compile(
                    f, m, prog_type=ProgramType.XDP, ctx_size=_XDP_CTX,
                    validate="report")[1])
        else:
            for program in generate_suite(suite, seed=args.seed,
                                          scale=args.scale, count=args.count):
                module = compile_source(program.source, program.name)
                func = module.get(program.entry)
                certify(program.name, lambda f=func, m=module: pipeline.compile(
                    f, m, prog_type=ProgramType.TRACEPOINT, mcpu="v3",
                    ctx_size=TRACE_CTX_SIZE, validate="report")[1])

    if args.fuzz:
        from .fuzz.differential import certify_case
        from .fuzz.generator import LAYERS, generate

        layers = list(LAYERS)
        for index in range(args.fuzz):
            layer = layers[index % len(layers)]
            case = generate(layer, args.seed * 1_000_003 + index)
            certify(f"fuzz/{layer}/{index}",
                    lambda c=case: certify_case(c, kernel))

    document = report.to_dict()
    document["skipped"] = [
        {"name": name, "reason": reason} for name, reason in skipped
    ]
    if args.out:
        import json as _json

        with open(args.out, "w") as fh:
            fh.write(_json.dumps(document, indent=2) + "\n")
    if args.json:
        import json as _json

        print(_json.dumps(document, indent=2))
    else:
        summary = document["summary"]
        print(f"tv: {summary['programs']} programs, "
              f"{summary['pass_applications']} pass applications "
              f"({len(skipped)} program(s) skipped: did not build)")
        by_status = ", ".join(f"{k}={v}"
                              for k, v in summary["by_status"].items()) or "-"
        by_method = ", ".join(f"{k}={v}"
                              for k, v in summary["by_method"].items()) or "-"
        print(f"  status: {by_status}")
        print(f"  method: {by_method}")
        for name, cert in report.alarms:
            print(f"  ALARM {name}: {cert.pass_name} at {cert.point}: "
                  f"{cert.detail}")
            for key, value in sorted((cert.counterexample or {}).items()):
                print(f"    {key} = {value}")
        if args.out:
            print(f"  wrote {args.out}")
        verdict = "certified" if report.clean else "NOT certified"
        print(f"  every pass application {verdict}")
    return 0 if report.clean else 1


def cmd_bench(args) -> int:
    import json as _json

    from .cache import CompilationCache
    from .core import MerlinPipeline, compile_many
    from .workloads.suites import PROFILES, generate_suite, suite_jobs

    suites = [s.strip() for s in args.suite.split(",")]
    for suite in suites:
        if suite not in PROFILES:
            print(f"unknown suite {suite!r} (choose from "
                  f"{', '.join(sorted(PROFILES))})", file=sys.stderr)
            return 2

    cache = None
    if args.cache is not None:
        cache = CompilationCache(directory=args.cache)
    pipeline = MerlinPipeline(kernel=KERNELS[args.kernel])
    payload = []
    for suite in suites:
        programs = generate_suite(suite, seed=args.seed, scale=args.scale,
                                  count=args.count)
        batch = compile_many(
            pipeline, suite_jobs(programs, mcpu=args.mcpu or None),
            jobs=args.jobs, cache=cache)
        row = {
            "suite": suite,
            "programs": len(batch),
            "jobs": batch.jobs,
            "ni_original": batch.ni_original,
            "ni_optimized": batch.ni_optimized,
            "ni_reduction": round(batch.ni_reduction, 4),
            "wall_seconds": round(batch.wall_seconds, 3),
        }
        if batch.cache_stats is not None:
            row["cache"] = batch.cache_stats.to_dict()
        payload.append(row)
        if not args.json:
            print(f"{suite}: {row['programs']} programs, "
                  f"NI {row['ni_original']} -> {row['ni_optimized']} "
                  f"({row['ni_reduction'] * 100:.1f}% reduction) in "
                  f"{row['wall_seconds']:.2f}s with {row['jobs']} job(s)")
            if "cache" in row:
                c = row["cache"]
                print(f"  cache: {c['hits']} hit(s) / {c['misses']} miss(es) "
                      f"({c['hit_rate'] * 100:.0f}% hit rate), "
                      f"{c['evictions']} eviction(s)")
    if args.json:
        print(_json.dumps(payload, indent=2))
    return 0


def cmd_bench_tier(args) -> int:
    from .eval.tierperf import MEASURED_AGAINST, VM_SUITES, bench_tier

    suites = [s.strip() for s in args.suite.split(",")]
    for suite in suites:
        if suite not in VM_SUITES:
            print(f"unknown suite {suite!r} (choose from "
                  f"{', '.join(VM_SUITES)})", file=sys.stderr)
            return 2

    report = bench_tier(args.tier, suites, seed=args.seed, scale=args.scale,
                        count=args.count, tests_per_program=args.tests)
    out = f"BENCH_{args.tier}.json" if args.out is None else args.out
    if out:
        report.write(out)
    if args.json:
        print(report.to_json())
    else:
        for suite in report.suites:
            verdict = "identical" if suite.behavior_identical else \
                f"MISMATCH ({suite.mismatch})"
            certs = "certified" if suite.witnesses_certified else \
                "NOT CERTIFIED"
            print(f"{suite.suite}: {suite.programs} programs, "
                  f"{suite.changed} changed ({suite.rewrites} rewrites), "
                  f"{suite.smaller} smaller — NI {suite.ni_before} -> "
                  f"{suite.ni_after}, behavior {verdict}, "
                  f"{suite.witnesses} witness(es) {certs}")
            print(f"  branch misses: {suite.before.branch_misses} -> "
                  f"{suite.after.branch_misses} "
                  f"(delta {suite.branch_miss_delta:+d})")
            print(f"  cache misses:  {suite.before.cache_misses} -> "
                  f"{suite.after.cache_misses}")
            print(f"  cycles:        {suite.before.cycles} -> "
                  f"{suite.after.cycles} (delta {suite.cycle_delta:+d})")
            print("  " + "  ".join(f"{key}: {value}" for key, value
                                   in suite.counters.items()))
        print(f"{args.tier} vs {MEASURED_AGAINST[args.tier]}: "
              f"{report.programs_smaller} program(s) smaller, "
              f"{report.suites_fewer_branch_misses}/{len(report.suites)} "
              f"suite(s) with fewer branch misses")
        if out:
            print(f"wrote {out}")
    ok = report.all_behavior_identical and report.all_certified
    return 0 if ok else 1


def cmd_serve(args) -> int:
    import json as _json
    import signal

    from .serve import DaemonThread, ServeConfig

    handle = DaemonThread(ServeConfig(
        socket_path=None if args.tcp is not None else args.socket,
        host="127.0.0.1" if args.tcp is not None else None,
        port=args.tcp or 0,
        jobs=args.jobs,
        cache_dir=args.cache,
        kernel=args.kernel,
    ))
    daemon = handle.start().daemon
    config = daemon.config
    kind = handle.address[0]
    where = handle.address[1] if kind == "unix" else \
        f"{handle.address[1]}:{handle.address[2]}"
    print(f"repro serve: daemon listening on {kind} {where} "
          f"(jobs={config.jobs}, cache={daemon.cache.directory})",
          file=sys.stderr)

    done = []

    def _stop(signum, frame):
        if not done:
            done.append(signum)
            print("repro serve: draining...", file=sys.stderr)
            daemon.request_stop(drain=True)

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    handle._thread.join()
    snapshot = daemon.final_snapshot
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            fh.write(_json.dumps(snapshot, indent=2) + "\n")
    print(f"repro serve: {daemon.stats.responses_sent} responses, "
          f"{snapshot['requests']['compiles']} compiles, cache hit "
          f"rate {snapshot['cache']['hit_rate'] * 100:.0f}%",
          file=sys.stderr)
    return 0


def _parse_priority_mix(spec):
    """``"0:0.9,5:0.1"`` -> ``{0: 0.9, 5: 0.1}``."""
    if not spec:
        return None
    mix = {}
    for part in spec.split(","):
        level, _, weight = part.partition(":")
        mix[int(level)] = float(weight) if weight else 1.0
    return mix


def cmd_bench_serve(args) -> int:
    from .eval.serviceperf import bench_service
    from .serve.loadgen import FaultPlan

    progress = None if args.json else (
        lambda line: print(line, file=sys.stderr))
    faults = None
    if args.faults:
        faults = FaultPlan(malformed=0.02, oversized=0.01,
                           unknown_op=0.01, disconnect=0.02)
    report = bench_service(
        requests=args.requests, clients=args.clients,
        unique=args.unique, seed=args.seed, zipf_s=args.zipf,
        depth=args.depth, jobs=args.jobs, faults=faults,
        priority_mix=_parse_priority_mix(args.priority_mix),
        trace_path=args.trace, record_path=args.record, speed=args.speed,
        progress=progress)
    if args.out:
        report.write(args.out)
    integrity = report.cache_integrity
    if args.json:
        print(report.to_json())
    else:
        for phase in (report.cold, report.warm):
            lat, fresh = phase.latency_ms, phase.fresh_latency_ms
            print(f"{phase.phase}: {phase.ok}/{phase.requests} ok "
                  f"({phase.dropped} dropped), "
                  f"{phase.programs_per_second:.1f} programs/s, "
                  f"p50 {lat['p50']:.1f}ms p99 {lat['p99']:.1f}ms, "
                  f"hit rate {phase.hit_rate * 100:.0f}%, "
                  f"{fresh['count']} compiled (p50 {fresh['p50']:.1f}ms)")
        print(f"warm/cold speedup: {report.speedup:.2f}x")
        print(f"goodput spread {report.fairness['goodput_spread']:.3f}"
              + (f", cache entries {integrity['entries']} "
                 f"({integrity['torn']} torn)" if integrity else ""))
        if args.out:
            print(f"wrote {args.out}")
    dropped = report.cold.dropped + report.warm.dropped
    if integrity.get("torn"):
        return 1
    return 0 if dropped == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Merlin eBPF optimizer reproduction (ASPLOS'24)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("compile", cmd_compile), ("verify", cmd_verify),
                          ("run", cmd_run), ("optimize", cmd_optimize)):
        p = sub.add_parser(name)
        p.add_argument("source", help="mini-C source file ('-' for stdin)")
        p.add_argument("--entry", help="entry function (default: first)")
        p.add_argument("--merlin", action="store_true",
                       help="apply Merlin's optimizations")
        p.add_argument("--pgo", action="store_true",
                       help="with --merlin: profile-guided layout "
                            "(default training spec)")
        p.add_argument("--superopt", action="store_true",
                       help="with --merlin: caching superoptimizer tier "
                            "(default search spec)")
        p.add_argument("--kernel", default="6.5", choices=sorted(KERNELS))
        p.add_argument("--prog-type", default="xdp",
                       choices=[t.value for t in ProgramType])
        p.add_argument("--mcpu", default="v2", choices=["v2", "v3"])
        p.add_argument("--ctx-size", type=int, default=XDP_CTX_SIZE)
        if name == "run":
            p.add_argument("--packet-size", type=int, default=64)
            p.add_argument("--dst-port", type=int, default=80)
        p.set_defaults(handler=handler)

    f = sub.add_parser("fuzz", help="differential-fuzz the optimizer")
    f.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default: 0)")
    f.add_argument("--budget", type=int, default=200,
                   help="number of generated programs (default: 200)")
    f.add_argument("--corpus", metavar="DIR",
                   help="write .repro files and regression tests here")
    f.add_argument("--layers",
                   help="comma-separated subset of source,ir,bytecode")
    f.add_argument("--tests", type=int, default=4,
                   help="test inputs per program (default: 4)")
    f.add_argument("--kernel", default="6.5", choices=sorted(KERNELS))
    f.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    f.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging minimization of findings")
    f.add_argument("--jobs", type=int, default=1,
                   help="worker processes for program triage (default: 1)")
    f.add_argument("--no-certify", action="store_true",
                   help="skip the per-pass translation-validation axis")
    f.add_argument("--no-layout", action="store_true",
                   help="skip the layout-on vs layout-off axis")
    f.add_argument("--no-superopt", action="store_true",
                   help="skip the superopt-on vs superopt-off axis")
    f.set_defaults(handler=cmd_fuzz)

    t = sub.add_parser("tv", help="certify per-pass semantic equivalence")
    t.add_argument("--suite", default="sysdig,xdp",
                   help="comma-separated suites "
                        "(sysdig,tetragon,tracee,xdp; '' skips)")
    t.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="also certify N fuzz-generated programs")
    t.add_argument("--seed", type=int, default=2024)
    t.add_argument("--scale", type=float, default=0.2,
                   help="trace-suite size scale (default: 0.2)")
    t.add_argument("--count", type=int, default=None,
                   help="programs per trace suite (default: profile-derived)")
    t.add_argument("--kernel", default="6.5", choices=sorted(KERNELS))
    t.add_argument("--out", default="TV_report.json",
                   help="certificate report file "
                        "(default: TV_report.json; '' skips)")
    t.add_argument("--json", action="store_true",
                   help="emit the full certificate report as JSON")
    t.set_defaults(handler=cmd_tv)

    b = sub.add_parser("bench", help="batch-compile a suite through Merlin")
    b.add_argument("--suite", default="sysdig",
                   help="comma-separated suites (sysdig,tetragon,tracee)")
    b.add_argument("--scale", type=float, default=0.2,
                   help="fraction of Table-1 program sizes (default: 0.2)")
    b.add_argument("--count", type=int, default=None,
                   help="programs per suite (default: profile-derived)")
    b.add_argument("--seed", type=int, default=2024)
    b.add_argument("--jobs", type=int, default=1,
                   help="compiler worker processes (default: 1)")
    b.add_argument("--cache", metavar="DIR",
                   help="content-addressed compilation cache directory")
    b.add_argument("--mcpu", default=None, choices=["v2", "v3"],
                   help="override the suite profile's mcpu")
    b.add_argument("--kernel", default="6.5", choices=sorted(KERNELS))
    b.add_argument("--json", action="store_true",
                   help="emit machine-readable results")
    b.set_defaults(handler=cmd_bench)

    tb = sub.add_parser("bench-tier",
                        help="measure one post-pass tier "
                             "(BENCH_<tier>.json)")
    tb.add_argument("tier", choices=sorted(TIERS),
                    help="the post-pass tier to measure")
    tb.add_argument("--suite", default="sysdig,tetragon,tracee,xdp",
                    help="comma-separated suites "
                         "(sysdig,tetragon,tracee,xdp)")
    tb.add_argument("--seed", type=int, default=2024)
    tb.add_argument("--scale", type=float, default=0.2,
                    help="trace-suite size scale (default: 0.2)")
    tb.add_argument("--count", type=int, default=None,
                    help="programs per suite (default: profile-derived)")
    tb.add_argument("--tests", type=int, default=6,
                    help="inputs per program (default: 6)")
    tb.add_argument("--out", default=None,
                    help="result file (default: BENCH_<tier>.json; "
                         "'' skips)")
    tb.add_argument("--json", action="store_true",
                    help="emit machine-readable results")
    tb.set_defaults(handler=cmd_bench_tier)

    s = sub.add_parser("serve",
                       help="run the optimization-as-a-service daemon")
    s.add_argument("--socket", metavar="PATH",
                   help="unix socket path (default: auto temp path)")
    s.add_argument("--tcp", type=int, metavar="PORT",
                   help="serve on 127.0.0.1:PORT instead of a unix socket")
    s.add_argument("--jobs", type=int, default=1,
                   help="compiler worker processes, one compile in "
                        "flight each (default: 1)")
    s.add_argument("--cache", metavar="DIR",
                   help="shared compilation cache directory")
    s.add_argument("--kernel", default="6.5", choices=sorted(KERNELS))
    s.add_argument("--stats-out", metavar="FILE",
                   help="write the final stats snapshot as JSON")
    s.set_defaults(handler=cmd_serve)

    bs = sub.add_parser("bench-serve",
                        help="cold-vs-warm service benchmark "
                             "(BENCH_service.json)")
    bs.add_argument("--requests", type=int, default=1000,
                    help="requests per phase (default: 1000)")
    bs.add_argument("--clients", type=int, default=4,
                    help="concurrent clients (default: 4)")
    bs.add_argument("--unique", type=int, default=80,
                    help="unique programs in the pool (default: 80)")
    bs.add_argument("--seed", type=int, default=2024)
    bs.add_argument("--zipf", type=float, default=1.1,
                    help="Zipf skew exponent (default: 1.1)")
    bs.add_argument("--depth", type=int, default=8,
                    help="per-client pipeline depth (default: 8)")
    bs.add_argument("--jobs", type=int, default=1,
                    help="compile worker processes (default: 1)")
    bs.add_argument("--faults", action="store_true",
                    help="mix protocol-abuse faults into the stream")
    bs.add_argument("--trace", metavar="FILE",
                    help="replay this recorded trace instead of "
                         "synthesizing load")
    bs.add_argument("--record", metavar="FILE",
                    help="save the replayed stream as a trace file")
    bs.add_argument("--speed", type=float, default=0.0,
                    help="inter-arrival time scale (0 = flat out, "
                         "1 = the trace's timing; a synthesized "
                         "stream has no gaps)")
    bs.add_argument("--priority-mix", metavar="SPEC",
                    help="priority distribution of the synthesized "
                         "stream, e.g. '0:0.9,5:0.1'")
    bs.add_argument("--out", default="BENCH_service.json",
                    help="result file (default: BENCH_service.json; "
                         "'' skips)")
    bs.add_argument("--json", action="store_true",
                    help="emit machine-readable results")
    bs.set_defaults(handler=cmd_bench_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
