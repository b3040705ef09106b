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
* ``bench-layout`` — measure the profile-guided layout tier's
  branch-miss/cycle deltas and write ``BENCH_layout.json``
* ``bench-superopt`` — measure the caching superoptimizer tier's
  compactness wins over Merlin-only and write ``BENCH_superopt.json``
* ``serve``    — run the optimization-as-a-service daemon (JSON lines
  over a local socket, admission batching, shared warm cache)
* ``bench-serve`` — replay Zipf-skewed synthetic tenant traffic (or a
  recorded trace) against a daemon or a fleet and write the
  cold-vs-warm ``BENCH_service.json``
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import XDP_CTX_SIZE, compile_baseline, compile_bpf, optimize as _optimize
from .isa import ProgramType, disassemble
from .verifier import KERNELS, verify as _verify
from .vm import Machine
from .workloads.packets import build_packet


def _load(args) -> tuple:
    source = open(args.source).read() if args.source != "-" else sys.stdin.read()
    module = compile_bpf(source)
    entry = args.entry or next(iter(module.functions))
    return source, module, entry


def _prog_kwargs(args) -> dict:
    return dict(
        prog_type=ProgramType(args.prog_type),
        mcpu=args.mcpu,
        ctx_size=args.ctx_size,
    )


def cmd_compile(args) -> int:
    source, module, entry = _load(args)
    if args.merlin:
        program, report = _optimize(compile_bpf(source), entry,
                                    kernel=KERNELS[args.kernel],
                                    pgo=True if getattr(args, "pgo", False)
                                    else None,
                                    superopt=True
                                    if getattr(args, "superopt", False)
                                    else None,
                                    **_prog_kwargs(args))
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
        program = compile_baseline(module, entry, **_prog_kwargs(args))
        print(f"; baseline: {program.ni} insns", file=sys.stderr)
    print(disassemble(program.insns))
    return 0


def cmd_verify(args) -> int:
    source, module, entry = _load(args)
    if args.merlin:
        program, _ = _optimize(compile_bpf(source), entry,
                               kernel=KERNELS[args.kernel],
                               **_prog_kwargs(args))
    else:
        program = compile_baseline(module, entry, **_prog_kwargs(args))
    result = _verify(program, KERNELS[args.kernel])
    print(f"ok={result.ok} npi={result.npi} states={result.total_states} "
          f"peak={result.peak_states} "
          f"time={result.verification_time_ns / 1000:.1f}us")
    if not result.ok:
        print(f"rejected: {result.reason}")
    return 0 if result.ok else 1


def cmd_run(args) -> int:
    source, module, entry = _load(args)
    if args.merlin:
        program, _ = _optimize(compile_bpf(source), entry,
                               **_prog_kwargs(args))
    else:
        program = compile_baseline(module, entry, **_prog_kwargs(args))
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
    source, module, entry = _load(args)
    program, report = _optimize(compile_bpf(source), entry,
                                kernel=KERNELS[args.kernel],
                                **_prog_kwargs(args))
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
    from .fuzz import LAYERS, run_campaign

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
        layout=not args.no_layout,
        superopt=not args.no_superopt,
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

    pipeline = MerlinPipeline(kernel=KERNELS[args.kernel])
    report = CertificateReport(seed=args.seed)
    skipped: List[tuple] = []

    def certify(name: str, build) -> None:
        try:
            _, merlin = build()
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
                    validate="report"))
        else:
            for program in generate_suite(suite, seed=args.seed,
                                          scale=args.scale, count=args.count):
                module = compile_source(program.source, program.name)
                func = module.get(program.entry)
                certify(program.name, lambda f=func, m=module: pipeline.compile(
                    f, m, prog_type=ProgramType.TRACEPOINT, mcpu="v3",
                    ctx_size=TRACE_CTX_SIZE, validate="report"))

    if args.fuzz:
        from .fuzz.generator import LAYERS, generate
        from .ir import parse_function
        from .isa import BpfProgram, assemble

        layers = list(LAYERS)
        for index in range(args.fuzz):
            layer = layers[index % len(layers)]
            case = generate(layer, args.seed * 1_000_003 + index)
            name = f"fuzz/{layer}/{index}"
            if layer == "bytecode":
                def build(c=case):
                    program = BpfProgram(c.name, assemble(c.text),
                                         prog_type=c.prog_type,
                                         ctx_size=c.ctx_size, mcpu=c.mcpu)
                    return pipeline.optimize_program(program,
                                                     validate="report")
            else:
                def build(c=case, l=layer):
                    if l == "source":
                        module = compile_source(c.text)
                        func = module.get(c.name)
                    else:
                        module = None
                        func = parse_function(c.text)
                    return pipeline.compile(func, module,
                                            prog_type=c.prog_type,
                                            mcpu=c.mcpu, ctx_size=c.ctx_size,
                                            validate="report")
            certify(name, build)

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
    from .core import MerlinPipeline
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
        batch = pipeline.compile_many(
            suite_jobs(programs, mcpu=args.mcpu or None),
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


def cmd_bench_layout(args) -> int:
    from .eval.layoutperf import VM_SUITES, bench_layout

    suites = [s.strip() for s in args.suite.split(",")]
    for suite in suites:
        if suite not in VM_SUITES:
            print(f"unknown suite {suite!r} (choose from "
                  f"{', '.join(VM_SUITES)})", file=sys.stderr)
            return 2

    report = bench_layout(suites, seed=args.seed, scale=args.scale,
                          count=args.count, tests_per_program=args.tests)
    if args.out:
        report.write(args.out)
    if args.json:
        print(report.to_json())
    else:
        for suite in report.suites:
            verdict = "identical" if suite.behavior_identical else \
                f"MISMATCH ({suite.mismatch})"
            certs = "certified" if suite.witnesses_certified else \
                "NOT CERTIFIED"
            print(f"{suite.suite}: {suite.programs} programs, "
                  f"{suite.relaid} relaid ({suite.rewrites} rewrites) — "
                  f"behavior {verdict}, {suite.witnesses} witness(es) "
                  f"{certs}")
            print(f"  branch misses: {suite.before.branch_misses} -> "
                  f"{suite.after.branch_misses} "
                  f"(delta {suite.branch_miss_delta:+d})")
            print(f"  cache misses:  {suite.before.cache_misses} -> "
                  f"{suite.after.cache_misses}")
            print(f"  cycles:        {suite.before.cycles} -> "
                  f"{suite.after.cycles} (delta {suite.cycle_delta:+d})")
        print(f"improved: {report.suites_improved}/{len(report.suites)} "
              f"suites")
        if args.out:
            print(f"wrote {args.out}")
    ok = report.all_behavior_identical and report.all_certified
    return 0 if ok else 1


def cmd_bench_superopt(args) -> int:
    from .eval.superoptperf import VM_SUITES, bench_superopt

    suites = [s.strip() for s in args.suite.split(",")]
    for suite in suites:
        if suite not in VM_SUITES:
            print(f"unknown suite {suite!r} (choose from "
                  f"{', '.join(VM_SUITES)})", file=sys.stderr)
            return 2

    report = bench_superopt(suites, seed=args.seed, scale=args.scale,
                            count=args.count,
                            tests_per_program=args.tests)
    if args.out:
        report.write(args.out)
    if args.json:
        print(report.to_json())
    else:
        for suite in report.suites:
            verdict = "identical" if suite.behavior_identical else \
                f"MISMATCH ({suite.mismatch})"
            certs = "certified" if suite.witnesses_certified else \
                "NOT CERTIFIED"
            print(f"{suite.suite}: {len(suite.programs)} programs, "
                  f"{suite.improved} improved ({suite.rewrites} rewrites) "
                  f"— NI {suite.ni_merlin} -> {suite.ni_superopt}, "
                  f"behavior {verdict}, {suite.witnesses} witness(es) "
                  f"{certs}")
            print(f"  searches: {suite.searches}  "
                  f"memo hits: {suite.memo_hits}  "
                  f"site rejects: {suite.site_rejects}")
            for row in suite.programs:
                if row.improved:
                    print(f"  {row.name}: {row.ni_merlin} -> "
                          f"{row.ni_superopt} insns "
                          f"({row.rewrites} rewrite(s))")
        print(f"improved: {report.programs_improved} program(s) beyond "
              f"Merlin-only")
        if args.out:
            print(f"wrote {args.out}")
    ok = report.all_behavior_identical and report.all_certified
    return 0 if ok else 1


def cmd_serve(args) -> int:
    import json as _json
    import signal

    from .serve import DaemonThread, FleetConfig, FleetThread, ServeConfig

    options = dict(
        socket_path=None if args.tcp is not None else args.socket,
        host="127.0.0.1" if args.tcp is not None else None,
        port=args.tcp or 0,
        jobs=args.jobs,
        cache_dir=args.cache,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
        kernel=args.kernel,
        cache_ttl=args.cache_ttl,
        cache_max_bytes=args.cache_max_bytes,
        preempt_priority=args.preempt_priority,
    )
    handle = (FleetThread(FleetConfig(shards=args.fleet, **options))
              if args.fleet else DaemonThread(ServeConfig(**options)))
    server = handle.start().server
    config = server.config
    kind = handle.address[0]
    where = handle.address[1] if kind == "unix" else \
        f"{handle.address[1]}:{handle.address[2]}"
    what = f"fleet of {args.fleet} shard(s)" if args.fleet else "daemon"
    print(f"repro serve: {what} listening on {kind} {where} "
          f"(jobs={config.jobs}, max_batch={config.max_batch}, "
          f"max_delay={config.max_delay * 1000:.1f}ms, "
          f"cache={config.cache_dir})", file=sys.stderr)

    done = []

    def _stop(signum, frame):
        if not done:
            done.append(signum)
            print("repro serve: draining...", file=sys.stderr)
            server.request_stop(drain=True)

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    handle._thread.join()
    snapshot = server.final_snapshot
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            fh.write(_json.dumps(snapshot, indent=2) + "\n")
    stats = server.stats
    tail = (f"{stats.forwarded} routed ({stats.shard_lost_errors} "
            f"shard-lost, {stats.respawns} respawns)" if args.fleet else
            f"{snapshot['requests']['compiles']} compiles, cache hit "
            f"rate {snapshot['cache']['hit_rate'] * 100:.0f}%")
    print(f"repro serve: {stats.responses_sent} responses, {tail}",
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
        depth=args.depth, shards=args.fleet, jobs=args.jobs,
        max_batch=args.max_batch, max_delay=args.max_delay_ms / 1000.0,
        cache_ttl=args.cache_ttl, cache_max_bytes=args.cache_max_bytes,
        faults=faults, priority_mix=_parse_priority_mix(args.priority_mix),
        trace_path=args.trace, record_path=args.record, speed=args.speed,
        progress=progress)
    if args.out:
        report.write(args.out)
    integrity = report.cache_integrity
    if args.json:
        print(report.to_json())
    else:
        for phase in (report.cold, report.warm):
            lat = phase.latency_ms
            print(f"{phase.phase}: {phase.ok}/{phase.requests} ok "
                  f"({phase.dropped} dropped), "
                  f"{phase.programs_per_second:.1f} programs/s, "
                  f"p50 {lat['p50']:.1f}ms p99 {lat['p99']:.1f}ms, "
                  f"hit rate {phase.hit_rate * 100:.0f}%")
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

    lb = sub.add_parser("bench-layout",
                        help="measure the profile-guided layout tier "
                             "(BENCH_layout.json)")
    lb.add_argument("--suite", default="sysdig,tetragon,tracee,xdp",
                    help="comma-separated suites "
                         "(sysdig,tetragon,tracee,xdp)")
    lb.add_argument("--seed", type=int, default=2024)
    lb.add_argument("--scale", type=float, default=0.2,
                    help="trace-suite size scale (default: 0.2)")
    lb.add_argument("--count", type=int, default=None,
                    help="programs per suite (default: profile-derived)")
    lb.add_argument("--tests", type=int, default=6,
                    help="inputs per program (default: 6)")
    lb.add_argument("--out", default="BENCH_layout.json",
                    help="result file (default: BENCH_layout.json; "
                         "'' skips)")
    lb.add_argument("--json", action="store_true",
                    help="emit machine-readable results")
    lb.set_defaults(handler=cmd_bench_layout)

    sb = sub.add_parser("bench-superopt",
                        help="measure the caching superoptimizer tier "
                             "(BENCH_superopt.json)")
    sb.add_argument("--suite", default="sysdig,tetragon,tracee,xdp",
                    help="comma-separated suites "
                         "(sysdig,tetragon,tracee,xdp)")
    sb.add_argument("--seed", type=int, default=2024)
    sb.add_argument("--scale", type=float, default=0.2,
                    help="trace-suite size scale (default: 0.2)")
    sb.add_argument("--count", type=int, default=None,
                    help="programs per suite (default: profile-derived)")
    sb.add_argument("--tests", type=int, default=6,
                    help="inputs per program (default: 6)")
    sb.add_argument("--out", default="BENCH_superopt.json",
                    help="result file (default: BENCH_superopt.json; "
                         "'' skips)")
    sb.add_argument("--json", action="store_true",
                    help="emit machine-readable results")
    sb.set_defaults(handler=cmd_bench_superopt)

    s = sub.add_parser("serve",
                       help="run the optimization-as-a-service daemon")
    s.add_argument("--socket", metavar="PATH",
                   help="unix socket path (default: auto temp path)")
    s.add_argument("--tcp", type=int, metavar="PORT",
                   help="serve on 127.0.0.1:PORT instead of a unix socket")
    s.add_argument("--jobs", type=int, default=1,
                   help="compiler worker processes (default: 1)")
    s.add_argument("--cache", metavar="DIR",
                   help="shared compilation cache directory")
    s.add_argument("--max-batch", type=int, default=16,
                   help="admission batch size ceiling (default: 16)")
    s.add_argument("--max-delay-ms", type=float, default=10.0,
                   help="admission window linger in ms (default: 10)")
    s.add_argument("--kernel", default="6.5", choices=sorted(KERNELS))
    s.add_argument("--fleet", type=int, default=0, metavar="N",
                   help="run a consistent-hash router over N shard "
                        "daemons instead of a single daemon")
    s.add_argument("--cache-ttl", type=float, default=None,
                   metavar="SECONDS",
                   help="idle TTL for cache entries (default: keep)")
    s.add_argument("--cache-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="disk-store size budget (LRU-evicted by sweep)")
    s.add_argument("--preempt-priority", type=int, default=1,
                   help="priority that cuts the admission linger short "
                        "(default: 1)")
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
                    help="compile worker processes per daemon "
                         "(default: 1)")
    bs.add_argument("--max-batch", type=int, default=16)
    bs.add_argument("--max-delay-ms", type=float, default=5.0)
    bs.add_argument("--faults", action="store_true",
                    help="mix protocol-abuse faults into the stream")
    bs.add_argument("--fleet", type=int, default=0, metavar="N",
                    help="benchmark a router over N shard daemons "
                         "instead of a single daemon")
    bs.add_argument("--trace", metavar="FILE",
                    help="replay this recorded trace instead of "
                         "synthesizing load")
    bs.add_argument("--record", metavar="FILE",
                    help="save the replayed stream as a trace file")
    bs.add_argument("--speed", type=float, default=0.0,
                    help="inter-arrival time scale (0 = flat out, "
                         "1 = the trace's timing; a synthesized "
                         "stream has no gaps)")
    bs.add_argument("--cache-ttl", type=float, default=None,
                    metavar="SECONDS",
                    help="idle TTL for cache entries")
    bs.add_argument("--cache-max-bytes", type=int, default=None,
                    metavar="BYTES",
                    help="disk-store size budget")
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
