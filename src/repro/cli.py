"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — a one-minute tour: writes, verified reads, a detected
  attack, a whole-store audit.
* ``list-experiments`` — the reproducible paper figures.
* ``bench <experiment> [--ops N] [--factor F]`` — run one figure
  reproduction and print its table.
* ``ycsb --workload A --system p2 [--records N] [--ops N]`` — a single
  YCSB run on a chosen system.
* ``audit`` — build a demo store and run the full integrity audit
  (pass ``--tamper`` to watch it fail).
* ``crash-test`` — the crash-consistency harness: crash the store at
  every registered crash point (plus random points, a rollback attack,
  and an fsync-dropping device) and verify recovery (docs/robustness.md).
* ``lint`` — the trust-boundary invariant checker (``repro.analysis``):
  AST rules for enclave/untrusted separation, fail-closed verification,
  crash hygiene, and telemetry naming (docs/static-analysis.md).
* ``trace-report`` — cost-attribution analysis of one or more exported
  Chrome traces: top-down cost tree, critical path, most expensive span
  types (docs/observability.md).
* ``perf-report`` — render the committed ``BENCH_history.jsonl``
  trajectory as CSV/markdown with regression flags.

Every command that runs a store accepts the shared output flags:
``--metrics-out`` (JSON metrics+spans+events, or Prometheus text for
``.prom``/``.txt`` paths), ``--trace-out`` (Chrome trace-event JSON —
load it in Perfetto), and ``--events-out`` (structured-event JSONL).
See docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.sim.scale import ScaleConfig


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _add_output_flags(parser) -> None:
    """The shared telemetry-export flags, identical on every command
    that runs a store (bench, ycsb, perf-baseline, crash-test, audit)."""
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="dump the run's telemetry (JSON, or Prometheus "
                             "text for .prom/.txt paths)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export a Chrome trace-event JSON file "
                             "(Perfetto-loadable; feed it to trace-report)")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="write the structured event log as JSONL")


def _wants_outputs(args) -> bool:
    """True when any shared output flag was passed."""
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "events_out", None)
    )


def _write_run_outputs(args, source) -> None:
    """Honour the shared output flags for one finished run.

    ``source`` is either the active :class:`~repro.telemetry.TelemetryHub`
    (commands whose runs build many stores) or a single
    :class:`~repro.telemetry.Telemetry`; every exporter feeds off the
    same normalised view, so a new exporter is one extra branch here
    rather than one per command.
    """
    from repro.telemetry import (
        TelemetryHub,
        write_events_file,
        write_metrics_file,
        write_trace_file,
    )

    if not _wants_outputs(args):
        return
    if isinstance(source, TelemetryHub):
        snapshot = source.merged_snapshot()
        spans = source.spans()
        events = source.events()
        trace_sources = source.trace_sources()
    else:
        snapshot = source.metrics.snapshot()
        spans = source.tracer.export()
        events = source.events.export()
        trace_sources = [source.trace_source()]
    if args.metrics_out:
        write_metrics_file(args.metrics_out, snapshot, spans, events)
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        write_trace_file(args.trace_out, trace_sources)
        print(f"trace written to {args.trace_out}")
    if args.events_out:
        write_events_file(args.events_out, events)
        print(f"events written to {args.events_out}")


def _experiment_registry():
    from repro.bench import experiments as exp

    return {
        "fig2": exp.fig2_buffer_placement,
        "fig5a": exp.fig5a_read_write_ratio,
        "fig5b": exp.fig5b_data_size,
        "fig5c": exp.fig5c_distributions,
        "fig6a": exp.fig6a_read_scaling,
        "fig6b": exp.fig6b_mmap_vs_buffer,
        "fig6c": exp.fig6c_buffer_size,
        "fig7a": exp.fig7a_write_compaction,
        "fig7b": exp.fig7b_compaction_onoff,
        "fig8": exp.fig8_write_buffer,
        "update_in_place": exp.update_in_place_baseline,
        "case_study_ct": exp.case_study_ct,
        "ablation_early_stop": exp.ablation_early_stop,
        "ablation_embedded_proofs": exp.ablation_embedded_proofs,
        "ablation_counter_buffer": exp.ablation_counter_buffer,
    }


def cmd_demo(_args) -> int:
    """The `demo` command: writes, verified reads, one detected attack, an audit."""
    from repro.core.adversary import StaleRevealProver
    from repro.core.errors import FreshnessViolation
    from repro.core.prover import Prover
    from repro.core.store_p2 import ELSMP2Store

    store = ELSMP2Store(scale=ScaleConfig(factor=1 / 4096))
    print("writing 200 records (two versions for every fourth key)...")
    for i in range(200):
        store.put(b"user%04d" % i, b"value-%d" % i)
    for i in range(0, 200, 4):
        store.put(b"user%04d" % i, b"value-%d-v2" % i)
    store.flush()
    print(f"levels: {store.db.level_indices()}")

    verified = store.get_verified(b"user0004")
    print(f"verified GET user0004 -> {verified.value!r} "
          f"(proof {verified.proof_bytes} B)")
    print(f"verified GET ghost    -> {store.get(b'ghost')!r}")
    print(f"verified SCAN user0010..user0013 -> "
          f"{[k.decode() for k, _ in store.scan(b'user0010', b'user0013')]}")

    store.compact_all()
    store.prover = StaleRevealProver(store.db)
    try:
        store.get(b"user0004")
        print("!! attack NOT detected")
        return 1
    except FreshnessViolation as exc:
        print(f"stale-read attack detected: {exc}")
    store.prover = Prover(store.db)  # back to an honest host

    report = store.audit()
    print(report.summary())
    return 0 if report.clean else 1


def cmd_list_experiments(_args) -> int:
    """The `list-experiments` command."""
    for name, fn in _experiment_registry().items():
        doc = (fn.__doc__ or "").strip().splitlines()
        print(f"{name:<26} {doc[0] if doc else ''}")
    return 0


def cmd_bench(args) -> int:
    """The `bench` command: run one figure reproduction and print it."""
    from repro.telemetry import HUB

    registry = _experiment_registry()
    if args.experiment not in registry:
        print(f"unknown experiment {args.experiment!r}; try list-experiments",
              file=sys.stderr)
        return 2
    if args.factor is not None:
        import repro.bench.experiments as exp

        exp.BENCH_FACTOR = args.factor
    if args.wal_sync_every is not None:
        # Experiments build their stores internally; retune the session
        # default so every one of them picks the cadence up (it is then
        # recorded in each store's report()).
        import repro.lsm.db as lsm_db

        lsm_db.DEFAULT_WAL_SYNC_EVERY = args.wal_sync_every
    # An experiment constructs many stores internally; the hub merges
    # their per-store registries into one exportable snapshot.
    if _wants_outputs(args):
        HUB.activate()
    try:
        result = registry[args.experiment](ops=args.ops)
        _write_run_outputs(args, HUB)
    finally:
        if _wants_outputs(args):
            HUB.deactivate()
    if args.json_out:
        _write_json(
            args.json_out,
            {
                "experiment": result.exp_id,
                "title": result.title,
                "columns": result.columns,
                "rows": result.rows,
                "notes": result.notes,
            },
        )
        print(f"results written to {args.json_out}")
    print(result.format_table())
    if args.chart:
        print()
        print(result.render_chart())
    if args.save:
        path = result.save()
        print(f"saved to {path}")
    return 0


def cmd_ycsb_adversarial(args) -> int:
    """`ycsb --adversary`: the attack-vs-defense experiment triple.

    For each attack, runs the honest / undefended / defended experiments
    (:func:`repro.bench.adversarial.run_attack_profile`) and applies the
    standing acceptance bars; ``--max-defended-degradation`` adds the CI
    gate — fail when the *defended* store still loses more than the
    committed share of honest goodput under attack.
    """
    from repro.bench.adversarial import (
        acceptance_problems,
        format_result,
        run_attack_profile,
    )
    from repro.telemetry import HUB
    from repro.ycsb.adversarial import ATTACKS

    attacks = ATTACKS if args.adversary == "all" else (args.adversary,)
    problems: list[str] = []
    rows = []
    # The experiments build their stores internally; the hub merges
    # every store's telemetry into one exportable view.
    if _wants_outputs(args):
        HUB.activate()
    try:
        for attack in attacks:
            result = run_attack_profile(attack, quick=args.quick)
            rows.append(result)
            print(format_result(result))
            problems.extend(acceptance_problems(result))
        _write_run_outputs(args, HUB)
    finally:
        if _wants_outputs(args):
            HUB.deactivate()
    if args.max_defended_degradation is not None:
        for result in rows:
            honest = result["honest_kops"]
            defended = result["defended_kops"]
            still_lost = (
                100.0 * (honest - defended) / honest if honest else 0.0
            )
            if still_lost > args.max_defended_degradation:
                problems.append(
                    f"{result['attack']}: defended store still loses "
                    f"{still_lost:.1f}% of honest goodput "
                    f"(gate: {args.max_defended_degradation}%)"
                )
    if args.json_out:
        _write_json(args.json_out, {"schema": 1, "results": rows})
        print(f"results written to {args.json_out}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_ycsb(args) -> int:
    """The `ycsb` command: one workload run on a chosen system."""
    if args.adversary:
        return cmd_ycsb_adversarial(args)
    from repro.baselines.unsecured import UnsecuredLSMStore
    from repro.core.store_p1 import ELSMP1Store
    from repro.core.store_p2 import ELSMP2Store
    from repro.ycsb.runner import load_phase, run_phase
    from repro.ycsb.workload import (
        WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D, WORKLOAD_E, WORKLOAD_F,
        CoreWorkload,
    )

    workloads = {
        "A": WORKLOAD_A, "B": WORKLOAD_B, "C": WORKLOAD_C,
        "D": WORKLOAD_D, "E": WORKLOAD_E, "F": WORKLOAD_F,
    }
    scale = ScaleConfig(factor=args.factor)
    sync_every = args.wal_sync_every
    # Group commit pairs with the immutable-MemTable queue: rotate
    # instead of stop-the-world flushing, so writes never block on flush.
    immutables = 2 if args.group_commit > 1 else 0
    systems = {
        "p2": lambda: ELSMP2Store(
            scale=scale, wal_sync_every=sync_every,
            max_immutable_memtables=immutables,
        ),
        "p1": lambda: ELSMP1Store(
            scale=scale, wal_sync_every=sync_every,
            max_immutable_memtables=immutables,
        ),
        "plain": lambda: UnsecuredLSMStore(scale=scale),
    }
    store = systems[args.system]()
    spec = workloads[args.workload]
    if args.multiget > 1 and not hasattr(store, "multi_get"):
        print(f"system {args.system} has no multi_get; running sequentially",
              file=sys.stderr)
    if args.group_commit > 1 and not hasattr(store, "group_commit"):
        print(f"system {args.system} has no group_commit; writing "
              f"sequentially", file=sys.stderr)
    print(f"loading {args.records} records into {args.system}...")
    load_phase(store, CoreWorkload(spec, args.records, seed=1))
    result = run_phase(
        store, CoreWorkload(spec, args.records, seed=7), args.ops,
        multiget=args.multiget,
        group_commit=args.group_commit,
        group_max_delay_us=args.group_max_delay_us,
    )
    print(f"workload {args.workload} on {args.system}: "
          f"{result.mean_latency_us:.1f} us/op mean, "
          f"p95 {result.overall.p95:.1f}, p99 {result.overall.p99:.1f} "
          f"({result.operations} ops, simulated)")
    for kind, stats in sorted(result.per_op.items()):
        print(f"  {kind:<16} n={stats.count:<6} mean={stats.mean:.1f} us")
    if args.json_out:
        payload = {
            "workload": args.workload,
            "system": args.system,
            "records": args.records,
            "operations": result.operations,
            "multiget": args.multiget,
            "group_commit": args.group_commit,
            "duration_us": round(result.duration_us, 1),
            "mean_latency_us": round(result.mean_latency_us, 2),
            "p95_us": round(result.overall.p95, 2),
            "p99_us": round(result.overall.p99, 2),
            "per_op": {
                kind: {
                    "count": stats.count,
                    "mean_us": round(stats.mean, 2),
                    "p99_us": round(stats.p99, 2),
                }
                for kind, stats in sorted(result.per_op.items())
            },
        }
        if hasattr(store, "report"):
            report = store.report()
            for field in (
                "proof_bytes_total",
                "ecalls",
                "ocalls",
                "boundary_copy_bytes",
                "verified_gets",
                "verified_multi_gets",
                "verifier_cache_hits",
                "verifier_cache_misses",
            ):
                if field in report:
                    payload[field] = report[field]
        _write_json(args.json_out, payload)
        print(f"results written to {args.json_out}")
    _write_run_outputs(args, store.telemetry)
    return 0


def cmd_perf_baseline(args) -> int:
    """The `perf-baseline` command: sequential vs batched verified reads."""
    from repro.bench.history import append_history, history_record
    from repro.bench.perf_baseline import (
        acceptance_problems,
        format_result,
        regression_problems,
        run_perf_baseline,
        write_baseline,
    )
    from repro.telemetry import HUB

    # The baseline builds two stores internally; the hub merges them.
    gc_result = None
    if _wants_outputs(args):
        HUB.activate()
    try:
        result = run_perf_baseline(quick=args.quick)
        if args.group_commit:
            from repro.bench import group_commit as gc_bench

            gc_result = gc_bench.run_group_commit_baseline(quick=args.quick)
        _write_run_outputs(args, HUB)
    finally:
        if _wants_outputs(args):
            HUB.deactivate()
    print(format_result(result))
    problems = acceptance_problems(result)
    if args.check:
        problems = regression_problems(
            args.check, result, tolerance=args.tolerance
        )
    results = [result]
    if gc_result is not None:
        from repro.bench import group_commit as gc_bench

        print(gc_bench.format_result(gc_result))
        if args.check:
            problems.extend(regression_problems(
                args.check, gc_result, tolerance=args.tolerance
            ))
        else:
            problems.extend(gc_bench.acceptance_problems(gc_result))
        results.append(gc_result)
    if args.adversarial:
        from repro.bench import adversarial

        for row in adversarial.run_adversarial_suite(quick=args.quick):
            print(adversarial.format_result(row))
            problems.extend(adversarial.acceptance_problems(row))
            # The bulky nested run dicts stay out of the committed
            # baseline; the headline columns are the trajectory.
            results.append(
                {k: v for k, v in row.items() if k != "runs"}
            )
    if args.out:
        for row in results:
            write_baseline(args.out, row)
        print(f"baseline written to {args.out}")
    if args.history:
        for row in results:
            append_history(args.history, history_record(row))
        print(f"history appended to {args.history}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_crash_test(args) -> int:
    """The `crash-test` command: the full crash/recover matrix."""
    from repro.faults import CRASH_SITES, CrashConsistencyHarness
    from repro.telemetry import HUB

    sites = tuple(CRASH_SITES)
    if args.sites:
        sites = tuple(args.sites.split(","))
        unknown = [s for s in sites if s not in CRASH_SITES]
        if unknown:
            print(f"unknown crash sites: {', '.join(unknown)}", file=sys.stderr)
            print(f"registered: {', '.join(CRASH_SITES)}", file=sys.stderr)
            return 2
    hits = tuple(int(h) for h in args.hits.split(","))
    if args.quick:
        hits = hits[:1]

    harness = CrashConsistencyHarness(
        seed=args.seed, ops=args.ops, sync_every=args.sync_every
    )
    if _wants_outputs(args):
        HUB.activate()
    try:
        results = harness.run_all(
            sites=sites,
            hits=hits,
            random_rounds=args.random_rounds,
        )
        _write_run_outputs(args, HUB)
    finally:
        if _wants_outputs(args):
            HUB.deactivate()

    width = max(len(r.scenario) for r in results)
    print(f"{'scenario':<{width}}  {'result':<11}  crashed-at")
    failures = 0
    for r in results:
        # A scenario whose fault never fired tested nothing: it fails.
        verdict = "PASS" if r.ok else "FAIL" if r.triggered else "NOT-REACHED"
        failures += 0 if r.ok else 1
        where = r.crashed_at or ("-" if r.triggered else "not reached")
        line = f"{r.scenario:<{width}}  {verdict:<11}  {where}"
        if not r.ok or args.verbose:
            line += f"  [{r.detail}]"
        print(line)
    print(
        f"\n{len(results)} crash/recover cycles: "
        f"{len(results) - failures} passed, {failures} failed "
        f"(seed={args.seed}, ops={args.ops}, sync_every={args.sync_every})"
    )
    # A site no hit reached never had its recovery tested.
    unreached = [s for s in sites if s not in {r.crashed_at for r in results}]
    if unreached:
        print(f"FAIL: sites no hit reached: {', '.join(unreached)}", file=sys.stderr)
    return 1 if failures or unreached else 0


def _explain_rule(rule: str) -> int:
    """Print one rule's doc + minimal examples (``lint --explain EL###``)."""
    from repro.analysis import ALL_RULES, RULE_DOCS, RULE_EXAMPLES

    rule = rule.upper()
    if rule not in ALL_RULES:
        known = ", ".join(sorted(ALL_RULES))
        print(f"unknown rule {rule!r}; known rules: {known}", file=sys.stderr)
        return 2
    severity, summary = ALL_RULES[rule]
    print(f"{rule} [{severity.value}] {summary}")
    doc = RULE_DOCS.get(rule)
    if doc:
        print()
        print(doc.strip())
    example = RULE_EXAMPLES.get(rule)
    if example:
        print()
        print(f"Flagged (violates {rule}):")
        for line in example.positive.strip("\n").splitlines():
            print(f"    {line}")
        print()
        print("Clean (the fix):")
        for line in example.negative.strip("\n").splitlines():
            print(f"    {line}")
    return 0


def cmd_lint(args) -> int:
    """The `lint` command: run the trust-boundary invariant checker."""
    import time
    from collections import Counter
    from pathlib import Path

    from repro.analysis import (
        ALL_RULES,
        AnalysisError,
        Severity,
        load_zone_config,
        run_analysis,
    )
    from repro.analysis.engine import (
        ProjectIndex,
        dependency_cone,
        git_changed_modules,
    )
    from repro.analysis.zones import DEFAULT_CONFIG_RELPATH

    if args.explain:
        return _explain_rule(args.explain)

    # In SARIF mode the machine-readable report owns stdout; every
    # human-facing line moves to stderr so the output stays parseable.
    human_out = sys.stderr if args.format == "sarif" else sys.stdout
    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]
    config_path = root / DEFAULT_CONFIG_RELPATH
    if not config_path.is_file():
        print(f"zone config not found: {config_path}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        config = load_zone_config(config_path)
        # One ProjectIndex per lint run: every pass (rules, taint,
        # concurrency, protocol, costmodel) shares this build and the
        # call graph cached on it.
        index = ProjectIndex.build(root, config)
        if args.update_costs or args.costs_out:
            from repro.analysis import analyze_costs, render_costs_toml

            if not config.costmodel.enabled:
                print(
                    "lint: no [costmodel] section in zones.toml; nothing "
                    "to certify",
                    file=sys.stderr,
                )
                return 2
            result = analyze_costs(index)
            if result.missing:
                for entry, qual in sorted(result.missing.items()):
                    print(
                        f"lint: costmodel entry point {entry!r} resolves "
                        f"to no function ({qual})",
                        file=sys.stderr,
                    )
                return 2
            rendered = render_costs_toml(result.certificates)
            if args.costs_out:
                Path(args.costs_out).write_text(rendered, encoding="utf-8")
                print(f"derived cost certificate written to {args.costs_out}")
            if args.update_costs:
                costs_path = root / "analysis" / "costs.toml"
                costs_path.write_text(rendered, encoding="utf-8")
                print(
                    f"cost certificates updated: "
                    f"{len(result.certificates)} entry point(s) -> "
                    f"{costs_path}"
                )
                return 0
        if args.changed_only:
            changed = git_changed_modules(index)
            if changed is None:
                print(
                    "lint: --changed-only needs git and unchanged checker "
                    "inputs (zones.toml, costs.toml, the telemetry doc); "
                    "running the full analysis instead",
                    file=sys.stderr,
                )
            else:
                index.scope = dependency_cone(index, changed)
                print(
                    f"lint: --changed-only: {len(changed)} changed "
                    f"module(s), {len(index.scope)}-module dependency cone",
                    file=human_out,
                )
        findings = run_analysis(
            root, config, rule_filter=args.rule or None, index=index
        )
    except (AnalysisError, ValueError) as exc:
        print(f"lint failed to run: {exc}", file=sys.stderr)
        return 2
    wall_time_s = round(time.perf_counter() - started, 3)

    for finding in findings:
        if args.format == "github":
            print(finding.format_github())
        else:
            print(finding.format_text(), file=human_out)

    # report()-style summary: rule counts by severity.
    by_rule = Counter(f.rule for f in findings)
    by_severity = Counter(f.severity for f in findings)
    summary = {
        "files_checked": "src/repro",
        "findings_total": len(findings),
        "errors": by_severity[Severity.ERROR],
        "warnings": by_severity[Severity.WARNING],
        "notes": by_severity[Severity.INFO],
        "wall_time_s": wall_time_s,
        "by_rule": {
            rule: {
                "count": count,
                "severity": ALL_RULES[rule][0].value,
                "summary": ALL_RULES[rule][1],
            }
            for rule, count in sorted(by_rule.items())
        },
    }
    if args.json_out:
        _write_json(
            args.json_out,
            {
                **summary,
                "findings": [
                    {
                        "rule": f.rule,
                        "severity": f.severity.value,
                        "path": f.path,
                        "line": f.line,
                        "message": f.message,
                        "fingerprint": f.fingerprint,
                    }
                    for f in findings
                ],
            },
        )
        print(f"results written to {args.json_out}", file=human_out)
    if args.format == "sarif" or args.sarif_out:
        import json as _json

        from repro.analysis.sarif import sarif_report

        report = sarif_report(findings)
        if args.sarif_out:
            _write_json(args.sarif_out, report)
            print(f"SARIF written to {args.sarif_out}", file=human_out)
        if args.format == "sarif":
            print(_json.dumps(report, indent=2, sort_keys=True))
    if findings:
        print(file=human_out)
    print(
        f"lint: {len(findings)} finding(s) ({summary['errors']} error(s), "
        f"{summary['warnings']} warning(s)) in {wall_time_s}s",
        file=human_out,
    )
    for rule, info in summary["by_rule"].items():
        print(
            f"  {rule} [{info['severity']}] x{info['count']}  "
            f"{info['summary']}",
            file=human_out,
        )
    if args.max_seconds is not None and wall_time_s > args.max_seconds:
        print(
            f"lint: wall time {wall_time_s}s exceeded the "
            f"--max-seconds {args.max_seconds}s budget",
            file=sys.stderr,
        )
        return 2
    # INFO findings (the EL104 coverage self-check) are advisory: they
    # print, but never fail the run.
    gating = [f for f in findings if f.severity is not Severity.INFO]
    return 1 if gating else 0


def cmd_audit(args) -> int:
    """The `audit` command: whole-store integrity audit (optionally tampered)."""
    from repro.core.adversary import tamper_sstable_byte
    from repro.core.store_p2 import ELSMP2Store

    store = ELSMP2Store(scale=ScaleConfig(factor=1 / 4096))
    for i in range(300):
        store.put(b"user%04d" % (i % 150), b"value-%d" % i)
    store.flush()
    if args.tamper:
        name = tamper_sstable_byte(store.disk)
        print(f"tampered one record byte in {name}")
        for level in store.db.level_indices():
            for meta in store.db.level_run(level).tables:
                store.db.fetcher.invalidate_file(meta.name)
    report = store.audit()
    print(report.summary())
    _write_run_outputs(args, store.telemetry)
    return 0 if report.clean == (not args.tamper) else 1


def cmd_trace_report(args) -> int:
    """The `trace-report` command: cost attribution from exported traces."""
    from repro.telemetry import load_trace_file
    from repro.telemetry.trace_report import build_report

    traces = []
    for path in args.traces:
        try:
            traces.append(load_trace_file(path))
        except (OSError, ValueError) as exc:
            print(f"cannot load trace {path}: {exc}", file=sys.stderr)
            return 2
    report = build_report(traces)
    if args.json_out:
        _write_json(args.json_out, report.to_dict(top=args.top))
        print(f"report written to {args.json_out}")
    print(report.render(top=args.top))
    return 0


def cmd_perf_report(args) -> int:
    """The `perf-report` command: render the perf trajectory."""
    from repro.bench.history import (
        load_history,
        regression_summary,
        to_csv,
        to_markdown,
    )

    try:
        records = load_history(args.history)
    except OSError as exc:
        print(f"cannot read history {args.history}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"corrupt history: {exc}", file=sys.stderr)
        return 2
    markdown = to_markdown(records, tolerance=args.tolerance)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(to_csv(records))
        print(f"CSV written to {args.csv_out}")
    if args.md_out:
        with open(args.md_out, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"markdown written to {args.md_out}")
    else:
        print(markdown)
    problems = regression_summary(records, tolerance=args.tolerance)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    return 1 if problems and args.strict else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="eLSM: authenticated key-value stores with (simulated) enclaves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="one-minute tour").set_defaults(fn=cmd_demo)
    sub.add_parser(
        "list-experiments", help="list reproducible paper figures"
    ).set_defaults(fn=cmd_list_experiments)

    bench = sub.add_parser("bench", help="run one figure reproduction")
    bench.add_argument("experiment")
    bench.add_argument("--ops", type=int, default=600)
    bench.add_argument("--factor", type=float, default=None,
                       help="scale factor override (e.g. 0.0001)")
    bench.add_argument("--save", action="store_true",
                       help="also write results/<id>.txt")
    bench.add_argument("--chart", action="store_true",
                       help="render an ASCII bar chart too")
    _add_output_flags(bench)
    bench.add_argument("--wal-sync-every", type=int, default=None,
                       help="WAL fsync cadence for every store the "
                            "experiment builds (default 32)")
    bench.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the result table as structured JSON")
    bench.set_defaults(fn=cmd_bench)

    ycsb = sub.add_parser("ycsb", help="one YCSB run")
    ycsb.add_argument("--workload", choices=list("ABCDEF"), default="A")
    ycsb.add_argument("--system", choices=["p2", "p1", "plain"], default="p2")
    ycsb.add_argument("--records", type=int, default=5000)
    ycsb.add_argument("--ops", type=int, default=1000)
    ycsb.add_argument("--factor", type=float, default=1 / 2048)
    _add_output_flags(ycsb)
    ycsb.add_argument("--wal-sync-every", type=int, default=None,
                      help="WAL fsync cadence for the store under test "
                           "(default 32)")
    ycsb.add_argument("--multiget", type=int, default=1, metavar="N",
                      help="batch runs of consecutive READs into verified "
                           "MULTIGETs of up to N keys (default 1 = off)")
    ycsb.add_argument("--group-commit", type=int, default=1, metavar="N",
                      help="coalesce consecutive writes into commit groups "
                           "of up to N ops — one ECall/WAL write/fsync per "
                           "group (default 1 = off); also enables the "
                           "immutable-MemTable queue")
    ycsb.add_argument("--group-max-delay-us", type=float, default=None,
                      metavar="US",
                      help="with --group-commit: force the pending group "
                           "out once its oldest write has waited this much "
                           "simulated time")
    ycsb.add_argument("--json-out", default=None, metavar="PATH",
                      help="write a structured run summary (latencies, "
                           "proof bytes, boundary crossings) as JSON")
    ycsb.add_argument("--adversary", default=None,
                      choices=["filter-saturation", "always-miss",
                               "hot-key-flood", "tombstone-bomb", "all"],
                      help="run the attack-vs-defense experiment triple "
                           "for this attack instead of an honest workload")
    ycsb.add_argument("--quick", action="store_true",
                      help="with --adversary: the small CI profile")
    ycsb.add_argument("--max-defended-degradation", type=float, default=None,
                      metavar="PCT",
                      help="with --adversary: fail if the defended store "
                           "still loses more than PCT%% of honest goodput")
    ycsb.set_defaults(fn=cmd_ycsb)

    perf = sub.add_parser(
        "perf-baseline",
        help="sequential vs batched verified-read baseline (BENCH_perf.json)",
    )
    perf.add_argument("--quick", action="store_true",
                      help="the small CI profile (250-key batch)")
    perf.add_argument("--out", default=None, metavar="PATH",
                      help="write/merge this profile into a baseline file")
    perf.add_argument("--check", default=None, metavar="PATH",
                      help="fail on regression against a committed baseline")
    perf.add_argument("--tolerance", type=float, default=0.15,
                      help="allowed simulated-clock slowdown vs the "
                           "committed baseline (default 0.15)")
    perf.add_argument("--history", default=None, metavar="PATH",
                      help="append this run as one timestamped record to a "
                           "JSONL trajectory file (BENCH_history.jsonl)")
    perf.add_argument("--adversarial", action="store_true",
                      help="also run the adversarial suite (adv-* profiles: "
                           "attack degradation vs defended recovery)")
    perf.add_argument("--group-commit", action="store_true",
                      help="also run the group-commit write-path profile "
                           "(sequential PUTs vs pipelined groups of 64)")
    _add_output_flags(perf)
    perf.set_defaults(fn=cmd_perf_baseline)

    crash = sub.add_parser(
        "crash-test", help="crash-consistency harness over every crash point"
    )
    crash.add_argument("--seed", type=int, default=0)
    crash.add_argument("--ops", type=int, default=120,
                       help="workload mutations per crash/recover cycle")
    crash.add_argument("--sync-every", type=int, default=4,
                       help="WAL fsync cadence (the bounded-loss window)")
    crash.add_argument("--hits", default="1,3", metavar="N,M",
                       help="crash at the Nth, Mth, ... firing of each site")
    crash.add_argument("--sites", default=None, metavar="A,B",
                       help="comma-separated crash sites (default: all)")
    crash.add_argument("--random-rounds", type=int, default=4,
                       help="extra cycles crashing after random disk-op counts")
    crash.add_argument("--quick", action="store_true",
                       help="first hit per site only (the CI smoke config)")
    crash.add_argument("--verbose", action="store_true",
                       help="print the invariant detail for passing runs too")
    _add_output_flags(crash)
    crash.set_defaults(fn=cmd_crash_test)

    lint = sub.add_parser(
        "lint", help="trust-boundary invariant checker (repro.analysis)"
    )
    lint.add_argument("--format", choices=["text", "github", "sarif"],
                      default="text",
                      help="finding output style (github = workflow "
                           "annotations; sarif = SARIF 2.1.0 JSON on "
                           "stdout, human summary on stderr)")
    lint.add_argument("--sarif-out", default=None, metavar="PATH",
                      help="also write a SARIF 2.1.0 report to PATH "
                           "(any --format)")
    lint.add_argument("--max-seconds", type=float, default=None,
                      metavar="SECONDS",
                      help="fail (exit 2) if the analysis wall time "
                           "exceeds this budget (CI perf gate)")
    lint.add_argument("--rule", action="append", default=None, metavar="EL###",
                      help="run only these rule ids (repeatable; for local "
                           "iteration)")
    lint.add_argument("--changed-only", action="store_true",
                      help="analyse only the dependency cone of modules "
                           "changed since HEAD (git diff + untracked)")
    lint.add_argument("--json-out", default=None, metavar="PATH",
                      help="write findings + rule-count summary as JSON")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="repo root override (default: inferred from the "
                           "installed package)")
    lint.add_argument("--explain", default=None, metavar="EL###",
                      help="print a rule's documentation with a minimal "
                           "positive and negative example, then exit")
    lint.add_argument("--update-costs", action="store_true",
                      help="re-derive the per-operation cost certificates "
                           "and rewrite analysis/costs.toml (the EL803 "
                           "drift gate compares HEAD against that file)")
    lint.add_argument("--costs-out", default=None, metavar="PATH",
                      help="write the freshly derived cost certificate "
                           "TOML to PATH (CI artifact; does not touch "
                           "analysis/costs.toml)")
    lint.set_defaults(fn=cmd_lint)

    audit = sub.add_parser("audit", help="full-store integrity audit demo")
    audit.add_argument("--tamper", action="store_true",
                       help="corrupt a record first (audit must fail)")
    _add_output_flags(audit)
    audit.set_defaults(fn=cmd_audit)

    trace = sub.add_parser(
        "trace-report",
        help="cost-attribution analysis of exported Chrome traces",
    )
    trace.add_argument("traces", nargs="+", metavar="TRACE",
                       help="trace files written by --trace-out")
    trace.add_argument("--top", type=int, default=10,
                       help="how many span types in the expense table")
    trace.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the full report as structured JSON")
    trace.set_defaults(fn=cmd_trace_report)

    perf_report = sub.add_parser(
        "perf-report",
        help="CSV/markdown trajectory from BENCH_history.jsonl",
    )
    perf_report.add_argument("--history", default="BENCH_history.jsonl",
                             metavar="PATH",
                             help="the JSONL trajectory to render")
    perf_report.add_argument("--csv-out", default=None, metavar="PATH",
                             help="write the trajectory as CSV")
    perf_report.add_argument("--md-out", default=None, metavar="PATH",
                             help="write the markdown report to a file "
                                  "instead of stdout")
    perf_report.add_argument("--tolerance", type=float, default=0.15,
                             help="regression flag threshold vs the previous "
                                  "record of a profile (default 0.15)")
    perf_report.add_argument("--strict", action="store_true",
                             help="exit non-zero when any record is flagged "
                                  "as a regression")
    perf_report.set_defaults(fn=cmd_perf_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
