"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``list``
    List the available protocols.
``check PROTOCOL``
    Run the hypothesis checkers (message-independence, crashing,
    k-boundedness probe, header space) against a protocol.
``refute-crash PROTOCOL``
    Run the Theorem 7.5 construction and print the certificate.
``refute-headers PROTOCOL``
    Run the Theorem 8.5 construction and print the certificate.
``simulate PROTOCOL``
    Run a seeded scenario over lossy/reordering channels and audit the
    behavior against the DL specification (``--msc`` renders a chart).
``verify PROTOCOL``
    Exhaustive bounded model check: every loss pattern and interleaving
    at small bounds (``--reorder-depth`` maps reordering tolerance).
``experiments``
    Run the experiment suite (E1...) and print/write the result tables.
``growth PROTOCOL``
    Measure distinct-header growth (the Section 9 contrast).
``lint [PROTOCOL ...]``
    Static model audit of the protocol zoo (or the given protocols)
    with ruff-style diagnostics; exits non-zero on findings.
``fuzz --protocol P --channel C``
    Seeded conformance fuzzing: random fair executions under a fault
    mix, checked against the executable DL/PL oracles; violations are
    shrunk and written as replayable repro files (``--replay FILE``
    re-executes one).
``load --sessions N --steps S``
    Multi-session load generation: N concurrent protocol sessions
    (each its own seeded script + fault schedule) sharded across the
    warm-worker pool and merged deterministically, reporting aggregate
    throughput plus p50/p95/p99 latency and delivery-ratio percentiles.
``trace FILE``
    Summarize a JSONL trace written by ``--trace`` (manifest, counter
    totals, span timings).

Protocols are named as in ``list``; parameterized families take an
argument after a colon, e.g. ``sliding-window:4``, ``mod-stenning:8``,
``fragmenting:2``.

Unified output (the api): every subcommand accepts ``--json`` and then
prints one :class:`~repro.obs.RunReport` envelope -- ``{"command",
"status", "counters", "duration_s", "details"}`` -- whatever the
command (the command-specific payload lives under ``details``).  Exit
codes map from ``status``: ``ok`` is 0, ``violation``/``findings`` are
1, ``error`` is 2.  ``simulate``, ``verify``, ``refute-crash``,
``refute-headers``, ``fuzz`` and ``load`` additionally accept
``--trace OUT.jsonl``, which
records the run's structured event stream (spans, counters, gauges)
closed by a run manifest; inspect it with ``repro trace OUT.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

from .analysis import check_datalink_trace, measure_header_growth
from .channels import (
    DeliverySetError,
    PermissiveChannelState,
    random_lossy_fifo,
    random_reordering,
)
from .datalink import (
    check_crashing,
    check_message_independence,
    probe_k_bound,
)
from .datalink.protocol import DataLinkProtocol
from .impossibility import (
    EngineError,
    refute_bounded_headers,
    refute_crash_tolerance,
)
from .obs import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_VIOLATION,
    RunManifest,
    RunReport,
    read_events,
    trace_run,
)
from .protocols import (
    alternating_bit_protocol,
    baratz_segall_protocol,
    direct_protocol,
    eager_protocol,
    fragmenting_protocol,
    modulo_stenning_protocol,
    selective_repeat_protocol,
    sliding_window_protocol,
    stenning_protocol,
)
from .sim import (
    FaultPlan,
    Session,
    fifo_system,
    generate_script,
    permissive_system,
)

#: name -> (factory taking an optional integer parameter, description)
REGISTRY: Dict[str, Callable[[Optional[int]], DataLinkProtocol]] = {
    "abp": lambda p: alternating_bit_protocol(),
    "sliding-window": lambda p: sliding_window_protocol(p or 2),
    "stenning": lambda p: stenning_protocol(),
    "mod-stenning": lambda p: modulo_stenning_protocol(p or 4),
    "baratz-segall": lambda p: baratz_segall_protocol(nonvolatile=True),
    "baratz-segall-volatile": lambda p: baratz_segall_protocol(
        nonvolatile=False
    ),
    "fragmenting": lambda p: fragmenting_protocol(
        chunk=p or 1, max_fragments=3
    ),
    "selective-repeat": lambda p: selective_repeat_protocol(p or 2),
    "naive-direct": lambda p: direct_protocol(),
    "naive-eager": lambda p: eager_protocol(),
}


def resolve_protocol(spec: str) -> DataLinkProtocol:
    """Build a protocol from a ``name`` or ``name:param`` spec."""
    name, _, param = spec.partition(":")
    if name not in REGISTRY:
        raise SystemExit(
            f"unknown protocol {name!r}; available: "
            + ", ".join(sorted(REGISTRY))
        )
    parameter = int(param) if param else None
    return REGISTRY[name](parameter)


# ----------------------------------------------------------------------
# Unified emission and tracing plumbing
# ----------------------------------------------------------------------


def _emit(
    args: argparse.Namespace,
    report: RunReport,
    lines: Sequence[str] = (),
) -> int:
    """Print either the text rendering or the RunReport envelope.

    Under ``--json`` the envelope is the *only* stdout output; the text
    lines are what the command would have printed without it.  The exit
    code always comes from the report's status.
    """
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for line in lines:
            print(line)
    return report.exit_code


@contextmanager
def _maybe_traced(
    args: argparse.Namespace,
    command: str,
    protocol: Optional[str] = None,
    seed: Optional[int] = None,
    config: Optional[Dict[str, object]] = None,
):
    """Honor ``--trace PATH``: record the block's event stream + manifest.

    Yields the tracer (or None when tracing was not requested) so
    commands can merge its counter totals into their RunReport.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield None
        return
    with trace_run(
        path, command=command, protocol=protocol, seed=seed, config=config
    ) as tracer:
        yield tracer


def _merge_trace(
    report: RunReport, args: argparse.Namespace, tracer
) -> RunReport:
    """Fold a traced run's counter totals and artifact path into the
    report (tracer counters win: they are a superset of the estimates a
    result object can reconstruct after the fact)."""
    if tracer is not None:
        merged = dict(report.counters)
        merged.update(tracer.snapshot_counters())
        report.counters = merged
        report.artifacts["trace"] = args.trace
    return report


def _warn_serial_fallback(
    args: argparse.Namespace, pool: Dict[str, object]
) -> None:
    """Warn when parallelism was requested but not delivered.

    The results are identical either way (the deterministic-merge
    contract), but the user asked for speed they are not getting, so
    say so once on stderr (and in ``details.pool.mode``).
    """
    if args.workers > 1 and pool.get("mode") != "fork":
        reason = pool.get("fallback_reason", "pool unavailable")
        print(
            f"warning: --workers {args.workers} ran serially "
            f"({reason}); output is unaffected",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    lines = []
    details: Dict[str, object] = {}
    for name in sorted(REGISTRY):
        protocol = REGISTRY[name](None)
        lines.append(f"{name:24s} {protocol.description}")
        details[name] = protocol.description
    report = RunReport(
        command="list",
        status=STATUS_OK,
        counters={"protocols": len(REGISTRY)},
        details={"protocols": details},
    )
    return _emit(args, report, lines)


def cmd_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    protocol = resolve_protocol(args.protocol)
    independence = check_message_independence(protocol)
    crashing = check_crashing(protocol)
    headers = protocol.header_space()
    k_report = probe_k_bound(protocol)
    lines = [
        f"protocol: {protocol.name}",
        "message-independent: "
        + (
            "yes"
            if independence.independent
            else f"NO ({independence.detail})"
        ),
        "crashing (loses all state on crash): "
        + ("yes" if crashing.crashing else f"no ({crashing.detail})"),
        "header space: "
        + ("unbounded" if headers is None else f"{len(headers)} headers"),
        (
            f"k-boundedness probe: k = {k_report.k}"
            if k_report.delivered
            else f"k-boundedness probe: FAILED ({k_report.detail})"
        ),
    ]
    details: Dict[str, object] = {
        "protocol": protocol.name,
        "message_independent": independence.independent,
        "crashing": crashing.crashing,
        "header_space": None if headers is None else len(headers),
        "k_bound": k_report.k if k_report.delivered else None,
    }
    if not independence.independent:
        details["message_independent_detail"] = independence.detail
    if not crashing.crashing:
        details["crashing_detail"] = crashing.detail
    if not k_report.delivered:
        details["k_bound_detail"] = k_report.detail
    report = RunReport(
        command="check",
        status=STATUS_OK,
        counters={"check.hypotheses": 4},
        duration_s=time.perf_counter() - started,
        details=details,
    )
    return _emit(args, report, lines)


def _run_refutation(
    args: argparse.Namespace,
    command: str,
    construct: Callable[[], "object"],
    config: Dict[str, object],
) -> int:
    """Shared driver for the two impossibility engines."""
    started = time.perf_counter()
    try:
        with _maybe_traced(
            args, command, protocol=args.protocol, config=config
        ) as tracer:
            certificate = construct()
    except EngineError as exc:
        report = RunReport(
            command=command,
            status=STATUS_ERROR,
            duration_s=time.perf_counter() - started,
            details={"protocol": args.protocol, "error": str(exc)},
        )
        if getattr(args, "trace", None):
            report.artifacts["trace"] = args.trace
        return _emit(args, report, [f"engine rejected the protocol: {exc}"])
    report = certificate.report(
        duration_s=time.perf_counter() - started
    )
    report = _merge_trace(report, args, tracer)
    lines = [
        certificate.describe(),
        "",
        f"independently validated: {certificate.validate()}",
    ]
    return _emit(args, report, lines)


def cmd_refute_crash(args: argparse.Namespace) -> int:
    protocol = resolve_protocol(args.protocol)
    return _run_refutation(
        args,
        "refute-crash",
        lambda: refute_crash_tolerance(
            protocol, message_size=args.message_size
        ),
        {"protocol": args.protocol, "message_size": args.message_size},
    )


def cmd_refute_headers(args: argparse.Namespace) -> int:
    protocol = resolve_protocol(args.protocol)
    return _run_refutation(
        args,
        "refute-headers",
        lambda: refute_bounded_headers(
            protocol, k=args.k, message_size=args.message_size
        ),
        {
            "protocol": args.protocol,
            "k": args.k,
            "message_size": args.message_size,
        },
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    protocol = resolve_protocol(args.protocol)
    if args.reorder > 1:
        system = permissive_system(protocol)
        delivery = lambda seed: random_reordering(  # noqa: E731
            seed, args.loss, args.reorder
        )
    else:
        system = fifo_system(protocol)
        delivery = lambda seed: random_lossy_fifo(seed, args.loss)  # noqa: E731
    try:
        system = system.started(
            PermissiveChannelState(delivery=delivery(args.seed)),
            PermissiveChannelState(delivery=delivery(args.seed + 1)),
        )
    except DeliverySetError as exc:
        report = RunReport(
            command="simulate",
            status=STATUS_ERROR,
            duration_s=time.perf_counter() - started,
            details={"protocol": args.protocol, "error": str(exc)},
        )
        return _emit(args, report, [f"bad channel parameters: {exc}"])
    plan = FaultPlan(
        messages=args.messages,
        crash_probability=0.15 if args.crashes else 0.0,
        seed=args.seed,
    )
    config = {
        "protocol": args.protocol,
        "messages": args.messages,
        "loss": args.loss,
        "reorder": args.reorder,
        "crashes": args.crashes,
    }
    with _maybe_traced(
        args, "simulate", protocol.name, args.seed, config
    ) as tracer:
        script = generate_script(system, plan)
        result = Session(
            system, tuple(script.actions), seed=args.seed
        ).run()
        audit = check_datalink_trace(
            result.behavior, quiescent=result.quiescent
        )
    report = result.report(duration_s=time.perf_counter() - started)
    details = report.details
    lines = [
        f"sent {details['sent']}, delivered {details['delivered']}, "
        f"duplicates {details['duplicates']}, steps {result.steps}, "
        f"quiescent {result.quiescent}"
    ]
    if args.msc:
        from .analysis import render_fragment

        lines.append("")
        lines.append(render_fragment(result.fragment))
    lines.append("")
    lines.append(audit.describe())
    report.status = STATUS_OK if audit.ok else STATUS_VIOLATION
    report.details["audit"] = {
        name: audit.results[name].holds for name in sorted(audit.results)
    }
    if not audit.ok:
        report.details["violations"] = [
            {"property": failure.name, "witness": str(failure.witness)}
            for failure in audit.violations
        ]
    report = _merge_trace(report, args, tracer)
    return _emit(args, report, lines)


def cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import verify_delivery_order

    started = time.perf_counter()
    protocol = resolve_protocol(args.protocol)
    config = {
        "protocol": args.protocol,
        "messages": args.messages,
        "capacity": args.capacity,
        "reorder_depth": args.reorder_depth,
    }
    with _maybe_traced(args, "verify", protocol.name, None, config) as tracer:
        result = verify_delivery_order(
            protocol,
            messages=args.messages,
            capacity=args.capacity,
            reorder_depth=args.reorder_depth,
        )
    scope = "exhaustive" if result.exhaustive else "TRUNCATED"
    kind = (
        "FIFO"
        if args.reorder_depth == 1
        else f"depth-{args.reorder_depth} reordering"
    )
    lines = [
        f"explored {result.states_explored} states ({scope}) for "
        f"{args.messages} messages over capacity-{args.capacity} "
        f"nondeterministic lossy {kind} channels"
    ]
    if result.ok:
        lines.append("invariant holds: in-order, exactly-once delivery")
    else:
        lines.append("counterexample found:")
        lines.extend(
            f"  {index}: {action}"
            for index, action in enumerate(result.counterexample)
        )
    report = result.report(duration_s=time.perf_counter() - started)
    report.details["reorder_depth"] = args.reorder_depth
    report = _merge_trace(report, args, tracer)
    return _emit(args, report, lines)


def cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis import run_all, to_markdown, to_text

    started = time.perf_counter()
    tables = run_all(only=args.only or None)
    rendered = (
        to_markdown(tables) if args.format == "markdown" else to_text(tables)
    )
    lines = []
    report = RunReport(
        command="experiments",
        status=STATUS_OK,
        counters={"experiments.tables": len(tables)},
        duration_s=time.perf_counter() - started,
        details={"experiments": [table.ident for table in tables]},
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        lines.append(f"wrote {args.output}")
        report.artifacts["tables"] = args.output
    else:
        lines.append(rendered)
    return _emit(args, report, lines)


def cmd_growth(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    protocol = resolve_protocol(args.protocol)
    series = measure_header_growth(
        protocol, checkpoints=tuple(args.checkpoints)
    )
    lines = [f"{'messages':>8s} {'distinct headers':>16s}"]
    lines.extend(
        f"{point.messages:8d} {point.total_distinct:16d}"
        for point in series.points
    )
    slope = series.slope_estimate()
    lines.append(f"slope: {slope:.2f} headers/message")
    report = RunReport(
        command="growth",
        status=STATUS_OK,
        counters={"growth.checkpoints": len(series.points)},
        duration_s=time.perf_counter() - started,
        details={
            "protocol": protocol.name,
            "slope": slope,
            "points": [
                {
                    "messages": point.messages,
                    "distinct_headers": point.total_distinct,
                }
                for point in series.points
            ],
        },
    )
    return _emit(args, report, lines)


def _split_codes(values) -> List[str]:
    """Flatten ``--select/--ignore`` values: both repeats and commas."""
    codes: List[str] = []
    for value in values or ():
        codes.extend(c for c in value.split(",") if c)
    return codes


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import RULES, lint_targets, target_from, zoo_targets

    started = time.perf_counter()

    def _lint_error(message: str, **details) -> int:
        """A clean error envelope (exit 2), never a traceback."""
        report = RunReport(
            command="lint",
            status=STATUS_ERROR,
            duration_s=time.perf_counter() - started,
            details={"error": message, **details},
        )
        return _emit(args, report, [f"lint error: {message}"])

    if args.list_codes:
        lines = [
            f"{rule.code}  {rule.severity:7s} {rule.name:32s} "
            f"paper {rule.paper:10s} {rule.summary}"
            for rule in RULES.values()
        ]
        report = RunReport(
            command="lint",
            status=STATUS_OK,
            counters={"lint.rules": len(RULES)},
            details={
                "rules": {
                    rule.code: rule.summary for rule in RULES.values()
                }
            },
        )
        return _emit(args, report, lines)

    # Validate code selections up front: a prefix that matches no
    # registered code is a spelling mistake, not an empty filter.
    selected = _split_codes(args.select)
    ignored = _split_codes(args.ignore)
    for flag, codes in (("--select", selected), ("--ignore", ignored)):
        unknown = [
            code
            for code in codes
            if not any(known.startswith(code) for known in RULES)
        ]
        if unknown:
            return _lint_error(
                f"unknown code(s) for {flag}: {', '.join(unknown)} "
                f"(see repro lint --list-codes)",
                flag=flag,
                unknown=unknown,
            )

    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            return _lint_error(
                f"cannot read baseline {args.baseline!r}: {exc}",
                baseline=args.baseline,
            )
        if not isinstance(baseline, dict):
            return _lint_error(
                f"baseline {args.baseline!r} is not a JSON report object",
                baseline=args.baseline,
            )

    evidence = []
    if args.evidence:
        from .conformance import load_evidence

        try:
            evidence = load_evidence(args.evidence)
        except (OSError, ValueError) as exc:
            return _lint_error(
                f"cannot read evidence {args.evidence!r}: {exc}",
                evidence=args.evidence,
            )

    if args.module:
        import importlib

        try:
            module = importlib.import_module(args.module)
        except ImportError as exc:
            return _lint_error(
                f"cannot import module {args.module!r}: {exc}",
                module=args.module,
            )
        try:
            raw_targets = module.LINT_TARGETS
        except AttributeError:
            return _lint_error(
                f"module {args.module!r} defines no LINT_TARGETS",
                module=args.module,
            )
        environment = getattr(module, "ENVIRONMENT", None)
        targets = [
            target_from(obj, environment=environment)
            for obj in raw_targets
        ]
    elif args.protocols:
        targets = [
            target_from(resolve_protocol(spec), name=spec)
            for spec in args.protocols
        ]
    else:
        targets = zoo_targets()

    lint_report = lint_targets(
        targets,
        messages=args.messages,
        max_states=args.max_states,
        deep=args.deep_source,
        evidence=evidence,
    )
    if selected:
        lint_report = lint_report.select(selected)
    if ignored:
        lint_report = lint_report.ignore(ignored)
    if baseline is not None:
        lint_report = lint_report.apply_baseline(baseline)

    report = lint_report.report(
        duration_s=time.perf_counter() - started
    )
    if args.evidence:
        report.counters["lint.evidence_records"] = len(evidence)
    rendered = (
        json.dumps(lint_report.to_dict(), indent=2)
        if args.format == "json"
        else lint_report.render_text()
    )
    lines: List[str] = []
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            return _lint_error(
                f"cannot write report to {args.output!r}: {exc}",
                output=args.output,
            )
        summary = lint_report.summary()
        lines.append(
            f"wrote {args.output}: {summary['findings']} finding(s) "
            f"across {summary['targets']} target(s)"
        )
        report.artifacts["report"] = args.output
    else:
        lines.append(rendered)
    return _emit(args, report, lines)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .conformance import (
        ReplayFormatError,
        FuzzConfig,
        append_entries,
        fuzz_campaign,
        load_corpus,
        oracle_catalog,
        replay,
        save_repro,
        with_mix,
    )
    from .conformance.registry import _normalize

    started = time.perf_counter()

    if args.list_oracles:
        catalog = oracle_catalog()
        lines = [
            f"{entry['name']:16s} {entry['layer']:3s} "
            f"{entry['scope']:9s} paper {entry['paper']}"
            for entry in catalog
        ]
        report = RunReport(
            command="fuzz",
            status=STATUS_OK,
            counters={"fuzz.oracles": len(catalog)},
            details={"oracles": catalog},
        )
        return _emit(args, report, lines)

    if args.replay:
        try:
            outcome = replay(args.replay)
        except (ReplayFormatError, KeyError) as exc:
            report = RunReport(
                command="fuzz",
                status=STATUS_ERROR,
                duration_s=time.perf_counter() - started,
                details={"replay": args.replay, "error": str(exc)},
            )
            return _emit(args, report, [f"cannot replay: {exc}"])
        document = outcome.document
        lines = [
            f"replayed {args.replay}: protocol "
            f"{document['protocol']} over {document['channel']}, "
            f"{outcome.script_length}-action script",
        ]
        if outcome.reproduced:
            lines.append(
                f"violation REPRODUCED: {outcome.oracle} "
                f"({document.get('witness', '')})"
            )
            status = STATUS_VIOLATION
        else:
            lines.append(
                f"violation NOT reproduced (expected {outcome.oracle})"
            )
            status = STATUS_ERROR
        report = RunReport(
            command="fuzz",
            status=status,
            counters={
                "fuzz.replay_steps": outcome.scenario.steps,
                "fuzz.oracle_violations": len(outcome.violations),
            },
            duration_s=time.perf_counter() - started,
            details={
                "replay": args.replay,
                "oracle": outcome.oracle,
                "reproduced": outcome.reproduced,
                "violations": [v.describe() for v in outcome.violations],
            },
        )
        return _emit(args, report, lines)

    if not args.protocol:
        raise SystemExit("fuzz requires --protocol (or --replay/--list-oracles)")

    try:
        config = with_mix(FuzzConfig(), args.mix)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    overrides = {
        "runs": args.runs,
        "messages": args.messages,
        "shrink": not args.no_shrink,
        "shrink_budget": args.shrink_budget,
        "deep_oracles": args.deep,
        "max_steps": args.max_steps,
        "init_mode": args.init_mode,
        "capacity": args.capacity,
    }
    config = dataclasses.replace(config, **overrides)
    config_dict = dataclasses.asdict(config)

    # Corpus entries for this (protocol, channel) are replayed first:
    # their sub-seeds occupy run indices 0..k-1 ahead of the freshly
    # derived schedule.
    replay_subseeds = []
    if args.corpus:
        for entry in load_corpus(args.corpus):
            if _normalize(entry.protocol) != _normalize(args.protocol):
                continue
            if _normalize(entry.channel) != _normalize(args.channel):
                continue
            if entry.subseeds not in replay_subseeds:
                replay_subseeds.append(entry.subseeds)

    with _maybe_traced(
        args, "fuzz", args.protocol, args.seed, config_dict
    ) as tracer:
        try:
            campaign = fuzz_campaign(
                args.protocol,
                args.channel,
                args.seed,
                config,
                replay_subseeds=replay_subseeds,
                workers=args.workers,
                run_timeout=args.run_timeout,
            )
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))

    _warn_serial_fallback(args, campaign.pool)

    out_dir = Path(args.out)
    repro_paths = []
    for violation in campaign.violations:
        name = (
            f"repro-{args.protocol}-{args.channel}-seed{args.seed}"
            f"-run{violation.run_index}-{violation.violation.oracle}.json"
        ).replace("_", "-")
        repro_paths.append(str(save_repro(out_dir / name, violation.repro)))
    # Only freshly derived runs may enter the corpus: replayed entries
    # would otherwise duplicate themselves on every campaign.
    corpus_new = [
        entry
        for entry in campaign.corpus
        if entry.subseeds not in replay_subseeds
    ]
    if args.corpus and corpus_new:
        append_entries(args.corpus, corpus_new)

    evidence_record = None
    if args.evidence:
        from .conformance import append_evidence, evidence_from_campaign

        evidence_record = evidence_from_campaign(campaign, mix=args.mix)
        append_evidence(args.evidence, [evidence_record])

    lines = [
        f"fuzzed {args.protocol} over {args.channel} "
        f"(seed {args.seed}, {len(campaign.runs)} runs, mix "
        f"{args.mix}): {len(campaign.violations)} violation(s), "
        f"{campaign.states_interned} distinct states, "
        f"{campaign.oracle_checks} oracle checks"
    ]
    if replay_subseeds:
        lines.append(
            f"  corpus: replayed {len(replay_subseeds)} entries first"
        )
    if campaign.failed_runs:
        lines.append(
            f"  {campaign.failed_runs} run(s) failed "
            f"(contained; see fuzz.failed_runs)"
        )
    for violation, path in zip(campaign.violations, repro_paths):
        lines.append(
            f"  run {violation.run_index}: "
            f"{violation.violation.describe()}"
        )
        lines.append(
            f"    shrunk {violation.script_length} -> "
            f"{violation.shrunk_length} actions; repro: {path}"
        )
    if campaign.deep:
        lines.append(f"  deep oracles: {campaign.deep}")
    if not campaign.violations and not campaign.failed_runs:
        lines.append("  all oracles held on every run")
    if args.corpus and corpus_new:
        lines.append(
            f"  corpus: +{len(corpus_new)} entries -> {args.corpus}"
        )
    if evidence_record is not None:
        lines.append(
            f"  evidence: recorded {evidence_record.protocol} over "
            f"{evidence_record.channel} "
            f"({evidence_record.violations} violation(s)) "
            f"-> {args.evidence}"
        )

    report = campaign.report()
    report.duration_s = time.perf_counter() - started
    stabilization = report.details.get("stabilization")
    if stabilization:
        lines.append(
            f"  stabilization_time p50={stabilization['p50']} "
            f"p95={stabilization['p95']} p99={stabilization['p99']} "
            f"max={stabilization['max']} "
            f"({stabilization['converged_runs']}/"
            f"{stabilization['measured_runs']} runs converged)"
        )
    if args.corpus:
        report.details["corpus_replayed"] = len(replay_subseeds)
    if evidence_record is not None:
        report.details["evidence"] = evidence_record.to_dict()
        report.artifacts["evidence"] = args.evidence
    for index, path in enumerate(repro_paths):
        report.artifacts[f"repro_{index}"] = path
    if args.corpus and corpus_new:
        report.artifacts["corpus"] = args.corpus
    report = _merge_trace(report, args, tracer)
    return _emit(args, report, lines)


def cmd_load(args: argparse.Namespace) -> int:
    from .sim.load import LoadConfig, run_load, with_load_mix

    started = time.perf_counter()
    try:
        config = with_load_mix(
            LoadConfig(sessions=args.sessions, messages=args.steps),
            args.mix,
        )
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    config_dict = dataclasses.asdict(config)

    with _maybe_traced(
        args, "load", args.protocol, args.seed, config_dict
    ) as tracer:
        try:
            result = run_load(
                args.protocol,
                args.channel,
                args.seed,
                config,
                workers=args.workers,
                run_timeout=args.run_timeout,
            )
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))

    _warn_serial_fallback(args, result.pool)

    report = result.report()
    report.duration_s = time.perf_counter() - started
    counters = report.counters
    latency = report.details["latency"]
    ratio = report.details["delivery_ratio"]
    throughput = report.details["throughput"]
    pool = report.details["pool"]
    lines = [
        f"load: {counters['load.sessions']} sessions x "
        f"{config.messages} messages, {args.protocol} over "
        f"{args.channel} (seed {args.seed}, mix {args.mix})",
        f"  delivered {counters['load.messages_delivered']}/"
        f"{counters['load.messages_sent']} messages "
        f"({counters['load.duplicate_deliveries']} duplicates) in "
        f"{counters['load.steps']} steps",
        f"  latency (steps): p50 {latency['p50']}, "
        f"p95 {latency['p95']}, p99 {latency['p99']}, "
        f"max {latency['max']}",
        f"  delivery ratio: p50 {ratio['p50']}, p95 {ratio['p95']}, "
        f"p99 {ratio['p99']}, min {ratio['min']}",
        f"  throughput: {throughput['sessions_per_sec']} sessions/s, "
        f"{throughput['steps_per_sec']} steps/s "
        f"({pool['mode']}, {pool['workers']} worker(s), "
        f"{pool['batches']} shard(s))",
    ]
    if result.failed_sessions:
        lines.append(
            f"  {result.failed_sessions} session(s) failed "
            f"({result.timeouts} timed out; contained, see "
            f"load.failed_sessions)"
        )
    report = _merge_trace(report, args, tracer)
    return _emit(args, report, lines)


def cmd_trace(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        events = read_events(args.file)
    except (OSError, ValueError, KeyError) as exc:
        report = RunReport(
            command="trace",
            status=STATUS_ERROR,
            details={"file": args.file, "error": str(exc)},
        )
        return _emit(args, report, [f"cannot read trace: {exc}"])
    by_kind: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    spans: Dict[str, Dict[str, float]] = {}
    for event in events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        if event.kind == "counter":
            counters[event.name] = counters.get(event.name, 0) + (
                event.value or 0
            )
        elif event.kind == "span_end":
            entry = spans.setdefault(
                event.name, {"count": 0, "total_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += event.value or 0.0
    counters = {
        name: int(total) if float(total).is_integer() else total
        for name, total in counters.items()
    }
    manifest = RunManifest.find(events)
    lines = [f"{args.file}: {len(events)} events"]
    if manifest is not None:
        lines.append(
            f"manifest: command={manifest.command} "
            f"protocol={manifest.protocol} seed={manifest.seed} "
            f"config_hash={manifest.config_hash} "
            f"wall={manifest.wall_s:.3f}s cpu={manifest.cpu_s:.3f}s "
            f"status={manifest.status}"
        )
    if spans:
        lines.append("spans:")
        for name in sorted(spans):
            entry = spans[name]
            lines.append(
                f"  {name:24s} x{int(entry['count']):<6d} "
                f"total {entry['total_s']:.6f}s"
            )
    if counters:
        lines.append("counters:")
        lines.extend(
            f"  {name:32s} {counters[name]:g}" for name in sorted(counters)
        )
    details: Dict[str, object] = {
        "file": args.file,
        "events": len(events),
        "by_kind": dict(sorted(by_kind.items())),
        "spans": {name: spans[name] for name in sorted(spans)},
    }
    if manifest is not None:
        details["manifest"] = manifest.to_dict()
    report = RunReport(
        command="trace",
        status=STATUS_OK,
        counters=counters,
        duration_s=time.perf_counter() - started,
        details=details,
    )
    return _emit(args, report, lines)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


# Shared flag definitions, declared once as argparse *parent parsers*
# so every subcommand that opts in exposes identical names, defaults
# and help text (the json/trace/pool wiring used to be copy-pasted per
# subparser and drifted).


def _json_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json",
        action="store_true",
        help="print the unified RunReport envelope instead of text",
    )
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="record the structured event stream (plus a run manifest) "
        "to this JSONL file",
    )
    return parent


def _count(text: str) -> int:
    """argparse type: a non-negative integer (``0`` is a valid count)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _at_least_one(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type: a strictly positive number of seconds."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _pool_parent() -> argparse.ArgumentParser:
    """The batched warm-worker pool knobs shared by ``fuzz`` and
    ``load`` (both run on the same partitioned execution engine)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=_at_least_one,
        default=1,
        metavar="N",
        help="shard batched runs across N persistent forked workers "
        "(deterministic merge: output is byte-identical to --workers 1)",
    )
    parent.add_argument(
        "--run-timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per run; a run that exceeds it is "
        "recorded as failed instead of hanging the campaign",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Executable reproduction of Lynch, Mansour & Fekete (1988), "
            "'The Data Link Layer: Two Impossibility Results'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One vocabulary for `repro fuzz --mix` and `repro load --fault-mix`.
    from .conformance.harness import FAULT_MIXES

    mix_help = "fault mix: " + ", ".join(sorted(FAULT_MIXES))
    json_flags = _json_parent()
    trace_flags = _trace_parent()
    pool_flags = _pool_parent()

    listing = sub.add_parser(
        "list", help="list available protocols", parents=[json_flags]
    )
    listing.set_defaults(run=cmd_list)

    check = sub.add_parser(
        "check",
        help="run the theorem-hypothesis checkers",
        parents=[json_flags],
    )
    check.add_argument("protocol")
    check.set_defaults(run=cmd_check)

    crash = sub.add_parser(
        "refute-crash",
        help="run the Theorem 7.5 construction",
        parents=[json_flags, trace_flags],
    )
    crash.add_argument("protocol")
    crash.add_argument("--message-size", type=int, default=0)
    crash.set_defaults(run=cmd_refute_crash)

    headers = sub.add_parser(
        "refute-headers",
        help="run the Theorem 8.5 construction",
        parents=[json_flags, trace_flags],
    )
    headers.add_argument("protocol")
    headers.add_argument("--k", type=int, default=None)
    headers.add_argument("--message-size", type=int, default=0)
    headers.set_defaults(run=cmd_refute_headers)

    simulate = sub.add_parser(
        "simulate",
        help="run a seeded scenario and audit the trace",
        parents=[json_flags, trace_flags],
    )
    simulate.add_argument("protocol")
    simulate.add_argument("--messages", type=int, default=10)
    simulate.add_argument("--loss", type=float, default=0.2)
    simulate.add_argument(
        "--reorder",
        type=int,
        default=1,
        help="reordering window (1 = FIFO)",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--crashes", action="store_true", help="inject host crashes"
    )
    simulate.add_argument(
        "--msc",
        action="store_true",
        help="render the run as a message sequence chart",
    )
    simulate.set_defaults(run=cmd_simulate)

    verify = sub.add_parser(
        "verify",
        help="exhaustive bounded model check of delivery correctness",
        parents=[json_flags, trace_flags],
    )
    verify.add_argument("protocol")
    verify.add_argument("--messages", type=int, default=2)
    verify.add_argument("--capacity", type=int, default=2)
    verify.add_argument(
        "--reorder-depth",
        type=int,
        default=1,
        help="delivery displacement bound (1 = FIFO)",
    )
    verify.set_defaults(run=cmd_verify)

    experiments = sub.add_parser(
        "experiments",
        help="run the experiment suite and print tables",
        parents=[json_flags],
    )
    experiments.add_argument(
        "--only",
        nargs="+",
        metavar="ID",
        help="run a subset, e.g. --only E1 E2",
    )
    experiments.add_argument(
        "--format", choices=["text", "markdown"], default="text"
    )
    experiments.add_argument("--output", help="write to a file")
    experiments.set_defaults(run=cmd_experiments)

    growth = sub.add_parser(
        "growth",
        help="measure distinct-header growth",
        parents=[json_flags],
    )
    growth.add_argument("protocol")
    growth.add_argument(
        "--checkpoints",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8, 16, 32],
    )
    growth.set_defaults(run=cmd_growth)

    lint = sub.add_parser(
        "lint",
        help="static model audit with ruff-style diagnostics",
        parents=[json_flags],
    )
    lint.add_argument(
        "protocols",
        nargs="*",
        help="protocol specs to lint (default: the whole zoo)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    lint.add_argument("--output", help="write the report to a file")
    lint.add_argument(
        "--select",
        nargs="+",
        metavar="CODE",
        help="only report matching codes (prefix match, e.g. REP2)",
    )
    lint.add_argument(
        "--ignore",
        nargs="+",
        metavar="CODE",
        help="suppress matching codes (prefix match, comma-separable)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in a previous JSON report",
    )
    lint.add_argument(
        "--deep-source",
        action="store_true",
        help=(
            "run the interprocedural REP3xx analyses (taint, interval, "
            "crash-escape) and the theorem contradiction gate"
        ),
    )
    lint.add_argument(
        "--evidence",
        metavar="FILE",
        help=(
            "JSONL fuzz-evidence file (repro fuzz --evidence) for the "
            "REP304 contradiction gate"
        ),
    )
    lint.add_argument(
        "--module",
        "--from-module",
        dest="module",
        help="import lint targets from a module's LINT_TARGETS",
    )
    lint.add_argument(
        "--max-states",
        type=int,
        default=2000,
        help="state budget for the bounded semantic sweep",
    )
    lint.add_argument(
        "--messages",
        type=int,
        default=2,
        help="probe messages offered during exploration",
    )
    lint.add_argument(
        "--list-codes",
        action="store_true",
        help="print the rule table and exit",
    )
    lint.set_defaults(run=cmd_lint)

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded conformance fuzzing against the DL/PL oracles",
        parents=[json_flags, trace_flags, pool_flags],
    )
    fuzz.add_argument(
        "--protocol",
        help="fuzz-registry protocol name (e.g. alternating_bit, naive)",
    )
    fuzz.add_argument(
        "--channel",
        default="nonfifo",
        help="channel family: fifo (C-hat), nonfifo (C-bar), perfect, "
        "bounded-nonfifo (bounded-capacity lossy non-FIFO)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--runs", type=_count, default=20, help="fuzz runs per campaign"
    )
    fuzz.add_argument(
        "--messages", type=_count, default=6, help="messages per run script"
    )
    fuzz.add_argument(
        "--mix",
        default="default",
        help=mix_help,
    )
    fuzz.add_argument(
        "--init-mode",
        choices=("clean", "arbitrary"),
        default="clean",
        help="arbitrary starts each run from a seeded corrupted state "
        "and checks the stabilization oracles instead of DL/PL",
    )
    fuzz.add_argument(
        "--capacity",
        type=int,
        default=4,
        help="buffer capacity for the bounded-nonfifo channel",
    )
    fuzz.add_argument(
        "--max-steps",
        type=int,
        default=60_000,
        help="step budget per run",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip counterexample shrinking",
    )
    fuzz.add_argument(
        "--shrink-budget",
        type=int,
        default=400,
        help="max re-executions per shrink",
    )
    fuzz.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-protocol oracles (message "
        "independence, k-bound probe)",
    )
    fuzz.add_argument(
        "--out",
        default="fuzz-out",
        metavar="DIR",
        help="directory for replayable repro files",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="FILE.jsonl",
        help="corpus registry: matching entries are replayed first, "
        "and this campaign's interesting seeds are appended",
    )
    fuzz.add_argument(
        "--evidence",
        metavar="FILE.jsonl",
        help="append this campaign's outcome as an evidence record "
        "consumed by the repro lint --deep-source contradiction gate",
    )
    fuzz.add_argument(
        "--replay",
        metavar="REPRO.json",
        help="re-execute a repro file instead of fuzzing",
    )
    fuzz.add_argument(
        "--list-oracles",
        action="store_true",
        help="print the oracle catalog and exit",
    )
    fuzz.set_defaults(run=cmd_fuzz)

    load = sub.add_parser(
        "load",
        help="multi-session load generation over the session façade",
        parents=[json_flags, trace_flags, pool_flags],
    )
    load.add_argument(
        "--sessions",
        type=_count,
        default=100,
        metavar="N",
        help="concurrent protocol sessions to run",
    )
    load.add_argument(
        "--steps",
        type=_count,
        default=4,
        metavar="S",
        help="fresh messages each session's script offers",
    )
    load.add_argument(
        "--protocol",
        default="alternating_bit",
        help="fuzz-registry protocol name (e.g. alternating_bit, "
        "stenning)",
    )
    load.add_argument(
        "--channel",
        default="fifo",
        help="channel family: fifo (C-hat), nonfifo (C-bar), perfect",
    )
    load.add_argument(
        "--fault-mix",
        dest="mix",
        default="default",
        help=mix_help,
    )
    load.add_argument("--seed", type=int, default=0)
    load.set_defaults(run=cmd_load)

    trace = sub.add_parser(
        "trace",
        help="summarize a JSONL trace written by --trace",
        parents=[json_flags],
    )
    trace.add_argument("file")
    trace.set_defaults(run=cmd_trace)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
