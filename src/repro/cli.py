"""Command-line interface: generate, inspect, color, and verify.

Examples::

    python -m repro generate --kind hard --cliques 34 --delta 16 -o g.json
    python -m repro info g.json
    python -m repro color g.json --method randomized --seed 0 -o c.json
    python -m repro verify g.json c.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from typing import Any, Sequence

from repro import __version__, delta_color
from repro.acd import compute_acd
from repro.constants import AlgorithmParameters
from repro.core import classify_cliques
from repro.errors import ConfigError, ReproError
from repro.graphs import (
    hard_clique_graph,
    load_coloring,
    load_instance,
    mixed_dense_graph,
    projective_plane_clique_graph,
    save_coloring,
    save_instance,
)
from repro.runner import (
    PRESETS,
    CampaignInterrupted,
    cells_from_spec,
    run_campaign,
)
from repro.verify import verify_coloring

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    """A parser whose arguments may be added on first use.

    A subcommand given ``add_arguments`` builds its flags only when it
    is parsed, so only the commands that serve import ``repro.serve``
    (and asyncio with it).
    """

    def __init__(self, *args: Any, add_arguments: Any = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


#: Flag types by field annotation (annotations are strings such as
#: ``"int"`` or ``"float | None"``; anything else parses as a string).
_FLAG_TYPES = {"int": int, "float": float}


def _knob_fields(config: type) -> list:
    return [
        item for item in dataclasses.fields(config)
        if item.metadata.get("flags")
    ]


def _add_knobs(parser: argparse.ArgumentParser, config: str) -> None:
    """Add one flag per knob of ``repro.serve``'s config class ``config``.

    Flag, ``argparse`` options and default all come from the field (see
    :mod:`repro.serve.knobs`); a required flag has no default.
    """
    import repro.serve

    for item in _knob_fields(getattr(repro.serve, config)):
        options = item.metadata["options"]
        parser.add_argument(
            *item.metadata["flags"],
            type=_FLAG_TYPES.get(item.type.partition(" ")[0]),
            default=None if options.get("required") else item.default,
            **options,
        )


def _knob_config(config: type, args: argparse.Namespace, **values: Any):
    """Build ``config`` from its knob flags in ``args`` plus ``values``."""
    return config(**{
        item.name: getattr(args, item.metadata["dest"])
        for item in _knob_fields(config)
    }, **values)


def _chaosproxy_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="listen host (default %(default)s)")
    parser.add_argument("--port", type=int, default=0,
                        help="listen TCP port (default %(default)s: "
                             "ephemeral, printed)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="listen on a UNIX socket instead of TCP")
    parser.add_argument(
        "--upstream", required=True, metavar="SPEC",
        help="the real server: 'host:port' or 'unix:/path'",
    )
    _add_knobs(parser, "ChaosPlan")
    parser.add_argument("--json", action="store_true",
                        help="print the final summary as JSON")


def _add_instance_flags(parser: argparse.ArgumentParser, *, kind: str) -> None:
    """The knobs of a generated instance (``generate`` and ``trace``)."""
    parser.add_argument(
        "--kind", choices=("hard", "mixed", "pg"), default=kind,
        help="hard cliques, mixed hard/easy, or projective-plane (girth 6)",
    )
    parser.add_argument("--cliques", type=int, default=34)
    parser.add_argument("--delta", type=int, default=16)
    parser.add_argument("--easy-fraction", type=float, default=0.25)
    parser.add_argument("--q", type=int, default=7,
                        help="prime order for --kind pg")


def _generated_instance(args: argparse.Namespace, seed: int | None):
    if args.kind == "hard":
        return hard_clique_graph(args.cliques, args.delta, seed=seed)
    if args.kind == "mixed":
        return mixed_dense_graph(
            args.cliques, args.delta,
            easy_fraction=args.easy_fraction, seed=seed,
        )
    return projective_plane_clique_graph(args.q)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed Delta-coloring of dense graphs "
            "(Jakob & Maus, PODC 2025)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    generate = commands.add_parser(
        "generate", help="generate a dense benchmark instance"
    )
    _add_instance_flags(generate, kind="hard")
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("-o", "--output", required=True)

    info = commands.add_parser(
        "info", help="print ACD and hard/easy statistics of an instance"
    )
    info.add_argument("instance")
    info.add_argument("--epsilon", type=float, default=0.25)

    color = commands.add_parser("color", help="Delta-color an instance")
    color.add_argument("instance")
    color.add_argument(
        "--method", choices=("deterministic", "randomized"),
        default="deterministic",
    )
    color.add_argument("--epsilon", type=float, default=0.25)
    color.add_argument("--seed", type=int, default=None)
    color.add_argument("-o", "--output", default=None,
                       help="write the coloring as JSON")
    color.add_argument("--json", action="store_true",
                       help="print the full report as JSON")

    verify = commands.add_parser(
        "verify", help="check a coloring file against an instance"
    )
    verify.add_argument("instance")
    verify.add_argument("coloring")

    trace = commands.add_parser(
        "trace",
        help="color one instance under the observability collector",
        description=(
            "Run one coloring with the repro.obs collector installed and "
            "report the phase decomposition (rounds, messages, wall time "
            "per pipeline phase), engine activity, and metrics.  Reads an "
            "instance file or generates one from the same knobs as "
            "'generate'.  The JSON telemetry document is validated "
            "against the checked-in schema before it is written."
        ),
    )
    trace.add_argument(
        "instance", nargs="?", default=None,
        help="instance JSON file (omit to generate one)",
    )
    _add_instance_flags(trace, kind="mixed")
    trace.add_argument("--graph-seed", type=int, default=None)
    trace.add_argument(
        "--method", choices=("deterministic", "randomized"),
        default="deterministic",
    )
    trace.add_argument("--epsilon", type=float, default=0.25)
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="write the validated telemetry document ('-' or no value: "
             "stdout, replacing the text tree)",
    )
    trace.add_argument(
        "--events", default=None, metavar="FILE",
        help="write the JSONL event stream (span enters/exits, engine "
             "runs, metrics snapshot)",
    )
    trace.add_argument(
        "--samples", action="store_true",
        help="keep raw per-round activity samples on the span records",
    )

    lint = commands.add_parser(
        "lint",
        help="static analysis: LOCAL-model, determinism, ledger rules",
        description=(
            "AST-based static analysis of the repro sources.  Rule "
            "families: LOC (per-node code must stay inside the LOCAL "
            "model), DET (deterministic paths must be reproducible), "
            "LED (every engine run must reach the RoundLedger), ASY "
            "(asyncio safety in the serving plane), PRV (RNG seeds must "
            "derive from the campaign seed scheme).  Suppress single "
            "findings with '# repro: lint-exempt[RULE]' pragmas; "
            "grandfather old ones in a baseline file.  Exits 1 when new "
            "findings remain."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    output_format = lint.add_mutually_exclusive_group()
    output_format.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report",
    )
    output_format.add_argument(
        "--github", action="store_true",
        help="emit GitHub Actions annotations (inline PR-diff findings)",
    )
    output_format.add_argument(
        "--sarif", action="store_true",
        help="emit a SARIF 2.1.0 log (GitHub code scanning, dashboards)",
    )
    lint.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids or family prefixes (e.g. ASY or "
             "DET002,LOC); runs only those rules",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings (default: "
             "lint-baseline.json when it exists)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also list baselined findings in text output",
    )

    campaign = commands.add_parser(
        "campaign",
        help="run an experiment campaign across a process pool",
        description=(
            "Fan independent (graph, seed, algorithm) cells across worker "
            "processes.  Cells come from a named preset (--preset) or a "
            "JSON spec file (--spec); results are written as an "
            "artifact-shaped JSON row list."
        ),
    )
    source = campaign.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset", choices=sorted(PRESETS),
        help="a canonical campaign (shared with the benchmark suite)",
    )
    source.add_argument(
        "--spec", help="path to a campaign spec JSON file"
    )
    campaign.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default 1: run inline)",
    )
    campaign.add_argument(
        "--base-seed", type=int, default=0,
        help="base seed for cells without an explicit seed",
    )
    campaign.add_argument("-o", "--output", default=None,
                          help="write result rows as JSON")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress per-cell progress lines")
    campaign.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock limit; overrunning cells are recorded "
             "as failures and their workers killed",
    )
    campaign.add_argument(
        "--retries", type=int, default=1,
        help="resubmissions for cells interrupted by a worker crash "
             "(default: 1)",
    )
    campaign.add_argument(
        "--checkpoint", default=None, metavar="JOURNAL",
        help="append a JSONL record per completed cell to this journal",
    )
    campaign.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="skip cells already in this journal and keep appending to it",
    )
    campaign.add_argument(
        "--no-strict", action="store_true",
        help="record failing cells instead of aborting the campaign",
    )
    campaign.add_argument(
        "--telemetry", action="store_true",
        help="attach a deterministic repro.obs phase/metrics summary to "
             "every result row",
    )
    campaign.add_argument(
        "--backends", default=None, metavar="ENDPOINTS",
        help="comma-separated serve endpoints (host:port or unix:/path); "
             "dispatch cells to this fleet instead of local processes — "
             "rows are byte-identical to a local run",
    )
    campaign.add_argument(
        "--remote-window", type=int, default=None, metavar="N",
        help="with --backends: max concurrent cells per backend "
             "(default 4)",
    )

    commands.add_parser(
        "serve",
        help="run the async coloring service (NDJSON over TCP/UNIX)",
        description=(
            "Long-lived Delta-coloring server: micro-batches concurrent "
            "requests onto a crash-isolated worker pool, caches results "
            "by canonical instance hash, sheds load past the queue "
            "bound, and drains gracefully on SIGTERM or the 'drain' op.  "
            "See DESIGN.md §10 for the protocol and architecture."
        ),
        add_arguments=partial(_add_knobs, config="ServeConfig"),
    )
    commands.add_parser(
        "chaosproxy",
        help="seeded TCP chaos proxy in front of a coloring server",
        description=(
            "Forward bytes between clients and one upstream server while "
            "injecting seeded, replayable network faults: added latency, "
            "mid-stream connection resets, byte truncation, accept-then-"
            "blackhole, bandwidth throttling.  Every fault decision is a "
            "roll from random.Random(seed) keyed by (connection index, "
            "direction), so a chaos run is bit-reproducible.  See "
            "DESIGN.md §13."
        ),
        add_arguments=_chaosproxy_arguments,
    )
    commands.add_parser(
        "router",
        help="consistent-hash routing tier over running serve shards",
        description=(
            "Front one or more already-running coloring servers with a "
            "consistent-hashing router: color requests ride a seeded "
            "hash ring keyed by the request's cache key, register fans "
            "out to every shard, health/status/metrics aggregate across "
            "the fleet, and the 'fleet' op reports per-shard health, "
            "ring ownership, and routing counters.  See DESIGN.md §14."
        ),
        add_arguments=partial(_add_knobs, config="RouterConfig"),
    )
    commands.add_parser(
        "fleet",
        help="run a supervised sharded fleet: N serve shards + router",
        description=(
            "Spawn N backend serve shards (UNIX sockets, one shared "
            "disk cache) plus the consistent-hash router in front, "
            "monitor shard liveness, restart crashed shards (same "
            "socket => same ring slots), and drain the whole tree in "
            "reverse order on SIGTERM.  See DESIGN.md §14."
        ),
        add_arguments=partial(_add_knobs, config="FleetConfig"),
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = _generated_instance(args, args.seed)
    save_instance(instance, args.output)
    print(f"wrote {instance.describe()} to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    acd = compute_acd(instance.network, epsilon=args.epsilon)
    print(f"instance: {instance.describe()}")
    print(f"ACD (epsilon={args.epsilon}): {acd.num_cliques} almost-cliques, "
          f"{len(acd.sparse)} sparse vertices, dense={acd.is_dense}")
    if acd.is_dense:
        classification = classify_cliques(instance.network, acd)
        reasons: dict[str, int] = {}
        for reason in classification.reasons.values():
            reasons[reason] = reasons.get(reason, 0) + 1
        print(f"classification: {len(classification.hard)} hard, "
              f"{len(classification.easy)} easy "
              f"(witness kinds: {reasons or 'none'})")
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    params = AlgorithmParameters(epsilon=args.epsilon)
    result = delta_color(
        instance.network, method=args.method, params=params, seed=args.seed
    )
    if args.output:
        save_coloring(result.colors, result.num_colors, args.output)
    report = {
        "algorithm": result.algorithm,
        "num_colors": result.num_colors,
        "rounds": result.rounds,
        "messages": result.messages,
        "phase_rounds": result.phase_rounds(),
    }
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(f"{result.algorithm}: {result.num_colors}-coloring in "
              f"{result.rounds} LOCAL rounds ({result.messages} messages)")
        for phase, rounds in sorted(report["phase_rounds"].items()):
            print(f"  {phase:<14} {rounds:>7}")
        if args.output:
            print(f"coloring written to {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        Collector,
        events_jsonl,
        observed,
        render_phase_tree,
        telemetry_document,
        validate_document,
    )

    instance = (
        load_instance(args.instance) if args.instance
        else _generated_instance(args, args.graph_seed)
    )
    params = AlgorithmParameters(epsilon=args.epsilon)
    collector = Collector(
        keep_samples=args.samples,
        record_events=args.events is not None,
    )
    with observed(collector):
        result = delta_color(
            instance.network, method=args.method, params=params,
            seed=args.seed,
        )
    document = telemetry_document(
        collector,
        result=result,
        context={
            "instance": instance.describe(),
            "method": args.method,
            "seed": args.seed,
            "epsilon": args.epsilon,
        },
    )
    validate_document(document)
    if args.events:
        path = Path(args.events)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for line in events_jsonl(collector):
                stream.write(line + "\n")
        print(f"events written to {path}", file=sys.stderr)
    if args.json == "-":
        print(json.dumps(document, indent=1))
    else:
        if args.json:
            path = Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(document, indent=1))
            print(f"telemetry document written to {path}", file=sys.stderr)
        print(render_phase_tree(document))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    colors, num_colors = load_coloring(args.coloring)
    verify_coloring(instance.network, colors, num_colors)
    print(f"OK: proper {num_colors}-coloring of {instance.describe()}")
    return 0


#: Baseline file picked up automatically when present in the CWD.
DEFAULT_BASELINE = "lint-baseline.json"


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (
        Baseline,
        render_github,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        select_rules,
    )

    selectors = None
    if args.select:
        selectors = [
            token for group in args.select for token in group.split(",")
        ]
    rules = select_rules(selectors)

    baseline_path: Path | None = None
    baseline = None
    if not args.no_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
            if not (args.update_baseline and not baseline_path.exists()):
                baseline = Baseline.load(baseline_path)
        elif Path(DEFAULT_BASELINE).exists():
            baseline_path = Path(DEFAULT_BASELINE)
            baseline = Baseline.load(baseline_path)

    report = run_lint(args.paths, rules=rules, baseline=baseline)

    if args.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE)
        Baseline.from_findings([*report.new, *report.baselined]).save(target)
        print(
            f"baseline {target}: {len(report.new) + len(report.baselined)} "
            f"finding(s) recorded"
        )
        return 0

    if args.json:
        print(render_json(report))
    elif args.github:
        print(render_github(report))
    elif args.sarif:
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.ok else 1


def _write_rows(rows, output) -> None:
    from pathlib import Path

    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=1, default=str))
    print(f"wrote {len(rows)} rows to {path}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.preset:
        builder, shape, default_name = PRESETS[args.preset]
        cells = builder()
    else:
        try:
            with open(args.spec) as stream:
                spec = json.load(stream)
        except OSError as error:
            raise ReproError(f"cannot read campaign spec: {error}") from error
        except json.JSONDecodeError as error:
            raise ReproError(
                f"campaign spec {args.spec} is not valid JSON: {error}"
            ) from error
        cells = cells_from_spec(spec)
        shape = lambda rows: rows  # noqa: E731 - specs keep raw rows
        default_name = spec.get("name", "campaign")
    backends = None
    remote_options = None
    if args.backends:
        from repro.runner.remote import RemoteOptions

        backends = [
            item.strip() for item in args.backends.split(",") if item.strip()
        ]
        if not backends:
            raise ReproError("--backends names no endpoints")
        remote_options = (
            RemoteOptions() if args.remote_window is None
            else RemoteOptions(window=args.remote_window)
        )
    elif args.remote_window is not None:
        raise ReproError("--remote-window requires --backends")
    try:
        result = run_campaign(
            cells,
            jobs=args.jobs,
            base_seed=args.base_seed,
            progress=not args.quiet,
            strict=not args.no_strict,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
            resume=args.resume,
            telemetry=args.telemetry,
            backends=backends,
            remote_options=remote_options,
        )
    except CampaignInterrupted as interrupt:
        # Flush what completed so the work survives the Ctrl-C; the
        # journal (when configured) already holds the same rows.
        partial = interrupt.partial
        print(f"\ninterrupted: {interrupt}", file=sys.stderr)
        if args.output:
            _write_rows(partial.rows, f"{args.output}.partial")
        journal = args.resume or args.checkpoint
        if journal:
            print(
                f"resume with: repro campaign ... --resume {journal}",
                file=sys.stderr,
            )
        return 130
    rows = shape(result.rows)
    if args.output:
        _write_rows(rows, args.output)
    rounds = result.summary("rounds")
    resumed = f", {result.resumed} resumed" if result.resumed else ""
    failed = f", {len(result.failures)} failed" if result.failures else ""
    remote = ""
    if result.remote_stats:
        stats = result.remote_stats
        remote = (
            f", {len(stats['backends'])} backends"
            f" (redispatched {stats['redispatched']},"
            f" requeued {stats['requeued']},"
            f" deaths {stats['backend_deaths']})"
        )
    print(
        f"campaign {default_name}: {len(result.cells)} cells, "
        f"jobs={result.jobs}, {result.elapsed_seconds:.2f}s"
        f"{resumed}{failed}{remote}"
        + (
            f", rounds {rounds['min']}..{rounds['max']} "
            f"(mean {rounds['mean']:.1f})"
            if rounds else ""
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ColoringServer, ServeConfig

    config = _knob_config(ServeConfig, args, handle_signals=True)

    async def _serve() -> int:
        server = ColoringServer(config)
        await server.start()
        print(
            f"serving on {server.address} (jobs={config.jobs}, "
            f"max_batch={config.max_batch}, linger={config.linger_ms}ms, "
            f"max_queue={config.max_queue})",
            flush=True,
        )
        try:
            await server.wait_stopped()
        finally:
            await server.close()
        print(
            f"drained after {server.admission.admitted_total} requests "
            f"({server.admission.shed_total} shed)",
            flush=True,
        )
        return 0

    return asyncio.run(_serve())


def _cmd_chaosproxy(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import ChaosPlan, Endpoint, run_chaos_proxy

    plan = _knob_config(ChaosPlan, args)
    upstream = Endpoint.parse(args.upstream)

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        holder: list = []

        def ready(proxy) -> None:
            holder.append(proxy)
            print(
                f"chaos proxy on {proxy.address} -> {upstream.label} "
                f"(seed={plan.seed})",
                flush=True,
            )
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, proxy.stop)

        proxy = await run_chaos_proxy(
            plan, upstream,
            host=args.host, port=args.port, unix_path=args.unix,
            ready=ready,
        )
        summary = proxy.summary()
        if args.json:
            print(json.dumps(summary, indent=1))
        else:
            print(
                f"chaos proxy stopped: {summary['connections']} connections "
                f"({summary['blackholed']} blackholed), "
                f"{summary['resets']} resets, "
                f"{summary['truncations']} truncations, "
                f"{summary['bytes_forwarded']} bytes forwarded",
                flush=True,
            )
        return 0

    return asyncio.run(_run())


def _cmd_router(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import FleetRouter, RouterConfig

    config = _knob_config(RouterConfig, args, handle_signals=True)

    async def _run() -> int:
        router = FleetRouter(config)
        await router.start()
        print(
            f"routing on {router.address} over {len(config.shards)} "
            f"shard(s) (vnodes={config.vnodes}, "
            f"ring_seed={config.ring_seed})",
            flush=True,
        )
        try:
            await router.wait_stopped()
        finally:
            await router.close()
        print(
            f"router drained after {router.admission.admitted_total} "
            f"requests ({router.rerouted} rerouted, "
            f"{router.admission.shed_total} shed)",
            flush=True,
        )
        return 0

    return asyncio.run(_run())


def _cmd_fleet(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import FleetConfig, FleetSupervisor

    config = _knob_config(FleetConfig, args, handle_signals=True)

    async def _run() -> int:
        supervisor = FleetSupervisor(config)
        await supervisor.start()
        print(
            f"fleet of {config.shards} shard(s) routing on "
            f"{supervisor.address} (runtime {supervisor.runtime_dir}, "
            f"cache {supervisor.cache_dir or 'off'})",
            flush=True,
        )
        try:
            await supervisor.wait_stopped()
        finally:
            await supervisor.close()
        summary = supervisor.summary()
        print(
            f"fleet drained after {summary['served']} requests "
            f"({summary['rerouted']} rerouted, {summary['shed']} shed, "
            f"restarts {summary['restarts']})",
            flush=True,
        )
        return 0

    return asyncio.run(_run())


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "chaosproxy": _cmd_chaosproxy,
    "router": _cmd_router,
    "fleet": _cmd_fleet,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        flag = error.flag if isinstance(error, ConfigError) else None
        print(f"error: {flag + ': ' if flag else ''}{error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
