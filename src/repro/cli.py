"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show available workloads, schemes and row policies.
``run``
    Simulate one (workload, scheme, policy) and print the summary.
``compare``
    Run several schemes on one workload and print normalized results.
``sweep``
    Run a grid and export CSV/JSON, serially in-process or on a pool
    of N worker processes (``--pool N``, one task message per warm
    fingerprint).
``bench``
    Run a whole figure suite (scheme x workload grid) as a sweep, on a
    pool of N worker processes or serially, and print points/sec plus
    normalized summaries.
``lint``
    Run the full static layer — the reprolint rules plus the strict
    typing gate — with ``--format json`` / ``--format github`` outputs
    for CI.
``serve``
    Run the long-lived sweep service (HTTP/JSON job API, shared
    content-addressed result store, checkpointed journal) until
    interrupted.
``submit``
    Submit a sweep to a running service, wait for it, and print (or
    export) the rows — identical grid points across jobs and clients
    are computed once.
``results``
    Fetch a job's status/rows or a single cached point row from a
    running service.

Examples::

    python -m repro list
    python -m repro run --workload GUPS --scheme PRA --events 4000
    python -m repro compare --workload MIX1 --schemes Baseline FGA Half-DRAM PRA
    python -m repro sweep --schemes Baseline PRA --workloads GUPS MIX1 \
        --pool 4 --out grid.csv
    python -m repro bench --suite fig12 --pool 4
    python -m repro lint --format github
    python -m repro serve --dir /var/tmp/sweeps --port 8032
    python -m repro submit --port 8032 --schemes Baseline PRA \
        --workloads GUPS MIX1 --out grid.csv
    python -m repro results --port 8032 --job <job-id>
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:
    from types import FrameType

    from repro.service.client import ServiceClient

from repro.core.schemes import ALL_SCHEMES, BASELINE, by_name
from repro.sim.config import SystemConfig
from repro.sim.metrics import Grid, mean
from repro.sim.sweep import POLICIES, Sweep, write_csv, write_json
from repro.workloads.mixes import ALL_WORKLOADS
from repro.workloads.mixes import workload as lookup_workload


def _available_cpus() -> int:
    """CPUs this process may use (monkeypatchable in tests)."""
    return os.cpu_count() or 1


def _check_worker_budget(flag: str, requested: int) -> None:
    """Reject worker counts that oversubscribe the machine.

    Simulation workers are CPU-bound: more workers than cores just
    adds context-switch and IPC overhead while *looking* parallel, so
    an explicit over-ask is almost certainly a mistake.  Raises
    ``ValueError`` (→ exit code 2 with a clean message) rather than
    silently clamping.
    """
    cpus = _available_cpus()
    if requested > cpus:
        raise ValueError(
            f"{flag} {requested} exceeds the {cpus} available CPU(s); "
            f"use {flag} {cpus} or lower"
        )


def _check_out_dir(flag: str, path: Optional[str]) -> None:
    """Reject an output path whose directory does not exist.

    Called before any work, so a typo costs nothing instead of a whole
    grid's rows.  Raises ``ValueError`` (→ exit code 2).
    """
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"{flag} {path}: directory {directory} does not exist")


#: ``repro bench`` suites: scheme set per figure; every suite crosses
#: its schemes with all 14 evaluation workloads except ``quick``.
_BENCH_SUITES = {
    "quick": (["Baseline", "PRA"], ["GUPS", "MIX1"]),
    "fig12": (["Baseline", "FGA", "Half-DRAM", "PRA"], None),
    "fig13": (["Baseline", "FGA", "Half-DRAM", "PRA"], None),
    "fig15": (["Baseline", "DBI", "PRA", "DBI+PRA"], None),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partial Row Activation (HPCA 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schemes and policies")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="MIX1", help="one of the 14 workloads")
        p.add_argument("--events", type=int, default=4000,
                       help="memory instructions per core")
        p.add_argument("--policy", choices=sorted(POLICIES), default="relaxed")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--profile", action="store_true",
                       help="run under cProfile, print top-25 by cumulative time")

    run_p = sub.add_parser("run", help="simulate one configuration")
    add_common(run_p)
    run_p.add_argument("--scheme", default="PRA", help="scheme name (see list)")

    cmp_p = sub.add_parser("compare", help="compare schemes on one workload")
    add_common(cmp_p)
    cmp_p.add_argument(
        "--schemes",
        nargs="+",
        default=["Baseline", "FGA", "Half-DRAM", "PRA"],
        help="scheme names to compare (baseline added automatically)",
    )

    sweep_p = sub.add_parser("sweep", help="run a grid and export CSV/JSON")
    sweep_p.add_argument("--workloads", nargs="+", default=["GUPS", "MIX1"])
    sweep_p.add_argument("--schemes", nargs="+", default=["Baseline", "PRA"])
    sweep_p.add_argument("--policies", nargs="+", choices=sorted(POLICIES),
                         default=["relaxed"])
    sweep_p.add_argument("--events", type=int, default=4000)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--out", required=True,
                         help="output path (.csv or .json)")
    sweep_p.add_argument("--pool", type=int, default=0, metavar="N",
                         help="run the grid on a pool of N worker processes "
                         "(one task message per warm-fingerprint group)")
    sweep_p.add_argument("--profile", action="store_true",
                         help="run under cProfile, print top-25 by cumulative time")

    bench_p = sub.add_parser(
        "bench", help="run a whole figure suite's grid as a sweep"
    )
    bench_p.add_argument("--suite", choices=sorted(_BENCH_SUITES),
                         default="fig12",
                         help="which figure's (scheme x workload) grid to run")
    bench_p.add_argument("--events", type=int, default=2000,
                         help="memory instructions per core")
    bench_p.add_argument("--policy", choices=sorted(POLICIES), default="relaxed")
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument("--pool", type=int, default=None, metavar="N",
                         help="pool worker processes (0 = serial in-process; "
                         "default: min(2, available CPUs))")

    serve_p = sub.add_parser(
        "serve", help="run the long-lived sweep service (HTTP/JSON API)"
    )
    serve_p.add_argument("--dir", required=True, dest="root",
                         help="service state directory (result store, "
                         "journal, warm snapshots)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="listen port (0 = kernel-chosen; see "
                         "--port-file)")
    serve_p.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the bound port here once listening "
                         "(atomic; lets scripts await a port=0 service)")
    serve_p.add_argument("--pools", type=int, default=1, metavar="K",
                         help="independent warm SimPools to shard "
                         "fingerprint groups across")
    serve_p.add_argument("--workers-per-pool", type=int, default=1,
                         metavar="W", help="worker processes per pool")

    def add_service_endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8032)
        p.add_argument("--port-file", default=None, metavar="PATH",
                       help="read the service port from PATH (overrides "
                       "--port; pairs with 'serve --port-file')")

    submit_p = sub.add_parser(
        "submit", help="submit a sweep to a running service"
    )
    add_service_endpoint(submit_p)
    submit_p.add_argument("--workloads", nargs="+", default=["GUPS", "MIX1"])
    submit_p.add_argument("--schemes", nargs="+", default=["Baseline", "PRA"])
    submit_p.add_argument("--policies", nargs="+", choices=sorted(POLICIES),
                          default=None)
    submit_p.add_argument("--ecc-chips", nargs="+", type=int, default=None,
                          help="ecc_chips axis values (0 and/or 1)")
    submit_p.add_argument("--events", type=int, default=4000)
    submit_p.add_argument("--seed", type=int, default=1)
    submit_p.add_argument("--warmup", type=int, default=None,
                          help="warmup events per core (default: resolved "
                          "per workload)")
    submit_p.add_argument("--llc-bytes", type=int, default=None)
    submit_p.add_argument("--no-wait", action="store_true",
                          help="print the job id and return without waiting")
    submit_p.add_argument("--out", default=None,
                          help="export rows to .csv or .json once done")

    results_p = sub.add_parser(
        "results", help="fetch job status/rows or one cached point row"
    )
    add_service_endpoint(results_p)
    results_p.add_argument("--job", default=None, metavar="JOB_ID",
                           help="job to report (status, and rows when done)")
    results_p.add_argument("--digest", default=None, metavar="DIGEST",
                           help="single point digest to fetch")
    results_p.add_argument("--out", default=None,
                           help="export job rows to .csv or .json")

    lint_p = sub.add_parser(
        "lint", help="run reprolint + the strict typing gate"
    )
    lint_p.add_argument("paths", nargs="*", default=[],
                        help="files or trees to lint (default: src/ tests/)")
    lint_p.add_argument("--select", nargs="+", metavar="RULE",
                        help="only report these reprolint rule ids")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the reprolint rule catalogue and exit")
    lint_p.add_argument("--format", choices=("text", "json", "github"),
                        default="text", dest="fmt",
                        help="finding output format: human text, a JSON "
                        "report document, or GitHub workflow annotations")
    lint_p.add_argument("--json-out", metavar="PATH", default=None,
                        help="additionally write the JSON report to PATH "
                        "(CI artifact), independent of --format")
    lint_p.add_argument("--no-typegate", action="store_true",
                        help="skip the mypy+ruff gate (reprolint only)")
    lint_p.add_argument("--lax-types", action="store_true",
                        help="missing mypy/ruff skip instead of failing "
                        "(default is the CI-strict behaviour)")
    return parser


def cmd_list() -> int:
    """List workloads, schemes and row policies."""
    print("workloads:")
    for name, wl in ALL_WORKLOADS.items():
        print(f"  {name:<12} {', '.join(wl.app_names)}")
    print("schemes:")
    for name in ALL_SCHEMES:
        print(f"  {name}")
    print("policies:")
    for name, policy in POLICIES.items():
        print(f"  {name:<12} {policy.value}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Simulate one configuration and print its summary report."""
    from repro.sim.system import simulate
    from repro.stats.report import format_breakdown

    scheme = by_name(args.scheme)
    policy = POLICIES[args.policy]
    config = SystemConfig(scheme=scheme, policy=policy)
    result = simulate(config, lookup_workload(args.workload), args.events,
                      seed=args.seed)
    print(f"{args.workload} / {scheme.name} / {policy.value}")
    for key, value in result.summary().items():
        print(f"  {key:<24}{value:>14.4f}")
    print("  activation granularity mix:")
    for g, frac in result.granularity_fractions().items():
        if frac:
            print(f"    {g}/8 row{'':<14}{frac:>14.3f}")
    print()
    print(format_breakdown(result.power.fractions(), title="  power breakdown"))
    reads = result.controller.reads.latency_hist
    if reads.samples:
        print(f"  read latency (cycles): p50 {reads.percentile(50):.0f}  "
              f"p95 {reads.percentile(95):.0f}  p99 {reads.percentile(99):.0f}  "
              f"max {reads.max_value}")
    if getattr(args, "profile", False):
        _print_phase_counters(result.controller)
    return 0


def _print_phase_counters(stats) -> None:
    """Scheduler phase counters for ``--profile`` runs.

    The controller counts its scheduling phases directly
    (``sched_passes`` plus the per-phase command counters); unlike the
    cProfile table these counts are deterministic, so two runs of the
    same point print the same table.
    """
    passes = stats.sched_passes
    activations = stats.total_activations
    # Streaks commit N column commands in one scheduling decision, so
    # decisions = singles + streaks = served - streak_commands + streaks.
    column_decisions = stats.total_served - stats.streak_commands + stats.streaks
    issued = activations + column_decisions + stats.precharges + stats.refreshes
    print()
    print("  scheduler phases (deterministic controller counters):")
    rows = [
        ("scheduling passes", passes, "past the command-bus gate"),
        ("decisions issued", issued,
         f"{issued / passes:.3f} per pass" if passes else ""),
        ("  activations", activations, ""),
        ("  column decisions", column_decisions,
         (f"{stats.streaks} streaks x "
          f"{stats.streak_commands / stats.streaks:.2f} cmds mean"
          if stats.streaks else "no streaks")),
        ("  precharges", stats.precharges, ""),
        ("  refreshes", stats.refreshes, ""),
        ("housekeeping", stats.power_down_entries,
         "power-down entries (idle-close walks)"),
        ("drain entries", stats.drain_entries, "write-drain mode switches"),
    ]
    for label, value, note in rows:
        suffix = f"  ({note})" if note else ""
        print(f"    {label:<20}{value:>12,}{suffix}")


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare schemes on one workload, normalized to the baseline.

    Runs two sweeps: the schemes on the workload, and Baseline on each
    distinct app of the workload alone (Eq. 3's denominators).
    """
    wl = lookup_workload(args.workload)
    schemes = [by_name(s).name for s in args.schemes]
    if BASELINE.name not in schemes:
        schemes.insert(0, BASELINE.name)
    alone = [f"{app}-alone" for app in dict.fromkeys(wl.app_names)]

    def run(scheme_axis: List[str], workload_axis: List[str]) -> List[dict]:
        sweep = Sweep(events_per_core=args.events, seed=args.seed)
        sweep.add_axis("scheme", scheme_axis)
        sweep.add_axis("workload", workload_axis)
        sweep.add_axis("policy", [args.policy])
        return sweep.run()

    grid = Grid(run(schemes, [wl.name]), run([BASELINE.name], alone))
    print(f"{args.workload} ({POLICIES[args.policy].value}, "
          f"{args.events} events/core)")
    header = f"{'scheme':<14}{'power':>8}{'energy':>8}{'EDP':>8}{'perf':>8}"
    print(header)
    print("-" * len(header))
    for scheme in schemes:
        values = [
            grid.ratio(column, wl.name, scheme, args.policy)
            for column in ("total_power_mw", "energy_mj", "edp")
        ]
        values.append(grid.performance(wl.name, scheme, args.policy))
        print(f"{scheme:<14}" + "".join(f"{value:>8.3f}" for value in values))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a scheme x workload x policy grid and export CSV/JSON."""
    _check_out_dir("--out", args.out)
    sweep = Sweep(events_per_core=args.events, seed=args.seed)
    sweep.add_axis("scheme", args.schemes)
    sweep.add_axis("workload", args.workloads)
    sweep.add_axis("policy", args.policies)
    if args.pool:
        _check_worker_budget("--pool", args.pool)
        from repro.sim.pool import SimPool

        with SimPool(workers=args.pool) as pool:
            rows = sweep.run(pool=pool)
    else:
        rows = sweep.run()
    _export_rows(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run one figure suite's scheme x workload grid as a :class:`Sweep`.

    The grid runs on a :class:`repro.sim.pool.SimPool` of ``--pool``
    workers, or serially in-process for ``--pool 0``; the table is
    computed from the sweep's rows, so both print the same numbers.
    """
    import contextlib
    import time

    from repro.sim.pool import SimPool

    pool_workers = args.pool
    if pool_workers is None:
        pool_workers = min(2, _available_cpus())
    elif pool_workers:
        _check_worker_budget("--pool", pool_workers)

    scheme_names, workload_names = _BENCH_SUITES[args.suite]
    if workload_names is None:
        workload_names = list(ALL_WORKLOADS)
    sweep = Sweep(events_per_core=args.events, seed=args.seed)
    sweep.add_axis("scheme", scheme_names)
    sweep.add_axis("workload", workload_names)
    sweep.add_axis("policy", [args.policy])

    with contextlib.ExitStack() as stack:
        pool = (stack.enter_context(SimPool(workers=pool_workers))
                if pool_workers else None)
        start = time.perf_counter()  # reprolint: allow[determinism-wallclock]
        rows = sweep.run(pool=pool)
        elapsed = time.perf_counter() - start  # reprolint: allow[determinism-wallclock]

    grid = Grid(rows)
    mode = f"pool({pool_workers})" if pool_workers else "serial"
    print(f"{args.suite}: {len(rows)} points, {len(workload_names)} workloads "
          f"x {len(scheme_names)} schemes ({POLICIES[args.policy].value}, "
          f"{args.events} events/core, {mode})")
    print(f"  wall time    {elapsed:8.2f} s")
    print(f"  points/sec   {len(rows) / elapsed:8.2f}")
    header = f"{'scheme':<14}{'power':>8}{'energy':>8}{'EDP':>8}"
    print(header)
    print("-" * len(header))
    for scheme in scheme_names:
        means = [
            mean([grid.ratio(column, wl_name, scheme, args.policy)
                  for wl_name in workload_names])
            for column in ("total_power_mw", "energy_mj", "edp")
        ]
        print(f"{scheme:<14}" + "".join(f"{value:>8.3f}" for value in means))
    return 0


def _profiled(func: Callable[..., int], *args: object) -> int:
    """Run ``func`` under cProfile; print the top 25 cumulative entries."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(func, *args)
    finally:
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(
            "cumulative"
        ).print_stats(25)


def _interrupt_on_sigterm(signum: int, frame: "Optional[FrameType]") -> None:
    """Handle SIGTERM as whatever handles SIGINT at that moment.

    Inside ``asyncio.run`` that is asyncio's handler, which cancels the
    main task (so the service's ``finally`` closes its pools) and then
    raises ``KeyboardInterrupt``; outside it, Python's default handler.
    """
    handler = signal.getsignal(signal.SIGINT)
    if callable(handler):
        handler(signal.SIGINT, frame)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep service until SIGINT or SIGTERM; both exit cleanly."""
    import asyncio

    from repro.service.server import run_service

    total = args.pools * args.workers_per_pool
    cpus = _available_cpus()
    if total > cpus:
        raise ValueError(
            f"--pools {args.pools} x --workers-per-pool "
            f"{args.workers_per_pool} = {total} simulation workers "
            f"exceeds the {cpus} available CPU(s); shrink one of them"
        )
    if args.pools < 1 or args.workers_per_pool < 1:
        raise ValueError("--pools and --workers-per-pool must be positive")
    print(f"sweep service: dir={args.root} pools={args.pools} "
          f"workers/pool={args.workers_per_pool}", file=sys.stderr)
    # A background job of a non-interactive shell starts with SIGINT
    # ignored, and SIGTERM kills at once by default; either way the
    # pool workers would outlive the service.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _interrupt_on_sigterm)
    try:
        asyncio.run(
            run_service(
                args.root,
                host=args.host,
                port=args.port,
                pools=args.pools,
                workers_per_pool=args.workers_per_pool,
                port_file=args.port_file,
            )
        )
    except KeyboardInterrupt:
        print("sweep service: interrupted, shut down", file=sys.stderr)
    return 0


def _service_client(args: argparse.Namespace) -> "ServiceClient":
    """Build a :class:`ServiceClient` from endpoint flags.

    An unreadable ``--port-file`` or one that holds no port number is a
    user error (``ValueError``, exit 2), raised before any request.
    """
    from repro.service.client import ServiceClient

    port = args.port
    if args.port_file is not None:
        try:
            with open(args.port_file) as handle:
                port = int(handle.read())
        except (OSError, ValueError) as exc:
            raise ValueError(f"--port-file {args.port_file}: {exc}") from exc
    return ServiceClient(host=args.host, port=port)


def _export_rows(rows: "List[dict]", out: str) -> None:
    """Write result rows to ``out``: JSON for ``.json``, else CSV."""
    if out.endswith(".json"):
        write_json(rows, out)
    else:
        write_csv(rows, out)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a sweep spec over HTTP; optionally wait and export rows."""
    from repro.service.client import ServiceError

    _check_out_dir("--out", args.out)
    axes: dict = {"scheme": args.schemes, "workload": args.workloads}
    if args.policies is not None:
        axes["policy"] = args.policies
    if args.ecc_chips is not None:
        axes["ecc_chips"] = args.ecc_chips
    spec = {
        "events_per_core": args.events,
        "seed": args.seed,
        "warmup_events_per_core": args.warmup,
        "llc_bytes": args.llc_bytes,
        "axes": axes,
    }
    client = _service_client(args)
    try:
        status = client.submit(spec)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"job {status['job_id']}: {status['state']} "
          f"({status['total']} points, {status['cached']} cached, "
          f"{status['coalesced']} coalesced, {status['computed']} computing)")
    if args.no_wait:
        return 0
    status = client.wait(status["job_id"])
    if status["state"] != "done":
        print(f"error: job failed: {status.get('error')}", file=sys.stderr)
        return 1
    rows = client.rows(status["job_id"])
    if args.out:
        _export_rows(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        for row in rows:
            print(row)
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    """Fetch results from a running service (job rows or one digest)."""
    from repro.service.client import ServiceError

    if (args.job is None) == (args.digest is None):
        raise ValueError("pass exactly one of --job or --digest")
    _check_out_dir("--out", args.out)
    client = _service_client(args)
    if args.digest is not None:
        try:
            row = client.result(args.digest)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(row)
        return 0
    try:
        status = client.status(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"job {status['job_id']}: {status['state']} "
          f"({status['completed']}/{status['total']} points)")
    if status["state"] != "done":
        return 0
    rows = client.rows(status["job_id"])
    if args.out:
        _export_rows(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        for row in rows:
            print(row)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the reprolint rules and the typegate.

    Exit status is the worst of the two layers: 1 when any finding
    fired or the typing gate failed, 0 when both are clean.  The JSON
    report (``--format json`` to stdout, ``--json-out`` to a file) is
    a stable document CI archives per run::

        {"version": 1, "paths": [...], "findings": [...],
         "counts": {"<rule-id>": n, ...}, "typegate": 0|1|null}
    """
    import json as _json

    from repro.analysis import typegate
    from repro.analysis.lint import lint_paths
    from repro.analysis.rules import ALL_RULES, RULE_IDS, find_repo_root

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:32s} [{rule.family}] {rule.summary}")
        return 0
    if args.select:
        unknown = set(args.select) - RULE_IDS
        if unknown:
            raise ValueError(f"unknown reprolint rule(s): {sorted(unknown)}")
    _check_out_dir("--json-out", args.json_out)
    repo_root = find_repo_root(os.getcwd())
    paths = args.paths or [
        os.path.join(repo_root, "src"), os.path.join(repo_root, "tests")
    ]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ValueError(
            f"no such path(s): {missing} — run from inside the repo or "
            f"pass explicit files/trees to lint"
        )
    findings = lint_paths(paths, select=args.select, repo_root=repo_root)

    def rel(path: str) -> str:
        return os.path.relpath(os.path.abspath(path), repo_root).replace(
            "\\", "/"
        )

    if args.fmt == "text":
        for finding in findings:
            print(finding.render())
    elif args.fmt == "github":
        # Workflow-command annotations: GitHub attaches these to the
        # offending file/line in the PR diff view.
        for finding in findings:
            message = finding.message.replace("\n", " ")
            print(
                f"::error file={rel(finding.path)},line={finding.line},"
                f"title=reprolint {finding.rule}::{message}"
            )

    typegate_code: Optional[int] = None
    if not args.no_typegate:
        typegate_argv = [] if args.lax_types else ["--strict"]
        typegate_code = typegate.main(typegate_argv)

    counts: dict = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    report = {
        "version": 1,
        "paths": [rel(p) for p in paths],
        "findings": [
            {"path": rel(f.path), "line": f.line, "rule": f.rule,
             "message": f.message}
            for f in findings
        ],
        "counts": counts,
        "typegate": typegate_code,
    }
    if args.fmt == "json":
        print(_json.dumps(report, indent=2, sort_keys=True))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    noun = "finding" if len(findings) == 1 else "findings"
    gate = (
        "skipped" if typegate_code is None
        else "ok" if typegate_code == 0 else "FAILED"
    )
    print(
        f"repro lint: {len(findings)} {noun}, typegate {gate}",
        file=sys.stderr,
    )
    if findings or (typegate_code or 0) != 0:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    dispatch = {
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "bench": cmd_bench,
        "lint": cmd_lint,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "results": cmd_results,
    }
    try:
        if args.command == "list":
            return cmd_list()
        command = dispatch.get(args.command)
        if command is None:
            raise RuntimeError(f"unhandled command {args.command!r}")
        if getattr(args, "profile", False):
            return _profiled(command, args)
        return command(args)
    except (KeyError, ValueError) as exc:
        # Bad scheme/workload names and invalid sizes are user errors:
        # print them cleanly instead of a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
