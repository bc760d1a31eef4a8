"""Command-line interface for the reproduction.

Usage (after ``pip install -e .`` or from the repository root)::

    python -m repro tables                 # print every reproduced table
    python -m repro table --id "Table III" # print one table / figure
    python -m repro experiments            # paper-vs-measured for all experiments
    python -m repro select --faults 1      # pick replica sets (Section IV-C)
    python -m repro simulate --runs 100    # homogeneous vs diverse simulation
    python -m repro sweep --workers 4      # parallel cached parameter-grid sweep
    python -m repro serve --port 8142      # long-lived diversity-query API server
    python -m repro export --output out/   # write all tables/figures as text+CSV
    python -m repro feeds --output feeds/  # write the corpus as NVD-style XML feeds
    python -m repro ingest --db data.db    # ingest into a persistent snapshot store
    python -m repro ingest --db data.db --delta mod.xml   # apply a modified feed
    python -m repro snapshot list --db data.db            # inspect the ledger

All commands operate on the calibrated synthetic corpus by default; pass
``--feeds DIR`` to run the analyses on a directory of NVD XML feeds instead
(e.g. the real ones, in an online environment), or ``--db PATH`` (optionally
with ``--snapshot ID``) to run them on a snapshot state of a persistent
ingested database.  ``--engine bitset|naive|packed`` selects the
shared-vulnerability engine (the precompiled bitset incidence index by
default; the naive set re-intersection for cross-checking; the numpy
packed-word index for large catalogues; ``simulate`` and ``sweep`` take
``bitset`` or ``naive``).  Worked examples for every command live in
``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.dataset import ENGINES, VulnerabilityDataset
from repro.analysis.periods import PeriodAnalysis
from repro.analysis.selection import ReplicaSetSelector, replicas_needed
from repro.core.constants import FIGURE3_CONFIGURATIONS, TABLE5_OSES, get_os
from repro.db.ingest import IngestPipeline
from repro.itsys.simulation import ENGINES as SIMULATION_ENGINES
from repro.itsys.simulation import CompromiseSimulation
from repro.reports.experiments import EXPERIMENTS
from repro.reports.export import to_csv
from repro.reports.figures import figure2, figure3
from repro.reports.tables import (
    ksets_summary,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.synthetic.corpus import build_corpus

_TABLES = {
    "Table I": table1,
    "Table II": table2,
    "Table III": table3,
    "Table IV": table4,
    "Table V": table5,
    "Table VI": table6,
    "Section IV-B": ksets_summary,
}
_FIGURES = {"Figure 2": figure2, "Figure 3": figure3}


def _resolve_snapshot(store, spec: Optional[str]):
    """Resolve a ``--snapshot`` selector (id or digest prefix) to a record."""
    from repro.core.exceptions import DatabaseError

    if spec is None:
        head = store.head()
        if head is None:
            raise SystemExit("the database has no snapshots; run `repro ingest` first")
        return head
    try:
        return store.resolve(spec)
    except DatabaseError as error:
        # Clean CLI failure instead of a DatabaseError traceback.
        raise SystemExit(str(error)) from error


def _load_dataset(args: argparse.Namespace) -> VulnerabilityDataset:
    """Dataset from ``--db`` (snapshot-pinned) or ``--feeds``, else synthetic."""
    engine = getattr(args, "engine", "bitset")
    if getattr(args, "db", None):
        from repro.db.database import VulnerabilityDatabase
        from repro.snapshots.store import SnapshotStore

        if not Path(args.db).exists():
            # Opening would create (and schema-initialise) a stray file.
            raise SystemExit(
                f"database {args.db} does not exist; run "
                f"`repro --db {args.db} ingest` first"
            )
        database = VulnerabilityDatabase(args.db)
        try:
            store = SnapshotStore(database)
            record = _resolve_snapshot(store, getattr(args, "snapshot", None))
            return store.dataset_at(record.snapshot_id, engine=engine)
        finally:
            database.close()
    if getattr(args, "feeds", None):
        feed_dir = Path(args.feeds)
        paths = sorted(feed_dir.glob("*.xml"))
        if not paths:
            raise SystemExit(f"no .xml feeds found in {feed_dir}")
        pipeline = IngestPipeline()
        pipeline.ingest_xml_feeds(paths)
        entries = pipeline.database.load_entries()
        pipeline.database.close()
        return VulnerabilityDataset(entries, engine=engine)
    corpus = build_corpus(seed=args.seed)
    return VulnerabilityDataset(corpus.entries, engine=engine)


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    for builder in _TABLES.values():
        print(builder(dataset).text)
        print()
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    if args.id in _TABLES:
        print(_TABLES[args.id](dataset).text)
        return 0
    if args.id in _FIGURES:
        print(_FIGURES[args.id](dataset).text)
        return 0
    known = ", ".join(sorted(list(_TABLES) + list(_FIGURES)))
    print(f"unknown table/figure {args.id!r}; known: {known}", file=sys.stderr)
    return 2


def cmd_experiments(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    if getattr(args, "markdown", False):
        from repro.reports.summary import generate_markdown_report

        print(generate_markdown_report(dataset))
        return 0
    for experiment in EXPERIMENTS.values():
        result = experiment.run(dataset)
        print(f"== {result.experiment_id}: {result.description}")
        for key, measured in result.measured.items():
            paper = result.paper_values.get(key, "n/a")
            print(f"   {key}: measured={measured}  paper={paper}")
        print()
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    periods = PeriodAnalysis(dataset)
    selector = ReplicaSetSelector(
        pair_matrix=periods.history_pair_matrix(), candidates=TABLE5_OSES
    )
    n = replicas_needed(args.faults, args.quorum)
    print(f"selecting {n} operating systems to tolerate f={args.faults} ({args.quorum}), "
          f"using the {HISTORY_LABEL} data:")
    for result in selector.exhaustive(n, top=args.top):
        evaluation = periods.evaluate_configuration("candidate", result.os_names)
        print(f"  {', '.join(result.os_names):60s} history={result.pairwise_shared:3d} "
              f"observed={evaluation.observed_count:2d}")
    return 0


HISTORY_LABEL = "1994-2005 history"


def _interval_list(spec: str) -> List[float]:
    """argparse type for --recovery-sweep: a comma-separated float list."""
    try:
        values = [float(token) for token in spec.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid interval list {spec!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one interval")
    return values


def _ledger_lifetimes(args: argparse.Namespace) -> tuple:
    """Observed closure lifetimes from the --db snapshot ledger."""
    from repro.core.exceptions import SimulationError

    if not getattr(args, "db", None) or not Path(args.db).exists():
        raise SimulationError(
            "closure=empirical without inline lifetimes needs --db "
            "(the snapshot ledger supplies the observed lifetimes)"
        )
    from repro.db.database import VulnerabilityDatabase
    from repro.snapshots.history import closure_lifetimes
    from repro.snapshots.store import SnapshotStore

    database = VulnerabilityDatabase(args.db)
    try:
        lifetimes = closure_lifetimes(SnapshotStore(database))
    finally:
        database.close()
    if not lifetimes:
        raise SimulationError(
            "the snapshot ledger records no closure lifetimes yet; "
            "ingest more snapshots or pass lifetimes=... explicitly"
        )
    return lifetimes


def _resolve_scenario(token: str, args: argparse.Namespace):
    """One scenario axis entry: ``none`` or a ``family:key=value,...`` spec.

    An empirical patch-race spec without inline lifetimes resamples the
    ``--db`` snapshot ledger (:func:`repro.snapshots.closure_lifetimes`).
    Raises :class:`~repro.core.exceptions.SimulationError` on bad input.
    """
    from repro.itsys.scenarios import parse_scenario

    token = token.replace(" ", "")
    if token.lower() == "none":
        return None
    if "closure=empirical" in token and "lifetimes=" not in token:
        lifetimes = _ledger_lifetimes(args)
        token += ",lifetimes=" + ";".join(repr(value) for value in lifetimes)
    return parse_scenario(token)


def _simulate_configurations(args: argparse.Namespace) -> dict:
    """Replica configurations selected by --homogeneous / --config / --os."""
    configurations: dict = {}
    if args.homogeneous:
        configurations[f"homogeneous (4 x {args.homogeneous})"] = (args.homogeneous,) * 4
    for name in args.config or []:
        configurations[name] = FIGURE3_CONFIGURATIONS[name]
    for spec in args.os or []:
        os_names = tuple(name.strip() for name in spec.split(",") if name.strip())
        configurations["custom (" + "+".join(os_names) + ")"] = os_names
    if not configurations:
        configurations = {
            "homogeneous (4 x Debian)": ("Debian",) * 4,
            "Set1": FIGURE3_CONFIGURATIONS["Set1"],
            "Set4": FIGURE3_CONFIGURATIONS["Set4"],
        }
    return configurations


def _reject_bad_simulation_inputs(args: argparse.Namespace,
                                  configurations: dict) -> Optional[int]:
    """Shared --engine / configuration validation for simulate and sweep.

    Returns an exit code to fail with, or ``None`` when the inputs are fine.
    """
    if args.engine not in SIMULATION_ENGINES:
        print(f"the simulator supports --engine {'|'.join(SIMULATION_ENGINES)}, "
              f"not {args.engine!r}", file=sys.stderr)
        return 2
    for name, os_names in configurations.items():
        if not os_names:
            print(f"configuration {name!r} has no replicas", file=sys.stderr)
            return 2
        for os_name in os_names:
            try:
                get_os(os_name)
            except KeyError:
                print(f"unknown operating system {os_name!r} in configuration "
                      f"{name!r}", file=sys.stderr)
                return 2
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.recovery_sweep and args.recovery_interval is not None:
        print("--recovery-sweep and --recovery-interval are mutually exclusive",
              file=sys.stderr)
        return 2
    configurations = _simulate_configurations(args)
    failure = _reject_bad_simulation_inputs(args, configurations)
    if failure is not None:
        return failure
    from repro.core.exceptions import SimulationError

    try:
        scenario = (
            _resolve_scenario(args.scenario, args) if args.scenario else None
        )
    except SimulationError as error:
        print(f"invalid scenario: {error}", file=sys.stderr)
        return 2
    dataset = _load_dataset(args)
    simulation = CompromiseSimulation(
        dataset.valid(), seed=args.seed, engine=args.engine
    )
    campaign = dict(
        runs=args.runs,
        exploit_rate=args.rate,
        horizon=args.horizon,
        quorum_model=args.quorum_model,
        targeted=not args.untargeted,
        arrival=args.arrival,
        shape=args.shape,
        smart=args.smart,
        scenario=scenario,
    )
    sweep_intervals: Optional[List[Optional[float]]] = None
    try:
        analyses = {
            name: simulation.single_exploit_analysis(
                name, os_names, quorum_model=args.quorum_model
            )
            for name, os_names in configurations.items()
        }
        if args.recovery_sweep:
            sweep_intervals = [None] + list(args.recovery_sweep)
            results = [
                result
                for name, os_names in configurations.items()
                for result in simulation.recovery_sweep(
                    name, os_names, sweep_intervals, **campaign
                ).values()
            ]
        else:
            campaign["recovery_interval"] = args.recovery_interval
            results = simulation.compare(configurations, **campaign)
    except SimulationError as error:
        print(f"invalid campaign: {error}", file=sys.stderr)
        return 2

    if args.json:
        import dataclasses
        import json

        payload = {
            "engine": simulation.engine,
            "parameters": {**campaign,
                           "scenario": scenario.params() if scenario else None,
                           "seed": args.seed,
                           "recovery_sweep": sweep_intervals},
            "configurations": {name: list(os_names) for name, os_names in configurations.items()},
            "single_exploit": [dataclasses.asdict(a) for a in analyses.values()],
            "campaigns": [dataclasses.asdict(result) for result in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print("single-exploit (0-day) defeat probability:")
    for name, analysis in analyses.items():
        print(f"  {name:28s} {analysis.single_attack_defeat_probability:5.2f} "
              f"(mean replicas hit {analysis.mean_replicas_per_exploit:.2f})")
    scenario_note = f", scenario {scenario.label}" if scenario else ""
    print(f"\nMonte-Carlo campaigns ({args.runs} runs, rate {args.rate}, "
          f"horizon {args.horizon}, {args.arrival} arrivals, "
          f"engine {simulation.engine}{scenario_note}):")
    for result in results:
        print(f"  {result.summary()}")
    return 0


def _comma_list(spec: str) -> List[str]:
    """argparse type for comma-separated token lists (e.g. --quorum-models)."""
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("expected at least one value")
    return tokens


def _recovery_list(spec: str) -> List[Optional[float]]:
    """argparse type for --recovery-intervals: floats and the token 'none'."""
    values: List[Optional[float]] = []
    for token in _comma_list(spec):
        if token.lower() == "none":
            values.append(None)
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid recovery interval {token!r} (use a number or 'none')"
            )
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.exceptions import SimulationError
    from repro.runner import ArrivalSpec, ExperimentGrid, GridRunner, ResultCache

    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    configurations = _simulate_configurations(args)
    failure = _reject_bad_simulation_inputs(args, configurations)
    if failure is not None:
        return failure
    try:
        arrivals = tuple(
            ArrivalSpec(process, args.shape if process == "aging" else 1.0)
            for process in args.arrivals
        )
        scenarios = tuple(
            _resolve_scenario(token, args)
            for token in (args.scenario or ["none"])
        )
        grid = ExperimentGrid(
            configurations=configurations,
            quorum_models=tuple(args.quorum_models),
            recovery_intervals=tuple(args.recovery_intervals),
            arrivals=arrivals,
            adversaries=tuple(args.adversaries),
            scenarios=scenarios,
            runs=args.runs,
            exploit_rate=args.rate,
            horizon=args.horizon,
        )
    except SimulationError as error:
        print(f"invalid grid: {error}", file=sys.stderr)
        return 2
    dataset = _load_dataset(args)
    # One registry shared by the result cache and the runner, so --stats
    # reports cache warm/cold and chunk timings from a single source.
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    cache = (
        None if args.no_cache
        else ResultCache(Path(args.cache_dir), metrics=metrics)
    )
    runner = GridRunner.for_dataset(
        dataset,
        seed=args.seed,
        engine=args.engine,
        workers=args.workers,
        cache=cache,
        metrics=metrics,
    )
    report = runner.run(grid)
    if args.stats:
        print(runner.metrics.render(), end="", file=sys.stderr)

    # Dataset provenance: every exported result is traceable to the exact
    # dataset state it was computed from (and the snapshot, when pinned).
    dataset_meta = {
        "digest": dataset.digest(),
        "source": "db" if args.db else ("feeds" if args.feeds else "synthetic"),
        "snapshot_id": dataset.snapshot.snapshot_id if dataset.snapshot else None,
        "snapshot_digest": dataset.snapshot.digest if dataset.snapshot else None,
    }
    if args.csv:
        to_csv(report.CSV_HEADERS, report.csv_rows(), Path(args.csv))
        print(f"wrote {len(report.cells)} cells to {args.csv} "
              f"(dataset digest {dataset_meta['digest'][:12]})", file=sys.stderr)
    if args.json:
        import json

        payload = report.to_json_payload()
        payload["dataset"] = dataset_meta
        print(json.dumps(payload, indent=2, sort_keys=True))
        print(f"swept {len(report.cells)} cells "
              f"({report.cached_cells} cached) in {report.elapsed_seconds:.2f}s "
              f"with {args.workers} worker(s)", file=sys.stderr)
        return 0
    print(f"sweep: {len(report.cells)} cells, {args.runs} runs each, "
          f"engine {report.engine}, {args.workers} worker(s)")
    for cell_result in report.cells:
        marker = " [cached]" if cell_result.cached else ""
        print(f"  {cell_result.result.summary()}{marker}")
    print(f"done in {report.elapsed_seconds:.2f}s "
          f"({report.cached_cells}/{len(report.cells)} cells from cache)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        ApiError,
        ServiceConfig,
        ServiceConfigError,
        serve,
        serve_cluster,
    )

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_size=args.cache_size,
            engine=args.engine,
            seed=args.seed,
            db=args.db,
            snapshot=args.snapshot,
            feeds=args.feeds,
            request_threads=args.request_threads,
            catalogue=args.catalogue,
            metrics=args.metrics,
            trace_log=args.trace_log,
            trace_buffer=args.trace_buffer,
        )
        if config.workers > 1:
            return serve_cluster(config)
        return serve(config)
    except (ServiceConfigError, ApiError) as error:
        # Startup failures (bad knobs, missing database, empty feed
        # directory) exit cleanly like every other command, instead of
        # leaking a traceback.
        print(str(error), file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C fallback
        return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.db.database import VulnerabilityDatabase
    from repro.snapshots.delta import DeltaIngestPipeline
    from repro.snapshots.store import SnapshotStore

    if not args.db:
        print("ingest requires --db PATH (the persistent snapshot store)",
              file=sys.stderr)
        return 2
    database = VulnerabilityDatabase(args.db)
    try:
        pipeline = IngestPipeline(database=database)
        store = SnapshotStore(database)
        if args.delta:
            delta = DeltaIngestPipeline(pipeline, store)
            report = delta.apply_feed(
                args.delta,
                source=args.source or str(args.delta),
                commit=not args.no_snapshot,
            )
            print(report.summary())
            if report.snapshot is not None:
                print(report.snapshot.summary())
            return 0
        if database.entry_count() > 0:
            print(f"{args.db} already holds entries; apply changes with "
                  "`repro ingest --delta FEED` instead of a full re-ingest",
                  file=sys.stderr)
            return 2
        if args.feeds:
            feed_dir = Path(args.feeds)
            paths = sorted(feed_dir.glob("*.xml"))
            if not paths:
                print(f"no .xml feeds found in {feed_dir}", file=sys.stderr)
                return 2
            ingest_report = pipeline.ingest_xml_feeds(paths)
            source = args.source or str(feed_dir)
        else:
            corpus = build_corpus(seed=args.seed)
            ingest_report = pipeline.ingest_raw(corpus.to_raw_feed_entries())
            source = args.source or f"synthetic corpus (seed {args.seed})"
        print(f"ingested {ingest_report.ingested_entries} entries "
              f"({ingest_report.valid_entries} valid, "
              f"{ingest_report.excluded_entries} excluded, "
              f"{ingest_report.skipped_no_os} out of scope)")
        if not args.no_snapshot:
            print(store.commit(source=source).summary())
        return 0
    finally:
        database.close()


def cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.db.database import VulnerabilityDatabase
    from repro.snapshots.export import write_snapshot_feeds
    from repro.snapshots.store import SnapshotStore

    if not args.db:
        print("snapshot commands require --db PATH", file=sys.stderr)
        return 2
    if not Path(args.db).exists():
        print(f"database {args.db} does not exist; run `repro ingest --db "
              f"{args.db}` first", file=sys.stderr)
        return 2
    database = VulnerabilityDatabase(args.db)
    try:
        store = SnapshotStore(database)
        if args.action == "list":
            records = store.list()
            if not records:
                print("no snapshots yet")
                return 0
            for record in records:
                print(record.summary())
            return 0
        if args.action == "diff":
            to_record = _resolve_snapshot(store, args.to)
            if args.__dict__["from"] is not None:
                from_record = _resolve_snapshot(store, args.__dict__["from"])
            elif to_record.parent_digest is not None:
                from_record = store.parent(to_record)
            else:
                print(f"snapshot #{to_record.snapshot_id} has no parent; "
                      "pass --from explicitly", file=sys.stderr)
                return 2
            diff = store.diff(from_record.snapshot_id, to_record.snapshot_id)
            print(diff.summary())
            if args.cves and not diff.is_empty:
                for cve_id in diff.added:
                    print(f"  + {cve_id}")
                for cve_id in diff.modified:
                    print(f"  ~ {cve_id}")
                for cve_id in diff.removed:
                    print(f"  - {cve_id}")
            return 0
        if args.action == "checkout":
            record = _resolve_snapshot(store, args.id)
            if not args.output:
                print("snapshot checkout requires --output DIR", file=sys.stderr)
                return 2
            paths = write_snapshot_feeds(store, record.snapshot_id, args.output)
            print(f"checked out snapshot #{record.snapshot_id} "
                  f"({record.short_digest}) as {len(paths)} feeds in {args.output}")
            return 0
        if args.action == "drift":
            from repro.reports.drift import snapshot_drift

            report = snapshot_drift(store)
            if not report.rows:
                print("no snapshots yet")
                return 0
            print(report.text)
            return 0
        print(f"unknown snapshot action {args.action!r}", file=sys.stderr)
        return 2
    finally:
        database.close()


def cmd_export(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, builder in _TABLES.items():
        report = builder(dataset)
        slug = name.lower().replace(" ", "_").replace("-", "_")
        text_path = output / f"{slug}.txt"
        text_path.write_text(report.text + "\n", encoding="utf-8")
        to_csv(report.headers, report.rows, output / f"{slug}.csv")
        written.extend([text_path, output / f"{slug}.csv"])
    for name, builder in _FIGURES.items():
        figure = builder(dataset)
        slug = name.lower().replace(" ", "_")
        path = output / f"{slug}.txt"
        path.write_text(figure.text + "\n", encoding="utf-8")
        written.append(path)
    print(f"wrote {len(written)} files to {output}")
    return 0


def cmd_feeds(args: argparse.Namespace) -> int:
    corpus = build_corpus(seed=args.seed)
    paths = corpus.write_xml_feeds(args.output)
    corpus.write_json_feed(Path(args.output) / "nvdcve-all.json")
    print(f"wrote {len(paths)} XML feeds and 1 JSON feed to {args.output}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro.devtools static-analysis suite (see docs/devtools.md)."""
    from repro.devtools.cli import execute_lint

    return execute_lint(args)


def cmd_devtools(args: argparse.Namespace) -> int:
    """The devtools umbrella: ``repro devtools check`` runs every gate."""
    from repro.devtools.cli import execute_check

    return execute_check(args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'OS Diversity for Intrusion Tolerance' (DSN 2011)",
        epilog=(
            "Full command documentation with worked examples: docs/cli.md.\n"
            "All commands accept the global --seed, --feeds and --engine options."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}",
                        help="print the package version and exit")
    parser.add_argument("--seed", type=int, default=20110627,
                        help="seed for the synthetic corpus (default: 20110627)")
    parser.add_argument("--feeds", type=str, default=None,
                        help="directory of NVD XML feeds to analyse instead of the synthetic corpus")
    parser.add_argument("--db", type=str, default=None,
                        help="path of a persistent ingested database (snapshot store); "
                             "analyses run on its head snapshot unless --snapshot is given")
    parser.add_argument("--snapshot", type=str, default=None, metavar="ID",
                        help="with --db: pin analyses to this snapshot "
                             "(a ledger id or a digest prefix) instead of the head")
    parser.add_argument("--engine", choices=ENGINES, default="bitset",
                        help="shared-vulnerability engine: the precompiled bitset "
                             "incidence index (default), the naive set "
                             "re-intersection kept for cross-checking, or the "
                             "numpy packed-word index for large catalogues "
                             "(the only engine that loads numpy); "
                             "simulate and sweep accept bitset or naive")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, epilog: str) -> argparse.ArgumentParser:
        return sub.add_parser(
            name,
            help=help_text,
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    tables_parser = add_command(
        "tables",
        "print every reproduced table",
        "example:\n"
        "  python -m repro tables                # Tables I-VI + Section IV-B\n"
        "  python -m repro --engine naive tables # same numbers, reference engine",
    )
    tables_parser.set_defaults(func=cmd_tables)

    table_parser = add_command(
        "table",
        "print one table or figure",
        "examples:\n"
        '  python -m repro table --id "Table III"   # pairwise shared counts\n'
        '  python -m repro table --id "Figure 3"    # replica-set evaluation',
    )
    table_parser.add_argument("--id", required=True, help='e.g. "Table III" or "Figure 3"')
    table_parser.set_defaults(func=cmd_table)

    experiments_parser = add_command(
        "experiments",
        "paper-vs-measured for every experiment",
        "examples:\n"
        "  python -m repro experiments                  # plain text comparison\n"
        "  python -m repro experiments --markdown > report.md",
    )
    experiments_parser.add_argument(
        "--markdown", action="store_true", help="emit a Markdown reproduction report"
    )
    experiments_parser.set_defaults(func=cmd_experiments)

    select_parser = add_command(
        "select",
        "choose diverse replica sets (Section IV-C)",
        "examples:\n"
        "  python -m repro select --faults 1 --top 5      # 4 replicas (3f+1)\n"
        "  python -m repro select --faults 2 --quorum 2f+1  # 5 replicas",
    )
    select_parser.add_argument("--faults", type=int, default=1, help="faults to tolerate (f)")
    select_parser.add_argument("--quorum", choices=("3f+1", "2f+1"), default="3f+1")
    select_parser.add_argument("--top", type=int, default=5, help="number of groups to print")
    select_parser.set_defaults(func=cmd_select)

    simulate_parser = add_command(
        "simulate",
        "homogeneous vs diverse attack simulation",
        "examples:\n"
        "  python -m repro simulate --runs 500 --rate 2.0 --horizon 5.0\n"
        "  python -m repro simulate --config Set1 --homogeneous Windows2003 \\\n"
        "      --recovery-interval 2.0 --json\n"
        "  python -m repro simulate --os Debian,OpenBSD,Solaris,NetBSD \\\n"
        "      --arrival aging --shape 1.8 --smart\n"
        "  python -m repro --engine naive simulate --runs 100   # reference engine",
    )
    simulate_parser.add_argument("--runs", type=int, default=100)
    simulate_parser.add_argument("--rate", type=float, default=1.0)
    simulate_parser.add_argument("--horizon", type=float, default=5.0)
    simulate_parser.add_argument(
        "--homogeneous", metavar="OS", default=None,
        help="add a homogeneous configuration of 4 replicas of this OS",
    )
    simulate_parser.add_argument(
        "--config", action="append", choices=sorted(FIGURE3_CONFIGURATIONS),
        help="add one of the paper's Figure 3 configurations (repeatable)",
    )
    simulate_parser.add_argument(
        "--os", action="append", metavar="OS[,OS...]",
        help="add a custom configuration from a comma-separated OS list",
    )
    simulate_parser.add_argument(
        "--quorum-model", choices=("3f+1", "2f+1"), default="3f+1",
        help="BFT quorum model sizing f (default: 3f+1)",
    )
    simulate_parser.add_argument(
        "--recovery-interval", type=float, default=None,
        help="proactive recovery (rejuvenation) period in simulated time units",
    )
    simulate_parser.add_argument(
        "--recovery-sweep", metavar="T1,T2,...", type=_interval_list, default=None,
        help="sweep the recovery interval over these values (plus no recovery); "
             "mutually exclusive with --recovery-interval",
    )
    simulate_parser.add_argument(
        "--arrival", choices=("poisson", "aging"), default="poisson",
        help="exploit inter-arrival process (aging = Weibull with --shape)",
    )
    simulate_parser.add_argument(
        "--shape", type=float, default=1.0,
        help="Weibull shape for --arrival aging (>1 maturing attacker, <1 burst)",
    )
    simulate_parser.add_argument(
        "--smart", action="store_true",
        help="open every campaign with the single most damaging exploit",
    )
    simulate_parser.add_argument(
        "--untargeted", action="store_true",
        help="draw exploits from the whole pool, not just the group's OSes",
    )
    simulate_parser.add_argument(
        "--scenario", metavar="SPEC", default=None,
        help="adversary scenario family:key=value,... "
             "(campaign | patch-race | epidemic | adaptive), e.g. "
             "campaign:adversaries=3 or patch-race:closure=empirical; "
             "empirical closure without inline lifetimes reads the --db "
             "snapshot ledger",
    )
    simulate_parser.add_argument(
        "--json", action="store_true", help="emit results as JSON instead of text"
    )
    simulate_parser.set_defaults(func=cmd_simulate)

    sweep_parser = add_command(
        "sweep",
        "parallel parameter-grid sweep with result caching",
        "examples:\n"
        "  python -m repro sweep --runs 200 --workers 4\n"
        "  python -m repro sweep --config Set1 --homogeneous Debian \\\n"
        "      --quorum-models 3f+1,2f+1 --recovery-intervals none,2.0 \\\n"
        "      --arrivals poisson,aging --workers 4          # 16-cell grid\n"
        "  python -m repro sweep --runs 20 --workers 2 --json > sweep.json\n"
        "  python -m repro sweep --csv sweep.csv --no-cache\n"
        "\n"
        "Results are bit-for-bit identical for --workers 1 and --workers N;\n"
        "repeated sweeps are served from the content-addressed cache.",
    )
    sweep_parser.add_argument("--runs", type=int, default=100,
                              help="Monte-Carlo runs per grid cell")
    sweep_parser.add_argument("--rate", type=float, default=1.0)
    sweep_parser.add_argument("--horizon", type=float, default=5.0)
    sweep_parser.add_argument(
        "--homogeneous", metavar="OS", default=None,
        help="add a homogeneous configuration of 4 replicas of this OS",
    )
    sweep_parser.add_argument(
        "--config", action="append", choices=sorted(FIGURE3_CONFIGURATIONS),
        help="add one of the paper's Figure 3 configurations (repeatable)",
    )
    sweep_parser.add_argument(
        "--os", action="append", metavar="OS[,OS...]",
        help="add a custom configuration from a comma-separated OS list",
    )
    sweep_parser.add_argument(
        "--quorum-models", type=_comma_list, default=["3f+1"],
        metavar="M1,M2", help="quorum-model axis (subset of: 3f+1,2f+1)",
    )
    sweep_parser.add_argument(
        "--recovery-intervals", type=_recovery_list, default=[None],
        metavar="T1,T2,none",
        help="recovery-interval axis; 'none' disables proactive recovery",
    )
    sweep_parser.add_argument(
        "--arrivals", type=_comma_list, default=["poisson"],
        metavar="A1,A2", help="arrival-process axis (subset of: poisson,aging)",
    )
    sweep_parser.add_argument(
        "--shape", type=float, default=1.0,
        help="Weibull shape applied to 'aging' arrivals on the axis",
    )
    sweep_parser.add_argument(
        "--adversaries", type=_comma_list, default=["standard"],
        metavar="A1,A2",
        help="adversary axis (subset of: standard,smart,untargeted)",
    )
    sweep_parser.add_argument(
        "--scenario", action="append", metavar="SPEC", default=None,
        help="scenario axis entry (repeatable): 'none' for the classic "
             "adversary, or family:key=value,... as in simulate --scenario",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="processes to fan grid cells out to (1 = run inline)",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"),
        help="directory of the content-addressed result cache "
             "(default: $REPRO_CACHE_DIR, else .repro-cache)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely",
    )
    sweep_parser.add_argument(
        "--json", action="store_true",
        help="emit the deterministic sweep payload as JSON on stdout",
    )
    sweep_parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="additionally write one CSV row per grid cell to PATH",
    )
    sweep_parser.add_argument(
        "--stats", action="store_true",
        help="print the sweep's metrics registry (cache warm/cold, per-"
             "chunk timings) as Prometheus text on stderr after the run",
    )
    sweep_parser.set_defaults(func=cmd_sweep)

    serve_parser = add_command(
        "serve",
        "long-lived diversity-query API server (asyncio, JSON endpoints)",
        "examples:\n"
        "  python -m repro serve --port 8142             # synthetic corpus\n"
        "  python -m repro --db data.db serve --workers 4\n"
        "  python -m repro --db data.db --snapshot 2 serve   # pin a snapshot\n"
        "\n"
        "Each dataset state compiles once (keyed by its content digest) and\n"
        "every query is answered from memory; responses carry scoped-digest\n"
        "ETags (If-None-Match revalidation -> 304), simulations run as\n"
        "background jobs (POST /v1/simulations -> 202 + job id), and\n"
        "SIGTERM drains gracefully.  Endpoint reference: docs/service.md.",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8142,
        help="TCP port to bind; 0 picks a free port (default: 8142)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="serving processes; N>1 runs an N-worker cluster behind one "
        "port, each worker answering every query itself and running its "
        "simulation jobs inline (default: 1)",
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU response-cache entries per worker (default: 256)",
    )
    serve_parser.add_argument(
        "--request-threads", type=int, default=8,
        help="HTTP dispatch threads per worker (default: 8)",
    )
    serve_parser.add_argument(
        "--catalogue", default=None, metavar="SPEC",
        help="serve a generated catalogue instead of the calibrated corpus "
        "(scaled:FxR, e.g. scaled:10x10 = 100 OS releases; deterministic "
        "per --seed)",
    )
    serve_parser.add_argument(
        "--metrics", action=argparse.BooleanOptionalAction, default=True,
        help="expose GET /metrics (Prometheus text, cluster-aggregated) "
        "and GET /v1/traces on the public port (default: enabled)",
    )
    serve_parser.add_argument(
        "--trace-log", action="store_true",
        help="log every finished request trace as one JSON line on stderr",
    )
    serve_parser.add_argument(
        "--trace-buffer", type=int, default=256,
        help="finished traces retained per worker for GET /v1/traces "
        "(default: 256)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    export_parser = add_command(
        "export",
        "write all tables/figures as text and CSV",
        "example:\n"
        "  python -m repro export --output out/   # one .txt + .csv per table",
    )
    export_parser.add_argument("--output", required=True)
    export_parser.set_defaults(func=cmd_export)

    ingest_parser = add_command(
        "ingest",
        "ingest feeds into a persistent snapshot store (full or delta)",
        "examples:\n"
        "  python -m repro --db data.db ingest                  # synthetic corpus\n"
        "  python -m repro --db data.db --feeds feeds/ ingest   # a feed directory\n"
        "  python -m repro --db data.db ingest --delta modified.xml\n"
        "  python -m repro --db data.db ingest --delta modified.xml --source nvd\n"
        "\n"
        "A full ingest populates an empty database and commits snapshot #1;\n"
        "--delta applies an NVD-style modified feed (changed entries plus\n"
        "** REJECT ** tombstones) incrementally and commits one new snapshot.\n"
        "Re-applying an already-applied delta changes nothing (same digest).",
    )
    ingest_parser.add_argument(
        "--delta", metavar="FEED", default=None,
        help="apply this modified feed (.xml or .json) as an incremental delta",
    )
    ingest_parser.add_argument(
        "--source", default=None,
        help="feed-provenance label recorded in the snapshot ledger",
    )
    ingest_parser.add_argument(
        "--no-snapshot", action="store_true",
        help="mutate the database without committing a snapshot",
    )
    ingest_parser.set_defaults(func=cmd_ingest)

    snapshot_parser = add_command(
        "snapshot",
        "inspect the snapshot ledger: list, diff, checkout, drift",
        "examples:\n"
        "  python -m repro --db data.db snapshot list\n"
        "  python -m repro --db data.db snapshot diff            # parent -> head\n"
        "  python -m repro --db data.db snapshot diff --from 1 --to 3 --cves\n"
        "  python -m repro --db data.db snapshot checkout --id 2 --output feeds/\n"
        "  python -m repro --db data.db snapshot drift           # Table-1 over time",
    )
    snapshot_parser.add_argument(
        "action", choices=("list", "diff", "checkout", "drift"),
        help="ledger operation to perform",
    )
    snapshot_parser.add_argument(
        "--from", default=None, metavar="ID",
        help="diff base snapshot (default: the target's parent)",
    )
    snapshot_parser.add_argument(
        "--to", default=None, metavar="ID",
        help="diff target snapshot (default: the head)",
    )
    snapshot_parser.add_argument(
        "--id", default=None, metavar="ID",
        help="snapshot to check out (default: the head)",
    )
    snapshot_parser.add_argument(
        "--output", default=None,
        help="directory for checked-out feeds (checkout only)",
    )
    snapshot_parser.add_argument(
        "--cves", action="store_true",
        help="list every changed CVE id in diffs",
    )
    snapshot_parser.set_defaults(func=cmd_snapshot)

    feeds_parser = add_command(
        "feeds",
        "write the synthetic corpus as NVD-style feeds",
        "example:\n"
        "  python -m repro feeds --output feeds/  # per-year XML + one JSON feed\n"
        "  python -m repro --feeds feeds/ tables  # ...and read them back",
    )
    feeds_parser.add_argument("--output", required=True)
    feeds_parser.set_defaults(func=cmd_feeds)

    from repro.devtools.cli import build_check_parser, build_lint_parser

    lint_parser = add_command(
        "lint",
        "run the static-analysis rules (determinism, asyncio-safety, contracts)",
        "example:\n"
        "  python -m repro lint                       # lint src/ with the baseline\n"
        "  python -m repro lint --format json         # machine-readable findings\n"
        "  python -m repro lint --select DET001,GEN301 src/repro/itsys\n"
        "  python -m repro lint --list-rules          # rule reference\n"
        "rule documentation: docs/devtools.md",
    )
    build_lint_parser(lint_parser)
    lint_parser.set_defaults(func=cmd_lint)

    devtools_parser = add_command(
        "devtools",
        "developer tooling: `check` runs lint + docs audits in one gate",
        "example:\n"
        "  python -m repro devtools check             # the full CI static gate\n"
        "  python -m repro devtools check --format json",
    )
    devtools_parser.add_argument(
        "action", choices=("check",),
        help="devtools action to run (check: lint + docs links + API drift)",
    )
    build_check_parser(devtools_parser)
    devtools_parser.set_defaults(func=cmd_devtools)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    raise SystemExit(main())
