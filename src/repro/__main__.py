"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``experiments``            list the registered paper experiments
``run <experiment-id>``    run one experiment and print its table(s)
``apps``                   list the hand-written bug corpus
``models``                 list the registered determinism models
``demo <app> [--model M]`` record + replay one corpus bug under a model
``record --model M --case C -o log.json``
                           record one failing production run and write
                           the self-describing log file (case specs:
                           an app name, ``app:<name>``, or
                           ``corpus:<seed>``)
``replay log.json``        replay a shipped log file end to end; the
                           replayer is dispatched from the log alone
                           (the production→workstation hop on real
                           files); exits 1 when the replay diverges
                           from the recording, printing the first
                           divergence point
``diff a.json b.json``     first-divergence comparison of two recorded
                           logs; ``repro diff log.json replay`` replays
                           the log and diffs the replay against it;
                           exits 1 on divergence
``store ls|show|gc``       inspect or garbage-collect a
                           content-addressed run store (``--dir``),
                           as written by ``corpus run --store DIR``
``corpus list|show|run``   the generated scenario corpus: list cases for
                           a seed range, show one generated program, or
                           run the full (case x model) matrix on a
                           supervised worker fleet and write
                           CORPUS_results.json.  ``run`` is
                           fault-tolerant: ``--cell-timeout`` bounds a
                           cell's wall clock, ``--retries`` bounds its
                           retry budget (exponential backoff capped at
                           ``--max-backoff`` seconds), ``--store DIR``
                           keeps completed rows so rerunning an
                           interrupted sweep on the same store resumes
                           it without recomputing them, and
                           damaged/tampered payloads are quarantined
                           into the artifact's ``fleet`` section
                           (``--no-verify`` downgrades attestation
                           refusals to warnings).  ``--backend remote
                           --listen HOST:PORT`` dispatches cells to
                           ``repro fleet worker`` hosts over TCP under
                           lease/heartbeat supervision, degrading to
                           the local runner when no worker is connected
                           for ``--worker-wait`` seconds
``fleet worker``           serve matrix cells to a remote coordinator:
                           ``repro fleet worker --connect HOST:PORT``
                           connects, heartbeats its leases, and
                           reconnects after dropped links
"""

from __future__ import annotations

import argparse
import sys


def _cmd_experiments(args) -> int:
    from repro.harness import EXPERIMENTS
    for name, func in sorted(EXPERIMENTS.items()):
        doc = (func.__doc__ or "").strip().splitlines()
        print(f"{name:18s} {doc[0] if doc else ''}")
    return 0


def _cmd_run(args) -> int:
    from repro.harness import run_experiment
    result = run_experiment(args.experiment)
    tables = result if isinstance(result, tuple) else (result,)
    for table in tables:
        print(table.render())
        print()
    return 0


def _cmd_apps(args) -> int:
    from repro.apps import ALL_APPS
    for name, factory in sorted(ALL_APPS.items()):
        print(f"{name:15s} {factory().description}")
    return 0


def _cmd_demo(args) -> int:
    from repro.apps import ALL_APPS
    from repro.harness.experiments import evaluate_app_model
    if args.app not in ALL_APPS:
        print(f"unknown app {args.app!r}; see `python -m repro apps`",
              file=sys.stderr)
        return 1
    from repro.errors import UnknownModelError
    case = ALL_APPS[args.app]()
    try:
        metrics = evaluate_app_model(case, args.model)
    except UnknownModelError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"app:                {case.name} - {case.description}")
    print(f"model:              {metrics.model}")
    print(f"recording overhead: {metrics.overhead:.3f}x")
    print(f"failure reproduced: {metrics.failure_reproduced}")
    print(f"original cause:     {metrics.original_cause}")
    print(f"replayed cause:     {metrics.replay_cause}")
    print(f"DF={metrics.fidelity:.3f}  DE={metrics.efficiency:.4f}  "
          f"DU={metrics.utility:.4f}  (n_causes={metrics.n_causes})")
    return 0


def _cmd_models(args) -> int:
    from repro.models import registered_models
    from repro.util.tables import Table
    table = Table(["model", "chronology", "core", "description"],
                  title="Registered determinism models")
    for model in registered_models():
        table.add_row(model=model.name, chronology=model.display_order,
                      core=model.core, description=model.description)
    print(table.render())
    return 0


def _cmd_record(args) -> int:
    from repro.errors import ReproError
    from repro.models import DebugSession, resolve_case
    from repro.record import save_log
    try:
        case = resolve_case(args.case)
        seed = args.seed
        if seed is None:
            # Generated corpus cases pin their known-failing seed.
            seed = getattr(case, "failing_seed", None)
        session = DebugSession(case, args.model, seed=seed)
        log = session.record()
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    save_log(log, args.output)
    print(f"case:     {case.name} - {case.description}")
    print(f"recorded: {log.summary()}")
    print(f"wrote {args.output}")
    return 0


def _cmd_replay(args) -> int:
    from repro.analysis.rootcause import Diagnoser
    from repro.errors import ReproError
    from repro.models import DebugSession, resolve_case
    from repro.record import load_log
    try:
        log = load_log(args.log, verify=not args.no_verify)
        case = resolve_case(args.case) if args.case else None
        session = DebugSession.receive(log, case=case,
                                       verify=not args.no_verify)
        result = session.replay()
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    case = session.case
    reproduced = result.reproduced_failure(log.failure)
    cause = Diagnoser(extra_rules=case.diagnoser_rules).diagnose(
        result.trace, result.failure)
    report = session.diff()
    print(f"log:                {args.log} ({log.summary()})")
    print(f"case:               {case.name}")
    print(f"model:              {log.model}")
    print(f"recorded failure:   {log.failure}")
    print(f"replayed failure:   {result.failure}")
    print(f"failure reproduced: {reproduced}")
    print(f"replay cause:       {cause}")
    print(f"attempts={result.attempts}  divergences={result.divergences}  "
          f"debug_cycles={result.total_debug_cycles}")
    if report.diverged:
        # The structured verdict, not a bare boolean: where the replay
        # first left the recording, and the bucket it dedupes into.
        print(f"replay DIVERGED:    {report.point.summary()}")
        for field_diff in report.point.diffs:
            print(f"  {field_diff}")
        print(f"fingerprint:        {report.fingerprint()}")
        return 1
    print(f"replay matched:     first divergence: none "
          f"(sections: {', '.join(report.sections)})")
    return 0


def _cmd_diff(args) -> int:
    """First-divergence comparison: two logs, or a log vs its replay."""
    from repro.errors import ReproError
    from repro.models import DebugSession, resolve_case
    from repro.record import load_log
    from repro.replay.diff import diff_logs
    try:
        log = load_log(args.log, verify=not args.no_verify)
        if args.other == "replay":
            case = resolve_case(args.case) if args.case else None
            session = DebugSession.receive(log, case=case,
                                           verify=not args.no_verify)
            report = session.diff()
            print(f"log:    {args.log} ({log.summary()})")
            print(f"against: its own replay ({log.model} model contract)")
        else:
            other = load_log(args.other, verify=not args.no_verify)
            report = diff_logs(log, other)
            print(f"log:     {args.log} ({log.summary()})")
            print(f"against: {args.other} ({other.summary()})")
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(report.render())
    return 1 if report.diverged else 0


def _cmd_store(args) -> int:
    """Inspect or garbage-collect a content-addressed run store."""
    import json as json_mod

    from repro.errors import ReproError
    from repro.store import RunStore
    store = RunStore(args.dir)
    try:
        if args.store_command == "ls":
            entries = store.entries()
            for entry in entries:
                kind = entry.get("kind", "?")
                address = (entry.get("address") or "")[:12]
                detail = ""
                if kind == "row":
                    detail = (f"seed={entry.get('seed')} "
                              f"model={entry.get('model')} "
                              f"code={str(entry.get('code_hash'))[:12]}")
                elif kind == "case":
                    detail = (f"seed={entry.get('seed')} "
                              f"code={str(entry.get('code_hash'))[:12]}")
                elif kind in ("bucket", "exemplar"):
                    detail = (f"bucket={str(entry.get('bucket'))[:12]} "
                              f"cell={entry.get('cell')}")
                print(f"{kind:9s} {address:12s} {detail}")
            stats = store.stats()
            print(f"{stats['entries']} entries, {stats['objects']} objects "
                  f"({stats['object_bytes']} bytes), "
                  f"{stats['buckets']} dedupe buckets")
            return 0
        if args.store_command == "show":
            print(json_mod.dumps(store.get_object(args.address),
                                 indent=2, sort_keys=True))
            return 0
        stats = store.gc()
        print(f"gc: kept {stats['kept']} objects, removed "
              f"{stats['removed']} unreferenced"
              + (f", {stats['orphaned']} index entries orphaned"
                 if stats["orphaned"] else ""))
        return 0
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1


def _cmd_corpus(args) -> int:
    from repro.corpus import generate_case, generate_corpus
    from repro.corpus.matrix import (corpus_case_table, corpus_tables,
                                     run_matrix)
    if args.corpus_command == "list":
        print(corpus_case_table(generate_corpus(range(args.seeds))).render())
        return 0
    if args.corpus_command == "show":
        case = generate_case(args.seed)
        print(f"// {case.name}: {case.description}")
        print(f"// ground truth: {case.known_cause}  "
              f"(failing seed {case.failing_seed})")
        print(case.source)
        return 0
    from repro.corpus.fleet import FleetPolicy
    from repro.corpus.matrix import fleet_table
    from repro.errors import ReproError
    models = tuple(args.models.split(",")) if args.models else None
    coordinator = None
    try:
        if args.backend == "remote":
            # Build the coordinator here so the bound address prints
            # before the (possibly long) wait for workers.
            from repro.corpus.protocol import parse_address
            from repro.corpus.remote import RemoteCoordinator
            coordinator = RemoteCoordinator(
                parse_address(args.listen), worker_wait=args.worker_wait)
            host, port = coordinator.address
            print(f"coordinator listening on {host}:{port} "
                  f"(waiting up to {args.worker_wait:.0f}s for workers; "
                  f"start them with `repro fleet worker --connect "
                  f"{host}:{port}`)")
        policy = FleetPolicy(cell_timeout=args.cell_timeout,
                             retries=args.retries,
                             backoff_cap=args.max_backoff)
        results = run_matrix(range(args.seeds),
                             **({"models": models} if models else {}),
                             jobs=args.jobs, path=args.output,
                             policy=policy, verify=not args.no_verify,
                             coordinator=coordinator, store=args.store)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        if coordinator is not None:
            coordinator.close()
    cells, summary = corpus_tables(results)
    print(cells.render())
    print()
    print(summary.render())
    fleet = results["fleet"]
    if fleet["ok"] < fleet["cells"]:
        print()
        print(fleet_table(results).render())
    timing = results["timing"]
    print(f"\n{fleet['ok']}/{fleet['cells']} cells healthy "
          f"(task time: record {timing['record_seconds']:.2f}s, "
          f"replay {timing['replay_seconds']:.2f}s; jobs={args.jobs}"
          + (f", {timing['store_hits']} store hits"
             if timing.get("store_hits") else "") + ")")
    remote = fleet.get("remote")
    if remote:
        print(f"remote fleet: {remote['workers_seen']} workers, "
              f"{remote['worker_disconnects']} disconnects, "
              f"{remote['expired_leases']} expired leases, "
              f"{remote['duplicate_results']} duplicates dropped"
              + (f"; DEGRADED to local runner for "
                 f"{remote['degraded_cells']} cells"
                 if remote["degraded"] else ""))
    print(f"wrote {args.output}")
    return 0


def _cmd_fleet(args) -> int:
    from repro.corpus.protocol import parse_address
    from repro.corpus.remote import serve_worker
    from repro.errors import ReproError
    try:
        host, port = parse_address(args.connect)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"worker serving matrix cells from {host}:{port} "
          f"(^C to stop)")
    clean = serve_worker(host, port, worker_id=args.id,
                         reconnect_attempts=args.reconnect,
                         reconnect_delay=args.reconnect_delay)
    if not clean:
        print(f"gave up: coordinator at {host}:{port} unreachable after "
              f"{args.reconnect} attempts", file=sys.stderr)
        return 1
    print("coordinator stopped the fleet; exiting")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Debug-determinism reproduction: experiments and demos")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("experiments",
                        help="list paper experiments").set_defaults(
        func=_cmd_experiments)
    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment")
    run_parser.set_defaults(func=_cmd_run)
    commands.add_parser("apps", help="list the bug corpus").set_defaults(
        func=_cmd_apps)
    commands.add_parser(
        "models",
        help="list the registered determinism models").set_defaults(
        func=_cmd_models)
    # Model names are validated at use time by the registry (keeping
    # parser construction free of the full-stack import); unknown names
    # fail with the registered list in the message.
    demo_parser = commands.add_parser(
        "demo", help="record+replay one bug under a determinism model")
    demo_parser.add_argument("app")
    demo_parser.add_argument("--model", default="rcse",
                             help="a registered determinism model "
                                  "(see `repro models`)")
    demo_parser.set_defaults(func=_cmd_demo)

    record_parser = commands.add_parser(
        "record", help="record one failing production run to a "
                       "self-describing log file")
    record_parser.add_argument("--model", default="full",
                               help="a registered determinism model "
                                    "(see `repro models`)")
    record_parser.add_argument("--case", required=True,
                               help="app name, app:<name>, or "
                                    "corpus:<seed>")
    record_parser.add_argument("--seed", type=int, default=None,
                               help="production scheduler seed "
                                    "(default: first failing seed)")
    record_parser.add_argument("-o", "--output", default="run.rrlog.json",
                               help="where to write the log file")
    record_parser.set_defaults(func=_cmd_record)

    replay_parser = commands.add_parser(
        "replay", help="replay a shipped log file (replayer dispatched "
                       "from the log alone)")
    replay_parser.add_argument("log", help="path to a recorded log file")
    replay_parser.add_argument("--case", default=None,
                               help="override the log's embedded case "
                                    "reference")
    replay_parser.add_argument("--no-verify", action="store_true",
                               help="downgrade log attestation failures "
                                    "(tampered body, mismatched guest) "
                                    "from refusal to warning")
    replay_parser.set_defaults(func=_cmd_replay)

    diff_parser = commands.add_parser(
        "diff", help="first-divergence comparison: two recorded logs, "
                     "or a log against its own replay (`repro diff "
                     "log.json replay`); exits 1 on divergence")
    diff_parser.add_argument("log", help="path to a recorded log file")
    diff_parser.add_argument("other",
                             help="a second log file, or the literal "
                                  "word `replay` to replay the first "
                                  "log and diff against it")
    diff_parser.add_argument("--case", default=None,
                             help="override the log's embedded case "
                                  "reference (replay mode)")
    diff_parser.add_argument("--no-verify", action="store_true",
                             help="downgrade log attestation failures "
                                  "from refusal to warning")
    diff_parser.set_defaults(func=_cmd_diff)

    store_parser = commands.add_parser(
        "store", help="inspect or garbage-collect a content-addressed "
                      "run store (written by `corpus run --store`)")
    store_commands = store_parser.add_subparsers(dest="store_command",
                                                 required=True)
    store_ls = store_commands.add_parser(
        "ls", help="list the store index and summary stats")
    store_show = store_commands.add_parser(
        "show", help="pretty-print one stored object by content address")
    store_show.add_argument("address",
                            help="the object's full sha256 address")
    store_gc = store_commands.add_parser(
        "gc", help="delete objects no index entry references")
    for sub in (store_ls, store_show, store_gc):
        sub.add_argument("--dir", required=True,
                         help="the store directory")
    store_parser.set_defaults(func=_cmd_store)

    corpus_parser = commands.add_parser(
        "corpus", help="generated scenario corpus: list, show, or run the "
                       "(case x model) experiment matrix")
    corpus_commands = corpus_parser.add_subparsers(dest="corpus_command",
                                                   required=True)
    corpus_list = corpus_commands.add_parser(
        "list", help="list generated cases for a seed range")
    corpus_list.add_argument("--seeds", type=int, default=12,
                             help="generate cases for seeds 0..N-1")
    corpus_show = corpus_commands.add_parser(
        "show", help="print one generated program and its ground truth")
    corpus_show.add_argument("--seed", type=int, default=0)
    corpus_run = corpus_commands.add_parser(
        "run", help="evaluate the (case x model) matrix in parallel "
                    "workers and write the results artifact")
    corpus_run.add_argument("--seeds", type=int, default=20,
                            help="evaluate cases for seeds 0..N-1")
    corpus_run.add_argument("--jobs", type=int, default=1,
                            help="parallel worker processes")
    corpus_run.add_argument("--models", default=None,
                            help="comma-separated model subset "
                                 "(default: all five)")
    corpus_run.add_argument("--output", default="CORPUS_results.json",
                            help="where to write the results artifact")
    corpus_run.add_argument("--cell-timeout", type=float, default=None,
                            help="wall-clock seconds a cell may run "
                                 "before its worker is killed and the "
                                 "cell retried (default: unlimited; "
                                 "engages supervised workers even at "
                                 "--jobs 1)")
    corpus_run.add_argument("--retries", type=int, default=2,
                            help="retry budget per cell before it is "
                                 "reported failed/timeout/quarantined "
                                 "(deterministic exponential backoff)")
    corpus_run.add_argument("--max-backoff", type=float, default=30.0,
                            help="hard ceiling in seconds on the "
                                 "per-retry exponential backoff, "
                                 "jitter included (default: 30)")
    corpus_run.add_argument("--backend", choices=["local", "remote"],
                            default="local",
                            help="where cells run: local worker "
                                 "processes, or remote `repro fleet "
                                 "worker` hosts over TCP")
    corpus_run.add_argument("--listen", default=":0", metavar="HOST:PORT",
                            help="with --backend remote: accept workers "
                                 "on this address (`:0` binds an "
                                 "ephemeral port and prints it)")
    corpus_run.add_argument("--worker-wait", type=float, default=10.0,
                            help="with --backend remote: seconds with "
                                 "zero connected workers before the "
                                 "sweep degrades to the local runner")
    corpus_run.add_argument("--no-verify", action="store_true",
                            help="downgrade shipped-log attestation "
                                 "failures from quarantine to warning")
    corpus_run.add_argument("--store", default=None, metavar="DIR",
                            help="content-addressed run store: reuse "
                                 "rows already stored under the current "
                                 "code hash (rerun an interrupted sweep "
                                 "on the same store to resume it) and "
                                 "ship one exemplar per quarantine "
                                 "dedupe bucket")
    corpus_parser.set_defaults(func=_cmd_corpus)

    fleet_parser = commands.add_parser(
        "fleet", help="remote experiment fleet: serve cells to a "
                      "coordinator over TCP")
    fleet_commands = fleet_parser.add_subparsers(dest="fleet_command",
                                                 required=True)
    fleet_worker = fleet_commands.add_parser(
        "worker", help="connect to a coordinator and serve leased "
                       "matrix cells")
    fleet_worker.add_argument("--connect", required=True,
                              metavar="HOST:PORT",
                              help="the coordinator's listen address "
                                   "(printed by `repro corpus run "
                                   "--backend remote`)")
    fleet_worker.add_argument("--id", default=None,
                              help="worker id reported to the "
                                   "coordinator (default: host-pid)")
    fleet_worker.add_argument("--reconnect", type=int, default=10,
                              help="consecutive connection refusals "
                                   "before giving up")
    fleet_worker.add_argument("--reconnect-delay", type=float,
                              default=0.5,
                              help="seconds between reconnection "
                                   "attempts")
    fleet_parser.set_defaults(func=_cmd_fleet)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
