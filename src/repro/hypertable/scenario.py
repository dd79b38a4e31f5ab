"""The issue-63 scenario: concurrent load + migration, then a dump.

:func:`build_scenario` is the :data:`~repro.distsim.replay.ScenarioBuilder`
every recorder and replayer shares: given a seed and a fault plan it
assembles master, range servers, loader clients, and the dump client,
ready to run.  :func:`hyperlite_spec` evaluates the run: if the load
completed successfully but the dump returned fewer rows, that is the
paper's failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.distsim.sim import FaultPlan, SimConfig, Simulator
from repro.distsim.trace import DistTrace
from repro.hypertable.client import DumpClient, LoaderClient
from repro.hypertable.master import Master
from repro.hypertable.rangeserver import RangeServer
from repro.hypertable.table import Range, RangeMap, make_rows
from repro.vm.failures import FailureKind, FailureReport

FAILURE_LOCATION = "dump-complete"

CONTROL_CHANNELS = ("map_update", "unload_range", "load_ack",
                    "dump_req", "commit_nack")
DATA_CHANNELS = ("commit", "commit_ack", "range_data", "dump_data")


@dataclass
class HyperScenario:
    """Workload parameters for one issue-63 experiment."""

    num_rows: int = 48
    num_servers: int = 3
    num_clients: int = 3
    payload_words: int = 16
    client_cadence: float = 3.5
    # Migration plan: (time, range index within the initial split,
    # destination server index).  Timed to land mid-load.
    migrations: List[Tuple[float, int, int]] = field(
        default_factory=lambda: [(11.0, 0, 1), (27.0, 1, 2)])
    dump_at: float = 95.0
    dump_timeout: float = 25.0
    fixed_server: bool = False
    sim_config: SimConfig = field(
        default_factory=lambda: SimConfig(base_latency=0.6,
                                          jitter_mean=0.5))

    def server_names(self) -> List[str]:
        return [f"rs{i}" for i in range(self.num_servers)]

    def client_names(self) -> List[str]:
        return [f"client{i}" for i in range(self.num_clients)]


def build_scenario(seed: int,
                   faults: Optional[FaultPlan] = None,
                   scenario: Optional[HyperScenario] = None) -> Simulator:
    """Assemble one ready-to-run issue-63 simulation."""
    scenario = scenario or HyperScenario()
    faults = faults or FaultPlan.none()
    sim = Simulator(seed=seed, config=scenario.sim_config, faults=faults)

    servers = scenario.server_names()
    clients = scenario.client_names()
    initial_map = RangeMap.even_split(scenario.num_rows, servers)
    rows = make_rows(scenario.num_rows, scenario.payload_words)

    # Master with its migration plan resolved to concrete ranges.
    initial_ranges = [rng for rng, __ in initial_map.entries()]
    migrations = [(when, initial_ranges[range_index], servers[dst_index])
                  for when, range_index, dst_index in scenario.migrations]
    sim.add_node(Master("master", initial_map.copy(), clients + ["dumper"],
                        migrations))

    for name in servers:
        owned = set(initial_map.ranges_of(name))
        sim.add_node(RangeServer(name, owned, fixed=scenario.fixed_server))

    # Rows are interleaved across clients so every client touches every
    # range, and each client loads its share in a (workload-fixed)
    # shuffled order - commits to a migrating range are spread across the
    # whole load instead of bunching up, which keeps the race a
    # sometimes-firing heisenbug rather than a certainty.
    from repro.util.rng import DeterministicRng
    for index, name in enumerate(clients):
        share = {row: rows[row] for row in rows
                 if row % scenario.num_clients == index}
        order = DeterministicRng(17, f"rows-{name}").shuffle(sorted(share))
        sim.add_node(LoaderClient(name, initial_map, share,
                                  cadence=scenario.client_cadence,
                                  order=order))

    sim.add_node(DumpClient(
        "dumper", servers, dump_at=scenario.dump_at,
        timeout=scenario.dump_timeout,
        memory_limit=faults.memory_limits.get("dumper")))
    return sim


def hyperlite_spec(trace: DistTrace) -> Optional[FailureReport]:
    """The I/O specification of the load+dump workload.

    The failure of issue 63: the load appears successful (every commit
    acked, no error messages) yet the dump returns fewer rows.  Runs
    where the load itself did not complete are a different failure and
    are reported under a different location.
    """
    loaded = sum(details["acked"] for details in
                 trace.annotations_tagged("load-complete"))
    load_events = len(trace.annotations_tagged("load-complete"))
    dump_outputs = trace.outputs.get("dump_rows", [])
    if not dump_outputs:
        return FailureReport(
            kind=FailureKind.SPEC_VIOLATION, location="dump-missing",
            detail="the table dump never completed")
    dumped = dump_outputs[-1]
    if load_events == 0 or loaded == 0:
        return FailureReport(
            kind=FailureKind.SPEC_VIOLATION, location="load-complete",
            detail="the load did not complete successfully")
    if dumped < loaded:
        return FailureReport(
            kind=FailureKind.SPEC_VIOLATION, location=FAILURE_LOCATION,
            detail="table dump returned fewer rows than were loaded")
    return None


def find_failing_seed() -> Optional[int]:
    """First seed below 100 whose (fault-free) run of the default
    workload loses rows to the race."""
    for seed in range(100):
        trace = build_scenario(seed, FaultPlan.none()).run()
        trace.failure = hyperlite_spec(trace)
        if trace.failure is None:
            continue
        if trace.failure.location != FAILURE_LOCATION:
            continue
        if not trace.annotations_tagged("stale-commit"):
            continue
        return seed
    return None
