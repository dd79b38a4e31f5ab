"""HyperLite clients: concurrent loaders and the dump client."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.distsim.node import Node
from repro.hypertable.table import RangeMap


class LoaderClient(Node):
    """Loads its share of rows on a timer cadence, routing each commit
    by its (possibly stale) cached range map."""

    def __init__(self, name: str, range_map: RangeMap,
                 rows: Dict[int, str], cadence: float = 2.0,
                 order: Optional[List[int]] = None):
        super().__init__(name)
        self.cached_map = range_map.copy()
        self.rows = dict(rows)
        # The send order is part of the workload (seed-independent), so
        # record/replay runs rebuild the identical commit stream.
        self.pending: List[int] = list(order) if order else sorted(rows)
        self.cadence = cadence
        self.acked = 0
        self.nacked_retries = 0

    def attach(self, sim) -> None:
        super().attach(sim)
        if self.pending:
            self.set_timer(self.cadence, "send_next")

    # -- load loop ------------------------------------------------------------

    def timer_send_next(self, __) -> None:
        if not self.pending:
            return
        row = self.pending.pop(0)
        server = self.cached_map.owner_of(row)
        self.send(server, "commit", {"row": row, "data": self.rows[row]})
        if self.pending:
            self.set_timer(self.cadence, "send_next")

    def handle_commit_ack(self, src: str, body) -> None:
        self.acked += 1
        if self.acked == len(self.rows):
            # The load "appears to be a success: neither clients nor
            # slaves ... produce error messages".
            self.annotate("load-complete", acked=self.acked)

    def handle_commit_nack(self, src: str, body) -> None:
        """Only the fixed server sends these: refresh routing and retry."""
        self.nacked_retries += 1
        self.pending.insert(0, body["row"])
        self.set_timer(self.cadence, "send_next")

    # -- control plane ------------------------------------------------------

    def handle_map_update(self, src: str, body) -> None:
        self.cached_map = RangeMap.decode(body["map"])


class DumpClient(Node):
    """Dumps the whole table after the load settles and reports totals.

    A configured memory limit models the §4 alternative root cause: the
    client "runs out of memory before it has had a chance to finish the
    dump, resulting in apparent data corruption".
    """

    def __init__(self, name: str, servers: List[str],
                 dump_at: float, timeout: float = 30.0,
                 memory_limit: Optional[int] = None):
        super().__init__(name)
        self.servers = list(servers)
        self.dump_at = dump_at
        self.timeout = timeout
        self.memory_limit = memory_limit
        self.collected: Dict[int, str] = {}
        self.memory_used = 0
        self.responses = 0
        self.aborted = False
        self.finished = False

    def attach(self, sim) -> None:
        super().attach(sim)
        self.set_timer(self.dump_at, "start_dump")

    def timer_start_dump(self, __) -> None:
        for server in self.servers:
            self.send(server, "dump_req", {})
        self.set_timer(self.timeout, "dump_timeout")

    def handle_dump_data(self, src: str, body) -> None:
        if self.finished or self.aborted:
            return
        from repro.distsim.trace import payload_units
        self.memory_used += payload_units(body["rows"])
        if (self.memory_limit is not None
                and self.memory_used > self.memory_limit):
            # OOM mid-dump: abort and report what fit in memory.
            self.aborted = True
            self.annotate("dump-oom", used=self.memory_used,
                          limit=self.memory_limit)
            self._finish()
            return
        self.collected.update(body["rows"])
        self.responses += 1
        if self.responses == len(self.servers):
            self._finish()

    def timer_dump_timeout(self, __) -> None:
        if not self.finished:
            # Some server never answered (e.g. it crashed).
            self._finish()

    def handle_map_update(self, src: str, body) -> None:
        """Dumps query every server regardless, so the map is ignored."""

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.output("dump_rows", len(self.collected))
        self.annotate("dump-complete", rows=len(self.collected),
                      aborted=self.aborted)
