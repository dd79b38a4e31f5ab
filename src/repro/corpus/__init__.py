"""Seeded scenario corpus: generated buggy guests at arbitrary scale.

The hand-written apps in :mod:`repro.apps` pin the paper's parables; this
package grows the *workload axis*: a deterministic, seed-driven generator
(:mod:`repro.corpus.generator`) emits MiniLang programs with planted bug
classes - data race, atomicity violation, deadlock, order violation,
input-dependent crash, lost output - each wrapped as a standard
:class:`~repro.apps.base.AppCase` that carries its ground-truth root
cause, and a matrix runner (:mod:`repro.corpus.matrix`) that evaluates
every (generated case x determinism model) cell in parallel worker
processes, one task per seed that records, ships each recording through
the JSON log serializer exactly like production logs ship to developer
workstations, and replays and scores it.

The runner is *supervised* (:mod:`repro.corpus.fleet`): one dispatch
loop drives every backend, each a transport that only moves work -
inline, pipe-connected worker processes, or socket-connected hosts.
Worker crashes and hung cells are detected, struck cells retried with
deterministic backoff, and exhausted cells reported - never raised - in
the artifact's ``fleet`` section.  Completed rows go to a run store
(:mod:`repro.store`) as they land, so rerunning an interrupted sweep on
the same store resumes it without recomputation.

The fleet also scales past one host (:mod:`repro.corpus.remote`): a
socket coordinator dispatches cells to ``repro fleet worker`` processes
over length-prefixed JSON frames (:mod:`repro.corpus.protocol`) under
lease-based at-least-once semantics - heartbeats renew leases, expired
leases requeue deterministically, duplicate deliveries are deduplicated
- and when the whole remote fleet is lost, the same loop switches to the
local transport, with every cell's retry budget and strikes intact.

More seeds = more scenarios; more jobs = more cores; more workers =
more machines.  Same seeds = the same corpus, byte for byte -
supervised, faulty, remote, degraded, or resumed.
"""

from repro.corpus.fleet import (CellOutcome, CellStatus, FleetPolicy,
                                Inline, WorkerSupervisor, dispatch)
from repro.corpus.generator import (BUG_CLASSES, GeneratedCase,
                                    generate_case, generate_corpus)
from repro.corpus.matrix import (CORPUS_RESULTS_PATH, corpus_tables,
                                 run_corpus_experiment, run_matrix)
from repro.corpus.remote import RemoteCoordinator, serve_worker

__all__ = [
    "BUG_CLASSES", "GeneratedCase", "generate_case", "generate_corpus",
    "CORPUS_RESULTS_PATH", "corpus_tables", "run_corpus_experiment",
    "run_matrix",
    "CellOutcome", "CellStatus", "FleetPolicy", "Inline",
    "WorkerSupervisor", "dispatch", "RemoteCoordinator", "serve_worker",
]
