"""Determinism models as first-class, registerable objects.

This package is the system's model plane: every determinism model the
paper compares is one :class:`~repro.models.base.DeterminismModel` value
in a global registry, and every experiment on the VM - Figure 1, the
corpus matrix, the CLI - constructs recorders and replayers only
through it.  A model is a recorder factory and a replayer factory, no
more: Figure 2's Hypertable study runs on the distributed simulator,
and :mod:`repro.harness.fig2` calls its value, RCSE and failure
recorders and replayers in :mod:`repro.distsim` directly.

Registering a new model
-----------------------
A model is one module that builds a ``DeterminismModel`` and calls
:func:`register_model` at import time::

    # src/repro/models/hybrid.py
    from repro.models.base import (DeterminismModel, ModelConfig,
                                   register_model)

    def _recorder(config: ModelConfig):
        return MyRecorder(...)         # log.model must equal the name

    def _replayer(config: ModelConfig, log):
        return MyReplayer(...)

    HYBRID = register_model(DeterminismModel(
        name="hybrid", display_order=35,
        description="...",
        recorder_factory=_recorder, replayer_factory=_replayer,
        core=False))                    # True: join the default sweeps

then add the module to the import list at the bottom of this file (or
import it from anywhere before use - registration is import-driven).
Nothing else changes: ``repro models`` lists it, ``repro record
--model hybrid`` records with it, :func:`replay_log` dispatches to it,
and with ``core=True`` it joins ``MODEL_ORDER``, Figure 1, and the
corpus matrix automatically.  ``display_order`` is its place on the
chronological relaxation axis (built-ins sit at 0/10/20/30/40, the
``output-only`` variant at 25).

The v2 self-describing log format
---------------------------------
``record/serialize.py`` format version 2 makes a shipped log replayable
by a worker that never saw the recorder:

* ``metadata["determinism_model"]`` - the registered model name
  (``log.model`` carries the same name; ``replay_log`` dispatches on it);
* ``metadata["scheduler"]`` - production scheduler identity (class,
  seed, switch probability), stamped by ``record_run``;
* ``metadata["case"]`` - a case reference (``{"kind": "corpus", "seed":
  N}`` or ``{"kind": "app", "name": ...}``) that deterministically
  reconstructs the workload objects a config cannot serialize (input
  space, I/O spec, diagnosis rules);
* ``metadata["replay_config"]`` - the JSON-able
  :class:`~repro.models.base.ModelConfig` knobs the recording side
  configured (base inputs, control plane, network/scheduler knobs,
  search budgets);
* metadata values are canonically encoded: tuples survive round trips
  anywhere in the metadata tree (typed ``$tuple`` tags), not just in
  special-cased keys.

v1 compatibility guarantee
--------------------------
Logs written by format version 1 still load: ``log_from_dict`` accepts
version 1 (legacy metadata decoding included) and replays it with the
same replayer the model registry names - pinned by test to replay to
the identical trace digest.  Only *future* versions are rejected, with
the found version (and the file path, for ``load_log``) in the error.
"""

from repro.models.base import (DeterminismModel, ModelConfig, get_model,
                               model_order, register_model,
                               registered_models, replay_log,
                               unregister_model)

# Built-in models register themselves on import, in chronology order.
from repro.models import full as _full            # noqa: F401
from repro.models import value as _value          # noqa: F401
from repro.models import output as _output        # noqa: F401
from repro.models import failure as _failure      # noqa: F401
from repro.models import rcse as _rcse            # noqa: F401

from repro.models.session import (REDIAGNOSE, DebugSession, case_ref,
                                  count_root_causes, resolve_case)

__all__ = [
    "DeterminismModel", "ModelConfig", "register_model",
    "unregister_model", "get_model", "registered_models", "model_order",
    "replay_log",
    "DebugSession", "REDIAGNOSE", "case_ref", "resolve_case",
    "count_root_causes",
]
