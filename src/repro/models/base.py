"""The :class:`DeterminismModel` object, its registry, and ``replay_log``.

A determinism model used to be a string case inside the harness's
``make_recorder``/``make_replayer`` factories; here it is a first-class,
registerable value: a name, a place on the paper's relaxation chronology,
a recorder factory and a replayer factory.  (The Figure-2 case study
runs on the distributed substrate and calls :mod:`repro.distsim`
directly.)

Registration is global and import-driven: a model module calls
:func:`register_model` at import time, and :mod:`repro.models` imports
every built-in module, so ``get_model("full")`` works after
``import repro.models`` with zero harness edits.  A sixth model is one
new file that calls :func:`register_model` (see the package docstring).

The factories take a :class:`ModelConfig` - the per-case configuration
plane (base inputs, input space, I/O spec, control-plane set, network
and scheduler knobs, search budgets) that the string-keyed factories
used to special-case per model.  The JSON-able subset of a config ships
inside v2 recording logs (``metadata["replay_config"]``), which is what
lets :func:`replay_log` reconstruct the intended replayer from the log
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import UnknownModelError
from repro.record.base import Recorder
from repro.record.log import RecordingLog
from repro.replay.base import Replayer, ReplayResult
from repro.replay.search import InputSpace
from repro.vm.failures import IOSpec
from repro.vm.program import Program


@dataclass
class ModelConfig:
    """Per-case configuration a determinism model draws its knobs from.

    This is the *case* plane, not the *recording* plane: everything here
    is what a debugging engineer legitimately knows about the workload
    (its input format, its I/O specification, its network conditions)
    plus the search budgets the debugging session is willing to spend.
    Recorders and replayers must still take everything execution-specific
    from the :class:`~repro.record.log.RecordingLog` they are given.

    The ``synthesis_*`` knobs describe the inference engine's *guessed*
    environment, which deliberately need not match production - that gap
    is how failure determinism ends up replaying a different root cause.
    """

    # -- workload identity (from the case) --------------------------------
    inputs: Dict[str, List[Any]] = field(default_factory=dict)
    input_space: Optional[InputSpace] = None
    io_spec: Optional[IOSpec] = None
    control_plane: Set[str] = field(default_factory=set)
    net_drop_rate: float = 0.0
    switch_prob: float = 0.25
    diagnoser_rules: Dict[str, Any] = field(default_factory=dict)
    # -- search/inference budgets ----------------------------------------
    schedule_seeds: int = 48          # seed sweep breadth (output/failure)
    search_attempts: int = 200        # output-only inference budget
    synthesis_attempts: int = 600     # ExecutionSynthesizer budget
    synthesis_switch_prob: float = 0.25
    synthesis_net_drop_rate: Optional[float] = None  # None -> net_drop_rate
    synthesis_minimize: bool = False
    minimize_extra_attempts: int = 24
    dialdown_quiet_steps: int = 400   # RCSE trigger dial-down window

    # Fields embedded in v2 logs (JSON-able; everything except the
    # callable-bearing workload objects, which a shipped log references
    # through its case identity instead).  ``inputs`` ships only when
    # the model declares it legitimately re-supplies the workload's
    # inputs at replay (``ships_base_inputs``) - a record-nothing model
    # must not smuggle the answers it claims to infer into its
    # artifact's config block.
    _SHIPPED = ("control_plane", "net_drop_rate", "switch_prob",
                "schedule_seeds", "search_attempts", "synthesis_attempts",
                "synthesis_switch_prob", "synthesis_net_drop_rate",
                "synthesis_minimize", "minimize_extra_attempts",
                "dialdown_quiet_steps")

    @classmethod
    def from_case(cls, case, **overrides: Any) -> "ModelConfig":
        """Build the config plane for one app/corpus case.

        ``overrides`` are config field names; unknown names raise
        ``TypeError`` so a typo'd knob cannot silently do nothing.
        """
        config = cls(
            inputs={k: list(v) for k, v in case.inputs.items()},
            input_space=case.input_space,
            io_spec=case.io_spec,
            control_plane=set(case.control_plane),
            net_drop_rate=case.net_drop_rate,
            switch_prob=case.switch_prob,
            diagnoser_rules=dict(case.diagnoser_rules),
        )
        return config.override(**overrides) if overrides else config

    def override(self, **overrides: Any) -> "ModelConfig":
        """A copy with the named fields replaced (names are validated)."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise TypeError(f"unknown ModelConfig fields: {unknown}")
        return replace(self, **overrides)

    def ship_dict(self, include_inputs: bool = False) -> Dict[str, Any]:
        """The JSON-able knobs embedded in a v2 self-describing log."""
        shipped: Dict[str, Any] = {}
        for name in self._SHIPPED:
            value = getattr(self, name)
            if name == "control_plane":
                value = sorted(value)
            shipped[name] = value
        if include_inputs:
            shipped["inputs"] = {k: list(v)
                                 for k, v in self.inputs.items()}
        return shipped

    @classmethod
    def from_shipped(cls, log: RecordingLog,
                     case=None) -> "ModelConfig":
        """Reconstruct a config from a shipped log (plus its case).

        The case - regenerated from the log's embedded case reference by
        a worker that never saw the recorder - supplies the
        callable-bearing objects (input space, I/O spec, diagnosis
        rules); the log's ``replay_config`` supplies every serializable
        knob as the recording side configured it.  Without a case, the
        log's knobs alone still configure the log-sufficient replayers
        (full, value, output).
        """
        config = cls.from_case(case) if case is not None else cls()
        shipped = log.metadata.get("replay_config") or {}
        overrides = {name: shipped[name]
                     for name in cls._SHIPPED + ("inputs",)
                     if name in shipped}
        if "control_plane" in overrides:
            overrides["control_plane"] = set(overrides["control_plane"])
        if "inputs" in overrides:
            overrides["inputs"] = {k: list(v) for k, v in
                                   overrides["inputs"].items()}
        return config.override(**overrides) if overrides else config

    @property
    def synthesis_drop_rate(self) -> float:
        """The synthesizer's network guess (defaults to production's)."""
        if self.synthesis_net_drop_rate is None:
            return self.net_drop_rate
        return self.synthesis_net_drop_rate


@dataclass(frozen=True)
class DeterminismModel:
    """One determinism model, as a registerable first-class object.

    ``display_order`` places the model on the paper's chronological
    relaxation axis (Figure 1's x-axis); models are listed, swept, and
    summarized in that order.  ``core`` marks the five models the paper
    compares - non-core models (variants like ``output-only``) register
    and replay like any other but stay out of default sweeps.

    ``ships_base_inputs`` declares that the model's replayer
    legitimately re-supplies the workload's base inputs (RCSE's
    data-plane re-simulation does); only then does the recording side
    embed ``config.inputs`` in the shipped log - a record-nothing model
    must not ship the answers its replayer claims to infer.

    ``replay_matches`` is the model's *observable contract*: the
    recorded sections its replay promises to reproduce exactly, which
    is what the first-divergence walker
    (:func:`repro.replay.diff.diff_log_replay`) holds a replay to.  The
    default holds a replay to every observable its log recorded;
    models that deliberately relax an observable (RCSE re-simulates the
    data plane, so recorded outputs are advisory) narrow it.
    """

    name: str
    display_order: int
    description: str
    recorder_factory: Callable[[ModelConfig], Recorder]
    replayer_factory: Callable[[ModelConfig, RecordingLog], Replayer]
    core: bool = True
    ships_base_inputs: bool = False
    replay_matches: Tuple[str, ...] = ("schedule", "outputs",
                                       "branch-path", "failure")

    def make_recorder(self, config: ModelConfig) -> Recorder:
        """Instantiate this model's recorder for one case config."""
        return self.recorder_factory(config)

    def make_replayer(self, config: ModelConfig,
                      log: RecordingLog) -> Replayer:
        """Instantiate this model's replayer for one config and log."""
        return self.replayer_factory(config, log)


# -- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, DeterminismModel] = {}


def register_model(model: DeterminismModel) -> DeterminismModel:
    """Register a determinism model under its name (once).

    Returns the model so a module can write
    ``MODEL = register_model(DeterminismModel(...))``.
    """
    if model.name in _REGISTRY:
        raise ValueError(
            f"determinism model {model.name!r} is already registered")
    _REGISTRY[model.name] = model
    return model


def unregister_model(name: str) -> None:
    """Remove a registered model (test/plugin teardown hook)."""
    _REGISTRY.pop(name, None)


def get_model(name_or_model) -> DeterminismModel:
    """Look a model up by name (models pass through unchanged)."""
    if isinstance(name_or_model, DeterminismModel):
        return name_or_model
    model = _REGISTRY.get(name_or_model)
    if model is None:
        known = sorted(_REGISTRY)
        raise UnknownModelError(
            f"unknown determinism model {name_or_model!r}; "
            f"registered: {known}")
    return model


def registered_models(core_only: bool = False
                      ) -> Tuple[DeterminismModel, ...]:
    """Every registered model, in display (chronology) order."""
    models = sorted(_REGISTRY.values(),
                    key=lambda m: (m.display_order, m.name))
    if core_only:
        models = [m for m in models if m.core]
    return tuple(models)


def model_order(core_only: bool = True) -> Tuple[str, ...]:
    """Registered model names in display order (the sweep order)."""
    return tuple(m.name for m in registered_models(core_only=core_only))


def replay_log(program: Program, log: RecordingLog,
               case=None,
               config: Optional[ModelConfig] = None) -> ReplayResult:
    """Replay a recording with the replayer its log calls for.

    Dispatches on ``log.model`` through the registry - the shipped-log
    half of the production→workstation hop: the caller needs no
    knowledge of which recorder produced the log.  ``case`` (or an
    explicit ``config``) supplies the non-serializable workload objects;
    a self-describing v2 log's embedded ``replay_config`` fills in every
    knob the recording side configured.

    It checks no attestation: a log from outside the process is verified
    once, by the decoder that read it (``load_log`` or
    :meth:`~repro.models.session.DebugSession.receive`), before it can
    reach a replay.
    """
    model = get_model(log.model)
    if config is None:
        config = ModelConfig.from_shipped(log, case=case)
    replayer = model.make_replayer(config, log)
    return replayer.replay(program, log, io_spec=config.io_spec)
