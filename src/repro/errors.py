"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors
(``TypeError``, ``KeyError``, ...) in their own code.

Guest-program failures (assertion violations, memory errors inside MiniVM
programs) are *not* Python exceptions: they are modelled as
:class:`repro.vm.failures.FailureReport` values, because a failing guest is
a normal, expected outcome for a debugging tool.  The exceptions here signal
misuse of the library itself or internal invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramError(ReproError):
    """A MiniVM program is malformed (bad label, bad operand, bad function)."""


class AssemblerError(ProgramError):
    """Raised when assembly-language source cannot be assembled."""


class CompileError(ProgramError):
    """Raised when MiniLang source cannot be compiled.

    Carries an optional source position so tooling can point at the
    offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        position = f" (line {line}, col {column})" if line else ""
        super().__init__(message + position)
        self.line = line
        self.column = column


class MachineError(ReproError):
    """The VM was driven incorrectly (stepping a finished machine, etc.)."""


class SparseTraceError(ReproError):
    """A question that needs every step was asked of a sparse trace.

    An ``events``-mode run (:mod:`repro.vm.machine`) keeps only the
    steps with shared-memory, synchronization or I/O effects, and no
    schedule or branch paths.  Queries over those subsets answer as on a
    full trace; queries that need every step refuse with this error.
    """


class SchedulerError(ReproError):
    """A scheduler made an illegal choice (blocked/unknown thread)."""


class ReplayDivergenceError(ReproError):
    """A replay run diverged from the recorded log.

    Raised by strict replayers when the execution being reconstructed
    no longer matches the recording (e.g. the log says thread 2 runs but
    thread 2 is blocked).  Relaxed replayers generally *tolerate*
    divergence - that is the point of the paper - so only deterministic
    replay raises this.
    """


class SolverError(ReproError):
    """The constraint solver was given an ill-formed constraint system."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class SpecError(ReproError):
    """An I/O specification is malformed or cannot be evaluated."""


class RecordingFailedError(ReproError, RuntimeError):
    """A recording session could not capture a failing production run.

    Either no scheduler seed in the searched range made the case fail,
    or the pinned seed's run completed cleanly under the recorder.
    Subclasses :class:`RuntimeError` for callers of the historical
    ``evaluate_app_model`` contract.
    """


class UnknownModelError(ReproError, ValueError):
    """A determinism-model name is not in the model registry.

    Subclasses :class:`ValueError` as well because the model name is an
    ordinary bad argument to callers that take model names as strings
    (``get_model``/``run_matrix``).
    """


class ProtocolError(ReproError):
    """A remote-fleet wire frame violated the protocol.

    Raised by :mod:`repro.corpus.protocol` when a length-prefixed JSON
    frame cannot be read: the connection dropped mid-frame, the declared
    length is absurd, the body is not valid JSON, or the peer speaks a
    different protocol version.  A clean close *between* frames is an
    ``EOFError``, not a protocol violation - only a tear inside a frame
    is.
    """


class LogFormatError(ReproError):
    """A recording log could not be read, parsed, or version-matched.

    Raised by :mod:`repro.record.serialize` with the offending path (when
    loading from disk) and the found format version in the message, so a
    truncated upload or a log from a newer producer is diagnosable from
    the error alone.
    """


class LogAttestationError(LogFormatError):
    """A recording log failed attestation against its stamped hashes.

    v2 logs are stamped (:mod:`repro.record.attest`) with SHA-256 hashes
    of the log body, the guest program, the production scheduler
    identity, and the shipped replay config.  A payload whose recomputed
    hash disagrees - a truncated or bit-flipped upload, or a log whose
    guest source / config no longer matches the replaying workstation -
    is *refused* instead of silently diverging at replay.

    Subclasses :class:`LogFormatError` so "refuse bad log files" call
    sites catch both with one handler.  The structured fields name what
    mismatched:

    ``field``      which attested hash disagreed (``content``, ``guest``,
                   ``scheduler``, ``replay_config``)
    ``expected``   the hash stamped into the log at record time
    ``found``      the hash recomputed by the verifier
    ``path``       where the log came from, when known
    """

    def __init__(self, message: str, field: str = "",
                 expected: str = "", found: str = "",
                 path: str = ""):
        super().__init__(message)
        self.field = field
        self.expected = expected
        self.found = found
        self.path = path
