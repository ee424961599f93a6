"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Invalid construction or manipulation of a quantum circuit."""


class ParameterError(CircuitError):
    """Invalid use of symbolic circuit parameters (unbound, duplicate...)."""


class QasmError(CircuitError):
    """Malformed OpenQASM input or unsupported construct on export."""


class SimulatorError(ReproError):
    """Simulation backend was asked to do something it cannot."""


class NoiseError(ReproError):
    """Ill-formed noise channel or noise model."""


class PulseError(ReproError):
    """Invalid pulse waveform, instruction, or schedule."""


class CalibrationError(PulseError):
    """A pulse calibration routine failed to converge or is inconsistent."""


class TranspilerError(ReproError):
    """A transpiler pass could not complete (unroutable circuit...)."""


class BackendError(ReproError):
    """Backend execution failure or invalid run configuration."""


class MitigationError(ReproError):
    """Error-mitigation routine received inconsistent inputs."""


class OptimizerError(ReproError):
    """Classical optimizer mis-configuration or failure."""


class ProblemError(ReproError):
    """Invalid combinatorial-problem specification (bad graph...)."""
