"""Backend target description: native gates, durations, calibration data."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.exceptions import BackendError
from repro.transpiler.coupling import CouplingMap
from repro.utils.cache import LRUCache

#: IBM sample time, ns
DEFAULT_DT = 2.0 / 9.0


@dataclass
class QubitProperties:
    """Calibration data of one physical qubit."""

    t1: float  # ns
    t2: float  # ns
    frequency: float  # GHz
    readout_error: float
    readout_length: float  # ns


class Target:
    """What a backend can execute, and how long/noisy each operation is."""

    def __init__(
        self,
        num_qubits: int,
        coupling: CouplingMap,
        basis_gates: Sequence[str] = ("rz", "sx", "x", "cx"),
        dt: float = DEFAULT_DT,
        gate_durations: Mapping[str, int] | None = None,
        gate_errors: Mapping[str, float] | None = None,
        qubit_properties: Sequence[QubitProperties] | None = None,
    ) -> None:
        if coupling.num_qubits != num_qubits:
            raise BackendError(
                f"coupling map has {coupling.num_qubits} qubits, "
                f"target {num_qubits}"
            )
        self.num_qubits = num_qubits
        self.coupling = coupling
        self.basis_gates = frozenset(basis_gates)
        self.dt = float(dt)
        self._gate_durations = dict(gate_durations or {})
        self._gate_durations.setdefault("rz", 0)
        self._gate_durations.setdefault("sx", 160)
        self._gate_durations.setdefault("x", 160)
        self._gate_durations.setdefault("cx", 1760)
        self._gate_durations.setdefault("swap", 3 * self._gate_durations["cx"])
        self._gate_durations.setdefault("id", 0)
        self.gate_errors = dict(gate_errors or {})
        if qubit_properties is None:
            qubit_properties = [
                QubitProperties(
                    t1=100_000.0,
                    t2=100_000.0,
                    frequency=5.0,
                    readout_error=0.01,
                    readout_length=750.0,
                )
                for _ in range(num_qubits)
            ]
        if len(qubit_properties) != num_qubits:
            raise BackendError("qubit_properties length mismatch")
        self.qubit_properties = list(qubit_properties)
        #: the engine's per-structure circuit plans (layers, layer
        #: durations, active and coupled qubits), keyed by what they read
        #: of the circuit; set_duration empties it
        self.plan_cache = LRUCache(maxsize=256, name="circuit_plan")

    # ------------------------------------------------------------------
    def duration(self, name: str, qubits: Sequence[int] = ()) -> int:
        """Duration in samples of a named operation."""
        if name == "measure":
            if qubits:
                lengths = [
                    self.qubit_properties[q].readout_length for q in qubits
                ]
                return int(round(max(lengths) / self.dt))
            return int(
                round(self.qubit_properties[0].readout_length / self.dt)
            )
        if name in ("barrier", "delay"):
            return 0
        try:
            return self._gate_durations[name]
        except KeyError as exc:
            raise BackendError(f"no duration for operation {name!r}") from exc

    def duration_provider(self):
        """Adapter matching the transpiler's DurationProvider signature."""

        def durations(name: str, qubits: tuple[int, ...]) -> int:
            return self.duration(name, qubits)

        return durations

    def has_duration(self, name: str) -> bool:
        return name in self._gate_durations or name in (
            "measure",
            "barrier",
            "delay",
        )

    def set_duration(self, name: str, samples: int) -> None:
        self._gate_durations[name] = int(samples)
        self.plan_cache.clear()

    def __repr__(self) -> str:
        return (
            f"Target({self.num_qubits} qubits, basis="
            f"{sorted(self.basis_gates)}, "
            f"{self.coupling.graph.number_of_edges()} couplings)"
        )
