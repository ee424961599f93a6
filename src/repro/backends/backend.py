"""The simulated backend: target + noise model + device physics.

A :class:`SimulatedBackend` plays the role of the "real NISQ machine" in
the paper's machine-in-loop workflow: circuits (possibly containing pulse
gates) go in, noisy sampled counts come out.  Pulse gates are simulated
against the backend's :class:`~repro.hamiltonian.system.DeviceModel`;
ordinary gates use their calibrated matrices plus the calibration-derived
error channels.

Pulse-gate channel convention: schedules attached to a
:class:`~repro.circuits.gates.PulseGate` address *gate-local* channels —
``DriveChannel(i)`` drives the gate's i-th qubit — so the same calibrated
pulse gate can be placed on any physical qubit, mirroring how the gate's
matrix convention works.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.backends.engine import _plan_and_method, execute_circuits
from repro.backends.result import Result
from repro.backends.target import Target
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Instruction, PulseGate
from repro.exceptions import BackendError
from repro.hamiltonian.system import DeviceModel
from repro.noise.model import NoiseModel
from repro.pulse.channels import ControlChannel, DriveChannel
from repro.pulse.schedule import Schedule
from repro.pulsesim.calibration import (
    CRCalibration,
    calibrate_cr,
    calibrate_x,
)
from repro.pulsesim.solver import drive_channel_propagator, drive_key
from repro.telemetry.spans import span as telemetry_span
from repro.utils.cache import LRUCache, UnhashableKey
from repro.utils.rng import derive_seed


class SimulatedBackend:
    """A noisy, pulse-capable simulated quantum computer."""

    def __init__(
        self,
        name: str,
        target: Target,
        noise_model: NoiseModel | None,
        device: DeviceModel,
    ) -> None:
        if device.num_qubits != target.num_qubits:
            raise BackendError("device model size != target size")
        self.name = name
        self.target = target
        self.noise_model = noise_model
        self.device = device
        # pulse-gate unitaries keyed by what each position's drive solve
        # reads: a parameter sweep re-resolves identical pulse gates
        # hundreds of times per optimizer run
        self._pulse_unitary_cache = LRUCache(
            maxsize=2048, name=f"pulse_unitary[{name}]"
        )
        # sharded execution services keyed by worker count; see
        # execution_service()
        self._services: dict = {}

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self.target.num_qubits

    @property
    def coupling(self):
        return self.target.coupling

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        shots: int = 1024,
        seed: int | None = None,
        with_noise: bool = True,
        with_readout_error: bool = True,
        seeds: Sequence[int | None] | None = None,
        jobs: int = 1,
        method: str = "auto",
        trajectories: int | str | None = None,
        target_error: float | None = None,
        trajectory_slice: tuple[int, int] | None = None,
        trajectory_batch: int | None = None,
        stabilizer_shot_batch: int | None = None,
    ) -> Result:
        """Execute one or more circuits and return sampled counts.

        The whole list goes through the batched engine path
        (:func:`repro.backends.engine.execute_circuits`), which amortizes
        noise-channel and pulse-propagator derivation across the sweep.
        ``seeds`` overrides the per-circuit shot seeds (one entry per
        circuit); by default they derive from ``seed`` exactly as the
        historical per-circuit loop did.

        ``method`` picks the simulation back-end per circuit
        (``"auto"`` — the default — resolves via
        :func:`~repro.backends.engine.select_method`);
        ``trajectories`` / ``target_error`` / ``trajectory_slice`` /
        ``trajectory_batch`` configure the trajectory back-end.
        ``trajectories="auto"`` enables adaptive allocation: rounds of
        trajectories run until the counts-distribution standard error
        meets ``target_error`` (see PERFORMANCE.md).
        ``stabilizer_shot_batch`` bounds the tableau back-end's
        phase-batched shot kernel (``1`` = the sequential reference;
        counts are byte-identical at every value).

        ``jobs > 1`` shards the batch across the backend's persistent
        :class:`~repro.service.futures.ExecutionService` worker pool —
        including a *single* trajectory-method circuit, whose
        trajectory range fans out as sub-jobs.  Per-circuit seeds are
        resolved *before* sharding and per-trajectory RNG derives from
        them, so ``jobs=N`` returns byte-identical counts to
        ``jobs=1``.
        """
        if isinstance(circuits, QuantumCircuit):
            circuits = [circuits]
        with telemetry_span(
            "backend.run",
            backend=self.name,
            circuits=len(circuits),
            shots=int(shots),
            jobs=int(jobs),
        ):
            if seeds is None:
                seeds = [
                    derive_seed(seed, "run", index)
                    if seed is not None
                    else None
                    for index in range(len(circuits))
                ]
            noise_model = self.noise_model if with_noise else None
            resolved = None
            if jobs > 1 and trajectory_slice is None and len(circuits) == 1:
                # one plan and one method ranking serve both the pooling
                # decision and the execution
                resolved = _plan_and_method(
                    circuits[0], self.target, noise_model, method
                )
            if jobs > 1 and trajectory_slice is None and (
                len(circuits) > 1
                or (resolved is not None and resolved[1] == "trajectory")
            ):
                service = self.execution_service(jobs)
                experiments, meta = service.run_batch(
                    circuits,
                    shots=shots,
                    seeds=seeds,
                    with_noise=with_noise,
                    with_readout_error=with_readout_error,
                    method=method,
                    trajectories=trajectories,
                    target_error=target_error,
                    trajectory_batch=trajectory_batch,
                    stabilizer_shot_batch=stabilizer_shot_batch,
                )
                return Result(
                    experiments,
                    backend_name=self.name,
                    shots=shots,
                    metadata={"service": meta},
                )
            experiments = execute_circuits(
                circuits,
                target=self.target,
                noise_model=noise_model,
                shots=shots,
                seeds=seeds,
                unitary_provider=self.pulse_unitary,
                with_readout_error=with_readout_error,
                method=method,
                trajectories=trajectories,
                target_error=target_error,
                trajectory_slice=trajectory_slice,
                trajectory_batch=trajectory_batch,
                stabilizer_shot_batch=stabilizer_shot_batch,
                _resolved=None if resolved is None else [resolved],
            )
            return Result(
                experiments, backend_name=self.name, shots=shots
            )

    def execution_service(self, jobs: int):
        """This backend's persistent sharded execution service.

        Created lazily on first use and reused for every later
        ``run(..., jobs=N)`` call with the same worker count, so one
        optimizer run pays the pool start-up (fork + cache warm) once.
        Build an :class:`~repro.service.futures.ExecutionService`
        directly for a store, backpressure or other non-default
        options.  Call :meth:`close_services` to tear the pools down.
        """
        from repro.service.futures import ExecutionService

        jobs = int(jobs)
        service = self._services.get(jobs)
        if service is None:
            service = ExecutionService(self, jobs=jobs)
            self._services[jobs] = service
        return service

    def close_services(self) -> None:
        """Shut down any worker pools this backend spawned."""
        for service in self._services.values():
            service.shutdown()
        self._services.clear()

    def __getstate__(self) -> dict:
        """Pickle support for shipping the backend to pool workers.

        Live services hold process pools and never cross the boundary.
        """
        state = dict(self.__dict__)
        state["_services"] = {}
        return state

    # ------------------------------------------------------------------
    # pulse support
    # ------------------------------------------------------------------
    def pulse_unitary(
        self, op: Instruction, phys_qubits: tuple[int, ...]
    ) -> np.ndarray:
        """Simulate a pulse gate's schedule into a unitary.

        Drive-channel-only schedules factorise into per-qubit SU(2)
        propagators; schedules touching control channels must carry a
        pre-computed ``unitary`` attribute (set by the calibration or
        pulse-efficient passes).

        Resolved unitaries are memoized by the
        :func:`~repro.pulsesim.solver.drive_key` of each gate position's
        timeline on its physical qubit: within one optimizer evaluation
        the shared-mixer model places the same pulse on every qubit, and
        across a batch sweep identical settings recur constantly.  A miss
        falls through to the device's drive propagator memo, which keys
        each position the same way.
        """
        if not isinstance(op, PulseGate):
            raise BackendError(f"cannot simulate {op!r}")
        schedule = op.schedule
        if not isinstance(schedule, Schedule):
            raise BackendError(
                f"pulse gate {op.name!r} has no simulable schedule"
            )
        if schedule.is_parameterized:
            raise BackendError(
                f"pulse gate {op.name!r} still has unbound parameters"
            )
        for channel in schedule.channels:
            if isinstance(channel, ControlChannel):
                raise BackendError(
                    "control-channel schedules need a cached unitary"
                )
        # gate-local channel i drives phys_qubits[i]
        timelines = [
            schedule.channel_timeline(DriveChannel(position))
            for position in range(len(phys_qubits))
        ]
        try:
            key = tuple(
                drive_key(self.device, qubit, timeline)
                for qubit, timeline in zip(phys_qubits, timelines)
            )
        except UnhashableKey:
            key = None
        if key is not None:
            return self._pulse_unitary_cache.get_or_compute(
                key, lambda: self._pulse_unitary(timelines, phys_qubits)
            )
        return self._pulse_unitary(timelines, phys_qubits)

    def _pulse_unitary(
        self, timelines: list, phys_qubits: tuple[int, ...]
    ) -> np.ndarray:
        out = np.eye(1, dtype=complex)
        for position in reversed(range(len(phys_qubits))):
            unitary = drive_channel_propagator(
                timelines[position], self.device, phys_qubits[position]
            )
            out = np.kron(out, unitary)
        return out

    def x_calibration(self, qubit: int):
        """Single-qubit X pulse calibration (memoized on the device)."""
        return calibrate_x(self.device, qubit)

    def cr_calibration(
        self, control: int, target: int, amp: float = 0.9
    ) -> CRCalibration:
        """Echoed-CR calibration for a coupled pair (memoized on the
        device)."""
        return calibrate_cr(
            self.device,
            control,
            target,
            amp=amp,
            x_calibration=self.x_calibration(control),
        )

    # ------------------------------------------------------------------
    def properties_row(self) -> dict[str, float]:
        """Calibration summary in the shape of the paper's Table I."""
        props = self.target.qubit_properties
        return {
            "backend": self.name,
            "num_qubits": self.num_qubits,
            "pauli_x_error": self.target.gate_errors.get("x", 0.0),
            "cnot_error": self.target.gate_errors.get("cx", 0.0),
            "readout_error": float(
                np.mean([p.readout_error for p in props])
            ),
            "t1_us": float(np.mean([p.t1 for p in props])) / 1000.0,
            "t2_us": float(np.mean([p.t2 for p in props])) / 1000.0,
            "readout_length_ns": float(
                np.mean([p.readout_length for p in props])
            ),
        }

    def __repr__(self) -> str:
        return (
            f"SimulatedBackend({self.name!r}, {self.num_qubits} qubits)"
        )
