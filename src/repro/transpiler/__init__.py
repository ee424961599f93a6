"""Circuit transpilation: layout, routing, basis translation, optimization.

The pipeline mirrors the paper's Step II toolbox: SABRE qubit mapping and
routing [Li et al., ASPLOS'19], commutative gate cancellation, translation
to the IBM native basis {rz, sx, x, cx}, plus the Step-I pulse-efficient
lowering of RZZ onto scaled cross-resonance pulses.
"""

from repro.transpiler.coupling import CouplingMap
from repro.transpiler.passmanager import (
    PassManager,
    TranspileContext,
    preset_pass_manager,
    transpile,
)
from repro.transpiler.passes.basis import BasisTranslation
from repro.transpiler.passes.cancellation import (
    CommutativeCancellation,
    SelfInverseCancellation,
)
from repro.transpiler.passes.commutation import CommutationReorder, gates_commute
from repro.transpiler.passes.fusion import PhaseGadgetFusion
from repro.transpiler.passes.resynthesis import SingleQubitResynthesis
from repro.transpiler.passes.layout import (
    ApplyLayout,
    NoiseAwareLayout,
    SabreLayout,
    TrivialLayout,
)
from repro.transpiler.passes.routing import SabreSwap
from repro.transpiler.passes.scheduling import (
    ASAPSchedule,
    DynamicalDecoupling,
    circuit_duration,
)
from repro.transpiler.passes.pulse_efficient import PulseEfficientRZZ
from repro.transpiler.verification import (
    transpiled_counts_equivalent,
    transpiled_distribution_equivalent,
    transpiled_unitary_equivalent,
    verify_transpiled,
)

__all__ = [
    "CouplingMap",
    "PassManager",
    "TranspileContext",
    "preset_pass_manager",
    "transpile",
    "BasisTranslation",
    "CommutationReorder",
    "CommutativeCancellation",
    "PhaseGadgetFusion",
    "SelfInverseCancellation",
    "SingleQubitResynthesis",
    "gates_commute",
    "transpiled_counts_equivalent",
    "transpiled_distribution_equivalent",
    "transpiled_unitary_equivalent",
    "verify_transpiled",
    "ApplyLayout",
    "NoiseAwareLayout",
    "SabreLayout",
    "TrivialLayout",
    "SabreSwap",
    "ASAPSchedule",
    "DynamicalDecoupling",
    "circuit_duration",
    "PulseEfficientRZZ",
]
