"""Transpiler optimization-tier benchmark over the standard circuit suite.

Runs every circuit in ``benchmarks/circuits`` (the snippet-2 named
family: ghz, wstate, adder, toffoli, fredkin, grover, qft,
basis_trotter, trotter_echo, qec) through the preset pass pipelines and
reports, per circuit x pipeline::

    Circuit name: wstate_n5
    Size - original: 21, optimized: 17 (0.81)
    Depth - original: 13, optimized: 11 (0.85)
    Number of non-local gates - original: 8, optimized: 8 (1.00)

Every optimized circuit is *gated* through an equivalence check against
its original (exact unitary with layout-permutation accounting for
small widths, fixed-seed engine counts for wide ones) before any ratio
is recorded — an inequivalent result aborts the bench.

Usage::

    PYTHONPATH=src python benchmarks/bench_transpiler.py
    # CI quick mode (subset; writes to a scratch file):
    PYTHONPATH=src python benchmarks/bench_transpiler.py --smoke

Emits ``BENCH_transpiler.json`` at the repo root.
"""

import json
import sys
import time
from pathlib import Path

# the reusable circuit generators live next to this script
sys.path.insert(0, str(Path(__file__).resolve().parent))

from circuits import SUITE

from repro.transpiler import CouplingMap, transpile, verify_transpiled

#: bump when entry shapes change so downstream tooling can tell
SCHEMA = {"name": "bench_transpiler", "version": 2}

RESULTS: dict[str, dict] = {"schema": dict(SCHEMA)}
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_transpiler.json"

#: pipeline label -> preset optimization level
PIPELINES = {"baseline_l1": 1, "optimized_l2": 2, "optimized_l3": 3}

#: circuits too wide for exact-unitary checking use fixed-seed counts
COUNTS_SHOTS = 2048
COUNTS_SEED = 1234


def _ratio(original: int, optimized: int) -> float:
    return round(optimized / original, 2) if original else 1.0


def _metrics(circuit) -> dict:
    return {
        "size": circuit.size(),
        "depth": circuit.depth(),
        "non_local_gates": circuit.num_two_qubit_gates(),
    }


def _bench_circuit(name: str, factory, levels: dict[str, int]) -> dict:
    circuit = factory()
    coupling = CouplingMap.from_line(circuit.num_qubits)
    original = _metrics(circuit)
    entry = {
        "num_qubits": circuit.num_qubits,
        "original": original,
        "pipelines": {},
    }
    for label, level in levels.items():
        fresh = factory()
        t0 = time.perf_counter()
        optimized = transpile(
            fresh, coupling, optimization_level=level, seed=7
        )
        wall = time.perf_counter() - t0
        verdict = verify_transpiled(
            fresh, optimized, shots=COUNTS_SHOTS, seed=COUNTS_SEED
        )
        if not verdict["equivalent"]:
            raise AssertionError(
                f"{name} @ {label}: optimized circuit is NOT equivalent "
                f"to the original ({verdict['method']} check)"
            )
        after = _metrics(optimized)
        entry["pipelines"][label] = {
            "optimization_level": level,
            **after,
            "size_ratio": _ratio(original["size"], after["size"]),
            "depth_ratio": _ratio(original["depth"], after["depth"]),
            "non_local_ratio": _ratio(
                original["non_local_gates"], after["non_local_gates"]
            ),
            "transpile_ms": round(wall * 1e3, 2),
            "equivalence": verdict["method"],
        }
    RESULTS[name] = entry
    _print_entry(name, entry)
    return entry


def _print_entry(name: str, entry: dict) -> None:
    orig = entry["original"]
    print(f"Circuit name: {name}")
    for label, p in entry["pipelines"].items():
        print(
            f"  [{label}] Size - original: {orig['size']}, "
            f"optimized: {p['size']} ({p['size_ratio']})"
        )
        print(
            f"  [{label}] Depth - original: {orig['depth']}, "
            f"optimized: {p['depth']} ({p['depth_ratio']})"
        )
        print(
            f"  [{label}] Number of non-local gates - original: "
            f"{orig['non_local_gates']}, optimized: "
            f"{p['non_local_gates']} ({p['non_local_ratio']})"
        )
        print(f"  [{label}] equivalence: {p['equivalence']}")


def _flush():
    OUTPUT.write_text(json.dumps(RESULTS, indent=2) + "\n")


def run_suite(names=None, levels=None):
    names = list(SUITE) if names is None else names
    levels = PIPELINES if levels is None else levels
    for name in names:
        _bench_circuit(name, SUITE[name], levels)
    _flush()


def test_bench_transpiler_suite():
    run_suite()


def main(argv=None):
    import argparse

    global OUTPUT
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI quick mode: two pipelines over a suite subset; writes "
        "to a scratch file instead of BENCH_transpiler.json unless "
        "--output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="override the result path (smoke mode defaults to a "
        "temp-dir scratch file so partial runs never clobber the "
        "tracked BENCH_transpiler.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        import tempfile

        OUTPUT = args.output or (
            Path(tempfile.gettempdir()) / "BENCH_transpiler.smoke.json"
        )
        run_suite(
            names=[
                "ghz_n8",
                "wstate_n5",
                "toffoli_n3",
                "qft_n5",
                "basis_trotter_n6",
                "trotter_echo_n20",
            ],
            levels={"baseline_l1": 1, "optimized_l2": 2},
        )
        print(f"smoke ok; results in {OUTPUT}")
        return
    if args.output is not None:
        OUTPUT = args.output
    run_suite()


if __name__ == "__main__":
    main()
