"""Fixed-point state-vector simulator and performance model for a
quantum emulation accelerator (4 PEs, Q2.30 arithmetic)."""

import os

# The package makes no BLAS call, yet numpy's import starts OpenBLAS's
# threads, one per CPU by default.  Ask for one before numpy's first
# import; a count the process set itself wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .circuit import (Circuit, CircuitParseError, Gate, GateKind,
                      TranspiledCircuit, classify, gate_matrix,
                      parse_circuit, transpile)
from .engine import (FIXED, FLOAT, GateApplication, RunStats, StateVector,
                     apply_1q, apply_cx, format_dump, parse_dump,
                     reference_run, run_circuit)
from .fixedpoint import Fixed, FixedComplex, cadd, cmul, to_fixed, to_float
from .generators import generate_qft, generate_template
from .metrics import BenchReport, bench_circuit, fidelity, mse, ngs, run_benchmark
from .pe_model import (CycleReport, MemoryLayout, PEConfig, calibrate_overhead,
                       estimate_cycles, estimate_memory_matmul,
                       estimate_memory_qea, partition_state)

__version__ = "0.1.0"
