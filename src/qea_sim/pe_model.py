"""Analytical cycle and memory model of the 4-PE accelerator core.

The state vector is split into equal contiguous blocks, one per PE, and
each PE carries two special units (SUs).  An SU holds two complex
multipliers and one complex adder, so per cycle it either finishes one
dense output amplitude (both multipliers plus the adder) or two sparse
output amplitudes (one multiplier each).  A dense amplitude pair therefore
costs an SU two cycles, and a sparse gate runs in exactly half the cycles
of a dense gate on the same register size.

Amplitude pairs whose two indices live in different PE blocks pay a
configurable cross-PE access penalty.  A gate on target qubit t (a CX's
second qubit) pairs indices at stride 2^(n-1-t), and the blocks hold
2^n / num_pes amplitudes, so its pairs cross blocks, all of them, iff
stride >= block_size, that is iff t < log2(num_pes).  These are
throughput formulas, not a cycle-accurate interconnect simulation.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, replace

from .circuit import CX, DENSE, SPARSE, TranspiledCircuit

STATE_BYTES_PER_AMP = 8       # two 32-bit words
GATE_BYTES = 32               # four complex entries, real/imag only
CONTROLLER_BYTES = 1024       # fixed controller context
MATMUL_ELEM_BYTES = 8         # single-precision complex


@dataclass(frozen=True)
class PEConfig:
    num_pes: int = 4
    sus_per_pe: int = 2
    freq_hz: float = 2.5e8
    cross_pe_penalty_cycles: int = 1
    per_gate_overhead_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.num_pes < 1 or self.num_pes & (self.num_pes - 1):
            raise ValueError(f"num_pes must be a power of two, got {self.num_pes}")
        if self.sus_per_pe < 1:
            raise ValueError("sus_per_pe must be >= 1")
        # NaN fails every comparison, so each check asks for what is valid
        if not (math.isfinite(self.freq_hz) and self.freq_hz > 0):
            raise ValueError(f"freq_hz must be finite and positive, got {self.freq_hz!r}")
        for name in ("cross_pe_penalty_cycles", "per_gate_overhead_cycles"):
            cost = getattr(self, name)
            if not (math.isfinite(cost) and cost >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {cost!r}")

    @property
    def total_sus(self) -> int:
        return self.num_pes * self.sus_per_pe


@dataclass(frozen=True)
class MemoryLayout:
    n: int
    num_pes: int

    @property
    def block_size(self) -> int:
        return (1 << self.n) // self.num_pes

    def owner(self, index: int) -> int:
        if not 0 <= index < (1 << self.n):
            raise ValueError(f"index {index} out of range for n={self.n}")
        return index // self.block_size


def partition_state(n: int, cfg: PEConfig = PEConfig()) -> MemoryLayout:
    """Equal contiguous blocks of the 2^n amplitudes, one per PE."""
    if n < cfg.num_pes.bit_length() - 1:   # 2^n < num_pes, a power of two, without building 2^n
        raise ValueError(f"2^{n} amplitudes cannot cover {cfg.num_pes} PEs")
    return MemoryLayout(n, cfg.num_pes)


@dataclass
class CycleReport:
    n: int
    sparse_gates: int = 0
    dense_gates: int = 0
    cx_gates: int = 0
    sparse_cycles: int = 0
    dense_cycles: int = 0
    cx_cycles: int = 0
    cross_pe_accesses: int = 0
    cross_pe_cycles: int = 0
    overhead_cycles: float = 0.0
    freq_hz: float = 2.5e8

    @property
    def total_gates(self) -> int:
        return self.sparse_gates + self.dense_gates + self.cx_gates

    @property
    def total_cycles(self) -> float:
        return (self.sparse_cycles + self.dense_cycles + self.cx_cycles
                + self.cross_pe_cycles + self.overhead_cycles)

    @property
    def modeled_time_s(self) -> float:
        return self.total_cycles / self.freq_hz


def check_figures(n: int) -> None:
    """ValueError when the model's figures for n qubits, about 2^n, would
    overflow a float; checked before any of them is built."""
    if n >= sys.float_info.max_exp:
        raise ValueError(f"{n} qubits: the model's figures, about 2^{n}, overflow a float")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def sparse_gate_cycles(n: int, cfg: PEConfig = PEConfig()) -> int:
    """One multiplier per amplitude: each SU retires two amplitudes per cycle."""
    return _ceil_div(1 << n, 2 * cfg.total_sus)


def dense_gate_cycles(n: int, cfg: PEConfig = PEConfig()) -> int:
    """One pair (two output amplitudes) per SU every two cycles."""
    return _ceil_div(1 << (n - 1), cfg.total_sus) * 2


def cx_gate_cycles(n: int, cfg: PEConfig = PEConfig()) -> int:
    """2^(n-2) swapped pairs, one per SU per cycle."""
    return _ceil_div(1 << (n - 2), cfg.total_sus)


def estimate_cycles(tc: TranspiledCircuit, cfg: PEConfig = PEConfig()) -> CycleReport:
    """The circuit's cycles as closed forms: each class's gate count times
    its *_gate_cycles, and the pairs of the gates that cross PE blocks
    (module docstring) times the penalty.  ValueError when the total is
    not a finite float, or when n fails check_figures."""
    n = tc.n
    check_figures(n)
    partition_state(n, cfg)
    pe_bits = cfg.num_pes.bit_length() - 1
    gates = Counter(tc.classes)
    crossing = Counter(cls for cls, g in zip(tc.classes, tc.gates) if g.qubits[-1] < pe_bits)
    # a one-qubit gate has 2^(n-1) pairs, a CX 2^(n-2); n = 1 has no CX, and
    # cx_gate_cycles(1) would shift by -1, so neither is evaluated there
    accesses = (crossing[SPARSE] + crossing[DENSE]) * (1 << (n - 1)) + crossing[CX] * ((1 << n) >> 2)
    rep = CycleReport(
        n=n, sparse_gates=gates[SPARSE], dense_gates=gates[DENSE], cx_gates=gates[CX],
        sparse_cycles=gates[SPARSE] * sparse_gate_cycles(n, cfg),
        dense_cycles=gates[DENSE] * dense_gate_cycles(n, cfg),
        cx_cycles=gates[CX] and gates[CX] * cx_gate_cycles(n, cfg),
        cross_pe_accesses=accesses, cross_pe_cycles=accesses * cfg.cross_pe_penalty_cycles,
        overhead_cycles=cfg.per_gate_overhead_cycles * len(tc.gates), freq_hz=cfg.freq_hz)
    try:
        finite = math.isfinite(rep.total_cycles)
    except OverflowError:   # an int sum too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{n} qubits, {len(tc.gates)} gates: the cycle total overflows a float")
    return rep


def calibrate_overhead(tc: TranspiledCircuit, cfg: PEConfig, target_time_s: float) -> float:
    """Per-gate overhead that makes the modeled time hit target_time_s.

    Returns the fitted scalar (clamped at zero if the raw model already
    exceeds the target); callers report it alongside the raw prediction.
    A non-finite target is a ValueError, as PEConfig's own fields are.
    """
    if not math.isfinite(target_time_s):
        raise ValueError(f"target_time_s must be finite, got {target_time_s!r}")
    base = estimate_cycles(tc, replace(cfg, per_gate_overhead_cycles=0.0))
    gates = base.total_gates
    if gates == 0:
        raise ValueError("cannot calibrate on an empty circuit")
    extra = target_time_s * cfg.freq_hz - base.total_cycles
    return max(0.0, extra / gates)


def estimate_memory_qea(n: int, num_gates: int) -> int:
    """Device footprint: packed state, per-gate 2x2 context, controller."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_gates < 0:
        raise ValueError("num_gates must be >= 0")
    return (1 << n) * STATE_BYTES_PER_AMP + num_gates * GATE_BYTES + CONTROLLER_BYTES


def estimate_memory_matmul(n: int) -> int:
    """Naive dense operator: one full 2^n x 2^n matrix plus in/out vectors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << (2 * n)) * MATMUL_ELEM_BYTES + 2 * (1 << n) * MATMUL_ELEM_BYTES


def memory_ratio(n: int, num_gates: int = 0) -> float:
    return estimate_memory_matmul(n) / estimate_memory_qea(n, num_gates)
