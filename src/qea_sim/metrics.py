"""Accuracy metrics, normalized gate speed, and the benchmark harness.

Fidelity is normalized by both input norms, so fixed-point norm drift
shows up in the separate norm-error field instead of silently deflating
the overlap.  MSE is the mean squared modulus of amplitude differences
after aligning the tracked global phase.
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import pe_model
from .circuit import COMPOSITE, CX, DENSE, SPARSE, Circuit, classify, transpile
from .engine import FIXED, StateVector, reference_run, run_circuit


def _as_vector(state) -> np.ndarray:
    if isinstance(state, StateVector):
        return state.to_complex()
    return np.asarray(state, dtype=np.complex128)


def fidelity(a, b, phase: float = 0.0) -> float:
    """|<a|e^{i phase} b>|^2 / (|a|^2 |b|^2), in [0, 1]."""
    va, vb = _as_vector(a), _as_vector(b)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    na = float(np.vdot(va, va).real)
    nb = float(np.vdot(vb, vb).real)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero-norm state is undefined")
    overlap = np.vdot(va, np.exp(1j * phase) * vb)
    return float(abs(overlap) ** 2 / (na * nb))


def mse(a, b, phase: float = 0.0) -> float:
    """Mean squared amplitude difference after phase alignment."""
    va, vb = _as_vector(a), _as_vector(b)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    diff = va - np.exp(1j * phase) * vb
    return float(np.mean(diff.real ** 2 + diff.imag ** 2))


def norm_error(a) -> float:
    """|  ||a||^2 - 1 |, the drift away from unit norm."""
    va = _as_vector(a)
    return abs(float(np.vdot(va, va).real) - 1.0)


def ngs(time_s: float, gates: int, n: int) -> float:
    """Normalized gate speed: time / (gates * 2^n); smaller is better."""
    if gates <= 0:
        raise ValueError("gate count must be positive")
    return time_s / (gates * (1 << n))


def _class_counts(gates) -> dict[str, int]:
    counts = {SPARSE: 0, DENSE: 0, CX: 0, "composite": 0}
    for g in gates:
        if g.kind in COMPOSITE:
            counts["composite"] += 1
        else:
            counts[classify(g)] += 1
    return counts


@dataclass
class BenchReport:
    name: str
    n: int
    pre_sparse: int
    pre_dense: int
    pre_cx: int
    pre_composite: int
    post_sparse: int
    post_dense: int
    post_cx: int
    fidelity: float
    mse: float
    norm_error: float
    wall_time_s: float
    modeled_time_s: float
    ngs: float
    mem_qea_bytes: int
    mem_matmul_bytes: int
    total_cycles: float

    @property
    def post_gates(self) -> int:
        return self.post_sparse + self.post_dense + self.post_cx

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def bench_circuit(name: str, circuit: Circuit,
                  cfg: pe_model.PEConfig = pe_model.PEConfig(),
                  repeats: int = 5, workers: int = 1) -> BenchReport:
    """Transpile, run fixed-point against the double-precision reference,
    and assemble one report row.

    Wall time is the median of `repeats` fixed-point runs on a monotonic
    clock; the modeled time comes from the cycle estimator and is reported
    separately, never mixed with measurements.
    """
    tc = transpile(circuit)
    pre = _class_counts(circuit.gates)   # composites are counted before transpiling only

    times = []
    for _ in range(max(1, repeats)):
        state = StateVector.zero(circuit.n, FIXED)
        t0 = time.perf_counter()
        fixed_out, post = run_circuit(tc, state, workers)   # post-transpile counts from the run's plan
        times.append(time.perf_counter() - t0)
    wall = statistics.median(times)

    ref = reference_run(tc, StateVector.zero(circuit.n, FIXED), workers)
    cycles = pe_model.estimate_cycles(tc, cfg)
    gate_count = len(tc.gates)

    return BenchReport(
        name=name,
        n=circuit.n,
        pre_sparse=pre[SPARSE],
        pre_dense=pre[DENSE],
        pre_cx=pre[CX],
        pre_composite=pre["composite"],
        post_sparse=post.sparse_gates,
        post_dense=post.dense_gates,
        post_cx=post.cx_gates,
        fidelity=fidelity(fixed_out, ref),
        mse=mse(fixed_out, ref),
        norm_error=norm_error(fixed_out),
        wall_time_s=wall,
        modeled_time_s=cycles.modeled_time_s,
        ngs=ngs(wall, gate_count, circuit.n),
        mem_qea_bytes=pe_model.estimate_memory_qea(circuit.n, gate_count),
        mem_matmul_bytes=pe_model.estimate_memory_matmul(circuit.n),
        total_cycles=cycles.total_cycles,
    )


def run_benchmark(suite, cfg: pe_model.PEConfig = pe_model.PEConfig(),
                  repeats: int = 5, workers: int = 1) -> list[BenchReport]:
    """One report per (name, Circuit) entry, in suite order."""
    return [bench_circuit(name, circ, cfg, repeats, workers) for name, circ in suite]


def reports_to_jsonl(reports) -> str:
    return "".join(r.to_json() + "\n" for r in reports)
