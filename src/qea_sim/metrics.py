"""Accuracy metrics, normalized gate speed, and the benchmark harness.

Fidelity is normalized by both input norms, so fixed-point norm drift
shows up in the separate norm-error field instead of silently deflating
the overlap.  Both are sums over the float64 (re, im) planes taken by
einsum, in this thread and with no BLAS call.  MSE is the mean squared
modulus of amplitude differences after aligning the tracked global phase.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import pe_model
from .circuit import COMPOSITE, CX, DENSE, SPARSE, Circuit, classify, transpile
from .engine import FIXED, FLOAT, RunStats, StateVector, run_circuit


def _planes(state) -> np.ndarray:
    """The (re, im) planes of a state as float64, shape (2, N): a
    StateVector's values, or a view of a complex array's words."""
    if isinstance(state, StateVector):
        return state._values()
    return np.ascontiguousarray(state, dtype=np.complex128).reshape(-1).view(np.float64).reshape(-1, 2).T


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum sums in this thread, with no BLAS call (np.vdot wakes BLAS threads)
    axes = "ij"[-a.ndim:]
    return float(np.einsum(f"{axes},{axes}->", a, b))


def fidelity(a, b, phase: float = 0.0) -> float:
    """|<a|e^{i phase} b>|^2 / (|a|^2 |b|^2), in [0, 1]; the phase does not
    change the modulus."""
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]} amplitudes")
    na, nb = _dot(pa, pa), _dot(pb, pb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero-norm state is undefined")
    # <a|b> = sum (ar br + ai bi) + i sum (ar bi - ai br)
    re, im = _dot(pa, pb), _dot(pa[0], pb[1]) - _dot(pa[1], pb[0])
    return (re * re + im * im) / (na * nb)


def mse(a, b, phase: float = 0.0) -> float:
    """Mean squared amplitude difference after phase alignment."""
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]} amplitudes")
    c, s = math.cos(phase), math.sin(phase)
    # a - e^{i phase} b, each product rounded alone: numpy's complex multiply may fuse them (FMA)
    re, im = pa[0] - (c * pb[0] - s * pb[1]), pa[1] - (c * pb[1] + s * pb[0])
    return float(np.mean(re * re + im * im))


def norm_error(a) -> float:
    """|  ||a||^2 - 1 |, the drift away from unit norm."""
    pa = _planes(a)
    return abs(_dot(pa, pa) - 1.0)


def ngs(time_s: float, gates: int, n: int) -> float:
    """Normalized gate speed: time / (gates * 2^n); smaller is better."""
    if gates <= 0:
        raise ValueError("gate count must be positive")
    return time_s / (gates * (1 << n))


@dataclass
class Comparison:
    """A circuit run from |0...0> in fixed point against the float reference."""

    stats: RunStats      # of the last fixed run
    wall_time_s: float   # median over the fixed runs
    fidelity: float
    mse: float
    norm_error: float


def compare_runs(tc, workers: int = 1, repeats: int = 1) -> Comparison:
    """Run tc `repeats` times in fixed point and once in float; the wall time
    is the median of the fixed runs' own, and the metrics compare the last
    fixed state with the float one."""
    times = []
    for _ in range(max(1, repeats)):
        fixed, stats = run_circuit(tc, StateVector.zero(tc.n, FIXED), workers)
        times.append(stats.wall_time_s)
    ref, _ = run_circuit(tc, StateVector.zero(tc.n, FLOAT), workers)
    return Comparison(stats, float(np.median(times)), fidelity(fixed, ref), mse(fixed, ref), norm_error(fixed))


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
    pre = Counter("composite" if g.kind in COMPOSITE else classify(g) for g in circuit.gates)   # composites too
    cmp = compare_runs(tc, workers, repeats)
    post = cmp.stats   # post-transpile counts from the run's plan
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
        fidelity=cmp.fidelity,
        mse=cmp.mse,
        norm_error=cmp.norm_error,
        wall_time_s=cmp.wall_time_s,
        modeled_time_s=cycles.modeled_time_s,
        ngs=ngs(cmp.wall_time_s, gate_count, circuit.n),
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
