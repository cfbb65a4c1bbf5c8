"""Benchmark circuit generators: QFT and parameterized topology templates."""
from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .engine import check_gates

TOPOLOGIES = ("chain", "alternating", "all_to_all", "rotation")

_ROT = (GateKind.RX, GateKind.RY, GateKind.RZ)


def generate_qft(n: int) -> Circuit:
    """Standard QFT on n qubits (qubit 0 most significant).

    For each qubit q: H, then CP(pi/2^(k-q)) controlled by every later
    qubit k; finally floor(n/2) SWAPs reverse the qubit order.  Composite
    CP/SWAP kinds are kept; transpiling gives n + 5*n(n-1)/2 + 3*floor(n/2)
    gates.
    """
    check_gates(qft_transpiled_gate_count(n))   # refuses n < 1 too
    gates: list[Gate] = []
    for q in range(n):
        gates.append(Gate(GateKind.H, (q,)))
        for k in range(q + 1, n):
            # pi / 2^(k-q), with no integer-to-float overflow past k-q = 1023
            gates.append(Gate(GateKind.CP, (k, q), math.ldexp(math.pi, q - k)))
    for q in range(n // 2):
        gates.append(Gate(GateKind.SWAP, (q, n - 1 - q)))
    return Circuit(n, tuple(gates))


def qft_transpiled_gate_count(n: int) -> int:
    """len(transpile(generate_qft(n)).gates); refuses n < 1, for both."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n + 5 * n * (n - 1) // 2 + 3 * (n // 2)


def template_gate_count(topology: str, n: int, layers: int = 1) -> int:
    """len(generate_template(topology, n, layers).gates), refusing what
    generate_template refuses; every template gate is executable."""
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; pick one of {TOPOLOGIES}")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if topology == "rotation":
        if n < 1:
            raise ValueError("n must be >= 1")
    elif n < 2:
        raise ValueError(f"{topology} needs at least 2 qubits")
    return layers * {"rotation": n, "all_to_all": n * (n - 1) // 2}.get(topology, n - 1)   # chain, alternating: n - 1


def generate_template(topology: str, n: int, layers: int = 1, seed: int = 0) -> Circuit:
    """Entangling/rotation layers in the style of the expressibility templates.

    Per layer:
      rotation    - one random-axis rotation with a random angle on each qubit
      chain       - CX(q, q+1) down the line
      alternating - CX on even pairs, then on odd pairs
      all_to_all  - CX(a, b) for every a < b
    Deterministic for a given seed.
    """
    check_gates(template_gate_count(topology, n, layers))   # refuses a bad topology, n or layer count too
    rng = np.random.default_rng(seed)
    gates: list[Gate] = []
    for _ in range(layers):
        if topology == "rotation":
            for q in range(n):
                kind = _ROT[rng.integers(0, 3)]
                gates.append(Gate(kind, (q,), float(rng.uniform(0.0, 2.0 * math.pi))))
        elif topology == "chain":
            for q in range(n - 1):
                gates.append(Gate(GateKind.CX, (q, q + 1)))
        elif topology == "alternating":
            for q in range(0, n - 1, 2):
                gates.append(Gate(GateKind.CX, (q, q + 1)))
            for q in range(1, n - 1, 2):
                gates.append(Gate(GateKind.CX, (q, q + 1)))
        else:  # all_to_all
            for a in range(n):
                for b in range(a + 1, n):
                    gates.append(Gate(GateKind.CX, (a, b)))
    return Circuit(n, tuple(gates))
