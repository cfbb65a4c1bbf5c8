"""Independent reference for the benchmark's output checks.

Nothing here imports `qea_sim`: the circuit text is read by its own small
parser, states are computed by a per-gate `np.tensordot` simulator or in
closed form, and dumps are decoded line by line.  Qubit 0 is the most
significant bit of the state index (MSB-first), as in the program.

Every check raises `CheckError` on a mismatch.
"""
from __future__ import annotations

import math

import numpy as np

FRAC_BITS = 30
RAW_ONE = 1 << FRAC_BITS
FLOAT_TOL = 1e-12

SPARSE_KINDS = frozenset({"s", "rz"})
DENSE_KINDS = frozenset({"h", "rx", "ry"})


class CheckError(Exception):
    """A program output disagrees with the reference."""


# ---------------------------------------------------------------------------
# Circuit text, read independently of the program's parser.
# ---------------------------------------------------------------------------

def parse_text(text: str) -> tuple[int, list[tuple[str, tuple[int, ...], float | None]]]:
    """(n, [(kind, qubits, angle)]) from the `qubits <n>` text format."""
    n = None
    gates = []
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0].lower()
        if head == "qubits":
            n = int(toks[1])
        elif head in ("rx", "ry", "rz"):
            gates.append((head, (int(toks[2]),), float(toks[1])))
        elif head == "cp":
            gates.append((head, (int(toks[2]), int(toks[3])), float(toks[1])))
        elif head in ("cx", "swap"):
            gates.append((head, (int(toks[1]), int(toks[2])), None))
        else:
            gates.append((head, (int(toks[1]),), None))
    if n is None:
        raise ValueError("circuit text has no 'qubits' header")
    return n, gates


def unitary(kind: str, angle: float | None) -> np.ndarray:
    """2x2 (one qubit) or 4x4 (two qubits, first operand as the high bit)."""
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if kind == "s":
        return np.diag([1, 1j])
    if kind == "rx":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    if kind == "cx":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    if kind == "cp":
        return np.diag([1, 1, 1, np.exp(1j * angle)])
    if kind == "swap":
        return np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    raise ValueError(f"unknown gate {kind!r}")


def simulate(n: int, gates) -> np.ndarray:
    """Ideal final state from |0...0>, one tensordot per gate.

    CP and SWAP are applied as their own 4x4 matrices, not rewritten, so
    the result is the ideal state without the transpiler's global phase.
    """
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for kind, qubits, angle in gates:
        u = unitary(kind, angle)
        k = len(qubits)
        u = u.reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return psi.reshape(-1)


def transpile_phase(gates) -> float:
    """Global phase the CP rewrite introduces: the program's state is
    e^{-i phase} times the ideal state."""
    return sum(angle / 4.0 for kind, _, angle in gates if kind == "cp")


def dft_column(n: int, x: int) -> np.ndarray:
    """QFT|x> in closed form: e^{2 pi i x k / 2^n} / sqrt(2^n) over k."""
    size = 1 << n
    k = np.arange(size, dtype=np.int64)
    return np.exp(2j * np.pi * ((x * k) % size) / size) / math.sqrt(size)


def qft_of_basis(n: int, x: int) -> np.ndarray:
    """QFT after Rx(pi) on every set bit of x: Rx(pi)|0> = -i|1>, so the
    input is (-i)^popcount(x) |x>."""
    return (-1j) ** bin(x).count("1") * dft_column(n, x)


# ---------------------------------------------------------------------------
# Closed-form transpiled gate classes.
# ---------------------------------------------------------------------------

def transpiled_counts(gates) -> dict[str, int]:
    """CP -> 3 sparse + 2 CX; SWAP -> 3 CX; the rest keep their class."""
    counts = {"sparse": 0, "dense": 0, "cx": 0}
    for kind, _, _ in gates:
        if kind in SPARSE_KINDS:
            counts["sparse"] += 1
        elif kind in DENSE_KINDS:
            counts["dense"] += 1
        elif kind == "cx":
            counts["cx"] += 1
        elif kind == "cp":
            counts["sparse"] += 3
            counts["cx"] += 2
        elif kind == "swap":
            counts["cx"] += 3
        else:
            raise ValueError(f"unknown gate {kind!r}")
    return counts


def qft_gate_total(n: int) -> int:
    return n + 5 * n * (n - 1) // 2 + 3 * (n // 2)


# ---------------------------------------------------------------------------
# State checks.
# ---------------------------------------------------------------------------

def raw_to_complex(raw_re: np.ndarray, raw_im: np.ndarray) -> np.ndarray:
    return (raw_re.astype(np.float64) + 1j * raw_im.astype(np.float64)) / RAW_ONE


def q230_tolerance(n: int, one_qubit_gates: int) -> float:
    """Worst-case 2-norm error of a Q2.30 run, with a factor 2 of slack.

    Per single-qubit gate: quantizing the four entries moves the matrix by
    at most sqrt(8) * 2^-31 in Frobenius norm, and each output component is
    rounded at most twice (dense: two products, then an exact add) by at
    most 2^-31 each, i.e. sqrt(2) * 2^-30 per amplitude.  Unitary gates do
    not grow earlier errors in 2-norm, so errors add up over the gates.
    CX moves words and adds no error.
    """
    step = math.sqrt(2.0) / RAW_ONE
    return 2.0 * one_qubit_gates * step * (math.sqrt(1 << n) + 1.0)


def aligned(state: np.ndarray, phase: float) -> np.ndarray:
    return state * np.exp(1j * phase)


def check_q230(raw_re, raw_im, ideal, phase: float, one_qubit_gates: int, what: str) -> None:
    """Fixed-point state within the Q2.30 worst-case bound of the ideal state."""
    err = float(np.linalg.norm(aligned(raw_to_complex(raw_re, raw_im), phase) - ideal))
    tol = q230_tolerance(int(ideal.size).bit_length() - 1, one_qubit_gates)
    if not err <= tol:
        raise CheckError(f"{what}: fixed state is {err:.3e} from the reference (2-norm), bound {tol:.3e}")


def check_float(state, ideal, phase: float, what: str) -> None:
    """Double-precision state within 1e-12 of the ideal state, per amplitude."""
    err = float(np.max(np.abs(aligned(state, phase) - ideal)))
    if not err <= FLOAT_TOL:
        raise CheckError(f"{what}: float state is {err:.3e} from the reference, bound {FLOAT_TOL:g}")


def check_identical(raw_a, raw_b, what: str) -> None:
    """Bit-identical raw words."""
    for a, b in zip(raw_a, raw_b):
        if a.shape != b.shape or not np.array_equal(a, b):
            raise CheckError(f"{what}: raw words differ")


def check_agree(value: float, own: float, what: str, rtol: float = 1e-9) -> None:
    if not abs(value - own) <= rtol * max(abs(own), 1e-300):
        raise CheckError(f"{what}: program says {value!r}, reference says {own!r}")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.mean(d.real * d.real + d.imag * d.imag))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.sum(np.abs(a) ** 2))
    nb = float(np.sum(np.abs(b) ** 2))
    return float(abs(np.sum(np.conj(a) * b)) ** 2 / (na * nb))


# ---------------------------------------------------------------------------
# Dump check: `n=<n> arith=fixed`, then `<i> <re_hex> <im_hex> <re> <im>`.
# ---------------------------------------------------------------------------

def _signed(word: int) -> int:
    return word - (1 << 32) if word >= 1 << 31 else word


def check_dump(text: str, n: int, raw_re, raw_im, what: str) -> None:
    """The dump lists every index 0..2^n-1 once, each hex column equals its
    float column times 2^30, and the hex words are the given raw words."""
    lines = text.split("\n")
    if lines[0] != f"n={n} arith=fixed":
        raise CheckError(f"{what}: bad dump header {lines[0][:40]!r}")
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    size = 1 << n
    if len(body) != size:
        raise CheckError(f"{what}: {len(body)} amplitude lines, expected {size}")
    seen = np.zeros(size, dtype=bool)
    got_re = np.zeros(size, dtype=np.int64)
    got_im = np.zeros(size, dtype=np.int64)
    for line in body:
        idx_s, re_h, im_h, re_f, im_f = line.split()
        i = int(idx_s)
        if not 0 <= i < size or seen[i]:
            raise CheckError(f"{what}: index {i} out of range or listed twice")
        seen[i] = True
        re, im = _signed(int(re_h, 16)), _signed(int(im_h, 16))
        if float(re_f) * RAW_ONE != re or float(im_f) * RAW_ONE != im:
            raise CheckError(f"{what}: line {i}: hex and float columns disagree")
        got_re[i], got_im[i] = re, im
    if not (np.array_equal(got_re, raw_re) and np.array_equal(got_im, raw_im)):
        raise CheckError(f"{what}: dump words differ from the state")
