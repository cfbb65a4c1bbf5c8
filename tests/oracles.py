"""Independent brute-force references used across the test suite.

The matrices here are built from explicit definitions and full
2^n x 2^n linear algebra, deliberately sharing no code with the engine's
stride kernels or the transpiler.  Qubit 0 is the most significant index
bit, matching the package convention.  apply_1q_flagloop is the literal
flag-toggling sweep, one amplitude at a time in the scalar fixedpoint
arithmetic (or complex floats): the bit-exact reference for the engine's
one-qubit kernels.
"""
import math

import numpy as np

from qea_sim import fixedpoint as fx
from qea_sim.circuit import SPARSE
from qea_sim.engine import FIXED, GateApplication, StateVector


def mat_h():
    s = 1 / math.sqrt(2)
    return np.array([[s, s], [s, -s]], dtype=complex)


def mat_s():
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def mat_rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def mat_ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def mat_rz(theta):
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


def mat_cp(theta):
    return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)


MAT_1Q = {"h": mat_h, "s": mat_s}
MAT_ANGLED = {"rx": mat_rx, "ry": mat_ry, "rz": mat_rz}


def embed_1q(n, target, u):
    """I x ... x u x ... x I with u at MSB-first position `target`."""
    m = np.eye(1, dtype=complex)
    for q in range(n):
        m = np.kron(m, u if q == target else np.eye(2, dtype=complex))
    return m


def cx_matrix(n, control, target):
    """Permutation matrix of CX from the index-level definition."""
    size = 1 << n
    cmask = 1 << (n - 1 - control)
    tmask = 1 << (n - 1 - target)
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        j = i ^ tmask if i & cmask else i
        m[j, i] = 1.0
    return m


def cp_matrix(n, control, target, theta):
    size = 1 << n
    cmask = 1 << (n - 1 - control)
    tmask = 1 << (n - 1 - target)
    d = np.ones(size, dtype=complex)
    for i in range(size):
        if i & cmask and i & tmask:
            d[i] = np.exp(1j * theta)
    return np.diag(d)


def swap_matrix(n, a, b):
    size = 1 << n
    amask = 1 << (n - 1 - a)
    bmask = 1 << (n - 1 - b)
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        ab = (i >> (n - 1 - a)) & 1
        bb = (i >> (n - 1 - b)) & 1
        j = (i & ~amask & ~bmask) | (bb << (n - 1 - a)) | (ab << (n - 1 - b))
        m[j, i] = 1.0
    return m


def gate_to_matrix(n, gate):
    """Full 2^n operator of one IR gate (composites included)."""
    kind = gate.kind.value
    if kind in MAT_1Q:
        return embed_1q(n, gate.qubits[0], MAT_1Q[kind]())
    if kind in MAT_ANGLED:
        return embed_1q(n, gate.qubits[0], MAT_ANGLED[kind](gate.angle))
    if kind == "cx":
        return cx_matrix(n, gate.qubits[0], gate.qubits[1])
    if kind == "cp":
        return cp_matrix(n, gate.qubits[0], gate.qubits[1], gate.angle)
    if kind == "swap":
        return swap_matrix(n, gate.qubits[0], gate.qubits[1])
    raise ValueError(kind)


def circuit_matrix(n, gates):
    """Product of the gates' full operators, in application order."""
    m = np.eye(1 << n, dtype=complex)
    for g in gates:
        m = gate_to_matrix(n, g) @ m
    return m


def dft_matrix(n):
    """The transform the QFT circuit must implement: W[j,k] = w^(jk)/sqrt(N)."""
    size = 1 << n
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(2j * np.pi * j * k / size) / math.sqrt(size)


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Literal flag-toggling sweep, the cross-check for the engine's kernels.
# The printed loop updates psi[i] only at index i; run as written, the
# dense branch would read a partner that was already overwritten.  A
# buffer holding the previous sub-group (one slot per offset) restores
# pair atomicity while preserving the loop's exact visit order.
# ---------------------------------------------------------------------------

def apply_1q_flagloop(state: StateVector, app: GateApplication) -> StateVector:
    n = state.n
    stride = 1 << (n - app.target - 1)
    size = 1 << n
    fixed = state.arith == FIXED
    sparse = app.mode == SPARSE
    re, im = state.planes

    if fixed:
        def pack(r, i):
            return fx.FixedComplex(fx.Fixed(int(r)), fx.Fixed(int(i)))

        def write(i, v):
            re[i] = v.re.raw
            im[i] = v.im.raw

        mul, add = fx.cmul, fx.cadd
    else:
        def pack(r, i):
            return complex(float(r), float(i))

        def write(i, v):
            re[i] = v.real
            im[i] = v.imag

        def mul(a, b):
            # same rounding sequence as the vectorized kernel
            return complex(a.real * b.real - a.imag * b.imag,
                           a.real * b.imag + a.imag * b.real)

        def add(a, b):
            return complex(a.real + b.real, a.imag + b.imag)

    def read(i):
        return pack(re[i], im[i])

    u00, u01, u10, u11 = (pack(*u) for u in (app.u00, app.u01, app.u10, app.u11))
    buf = [None] * stride
    flag = 1
    for i in range(size):
        if flag:
            if sparse:
                write(i, mul(u00, read(i)))
            else:
                buf[i % stride] = read(i)
                write(i, add(mul(u00, read(i)), mul(u01, read(i + stride))))
        else:
            if sparse:
                write(i, mul(u11, read(i)))
            else:
                write(i, add(mul(u10, buf[i % stride]), mul(u11, read(i))))
        if i % stride == stride - 1:
            flag ^= 1
    return state


# ---------------------------------------------------------------------------
# What a run sweeps and how many passes carry out its CXs, from the rules of
# the engine's classical-qubit tracking and deferred CX, with each active
# qubit's axis labelled by the qubit itself: no stored-bit layout at all.
# ---------------------------------------------------------------------------

def run_counts(state: StateVector, gates) -> tuple[int, int]:
    """(swept_amps, cx_passes) of run_circuit(gates) on `state`.

    A fixed run tracks the qubits on which every nonzero amplitude agrees
    (all of them on the zero state); a float run starts with every qubit
    active.  Per active qubit the map keeps a row (the axes whose parity is
    its logical bit) and a column (the axes whose flip flips it alone), and
    per qubit a frame bit.  A step sweeps 2^m amplitudes, m the active
    qubits (at least 1).  A materialized map that is not the identity is
    one pass of 2^m (a quarter swap or a gather); a tracked run's
    write-back is that pass at the end."""
    n = state.n
    nonzero = np.flatnonzero(np.logical_or(*state.planes))
    values = {}
    if state.arith == FIXED:
        for q in range(n):
            bits = set((nonzero >> (n - 1 - q) & 1).tolist())
            if len(bits) < 2:
                values[q] = bits.pop() if bits else 0
    frame = [values.get(q, 0) for q in range(n)]
    row = {q: 1 << q for q in range(n) if q not in values}
    col = dict(row)
    pending, swept, passes = 0, 0, 0

    def moved():
        return pending == 1 or pending and any(row[q] != 1 << q for q in row)

    def materialize():
        nonlocal pending, swept, passes
        if moved():
            swept += 1 << len(row)
            passes += 1
        for q in row:
            row[q] = col[q] = 1 << q
        pending = 0

    for g in gates:
        if g.kind.value == "cx":
            c, t = g.qubits
            if c in row:
                row.setdefault(t, 1 << t)
                col.setdefault(t, 1 << t)
                row[t] ^= row[c]
                col[c] ^= col[t]
                pending += 1
            frame[t] ^= frame[c]
            continue
        (q,) = g.qubits
        if q not in row:
            u = embed_1q(1, 0, MAT_1Q[g.kind.value]() if g.angle is None else MAT_ANGLED[g.kind.value](g.angle))
            f = frame[q]
            upper, lower = (fx.to_fixed(u[r, f].real).raw or fx.to_fixed(u[r, f].imag).raw for r in (0, 1))
            if bool(upper) != bool(lower):   # a scale of every stored amplitude
                swept += 1 << max(len(row), 1)
                frame[q] = int(bool(lower))
                continue
            row[q] = col[q] = 1 << q
        elif pending and (row[q] & (row[q] - 1) or g.kind.value not in ("s", "rz") and col[q] != row[q]):
            materialize()
        swept += 1 << len(row)
    if values:
        if moved():
            swept += 1 << len(row)
            passes += 1
    else:
        materialize()
    return swept, passes
