"""State-vector execution of transpiled circuits.

Index convention is MSB-first: qubit q owns bit (n-1-q) of the amplitude
index, so a gate on qubit j pairs amplitudes at stride 2^(n-j-1).

The state is stored as two planes, shape (2, 2^n): row 0 holds the real
parts, row 1 the imaginary parts (the device's two words per amplitude).
Two arithmetic variants share this layout and the kernels:
  * "float": float64 planes, used as the accuracy reference,
  * "fixed": int32 planes of Q2.30 raw words, modelling the device.

Dense single-qubit updates are pair-atomic: both old amplitudes of a pair
are read before either new one is written.  CX is a pure index swap and
performs no arithmetic.  Pairs within one gate are disjoint, so the pair
space can be sharded across workers with bit-identical results.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import fixedpoint as fx
from .circuit import CX, DENSE, SPARSE, Gate, TranspiledCircuit, classify, gate_matrix

FIXED = "fixed"
FLOAT = "float"

WORKER_ENV = "QEA_SIM_THREADS"


def max_workers() -> int:
    """Worker-count cap from the environment (>= 1)."""
    try:
        return max(1, int(os.environ.get(WORKER_ENV, "1")))
    except ValueError:
        return 1


def _round_sat(wide: np.ndarray) -> np.ndarray:
    return fx.saturate_array(fx.round_q60_array(wide))


def _same(x):
    return x


@dataclass(frozen=True)
class _Arith:
    """What the shared code needs to know about one arithmetic variant."""

    dtype: type                 # storage word of a plane
    one: int | float            # storage value of 1.0
    quantize: Callable          # float64 array -> storage words
    scalar: Callable            # float -> storage scalar, for gate entries
    wide: type                  # kernel intermediate
    narrow_mul: Callable        # applied after each complex-product component
    narrow_add: Callable        # applied after each sum of two products


_ARITH = {
    FIXED: _Arith(np.int32, fx.RAW_ONE, fx.to_fixed_array, lambda x: fx.to_fixed(x).raw,
                  np.int64, _round_sat, fx.saturate_array),
    FLOAT: _Arith(np.float64, 1.0, _same, float, np.float64, _same, _same),
}


class StateVector:
    """2^n amplitudes as a (2, 2^n) real/imaginary plane pair."""

    __slots__ = ("n", "arith", "planes")

    def __init__(self, n: int, arith: str = FLOAT):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        if arith not in _ARITH:
            raise ValueError(f"unknown arithmetic variant {arith!r}")
        self.n = n
        self.arith = arith
        self.planes = np.zeros((2, 1 << n), dtype=_ARITH[arith].dtype)

    @classmethod
    def zero(cls, n: int, arith: str = FLOAT) -> "StateVector":
        """|0...0>: amplitude 0 is exactly one, the rest exactly zero."""
        sv = cls(n, arith)
        sv.planes[0, 0] = _ARITH[arith].one
        return sv

    @classmethod
    def from_complex(cls, vec, arith: str = FLOAT) -> "StateVector":
        vec = np.asarray(vec, dtype=np.complex128)
        n = int(vec.size).bit_length() - 1
        if 1 << n != vec.size:
            raise ValueError(f"length {vec.size} is not a power of two")
        sv = cls(n, arith)
        sv.planes[:] = _ARITH[arith].quantize(np.stack((vec.real, vec.imag)))
        return sv

    def _values(self) -> np.ndarray:
        """Planes as float64 amplitude values (exact for both variants)."""
        return self.planes / _ARITH[self.arith].one

    def to_complex(self) -> np.ndarray:
        """Double-precision view of the amplitudes (exact for both variants)."""
        out = np.empty(len(self), dtype=np.complex128)
        out.real, out.imag = self._values()
        return out

    def norm_sq(self) -> float:
        re, im = self._values()
        return float(np.sum(re * re + im * im))

    def __len__(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class GateApplication:
    """One single-qubit update: 2x2 entries as (re, im) pairs of storage
    scalars (raw Q2.30 ints for fixed, floats for float)."""

    u00: tuple
    u01: tuple
    u10: tuple
    u11: tuple
    target: int
    mode: str  # SPARSE | DENSE

    def __post_init__(self) -> None:
        if self.mode not in (SPARSE, DENSE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == SPARSE and any(self.u01 + self.u10):
            raise ValueError("sparse mode requires zero off-diagonal entries")


def make_application(gate: Gate, arith: str) -> GateApplication:
    """Convert a gate to engine arithmetic once, before the amplitude sweep."""
    mode = classify(gate)
    if mode == CX:
        raise ValueError("CX is handled by the swapper, not as a matrix")
    q = _ARITH[arith].scalar
    ent = [(q(z.real), q(z.imag)) for z in gate_matrix(gate).reshape(4).tolist()]
    return GateApplication(*ent, gate.qubits[0], mode)


def _chunks(total: int, workers: int):
    """Split range(total) into <= workers contiguous slices."""
    workers = max(1, min(workers, total)) if total else 1
    step = -(-total // workers)
    return [slice(i, min(i + step, total)) for i in range(0, total, step)]


def _run_sharded(kernel, nblocks: int, workers: int) -> None:
    parts = _chunks(nblocks, workers)
    if len(parts) == 1:
        kernel(parts[0])
        return
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        list(pool.map(kernel, parts))


def apply_1q(state: StateVector, app: GateApplication, workers: int = 1) -> StateVector:
    """In-place single-qubit update at stride 2^(n-target-1).

    Complex arithmetic is decomposed into separately rounded real ufuncs:
    numpy's fused complex multiply may contract with FMA, which would break
    bit-identity with the scalar flag-loop kernel.  Each output component
    is one expression: that fixes the float operation order, and each
    product is freed as soon as it has been summed.  The inputs are
    widened copies (int64 for fixed), so outputs can be written at once.
    """
    n = state.n
    if not 0 <= app.target < n:
        raise ValueError(f"target {app.target} out of range for n={n}")
    stride = 1 << (n - app.target - 1)
    nblocks = 1 << app.target
    re, im = state.planes.reshape(2, nblocks, 2, stride)
    arith = _ARITH[state.arith]
    wide, mul, add = arith.wide, arith.narrow_mul, arith.narrow_add

    if app.mode == SPARSE:
        def kernel(sl):
            for half, (ur, ui) in ((0, app.u00), (1, app.u11)):
                xr = re[sl, half].astype(wide)
                xi = im[sl, half].astype(wide)
                re[sl, half] = mul(ur * xr - ui * xi)
                im[sl, half] = mul(ur * xi + ui * xr)
    else:
        def kernel(sl):
            lr = re[sl, 0].astype(wide)
            li = im[sl, 0].astype(wide)
            hr = re[sl, 1].astype(wide)
            hi = im[sl, 1].astype(wide)
            # one SU op per output amplitude: two multiplies, one add
            for half, (ar, ai), (br, bi) in ((0, app.u00, app.u01), (1, app.u10, app.u11)):
                re[sl, half] = add(mul(ar * lr - ai * li) + mul(br * hr - bi * hi))
                im[sl, half] = add(mul(ar * li + ai * lr) + mul(br * hi + bi * hr))

    _run_sharded(kernel, nblocks, workers)
    return state


def apply_cx(state: StateVector, control: int, target: int, workers: int = 1) -> StateVector:
    """In-place CX: swap amplitude pairs with control bit 1 across the target bit."""
    n = state.n
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")

    bc = n - 1 - control
    bt = n - 1 - target
    hi, lo = max(bc, bt), min(bc, bt)
    pre = (1 << n) >> (hi + 1)
    mid = (1 << hi) >> (lo + 1)
    post = 1 << lo
    # axis layout: (plane, pre, bit hi, mid, bit lo, post)
    v = state.planes.reshape(2, pre, 2, mid, 2, post)
    if bc > bt:   # control is the high bit: swap lo 0 <-> lo 1 where hi = 1
        a_idx, b_idx = (1, slice(None), 0), (1, slice(None), 1)
    else:         # control is the low bit: swap hi 0 <-> hi 1 where lo = 1
        a_idx, b_idx = (0, slice(None), 1), (1, slice(None), 1)

    def kernel(sl):
        a = (slice(None), sl) + a_idx
        b = (slice(None), sl) + b_idx
        tmp = v[a].copy()
        v[a] = v[b]
        v[b] = tmp

    _run_sharded(kernel, pre, workers)
    return state


@dataclass
class RunStats:
    sparse_gates: int = 0
    dense_gates: int = 0
    cx_gates: int = 0
    wall_time_s: float = 0.0

    @property
    def total_gates(self) -> int:
        return self.sparse_gates + self.dense_gates + self.cx_gates


def run_circuit(tc: TranspiledCircuit, state: StateVector, workers: int = 1):
    """Apply the transpiled gates in order (in place); returns (state, stats)."""
    if tc.n != state.n:
        raise ValueError(f"circuit has {tc.n} qubits, state has {state.n}")
    stats = RunStats()
    t0 = time.perf_counter()
    for g in tc.gates:
        cls = classify(g)
        if cls == CX:
            apply_cx(state, g.qubits[0], g.qubits[1], workers)
            stats.cx_gates += 1
        else:
            apply_1q(state, make_application(g, state.arith), workers)
            if cls == SPARSE:
                stats.sparse_gates += 1
            else:
                stats.dense_gates += 1
    stats.wall_time_s = time.perf_counter() - t0
    return state, stats


def reference_run(tc: TranspiledCircuit, state: StateVector, workers: int = 1) -> StateVector:
    """Double-precision run used as the accuracy reference.

    Same contract as run_circuit; the input state is copied (and converted
    to the float variant if needed), never mutated.
    """
    out, _ = run_circuit(tc, StateVector.from_complex(state.to_complex(), FLOAT), workers)
    return out


# ---------------------------------------------------------------------------
# Literal flag-toggling sweep, kept as a cross-check for the kernels above.
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
# State dump: header `n=<n> arith=<variant>`, then one line per amplitude:
#   <index> <re_hex> <im_hex> <re_float> <im_float>
# Hex columns are the Q2.30 storage words (quantized for the float variant).
# ---------------------------------------------------------------------------

def format_dump(state: StateVector) -> str:
    values = state._values()
    words = fx.to_fixed_array(values).view(np.uint32)
    lines = [f"n={state.n} arith={state.arith}\n"]
    # iterate the arrays (not .tolist()) so no whole-state Python list is
    # built, and join once so no second copy of the text is made
    for i, (wr, wi, vr, vi) in enumerate(zip(words[0], words[1], values[0], values[1])):
        lines.append(f"{i} {wr:08x} {wi:08x} {float(vr)!r} {float(vi)!r}\n")
    return "".join(lines)


def parse_dump(text: str) -> StateVector:
    """Inverse of format_dump; raises ValueError on a malformed dump.

    Fixed dumps are read from the hex columns, float dumps from the float
    columns.  Every index in 0..2^n-1 must appear exactly once.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
    try:
        head = dict(part.split("=", 1) for part in lines[0].split())
        n, arith = int(head["n"]), head["arith"]
    except (KeyError, ValueError):
        raise ValueError(f"dump header must be 'n=<n> arith=<fixed|float>', got {lines[0]!r}") from None
    count = len(lines) - 1
    if count.bit_length() - 1 != n or count != 1 << n:   # before allocating 2^n
        raise ValueError(f"n={n} needs 2^{n} amplitude lines, got {count}")
    sv = StateVector(n, arith)
    if arith == FIXED:   # hex storage words, written through an unsigned view
        (c_re, c_im), conv, (re, im) = (1, 2), partial(int, base=16), sv.planes.view(np.uint32)
    else:
        (c_re, c_im), conv, (re, im) = (3, 4), float, sv.planes
    seen = bytearray(count)
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != 5:
            raise ValueError(f"dump line {lineno}: expected 5 fields, got {len(fields)}")
        i = int(fields[0])
        if not 0 <= i < count or seen[i]:
            raise ValueError(f"dump line {lineno}: index {i} out of range or repeated")
        seen[i] = 1
        try:
            re[i] = conv(fields[c_re])
            im[i] = conv(fields[c_im])
        except OverflowError:
            raise ValueError(f"dump line {lineno}: word out of 32-bit range") from None
    return sv
