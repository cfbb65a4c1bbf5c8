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

run_circuit prepares a plan once per run (_prepare): every gate classified
and quantized, views and kernel buffers set up, before the first update.
apply_1q and apply_cx are one-gate uses of the same steps.
"""
from __future__ import annotations

import binascii
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import fixedpoint as fx
from .circuit import CX, DENSE, SPARSE, Gate, TranspiledCircuit, classify, gate_matrix

FIXED = "fixed"
FLOAT = "float"

WORKER_ENV = "QEA_SIM_THREADS"

_PHYS_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def max_workers() -> int:
    """Worker-count cap from the environment (>= 1)."""
    try:
        return max(1, int(os.environ.get(WORKER_ENV, "1")))
    except ValueError:
        return 1


def _fixed_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # one rounding of the exact two-term sum, then saturation; b is scratch
    return fx.saturate_array(fx.round_q60_array(np.add(a, b, out=a), out=b), out=out)


def _fixed_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return fx.saturate_array(np.add(a, b, out=a), out=out)


def _rounded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # _fixed_product without saturation: b holds the carry, out may be int32 state words
    return fx.round_q60_array(np.add(a, b, out=a), out=out, carry=b)


def _wrapping_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.add(a, b, out=out, casting="unsafe")


def _float_add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.add(a, b, out=out)


def _same(x):
    return x


@dataclass(frozen=True)
class _Arith:
    """What the shared code needs to know about one arithmetic variant."""

    dtype: type                 # storage word of a plane
    one: int | float            # storage value of 1.0
    quantize: Callable          # float64 array -> storage words
    wide: type                  # kernel intermediate
    narrow_product: Callable    # (a, b, out): out = narrowed a + b, the two terms of a product
    narrow_sum: Callable        # (a, b, out): out = narrowed a + b, two narrowed products


_ARITH = {
    FIXED: _Arith(np.int32, fx.RAW_ONE, fx.to_fixed_array, np.int64, _fixed_product, _fixed_sum),
    FLOAT: _Arith(np.float64, 1.0, _same, np.float64, _float_add, _float_add),
}
# the fixed steps of a run that _clamp_free proves cannot saturate: same bits
_CLAMP_FREE = replace(_ARITH[FIXED], narrow_product=_rounded_product, narrow_sum=_wrapping_sum)


def check_fits(n: int, arith: str) -> None:
    """Raise ValueError unless an n-qubit state of this arithmetic fits in
    physical memory; callers use it to refuse work before building a state."""
    if arith not in _ARITH:
        raise ValueError(f"unknown arithmetic variant {arith!r}")
    word = np.dtype(_ARITH[arith].dtype).itemsize
    if n > (_PHYS_BYTES // (2 * word)).bit_length() - 1:   # n, not 2^n: n may be absurd
        raise ValueError(f"{n} qubits need 2^{n + 1} words of {word} bytes, "
                         f"more than the {_PHYS_BYTES} bytes of physical memory")


class StateVector:
    """2^n amplitudes as a (2, 2^n) real/imaginary plane pair."""

    __slots__ = ("n", "arith", "planes")

    def __init__(self, n: int, arith: str = FLOAT):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        check_fits(n, arith)
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


def _words(m: np.ndarray, arith: str) -> np.ndarray:
    """Storage words of complex128 2x2 matrices (..., 2, 2) in one quantize
    call: shape (..., 4, 2), u00 u01 u10 u11 as (re, im) pairs."""
    return _ARITH[arith].quantize(m.view(np.float64).reshape(m.shape[:-2] + (4, 2)))


def make_application(gate: Gate, arith: str) -> GateApplication:
    """Convert a gate to engine arithmetic once, before the amplitude sweep."""
    mode = classify(gate)
    if mode == CX:
        raise ValueError("CX is handled by the swapper, not as a matrix")
    u00, u01, u10, u11 = map(tuple, _words(gate_matrix(gate), arith).tolist())
    return GateApplication(u00, u01, u10, u11, gate.qubits[0], mode)


# Pairs per kernel tile.  A part's kernel buffers take 160 bytes per pair
# for dense gates (8-byte words: the widened tile, 2 halves x 2 planes, and
# two product buffers of 2 products x 2 halves x 2 planes), 1.25 MiB at
# 2^13 pairs, within a 2 MiB L2; they are allocated once per run.  On a
# 2-vCPU Xeon with 2 MiB of L2 per core (sizes timed in turn in one warm
# process, n=16-17), 2^14 pairs ran the kernels up to 1.7x slower than
# 2^13; 2^12 was within 25% either way, faster on float dense gates and
# slower on fixed sparse ones.
_TILE = 1 << 13

_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _split(total: int, workers: int) -> list[range]:
    """range(total) cut into at most `workers` contiguous parts."""
    step = -(-total // max(1, min(workers, total)))
    if step == total:   # one part, the common case, without a comprehension's cost
        return [range(total)]
    return [range(i, min(i + step, total)) for i in range(0, total, step)]


def _run_parts(fn, parts: list[range], *args) -> None:
    """Run fn(*args, i, parts[i]) for every part i.

    One part runs inline.  More run on one thread pool shared by all runs,
    created on first use and replaced by a larger one when more parts are
    asked for; a replaced pool's threads exit once it is unreferenced.
    """
    global _pool, _pool_size
    if len(parts) == 1:
        fn(*args, 0, parts[0])
        return
    with _pool_lock:
        if _pool_size < len(parts):
            _pool = ThreadPoolExecutor(max_workers=len(parts), thread_name_prefix="qea-sim")
            _pool_size = len(parts)
        pool = _pool
    # reading every result re-raises a part's error
    for _ in pool.map(partial(fn, *args), range(len(parts)), parts):
        pass


def _one_qubit(tiles, ur, sgn, i: int, part: range) -> None:
    """The pair kernel of one single-qubit gate over one part of its tiles.

    A fixed-point tile is first copied, widened to int64, into the part's
    buffer; every product of a tile lands in two more before any output is
    written.  One pass covers both planes and both halves of a tile:
    u*x = ur*x + (-ui, +ui)*x[::-1] per half.  The narrow steps run in
    place on the buffers; the last one writes the tile's outputs.
    Complex arithmetic stays in separately rounded real ufuncs, which never
    fuse a multiply and an add: numpy's complex multiply may contract with
    FMA, which would break bit-identity with the scalar flag-loop kernel.
    (-ui)*xi is exactly -(ui*xi) and a + (-b) is exactly a - b in IEEE-754,
    so the float kernel computes ur*xr - ui*xi, ur*xi + ui*xr bit for bit.
    """
    view, cols, sparse, product, total, bufs = tiles
    prod, tmp, src, xs, xr = bufs[i]
    for k in part:
        x = view[divmod(k, cols)]   # (half, plane, blocks and offsets) of the state
        if src is None:   # float words are multiplied where they lie
            xs, xr = (x, x[:, ::-1]) if sparse else (x[:, None], x[:, None, ::-1])
        else:             # int32 words widen faster in one copy than inside each multiply
            np.copyto(src, x)
        np.multiply(xs, ur, out=prod)
        np.multiply(xr, sgn, out=tmp)
        if sparse:   # an output half reads only its own input half
            product(prod, tmp, out=x)
        else:        # one SU op per output amplitude: two multiplies, one add
            p = product(prod, tmp, out=tmp)
            total(p[0], p[1], out=x)


def _swap(views, i: int, part: range) -> None:
    """CX over one part of its blocks: swap two quarters through a temporary."""
    a, b, t = views[i]
    np.copyto(t, a)
    np.copyto(a, b)
    np.copyto(b, t)


# A gate's kernel operands by (input half, output half): ur, the real part
# of each entry, and sgn, (-im, +im), as columns of its words flattened to
# u00 u01 u10 u11 as (re, im), and the signs of sgn.  A sparse gate takes
# u00 and u11 only.
_COLUMNS = {False: (np.array([0, 4, 2, 6]), np.array([1, 1, 5, 5, 3, 3, 7, 7]), np.array([-1, 1] * 4)),
            True: (np.array([0, 6]), np.array([1, 1, 7, 7]), np.array([-1, 1] * 2))}


def _operands(words: np.ndarray, sparse: bool, wide: type) -> tuple[np.ndarray, np.ndarray]:
    """Every gate's kernel operands (ur, sgn), by indexing its words."""
    flat = words.reshape(-1, 8).astype(wide, copy=False)
    re, im, signs = _COLUMNS[sparse]
    shape = (-1, 2, 1, 1, 1) if sparse else (-1, 2, 2, 1, 1, 1)
    # x * -1 is exactly -x, signed zeros included
    return (flat.take(re, axis=1).reshape(shape),
            (flat.take(im, axis=1) * signs).reshape(shape[:-3] + (2, 1, 1)))


def _tile_parts(n: int, workers: int) -> tuple[int, list[range]]:
    """Pairs per tile of an n-qubit state, and its tiles cut into parts."""
    pairs = 1 << (n - 1)
    tile = min(_TILE, pairs)
    return tile, _split(pairs // tile, workers)


def _tile_words(arith: _Arith, sparse: bool, tile: int) -> int:
    """Buffer row length of the one-qubit kernel: product and scratch of
    1 or 2 terms x 2 halves x 2 planes, and the widened tile."""
    return tile * ((8 if sparse else 16) + (4 if arith.dtype is not arith.wide else 0))


def _tile_kernel(state: StateVector, arith: _Arith, target: int, sparse: bool, tile: int, rows) -> tuple:
    """What _one_qubit needs for gates of one mode on one target: the state
    viewed as tiles, and per part the arrays it uses, prefixes of its row;
    `arith` is the state's variant, or _CLAMP_FREE."""
    n = state.n
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for n={n}")
    stride = 1 << (n - target - 1)
    if stride >= tile:   # a tile is part of one block's offset range
        view = state.planes.reshape(2, 1 << target, 2, stride // tile, tile).transpose(1, 3, 2, 0, 4)[..., None, :]
    else:                # a tile is a group of whole blocks
        view = state.planes.reshape(2, -1, tile // stride, 2, stride).transpose(1, 3, 0, 2, 4)[:, None]
        # offsets innermost, unless a block holds so few that a strided walk
        # over the blocks is cheaper than numpy's inner loops of length stride.
        # Both walks timed in turn in one warm process on a 2-vCPU Xeon
        # (n=6-16), blocks-innermost over offsets-innermost: 0.30-1.02 at
        # stride 2 and 0.53-1.05 at stride 4, lowest at n=10-12; 0.62-1.21
        # at stride 8, slower at n=16; 0.9-2.4 from stride 16.  At stride 1
        # the two walks are one.
        if stride <= 4:
            view = view.swapaxes(4, 5)
    # view[divmod(k, cols)] is tile k: (half, plane) + inner
    inner = view.shape[4:]
    shape = ((2, 2) if sparse else (2, 2, 2)) + inner
    size = (4 if sparse else 8) * tile
    bufs = []
    for r in rows:
        src = xs = xr = None
        if arith.dtype is not arith.wide:
            src = r[2 * size:2 * size + 4 * tile].reshape((2, 2) + inner)
            xs, xr = (src, src[:, ::-1]) if sparse else (src[:, None], src[:, None, ::-1])
        bufs.append((r[:size].reshape(shape), r[size:2 * size].reshape(shape), src, xs, xr))
    return view, view.shape[1], sparse, arith.narrow_product, arith.narrow_sum, bufs


def _swap_parts(n: int, control: int, target: int, workers: int) -> list[range]:
    """CX's blocks (the indices above both its bits) cut into parts."""
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    # at most one part per apply_1q tile: no part has less than a tile's work
    return _split(1 << min(control, target), min(workers, (1 << (n - 1)) // _TILE))


def _swap_words(n: int, control: int, target: int, parts: list[range]) -> int:
    """State words of the largest part's temporary: both planes of its quarter."""
    return 2 * len(parts[0]) * ((1 << (n - 2)) >> min(control, target))


def _swap_views(state: StateVector, control: int, target: int, parts: list[range], rows) -> list:
    """Per part: the two quarters CX swaps, and a temporary, a prefix of its row."""
    n = state.n
    bc, bt = n - 1 - control, n - 1 - target
    hi, lo = max(bc, bt), min(bc, bt)
    # axis layout: (plane, pre, bit hi, mid, bit lo, post)
    v = state.planes.reshape(2, 1 << (n - 1 - hi), 2, (1 << hi) >> (lo + 1), 2, 1 << lo)
    # control the high bit: swap lo 0 <-> lo 1 where hi = 1; else hi 0 <-> hi 1 where lo = 1
    (ah, al), (bh, bl) = ((1, 0), (1, 1)) if bc > bt else ((0, 1), (1, 1))
    views = []
    for r, p in zip(rows, parts):
        a, b = v[:, p.start:p.stop, ah, :, al], v[:, p.start:p.stop, bh, :, bl]
        views.append((a, b, r[:a.size].reshape(a.shape)))
    return views


# Bound on the growth of a quantized gate's 2-norm, ||U_q||_2 - 1 (see
# _saturation_bound), and words per float64 chunk of _raw_norm's sum: a
# 128 KiB chunk; 2^16 words raised an n=16 run's peak RSS by about 1 MB.
_ETA = 2.0 ** -28
_NORM_CHUNK = 1 << 14


def _raw_norm(planes: np.ndarray) -> float:
    """2-norm of the raw words, within a relative 2^-38 of the exact one.

    Each chunk's sum of squares is a float64 dot product of C = 2^14 words,
    off by at most a relative C * 2^-53 (the terms are nonnegative), and
    fsum adds the chunks exactly, so no state-sized temporary is made.
    """
    flat = planes.reshape(-1)
    sums = []
    for lo in range(0, flat.size, _NORM_CHUNK):
        chunk = flat[lo:lo + _NORM_CHUNK].astype(np.float64)
        sums.append(float(np.dot(chunk, chunk)))
    return math.sqrt(math.fsum(sums))


def _saturation_bound(norm: float, gates: int, words: int) -> float:
    """B = (1+eta)^G (nu + G sqrt(M)): a bound on the modulus of every
    amplitude, in raw words, before each gate of a fixed-point run.

    nu is `norm`, the state's 2-norm in raw words before the run, raised
    by a relative 2^-20 for _raw_norm's float error; G is `gates`, the
    run's one-qubit gate count, and M is `words`, 2^(n+1).

    Proof, by induction over the gates, for a run in which no word has
    clamped yet.  A quantized gate matrix U_q has each of its 8 words
    within 2^-31 of those of U, which is unitary to float precision, so
    ||U_q - U||_2 <= ||U_q - U||_F <= sqrt(8) 2^-31 < eta = 2^-28, hence
    ||U_q||_2 <= 1 + eta and every entry |u_ij| <= 1 + eta.  Take a state
    x before a one-qubit gate and a pair (x_0, x_1) of it.  A sparse
    output word rounds one component of u_jj x_j once; a dense one adds
    two rounded components, of u_i0 x_0 and u_i1 x_1, whose exact sum is a
    component of (U_q (x_0, x_1))_i.  Each rounding moves a value by at
    most 1/2, so every product the gate narrows and every sum it writes is
    at most (1+eta) ||x|| + 1 in modulus, and the state after the gate is
    U_q x + e with every word of e at most 1: ||x'|| <= (1+eta) ||x|| +
    sqrt(M).  CX permutes words and keeps the norm.  After k one-qubit
    gates, ||x|| <= (1+eta)^k nu + sqrt(M) sum_{i<k} (1+eta)^i <= B.  So
    if (1+eta) B + 1 <= RAW_MAX, no product or sum of the run reaches a
    clamp (RAW_MIN = -RAW_MAX - 1), and rounding alone gives the same bits.
    _clamp_free asks for (1+eta) B + 2, one raw unit more, which covers
    the float rounding of B itself.  B is monotone in nu and G, and
    infinite where the power overflows.
    """
    try:
        growth = (1.0 + _ETA) ** gates
    except OverflowError:
        return math.inf
    return growth * (norm * (1.0 + 2.0 ** -20) + gates * math.sqrt(words))


def _clamp_free(planes: np.ndarray, gates: int) -> bool:
    """Whether a fixed-point run of `gates` one-qubit gates on these raw
    words provably never saturates (_saturation_bound)."""
    bound = _saturation_bound(_raw_norm(planes), gates, planes.size)
    return (1.0 + _ETA) * bound + 2.0 <= fx.RAW_MAX


def _prepare(state: StateVector, classes: list, qubits: list, words: np.ndarray, workers: int) -> tuple[list, bool]:
    """A run's plan: one _run_parts argument tuple per gate, and whether
    its fixed-point steps skip saturation (_clamp_free).

    The device loads each gate's context (pe_model.GATE_BYTES) before the
    amplitude sweep; this is the host's share of that work, done once per
    run against the state the run updates.  `classes` and `qubits` describe
    the gates; `words` holds the one-qubit gates' entries in order, as
    _words lays them out.  Kernel operands come from the words by one
    indexing per gate mode, tile views once per target and mode, CX views
    once per (control, target) pair.  Each part of a sharded gate owns one
    row of a single flat buffer: every tile shape's product, scratch and
    widened tile, and the CX temporary, are reshaped prefixes of it, so
    every gate works in the same cache-warm block, not one per tile shape.
    A fixed-point run whose norm bound proves that no word can saturate
    runs every one-qubit gate with the _CLAMP_FREE steps, any other run
    with the clamping ones: one choice for the whole run.
    """
    n = state.n
    arith = _ARITH[state.arith]
    tile, tile_parts = _tile_parts(n, workers)
    ones = {(qs[0], cls == SPARSE) for cls, qs in zip(classes, qubits) if cls != CX}
    swaps = {qs: _swap_parts(n, *qs, workers) for cls, qs in zip(classes, qubits) if cls == CX}

    # the flat buffer: one row per part, as long as the longest prefix
    per_wide = np.dtype(arith.wide).itemsize // np.dtype(arith.dtype).itemsize
    lengths = [_tile_words(arith, sparse, tile) for _, sparse in ones]
    lengths += [-(-_swap_words(n, *qs, parts) // per_wide) for qs, parts in swaps.items()]
    counts = [len(tile_parts)] * bool(ones) + [len(parts) for parts in swaps.values()]
    buf = np.empty((max(counts, default=1), max(lengths, default=0)), arith.wide)

    clamp_free = state.arith == FIXED and _clamp_free(state.planes, len(words))
    steps_arith = _CLAMP_FREE if clamp_free else arith
    kernels = {key: _tile_kernel(state, steps_arith, *key, tile, buf[:len(tile_parts)]) for key in ones}
    swappers = {qs: (parts, _swap_views(state, *qs, parts, buf.view(arith.dtype))) for qs, parts in swaps.items()}
    operands = {sparse: _operands(words, sparse, arith.wide) for sparse in {sparse for _, sparse in ones}}
    steps = []
    j = 0
    for cls, qs in zip(classes, qubits):
        if cls == CX:
            steps.append((_swap, *swappers[qs]))
        else:
            sparse = cls == SPARSE
            ur, sgn = operands[sparse]
            steps.append((_one_qubit, tile_parts, kernels[qs[0], sparse], ur[j], sgn[j]))
            j += 1
    return steps, clamp_free


def apply_1q(state: StateVector, app: GateApplication, workers: int = 1) -> StateVector:
    """In-place single-qubit update at stride 2^(n-target-1): a one-gate
    use of the plan's steps.  The pair space is cut into tiles of _TILE
    pairs, the unit of work and of sharding; _one_qubit is the kernel.
    """
    arith = _ARITH[state.arith]
    sparse = app.mode == SPARSE
    tile, parts = _tile_parts(state.n, workers)
    rows = np.empty((len(parts), _tile_words(arith, sparse, tile)), arith.wide)
    ur, sgn = _operands(np.array([*app.u00, *app.u01, *app.u10, *app.u11], arith.wide), sparse, arith.wide)
    _run_parts(_one_qubit, parts, _tile_kernel(state, arith, app.target, sparse, tile, rows), ur[0], sgn[0])
    return state


def apply_cx(state: StateVector, control: int, target: int, workers: int = 1) -> StateVector:
    """In-place CX: swap amplitude pairs with control bit 1 across the
    target bit.  A one-gate use of the plan's steps."""
    parts = _swap_parts(state.n, control, target, workers)
    rows = np.empty((len(parts), _swap_words(state.n, control, target, parts)), state.planes.dtype)
    _run_parts(_swap, parts, _swap_views(state, control, target, parts, rows))
    return state


@dataclass
class RunStats:
    sparse_gates: int = 0
    dense_gates: int = 0
    cx_gates: int = 0
    wall_time_s: float = 0.0
    clamp_free: bool = False   # a fixed run that proved no word can saturate, so none did

    @property
    def total_gates(self) -> int:
        return self.sparse_gates + self.dense_gates + self.cx_gates


def run_circuit(tc: TranspiledCircuit, state: StateVector, workers: int = 1):
    """Apply the transpiled gates in order (in place); returns (state, stats).

    The run classifies and quantizes every gate once and prepares its plan
    against the state, then executes it; the counts come from the plan.
    """
    if tc.n != state.n:
        raise ValueError(f"circuit has {tc.n} qubits, state has {state.n}")
    t0 = time.perf_counter()
    classes = [classify(g) for g in tc.gates]
    matrices = [gate_matrix(g) for g, cls in zip(tc.gates, classes) if cls != CX]
    words = _words(np.array(matrices, np.complex128).reshape(-1, 2, 2), state.arith)
    steps, clamp_free = _prepare(state, classes, [g.qubits for g in tc.gates], words, workers)
    for step in steps:
        _run_parts(*step)
    stats = RunStats(classes.count(SPARSE), classes.count(DENSE), classes.count(CX), clamp_free=clamp_free)
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

_DUMP_SLICE = 1 << 14   # amplitudes per chunk of dump text written
_DUMP_PIECE = 1 << 20   # characters of dump text split into lines at a time
_HEX_CHARS = np.frombuffer(b"0123456789abcdef", np.uint8)
_NIBBLES = np.arange(28, -4, -4, dtype=np.uint32)   # shifts of a word's hex digits, first to last
# a body line as np.loadtxt reads it; a hex field's 9th byte shows a longer one
_DUMP_LINE = np.dtype([("index", "i8"), ("re_hex", "S9"), ("im_hex", "S9"), ("re", "f8"), ("im", "f8")])
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _line_heads(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """`<index> <re_hex> <im_hex> ` of dump lines lo..hi-1, all indices of
    one width, as a str array built from UCS-4 code points."""
    width = len(str(hi - 1))
    heads = np.full((hi - lo, width + 19), ord(" "), np.uint32)
    index = np.arange(lo, hi)
    for k in range(width - 1, -1, -1):
        index, digit = np.divmod(index, 10)
        heads[:, k] = digit + ord("0")
    nibbles = _HEX_CHARS[(words[:, lo:hi, None] >> _NIBBLES) & 15]
    heads[:, width + 1:width + 9], heads[:, width + 10:width + 18] = nibbles
    return heads.view(f"U{width + 19}")[:, 0]


def format_dump(state: StateVector) -> str:
    values = state._values()
    words = fx.to_fixed_array(values).view(np.uint32)
    tail = "{}{!r} {!r}\n".format   # repr of the floats is the floor: it stays per line
    chunks = [f"n={state.n} arith={state.arith}\n"]
    size = len(state)
    # cut at every _DUMP_SLICE and every power of ten: one index width per chunk
    cuts = sorted({*range(0, size, _DUMP_SLICE), *(10 ** k for k in range(1, len(str(size - 1))))})
    for lo, hi in zip(cuts, cuts[1:] + [size]):
        chunks.append("".join(map(tail, _line_heads(words, lo, hi).tolist(),
                                  values[0, lo:hi].tolist(), values[1, lo:hi].tolist())))
    return "".join(chunks)


def _numeral(field: str, kind: type):
    """kind(field) for a plain ASCII numeral: no other digits, no underscores."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return kind(field)


def _check_lines(lines: list[str], count: int) -> None:
    """Raise ValueError naming the first body line of lines[1:] that fails
    the per-line checks; parse_dump runs them only to name an error."""
    seen = bytearray(count)
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != 5:
            raise ValueError(f"dump line {lineno}: expected 5 fields, got {len(fields)}")
        try:
            i = _numeral(fields[0], int)
            if 0 <= i < count and not seen[i]:
                seen[i] = 1
                if not all(len(h) == 8 and _HEX_DIGITS.issuperset(h) for h in fields[1:3]):
                    raise ValueError(ln)
                for v in fields[3:]:
                    _numeral(v, float)
                continue
        except ValueError:
            raise ValueError(f"dump line {lineno}: unreadable field in {ln.strip()!r}") from None
        raise ValueError(f"dump line {lineno}: index {i} out of range or repeated")


def _text_pieces(text: str):
    """The non-blank lines of text, in lists of about _DUMP_PIECE characters:
    text is cut just after a newline, so together they are text.splitlines()'s."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _DUMP_PIECE) + 1 or len(text)
        yield [ln for ln in text[lo:hi].splitlines() if ln.strip()]
        lo = hi


def _read_body(text: str, sv: StateVector) -> np.ndarray:
    """Store the body lines of a dump text in sv's planes by index, read by
    np.loadtxt one piece at a time; ValueError on a line _check_lines
    rejects or a non-finite value.  Returns the indices whose hex columns
    are not the quantized float columns."""
    count = len(sv)
    index = np.empty(count, np.int64)
    bad = []
    done = -1   # body lines read; the first non-blank line is the header
    for lines in _text_pieces(text):
        if done < 0 and lines:
            lines, done = lines[1:], 0
        if not lines:
            continue
        rec = np.loadtxt(lines, _DUMP_LINE, comments=None, ndmin=1)
        i = rec["index"]
        hexes = np.stack((rec["re_hex"], rec["im_hex"])).view(np.uint8).reshape(2, -1, 9)
        if i.min() < 0 or i.max() >= count or hexes[..., 8].any():
            raise ValueError("dump index out of range or hex field longer than 8 digits")
        # unhexlify rejects any byte but a hex digit, the zero padding of a short field too
        words = np.frombuffer(binascii.unhexlify(hexes[..., :8].tobytes()), ">i4").reshape(2, -1)
        values = np.stack((rec["re"], rec["im"]))
        bad.append(i[(fx.to_fixed_array(values) != words).any(axis=0)])
        sv.planes[:, i] = _ARITH[sv.arith].quantize(values)
        index[done:done + i.size] = i
        done += i.size
    if (np.bincount(index, minlength=count) != 1).any():
        raise ValueError("dump index repeated")
    return np.concatenate(bad)


def parse_dump(text: str) -> StateVector:
    """Inverse of format_dump; raises ValueError on a malformed dump.

    Every index in 0..2^n-1 must appear exactly once, every field must
    parse, and the hex columns must be the Q2.30 quantization of the float
    columns, the rule format_dump writes them by for both arithmetics.
    Fields are plain ASCII numerals, and hex fields exactly 8 hex digits,
    as format_dump writes them.  Lines are split a piece of the text at a
    time, never all at once, and the body is read as arrays; only a dump
    that fails is read again line by line, to name its first bad line.
    """
    head = next((lines[0] for lines in _text_pieces(text) if lines), "")
    try:
        fields = dict(part.split("=", 1) for part in head.split())
        n, arith = int(fields["n"]), fields["arith"]
    except (KeyError, ValueError):
        raise ValueError(f"dump header must be 'n=<n> arith=<fixed|float>', got {head!r}") from None
    count = sum(map(len, _text_pieces(text))) - 1
    if count.bit_length() - 1 != n or count != 1 << n:   # before allocating 2^n
        raise ValueError(f"n={n} needs 2^{n} amplitude lines, got {count}")
    sv = StateVector(n, arith)
    try:
        bad = _read_body(text, sv)
    except ValueError:
        _check_lines([ln for ln in text.splitlines() if ln.strip()], count)   # names the first bad line
        raise
    if bad.size:
        raise ValueError(f"dump index {bad.min()}: hex columns are not the quantized float columns")
    return sv
