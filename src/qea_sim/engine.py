"""State-vector execution of transpiled circuits.

Index convention is MSB-first: qubit q owns bit (n-1-q) of the amplitude
index, so a gate on qubit j pairs amplitudes at stride 2^(n-j-1).

The state is stored as two planes, shape (2, 2^n): row 0 holds the real
parts, row 1 the imaginary parts (the device's two words per amplitude).
Two arithmetic variants share this layout and the kernels:
  * "float": float64 planes, used as the accuracy reference,
  * "fixed": int32 planes of Q2.30 raw words, modelling the device.

Dense single-qubit updates are pair-atomic: both old amplitudes of a pair
are read before either new one is written.  CX performs no arithmetic: it
is deferred as a pending GF(2) index map and materialized only where a
one-qubit gate cannot run on one stored axis, and at the end, by one
quarter swap when the map is one CX and by one gather otherwise (_track).
Pairs within one gate are disjoint, so the pair space can be sharded
across workers with bit-identical results.

run_circuit prepares each plan once (_prepare), on the circuit's classes:
every gate quantized, views and kernel buffers set up, before the first update.
apply_1q and apply_cx are one-gate plans: all three run through _execute.

In fixed point zero is absorbing: a product with a zero word rounds to
exactly 0, and saturating 0 gives 0.  So a fixed run tracks classical
qubits, those on which every nonzero amplitude agrees (_track), and
sweeps only a compact state of the others' amplitudes, with the same bits
as a full sweep, by proof rather than by tolerance.  Float runs sweep
every amplitude: IEEE products of zeros keep a sign, which the dump
prints.  RunStats.swept_amps counts what a run swept and cx_passes the
passes that moved words for CX; the device model (pe_model) still sweeps
every amplitude of every gate.
"""
from __future__ import annotations

import binascii
import itertools
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
_GATE_BUDGET = _PHYS_BYTES // 120   # a transpiled Gate holds 128-134 bytes (tracemalloc, CPython 3.11)


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


@dataclass(frozen=True)
class _Arith:
    """What the shared code needs to know about one arithmetic variant."""

    dtype: type                 # storage word of a plane
    one: int | float            # storage value of 1.0
    quantize: Callable          # float64 array -> storage words
    wide: type                  # kernel intermediate
    narrow_product: Callable    # (a, b, out): out = narrowed a + b, the two terms of a product
    narrow_sum: Callable        # (a, b, out): out = narrowed a + b, two narrowed products
    zero_absorbing: bool        # every product with a zero word is the same zero: runs skip them (_execute)


# float is not zero-absorbing: IEEE products of zeros keep a sign, which the dump prints
_ARITH = {
    FIXED: _Arith(np.int32, fx.RAW_ONE, fx.to_fixed_array, np.int64, _fixed_product, _fixed_sum, True),
    FLOAT: _Arith(np.float64, 1.0, np.asarray, np.float64, np.add, np.add, False),
}
# the fixed steps of a run that _clamp_free proves cannot saturate: same bits
_CLAMP_FREE = replace(_ARITH[FIXED], narrow_product=_rounded_product, narrow_sum=partial(np.add, casting="unsafe"))


def check_fits(n: int, arith: str) -> None:
    """Raise ValueError unless an n-qubit state of this arithmetic fits in
    physical memory; callers use it to refuse work before building a state."""
    if arith not in _ARITH:
        raise ValueError(f"unknown arithmetic variant {arith!r}")
    word = np.dtype(_ARITH[arith].dtype).itemsize
    if n > (_PHYS_BYTES // (2 * word)).bit_length() - 1:   # n, not 2^n: n may be absurd
        raise ValueError(f"{n} qubits need 2^{n + 1} words of {word} bytes, "
                         f"more than the {_PHYS_BYTES} bytes of physical memory")


def check_gates(count: int) -> None:
    """Raise ValueError unless `count` gates fit in physical memory; the
    generators call it before building any gate."""
    if count > _GATE_BUDGET:
        raise ValueError(f"{count} gates are more than the {_GATE_BUDGET} that fit in "
                         f"the {_PHYS_BYTES} bytes of physical memory")


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
# 2^13 pairs, within a 2 MiB L2; they are allocated once per plan.  On a
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
    FMA, which would break bit-identity with the scalar flag-loop oracle.
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


def _swap(a, b, t, i: int, part: range) -> None:
    """CX in one pass: swap two quarters of the planes through a temporary."""
    np.copyto(t, a)
    np.copyto(a, b)
    np.copyto(b, t)


def _gather(planes, index, out, i: int, part: range) -> None:
    """A permutation of the words in one pass: both planes taken through
    the index into the plan's buffer, then copied back, so the views of
    later steps stay valid."""
    # every index is in range; "raise" would copy through a buffer, "clip" writes out directly
    np.take(planes, index, axis=1, out=out, mode="clip")
    np.copyto(planes, out)


def _gather_index(columns: tuple, offset: int) -> np.ndarray:
    """idx[s] = offset XOR the columns[k] of the set bits k of s, built by
    doubling: each column XORs the half built so far into the next."""
    idx = np.empty(1 << len(columns), np.intp)
    idx[0] = offset
    for k, column in enumerate(columns):
        np.bitwise_xor(idx[:1 << k], column, out=idx[1 << k:2 << k])
    return idx


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


def _tile_kernel(planes: np.ndarray, arith: _Arith, target: int, sparse: bool, tile: int, rows) -> tuple:
    """What _one_qubit needs for gates of one mode on one target: the planes
    viewed as tiles, and per part the arrays it uses, prefixes of its row."""
    stride = planes.shape[1] >> (target + 1)
    if stride >= tile:   # a tile is part of one block's offset range
        view = planes.reshape(2, 1 << target, 2, stride // tile, tile).transpose(1, 3, 2, 0, 4)[..., None, :]
    else:                # a tile is a group of whole blocks
        view = planes.reshape(2, -1, tile // stride, 2, stride).transpose(1, 3, 0, 2, 4)[:, None]
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


def _swap_views(planes: np.ndarray, control: int, target: int, buf: np.ndarray) -> tuple:
    """_swap's arguments: the two quarters of the planes CX swaps, where the
    control's stored bit is 1, and a temporary, a prefix of `buf`.  A
    permutation's bits do not depend on how it is cut, so it is one part."""
    n = planes.shape[1].bit_length() - 1
    bc, bt = n - 1 - control, n - 1 - target
    hi, lo = max(bc, bt), min(bc, bt)
    # axis layout: (plane, pre, bit hi, mid, bit lo, post)
    v = planes.reshape(2, 1 << (n - 1 - hi), 2, (1 << hi) >> (lo + 1), 2, 1 << lo)
    # control the high bit: swap lo 0 <-> lo 1 where hi = 1; else hi 0 <-> hi 1 where lo = 1
    (ah, al), (bh, bl) = ((1, 0), (1, 1)) if bc > bt else ((0, 1), (1, 1))
    a, b = v[:, :, ah, :, al], v[:, :, bh, :, bl]
    return a, b, buf[:a.size].reshape(a.shape)


# Words per float64 chunk of _raw_norm's sum: a 128 KiB chunk; 2^16 words
# raised an n=16 run's peak RSS by about 1 MB.
_NORM_CHUNK = 1 << 14


def _raw_norm(planes: np.ndarray) -> float:
    """2-norm of the raw words, within a relative 2^-38 of the exact one.

    Each chunk of C = 2^14 words is copied into one float64 buffer and its
    sum of squares taken by einsum, which sums in this thread, in some
    order, with no BLAS call.  Every square rounds once and every add once,
    each by a relative 2^-53, so for nonnegative terms a chunk's sum is off
    by at most a relative (C + 1) 2^-53 < 2^-38.9 in any order; fsum adds
    the chunks exactly and rounds once, and the root halves the relative
    error.  No state-sized temporary is made.
    """
    flat = planes.reshape(-1)
    chunk = np.empty(min(_NORM_CHUNK, flat.size))
    sums = []
    for lo in range(0, flat.size, _NORM_CHUNK):
        part = chunk[:min(_NORM_CHUNK, flat.size - lo)]
        np.copyto(part, flat[lo:lo + _NORM_CHUNK])
        sums.append(float(np.einsum("i,i->", part, part)))
    return math.sqrt(math.fsum(sums))


def _gate_norms(words: np.ndarray) -> np.ndarray:
    """s_g per one-qubit gate: an upper bound on the 2-norm of the matrix
    its raw words give.  With rows x = (u00, u01), y = (u10, u11), p =
    |x|^2, r = |y|^2 and q = <x, y>, the squared 2-norm, the larger
    eigenvalue of U U^H, is (p + r)/2 + hypot((p - r)/2, |q|): (F + sqrt(F^2
    - 4 |det U|^2))/2 for F = p + r, without cancellation under the root.
    Words scaled by 2^-30 are exact, each quantity sums at most four of
    their products, and the result is at least (p + r)/2, so it is within
    a relative 2^-46; raising its root by 2^-40 covers that and roundings.
    """
    w = words.reshape(-1, 8) / fx.RAW_ONE
    u = w.view(np.complex128)
    p, r = (w * w).reshape(-1, 2, 4).sum(axis=2).T
    q = np.abs(u[:, 0] * u[:, 2].conj() + u[:, 1] * u[:, 3].conj())
    return np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)) * (1.0 + 2.0 ** -40)


def _saturation_bound(norm: float, gates: int, words: int, growth: float = 1.0) -> float:
    """B = P (nu + G sqrt(M)): a bound on the state's 2-norm, so on every
    amplitude's modulus, in raw words, before each gate of a fixed run.

    nu is `norm`, the state's raw 2-norm before the run, raised by 2^-20
    relative for _raw_norm's float error; G is `gates`, the run's one-qubit
    gate count; M is `words`, 2^(n+1); P is `growth`, the product of
    max(1, s_g) over those gates (_gate_norms).

    Proof, by induction over the gates, for a run in which no word has
    clamped yet.  Take a state x before a one-qubit gate U and a pair
    (x_0, x_1) of it.  A sparse output word rounds one component of
    u_jj x_j once; a dense one adds two rounded components, of u_i0 x_0
    and u_i1 x_1, whose exact sum is a component of (U (x_0, x_1))_i.
    Every |u_ij| <= ||U||_2 <= s_g and a rounding moves a value by at most
    1/2, so every product the gate narrows and every sum it writes is at
    most s_g ||x|| + 1, and the state after it is U x + e with every word
    of e at most 1: ||x'|| <= s_g ||x|| + sqrt(M).  CX permutes words.
    After k one-qubit gates, as no partial product of the s_g exceeds P,
    ||x|| <= P nu + k P sqrt(M) <= B.  With s the largest s_g, if s B + 1
    <= RAW_MAX no product or sum of the run reaches a clamp (RAW_MIN =
    -RAW_MAX - 1), and rounding alone gives the same bits; _clamp_free asks
    for s B + 2, one raw unit more, for the float rounding of s B.  A run
    that tracks classical qubits (_execute) decides once, from the full
    state and every word; its compact steps compute, from the same
    products, the words of the full run that can be nonzero, the rest
    being exact zeros, so the bound covers them too.  Every
    gate of run_circuit is a quantized unitary, its 8 words within 2^-31
    of a unitary's (to float precision), so s_g <= 1 + sqrt(8) 2^-31 and,
    raised, < 1 + 2^-28: B <= (1 + 2^-28)^G (nu + G sqrt(M)).  B is
    monotone in nu, G and P, and infinite where G sqrt(M) overflows.
    """
    try:
        spread = gates * math.sqrt(words)
    except OverflowError:
        return math.inf
    return growth * (norm * (1.0 + 2.0 ** -20) + spread)


def _clamp_free(planes: np.ndarray, words: np.ndarray) -> bool:
    """Whether a fixed run of the gates of these words on these raw state
    words provably never saturates (_saturation_bound); one without
    one-qubit gates has no narrow step and makes no norm pass."""
    if not words.size:
        return True
    s = _gate_norms(words)
    # math.prod rounds at most G - 1 times, each by a relative 2^-53 at most,
    # and overflows to inf without raising
    growth = math.prod(np.maximum(s, 1.0).tolist()) * (1.0 + s.size * 2.0 ** -52)
    bound = _saturation_bound(_raw_norm(planes), s.size, planes.size, growth)
    return float(s.max()) * bound + 2.0 <= fx.RAW_MAX


# the plan step class of a materialized index map that is not one CX (_track)
_GATHER = "gather"


def _prepare(planes: np.ndarray, arith: _Arith, classes: list, qubits: list, words: np.ndarray,
             workers: int) -> list:
    """A plan on these (2, 2^m) planes: one _run_parts argument tuple per
    gate; `arith` gives the planes' words and the one-qubit gates' narrow
    steps (their variant's, or _CLAMP_FREE).

    The host's share of the device loading each gate's context before the
    sweep (pe_model.GATE_BYTES), once per plan against the planes it
    updates.  `classes` and `qubits` describe the steps: a gather's qubits
    are its columns and offset (_gather_index).  `words` holds the
    one-qubit gates' entries in order, as _words lays them out.  Operands
    come from the words by one indexing per mode, tile views once per
    target and mode, swap views once per (control, target).  Tiles of
    _TILE pairs are the unit of work and the only work sharded: a quarter
    swap or a gather is one part.  Every tile shape's product, scratch and
    widened tile (in a row per tile part), the swap temporary and a
    gather's copy of the planes are reshaped prefixes of one flat buffer:
    one cache-warm block.
    """
    n = planes.shape[1].bit_length() - 1
    pairs = 1 << (n - 1)
    tile = min(_TILE, pairs)
    tile_parts = _split(pairs // tile, workers)
    ones = {(qs[0], cls == SPARSE) for cls, qs in zip(classes, qubits) if cls in (SPARSE, DENSE)}

    # a row per tile part, as long as the longest kernel's product and
    # scratch of 1 or 2 terms x 2 halves x 2 planes and widened tile; a
    # quarter of both planes per swap, or both planes per gather
    widened = 4 if arith.dtype is not arith.wide else 0
    per_wide = np.dtype(arith.wide).itemsize // np.dtype(arith.dtype).itemsize
    row = max((tile * ((8 if sparse else 16) + widened) for _, sparse in ones), default=0)
    perm_words = 2 << n if _GATHER in classes else pairs if CX in classes else 0
    buf = np.empty(max(len(tile_parts) * row, -(-perm_words // per_wide)), arith.wide)

    rows = buf[:len(tile_parts) * row].reshape(len(tile_parts), row)
    kernels = {key: _tile_kernel(planes, arith, *key, tile, rows) for key in ones}
    flat = buf.view(arith.dtype)
    swaps = {qs: _swap_views(planes, *qs, flat) for cls, qs in zip(classes, qubits) if cls == CX}
    operands = {sparse: _operands(words, sparse, arith.wide) for sparse in {sparse for _, sparse in ones}}
    steps, j = [], 0
    for cls, qs in zip(classes, qubits):
        if cls == CX:
            steps.append((_swap, [range(1)], *swaps[qs]))
            continue
        if cls == _GATHER:
            steps.append((_gather, [range(1)], planes, _gather_index(*qs), flat[:2 << n].reshape(2, -1)))
            continue
        ur, sgn = operands[cls == SPARSE]
        steps.append((_one_qubit, tile_parts, kernels[qs[0], cls == SPARSE], ur[j], sgn[j]))
        j += 1
    return steps


def _classical(planes: np.ndarray) -> dict[int, int]:
    """{qubit: value} for every qubit on which all nonzero amplitudes agree:
    the bits where the bitwise OR and the bitwise AND of the nonzero indices
    agree.  One pass over the words: which index rows and which columns of
    a (2^(n - n//2), 2^(n//2)) grid hold a nonzero amplitude give the high
    and the low bits.  An all-zero state has every qubit classical (at 0);
    one whose first and last amplitudes are nonzero has none, without the
    pass.
    """
    if (planes[0, 0] or planes[1, 0]) and (planes[0, -1] or planes[1, -1]):   # all bits 0 and all bits 1 occur
        return {}
    n = planes.shape[1].bit_length() - 1
    low = n // 2
    grid = np.logical_or(planes[0], planes[1]).reshape(-1, 1 << low)
    rows, cols = np.flatnonzero(grid.any(axis=1)), np.flatnonzero(grid.any(axis=0))
    if not rows.size:
        return dict.fromkeys(range(n), 0)
    ors = int(np.bitwise_or.reduce(rows)) << low | int(np.bitwise_or.reduce(cols))
    ands = int(np.bitwise_and.reduce(rows)) << low | int(np.bitwise_and.reduce(cols))
    return {q: ors >> (n - 1 - q) & 1 for q in range(n) if not (ors ^ ands) >> (n - 1 - q) & 1}


def _track(n: int, classes: list, qubits: list, words: np.ndarray, values: dict) -> tuple[list, dict, tuple | None]:
    """The run as stretches on compact states that hold the active qubits'
    axes only, for a state whose classical qubits are `values`, with CX
    deferred.

    The walk keeps an affine map from the stored index s of the compact
    state to the logical qubits.  Per qubit q it holds a row mask r_q over
    the stored bits (compact axis i is bit m-1-i of s, for m axes) and a
    bit b_q: q's logical bit is parity(r_q & s) XOR b_q.  A classical qubit
    has r_q = 0 and value b_q.  It also holds d_q, the stored bits whose
    flip flips q alone (column q of the map's inverse).  An active qubit's
    home axis is its rank among the active qubits; the map is the identity
    when every r_q = d_q is its home bit.

    A CX(c, t) is composed, at no pass: b_t ^= b_c, and when c is active
    r_t ^= r_c and d_c ^= d_t, after activating a classical t.  A
    one-qubit gate U on an active q runs on stored axis j when r_q is the
    bit of j, and, if dense, when d_q is too (no other row holds j); its
    words are reversed when b_q = 1.  Otherwise the map is materialized
    first: one quarter swap (_swap_views) when it is one CX since the last
    materialization, else one gather (_gather_index); either leaves the
    identity and keeps b.  U on a classical qubit whose column b_q of
    words has one nonzero entry, in row r, multiplies every stored
    amplitude by it (a sparse step on any active axis) and sets b_q = r;
    any other U on a classical qubit activates it first.  Activation
    inserts the qubit's home axis with the data at stored bit 0, a zero
    bit at that place in every mask, keeping b_q.  Scales while no qubit
    is active wait for the first activation and run on its axis; a run
    that ends with none active activates qubit 0 for them.  At the end of a run
    in place (no classical qubits, so every b_q = 0) the last step
    materializes the map; a tracked run's write-back does it instead, with
    the active qubits' b absorbed.

    Returns the stretches, each as its steps' classes, their compact
    qubits (a gather's as its columns and offset), the indices in
    words.reshape(-1, 2) of the four entries of each one-qubit step (-1
    for a zero entry), and the axis position activated after it (None for
    the last); the classical values at the end; and, for a tracked run
    whose map or active b is not trivial, the write-back's gather as
    (columns, offset, whether the map is not the identity), else None.
    """
    frame = [values.get(q, 0) for q in range(n)]
    rank = {q: i for i, q in enumerate(q for q in range(n) if q not in values)}
    row, col = [0] * n, [0] * n

    def home():
        top = len(rank) - 1
        for q, i in rank.items():
            row[q] = col[q] = 1 << (top - i)

    home()
    pending, last = 0, None   # CXs composed since the map was last the identity, and the latest
    nonzero = words.reshape(-1, 4, 2).any(axis=2).tolist() if values else None
    stretches = []
    step_classes, step_qubits, picks = [], [], []

    def activate(q):
        nonlocal step_classes, step_qubits, picks, rank
        position = sum(a < q for a in rank)
        if rank:
            stretches.append((step_classes, step_qubits, picks, position))
            step_classes, step_qubits, picks = [], [], []
        else:   # the steps so far are scales waiting for an axis: they run on this one
            stretches.append(([], [], [], 0))
        k = len(rank) - position   # the new axis's stored bit
        for a in rank:
            row[a] = row[a] >> k << (k + 1) | row[a] & ((1 << k) - 1)
            col[a] = col[a] >> k << (k + 1) | col[a] & ((1 << k) - 1)
        row[q] = col[q] = 1 << k
        rank = {a: i for i, a in enumerate(sorted([*rank, q]))}

    def moved():   # whether the map is not the identity
        return pending == 1 or pending and any(row[q] != 1 << (len(rank) - 1 - i) for q, i in rank.items())

    def materialize():
        nonlocal pending
        if pending == 1:   # its swap; composing the CX again restores the identity
            c, t = last
            step_classes.append(CX)
            step_qubits.append((rank[c], rank[t]))
            row[t] ^= row[c]
            col[c] ^= col[t]
        elif pending:
            if moved():
                step_classes.append(_GATHER)
                step_qubits.append((tuple(col[q] for q in reversed(rank)), 0))
            home()
        pending = 0

    j = -1
    for cls, qs in zip(classes, qubits):
        if cls == CX:
            c, t = qs
            if c in rank:
                if t not in rank:
                    activate(t)
                row[t] ^= row[c]
                col[c] ^= col[t]
                pending, last = pending + 1, qs
            frame[t] ^= frame[c]
            continue
        j += 1
        (q,) = qs
        f = frame[q]
        if q not in rank:
            upper, lower = nonzero[j][f], nonzero[j][2 + f]
            if upper != lower:   # column f has one nonzero entry, in row r
                r = int(lower)
                entry = 4 * j + 2 * r + f
                step_classes.append(SPARSE)
                step_qubits.append((0,))
                picks += entry, -1, -1, entry
                frame[q] = r
                continue
            activate(q)
        elif pending and (row[q] & (row[q] - 1) or cls != SPARSE and col[q] != row[q]):
            materialize()
        step_classes.append(cls)
        step_qubits.append((len(rank) - row[q].bit_length() if pending else rank[q],))   # the home axis at the identity
        picks += (4 * j + 3, 4 * j + 2, 4 * j + 1, 4 * j) if f else (4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3)
    if not values:   # in place: the plan's last step materializes the map
        materialize()
        stretches.append((step_classes, step_qubits, picks, None))
        return stretches, {}, None
    if step_classes and not rank:
        activate(0)
    stretches.append((step_classes, step_qubits, picks, None))
    offset = 0
    for q in rank:
        if frame[q]:
            offset ^= col[q]
    end = {q: frame[q] for q in range(n) if q not in rank}
    permuted = moved()
    return stretches, end, (tuple(col[q] for q in reversed(rank)), offset, permuted) if offset or permuted else None


def _frame_view(planes: np.ndarray, values: dict) -> np.ndarray:
    """The amplitudes a compact state holds, as a view of the full planes
    with one axis per qubit not in `values`, each qubit in `values` indexed
    at its value."""
    axes = tuple(values.get(q, slice(None)) for q in range(planes.shape[1].bit_length() - 1))
    return planes.reshape((2,) + (2,) * len(axes))[(slice(None),) + axes]


def _execute(state: StateVector, classes: list, qubits: list, words: np.ndarray,
             workers: int) -> tuple[bool, int, int]:
    """Run the gates on the state in place; returns the run's clamp_free,
    the amplitudes its steps swept and its CX passes (quarter swaps and
    gathers).

    Clamp-freedom is one decision per run (_clamp_free), from the full
    state and every word: a clamp-free run's plans take the _CLAMP_FREE
    steps.  In a zero-absorbing arithmetic the run tracks classical qubits
    (_classical, _track): it gathers the amplitudes that can be nonzero
    into compact planes, runs each stretch between two activations as one
    _prepare plan on them, and copies them back into the full planes at
    the classical values, zeroing the rest.  A state without classical
    qubits runs one plan in place, as does every float run.  Either way CX
    is deferred as an index map (_track); what is left of it at the end is
    materialized by the write-back's gather or by the in-place plan's last
    step.
    """
    arith = _ARITH[state.arith]
    clamp_free = state.arith == FIXED and _clamp_free(state.planes, words)
    values = _classical(state.planes) if arith.zero_absorbing else {}
    stretches, end, last = _track(state.n, classes, qubits, words, values)
    planes = np.array(_frame_view(state.planes, values)).reshape(2, -1) if values else state.planes
    steps_arith = _CLAMP_FREE if clamp_free else arith
    # the words' entries and a zero one; without classical qubits every step is its gate, words and all
    entries = np.concatenate((words.reshape(-1, 2), np.zeros((1, 2), words.dtype))) if values else None
    swept = passes = 0
    for step_classes, step_qubits, picks, position in stretches:
        if step_classes:
            step_words = entries[picks].reshape(-1, 4, 2) if values else words
            plan = _prepare(planes, steps_arith, step_classes, step_qubits, step_words, workers)
            for step in plan:
                _run_parts(*step)
            swept += len(plan) * planes.shape[1]
            passes += step_classes.count(CX) + step_classes.count(_GATHER)
        if position is not None:
            wider = np.zeros((2, 2 * planes.shape[1]), planes.dtype)
            wider.reshape(2, 1 << position, 2, -1)[:, :, 0] = planes.reshape(2, 1 << position, -1)
            planes = wider
    if values:
        if end:
            state.planes[:] = 0
        view = _frame_view(state.planes, end)
        if last is None:
            view[...] = planes.reshape(view.shape)
        else:   # the map materialized by the write-back; it counts as a pass when it holds CXs
            columns, offset, moved = last
            np.take(planes, _gather_index(columns, offset).reshape(view.shape[1:]), axis=1, out=view, mode="clip")
            swept += moved * planes.shape[1]
            passes += moved
    return clamp_free, swept, passes


def apply_1q(state: StateVector, app: GateApplication, workers: int = 1) -> StateVector:
    """In-place single-qubit update at stride 2^(n-target-1), a one-gate
    plan (_execute).  On a fixed-point state every entry must be a pair of
    raw Q2.30 integer words of modulus at most 2 (re^2 + im^2 <= 2^62), so
    each sum of the kernel's 64-bit cross terms stays within 2^62.5;
    ValueError otherwise."""
    if not 0 <= app.target < state.n:
        raise ValueError(f"qubit {app.target} out of range for n={state.n}")
    entries = (app.u00, app.u01, app.u10, app.u11)
    if state.arith == FIXED:
        raw = all(isinstance(v, (int, np.integer)) and fx.RAW_MIN <= v <= fx.RAW_MAX for u in entries for v in u)
        if not raw or max(int(re) ** 2 + int(im) ** 2 for re, im in entries) > 1 << 62:
            raise ValueError(f"fixed-point gate entries must be raw Q2.30 words of modulus at most 2, got {entries}")
    _execute(state, [app.mode], [(app.target,)], np.array(entries, _ARITH[state.arith].wide), workers)
    return state


def apply_cx(state: StateVector, control: int, target: int, workers: int = 1) -> StateVector:
    """In-place CX: swap amplitude pairs with control bit 1 across the
    target bit.  A one-gate plan (_execute), which has no words."""
    for q in (control, target):
        if not 0 <= q < state.n:
            raise ValueError(f"qubit {q} out of range for n={state.n}")
    if control == target:
        raise ValueError("control and target must differ")
    _execute(state, [CX], [(control, target)], np.empty(0, state.planes.dtype), workers)
    return state


@dataclass
class RunStats:
    sparse_gates: int = 0
    dense_gates: int = 0
    cx_gates: int = 0
    wall_time_s: float = 0.0
    clamp_free: bool = False   # a fixed run that proved no word can saturate, so none did
    swept_amps: int = 0        # amplitudes of the state each executed step ran on, summed over the steps
    cx_passes: int = 0         # permutation passes (quarter swaps and gathers) that carried out the CXs

    @property
    def total_gates(self) -> int:
        return self.sparse_gates + self.dense_gates + self.cx_gates


def run_circuit(tc: TranspiledCircuit, state: StateVector, workers: int = 1):
    """Apply the transpiled gates in order (in place); returns (state, stats).

    The run quantizes every gate once and prepares its plan against the
    state, then executes it; the counts come from the circuit's classes.
    """
    if tc.n != state.n:
        raise ValueError(f"circuit has {tc.n} qubits, state has {state.n}")
    t0 = time.perf_counter()
    matrices = [gate_matrix(g) for g, cls in zip(tc.gates, tc.classes) if cls != CX]
    words = _words(np.array(matrices, np.complex128).reshape(-1, 2, 2), state.arith)
    clamp_free, swept, passes = _execute(state, tc.classes, [g.qubits for g in tc.gates], words, workers)
    counts = tc.classes.count(SPARSE), tc.classes.count(DENSE), tc.classes.count(CX)
    return state, RunStats(*counts, time.perf_counter() - t0, clamp_free, swept, passes)


def reference_run(tc: TranspiledCircuit, state: StateVector, workers: int = 1) -> StateVector:
    """Double-precision run used as the accuracy reference.

    Same contract as run_circuit; the input state's values are copied into
    float planes (exact for both variants), never mutated.
    """
    out = StateVector(state.n, FLOAT)
    out.planes[:] = state._values()
    return run_circuit(tc, out, workers)[0]


# ---------------------------------------------------------------------------
# State dump: header `n=<n> arith=<variant>`, then one line per amplitude:
#   <index> <re_hex> <im_hex> <re_float> <im_float>
# Hex columns are the Q2.30 storage words (quantized for the float variant).
# ---------------------------------------------------------------------------

_DUMP_SLICE = 1 << 10   # amplitudes per chunk of dump text written, and floats per block of reprs
_DUMP_PIECE = 1 << 20   # characters of dump text split into lines at a time
_HEX_CHARS = np.frombuffer(b"0123456789abcdef", np.uint8)
_NIBBLES = np.arange(28, -4, -4, dtype=np.uint32)   # shifts of a word's hex digits, first to last
# a body line as np.loadtxt reads it; a hex field's 9th byte shows a longer one
_DUMP_LINE = np.dtype([("index", "i8"), ("re_hex", "S9"), ("im_hex", "S9"), ("re", "f8"), ("im", "f8")])
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_SIGNS = np.array([b"", b"-"], dtype=object)   # a float field's prefix, by sign bit
_REPR = "S23"   # the longest repr of a non-negative finite float: 2.2250738585072014e-308


def _line_heads(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """`<index> <re_hex> <im_hex> ` of dump lines lo..hi-1, all indices of
    one width, as a bytes array built from ASCII codes."""
    width = len(str(hi - 1))
    heads = np.full((hi - lo, width + 19), ord(" "), np.uint8)
    index = np.arange(lo, hi)
    for k in range(width - 1, -1, -1):
        index, digit = np.divmod(index, 10)
        heads[:, k] = digit + ord("0")
    # the nibbles narrowed to uint8: a lookup through them is cheaper than through uint32 words
    nibbles = np.take(_HEX_CHARS, (words[:, lo:hi, None] >> _NIBBLES).astype(np.uint8) & 15)
    heads[:, width + 1:width + 9], heads[:, width + 10:width + 18] = nibbles
    return heads.view(f"S{width + 19}")[:, 0]


def format_dump(state: StateVector) -> str:
    """The dump text of a state.  Each distinct float magnitude is repr'd
    once; a float field is its magnitude's repr behind a "-" where the sign
    bit is set, which is repr of the signed value for every finite float,
    -0.0 included (non-finite values never get here: quantizing refuses them).

    The reprs are kept as one bytes array, not as str objects, whose ~50
    bytes of header each would make the table of a state with all
    magnitudes distinct twice the size of its text."""
    values = state._values()
    # fixed planes are their own Q2.30 words; float planes are quantized
    words = (state.planes if state.arith == FIXED else fx.to_fixed_array(values)).view(np.uint32)
    # abs clears the sign bit, so equal magnitudes are equal bits: 0.0 and -0.0 share one
    magnitudes, inverse = np.unique(np.abs(values), return_inverse=True)
    reprs = np.empty(magnitudes.size, _REPR)
    for lo in range(0, magnitudes.size, _DUMP_SLICE):
        reprs[lo:lo + _DUMP_SLICE] = list(map(repr, magnitudes[lo:lo + _DUMP_SLICE].tolist()))
    inverse = inverse.astype(np.int32).reshape(values.shape)
    negative = np.signbit(values).view(np.uint8)   # 0/1 indices into _SIGNS, not a mask
    del values, magnitudes
    chunks = [f"n={state.n} arith={state.arith}\n"]
    size = len(state)
    # cut at every _DUMP_SLICE and every power of ten: one index width per chunk
    cuts = sorted({*range(0, size, _DUMP_SLICE), *(10 ** k for k in range(1, len(str(size - 1))))})
    for lo, hi in zip(cuts, cuts[1:] + [size]):
        # a line is 7 parts: head, sign, repr, " ", sign, repr, "\n"
        parts = [b" "] * (7 * (hi - lo))
        parts[0::7] = _line_heads(words, lo, hi).tolist()
        parts[1::7], parts[4::7] = _SIGNS[negative[:, lo:hi]].tolist()
        parts[2::7], parts[5::7] = reprs[inverse[:, lo:hi]].tolist()
        parts[6::7] = [b"\n"] * (hi - lo)
        chunks.append(b"".join(parts).decode("ascii"))
    del words, reprs, inverse, negative, parts
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
    """The lines of text, blank ones included, in lists of about _DUMP_PIECE
    characters: text is cut just after a newline, so together they are
    text.splitlines()'s."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _DUMP_PIECE) + 1 or len(text)
        yield text[lo:hi].splitlines()
        lo = hi


def _header(pieces) -> tuple[str, list[str]]:
    """The first non-blank line of pieces, and the rest of its piece."""
    for lines in pieces:
        for k, ln in enumerate(lines):
            if ln.strip():
                return ln, lines[k + 1:]
    return "", []


def _read_body(pieces, sv: StateVector) -> np.ndarray:
    """Store the body lines in sv's planes by index, read by np.loadtxt one
    piece at a time (it skips blank lines); ValueError unless there are 2^n
    of them, each index once, or on a line _check_lines rejects or a
    non-finite value.  Returns the indices whose hex columns are not the
    quantized float columns."""
    count = len(sv)
    index = np.empty(count, np.int64)
    bad = []
    done = 0   # body lines read
    for lines in pieces:
        if not any(map(str.strip, lines)):   # loadtxt warns on a piece with no data
            continue
        rec = np.loadtxt(lines, _DUMP_LINE, comments=None, ndmin=1)
        i = rec["index"]
        hexes = np.stack((rec["re_hex"], rec["im_hex"])).view(np.uint8).reshape(2, -1, 9)
        if done + i.size > count or i.min() < 0 or i.max() >= count or hexes[..., 8].any():
            raise ValueError("dump has too many lines, an index out of range or a hex field longer than 8 digits")
        # unhexlify rejects any byte but a hex digit, the zero padding of a short field too
        words = np.frombuffer(binascii.unhexlify(hexes[..., :8].tobytes()), ">i4").reshape(2, -1)
        values = np.stack((rec["re"], rec["im"]))
        bad.append(i[(fx.to_fixed_array(values) != words).any(axis=0)])
        sv.planes[:, i] = _ARITH[sv.arith].quantize(values)
        index[done:done + i.size] = i
        done += i.size
    if done != count or (np.bincount(index, minlength=count) != 1).any():
        raise ValueError("dump index missing or repeated")
    return np.concatenate(bad)


def _refuse(text: str, n: int, arith: str) -> None:
    """The checks of a dump that failed to read, in order, as separate
    passes over its lines: raise ValueError naming the first that fails."""
    count = sum(1 for lines in _text_pieces(text) for ln in lines if ln.strip()) - 1
    if count.bit_length() - 1 != n or count != 1 << n:   # n may be absurd: 1 << n comes last
        raise ValueError(f"n={n} needs 2^{n} amplitude lines, got {count}")
    StateVector(n, arith)   # its own refusals: n < 1, an unknown arithmetic, too large
    _check_lines([ln for ln in text.splitlines() if ln.strip()], count)   # names the first bad line


def parse_dump(text: str) -> StateVector:
    """Inverse of format_dump; raises ValueError on a malformed dump.

    Every index in 0..2^n-1 must appear exactly once, every field must
    parse, and the hex columns must be the Q2.30 quantization of the float
    columns, the rule format_dump writes them by for both arithmetics.
    Fields are plain ASCII numerals, and hex fields exactly 8 hex digits,
    as format_dump writes them.  The text is split into lines once, a piece
    at a time, and the header, the line count and the body are read from
    that pass, the body as arrays; only a dump that fails is read again,
    check by check, to name its first failure.
    """
    pieces = _text_pieces(text)
    head, rest = _header(pieces)
    try:
        fields = dict(part.split("=", 1) for part in head.split())
        n, arith = _numeral(fields["n"], int), fields["arith"]
    except (KeyError, ValueError):
        raise ValueError(f"dump header must be 'n=<n> arith=<fixed|float>', got {head!r}") from None
    try:
        # 2^n + 1 non-blank lines and the breaks between them take more than
        # 2^(n+1) characters: refuse what cannot fit before allocating 2^n
        if not 0 <= n < (len(text) // 2).bit_length():
            raise ValueError("dump too short for its n")
        sv = StateVector(n, arith)
        bad = _read_body(itertools.chain([rest], pieces), sv)
    except ValueError:
        _refuse(text, n, arith)
        raise
    if bad.size:
        raise ValueError(f"dump index {bad.min()}: hex columns are not the quantized float columns")
    return sv
