"""State-vector execution of transpiled circuits.

Index convention is MSB-first: qubit q owns bit (n-1-q) of the amplitude
index, so a gate on qubit j pairs amplitudes at stride 2^(n-j-1).

The state is stored as two planes, shape (2, 2^n): row 0 holds the real
parts, row 1 the imaginary parts (the device's two words per amplitude).
Two arithmetic variants share this layout and the kernels:
  * "float": float64 planes, used as the accuracy reference,
  * "fixed": int32 planes of Q2.30 raw words, modelling the device.

Dense single-qubit updates are pair-atomic: both old amplitudes of a pair
are read before either new one is written.  A dense step whose entries are
each real or imaginary, same-plane or swapped-plane by the diagonal alone
(H, Rx, Ry), takes a one-term kernel form in fixed runs and in
reference_run: one product per input half, without the cross term that
multiplies by an exact zero.  Fixed bits are the same (x*0 = 0, round(a +
0) = round(a)); an in-place float run (run_circuit, apply_1q) keeps both
terms, whose signs of zero its dump prints (_one_qubit).  CX performs no
arithmetic: it is deferred as a pending GF(2) index map and materialized
only where a one-qubit gate cannot run on one stored axis, and at the end,
by one quarter swap when the map is one CX and by one gather otherwise
(_track).
Pairs within one gate are disjoint, so the pair space can be sharded
across workers with bit-identical results.

A run is one plan prepared once (_prepare), on the circuit's classes:
each distinct gate quantized once, views and buffers set up, before the
first update.  apply_1q and apply_cx are one-gate plans, through _execute.

In fixed point zero is absorbing: a product with a zero word rounds to
exactly 0, and saturating 0 gives 0.  So a fixed run tracks classical
qubits, those on which every nonzero amplitude agrees (_track), and
sweeps only a compact state of the others' amplitudes, with the same bits
as a full sweep, by proof rather than by tolerance; an activated qubit
becomes the compact state's top stored bit, so activation moves no data.
A float run_circuit sweeps every amplitude: IEEE products of zeros keep a
sign, which the dump prints.  reference_run, whose state is read for its
values only, tracks classical qubits like a fixed run: its values equal
the float run_circuit's for finite input, and only the signs of its zero
words are unspecified (the proof follows _saturation_bound).
RunStats.swept_amps counts what a run swept and cx_passes the passes that
moved words for CX; the device model (pe_model) still sweeps every
amplitude of every gate.
"""
from __future__ import annotations

import binascii
import contextlib
import itertools
import math
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import fixedpoint as fx
from .circuit import (CX, DENSE, SPARSE, Gate, TranspiledCircuit, classify, gate_entries, gate_matrix,
                      parse_float, parse_int)

FIXED = "fixed"
FLOAT = "float"

WORKER_ENV = "QEA_SIM_THREADS"

_PHYS_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
_GATE_BUDGET = _PHYS_BYTES // 120   # a transpiled Gate holds 128-134 bytes (tracemalloc, CPython 3.11)
_RAW_RANGE = np.int64(fx.RAW_MIN), np.int64(fx.RAW_MAX)   # for .clip, which then skips np.clip's dispatch and int checks


def max_workers() -> int:
    """Worker-count cap from the environment: 1 when it is unset or empty,
    else its value, which must be a positive integer read by parse_int
    (ValueError otherwise)."""
    text = os.environ.get(WORKER_ENV, "") or "1"
    with contextlib.suppress(ValueError):
        if (count := parse_int(text)) >= 1:
            return count
    raise ValueError(f"{WORKER_ENV} must be a positive integer, got {text!r}")


def _fixed_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # saturating the rounded word, still whole in the 64-bit scratch b, is the contract's
    # one rounding then saturation, saturate(round_q60(a + b)), as fx.cmul computes it
    return _rounded_product(a, b, b).clip(*_RAW_RANGE, out=out, casting="unsafe")


def _fixed_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.add(a, b, out=a).clip(*_RAW_RANGE, out=out, casting="unsafe")


def _rounded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # _fixed_product without saturation: b holds the carry, out may be int32 state words
    return fx.round_q60_array(np.add(a, b, out=a), out, b)


def _rounded_term(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a one-term product's words, rounded into the scratch b
    return fx.round_q60_array(a, b, b)


def _fixed_term(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _rounded_term(a, b).clip(*_RAW_RANGE, out=b)


def _exact_term(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a


@dataclass(frozen=True)
class _Arith:
    """What the shared code needs to know about one arithmetic variant."""

    dtype: type                 # storage word of a plane
    one: int | float            # storage value of 1.0
    quantize: Callable          # float64 array -> storage words
    wide: type                  # kernel intermediate
    narrow_product: Callable    # (a, b, out): out = narrowed a + b, the two terms of a product
    narrow_term: Callable       # (a, b): narrowed a, the one term of a product, in a or the scratch b
    narrow_sum: Callable        # (a, b, out): out = narrowed a + b, two narrowed products


_ARITH = {
    FIXED: _Arith(np.int32, fx.RAW_ONE, fx.to_fixed_array, np.int64, _fixed_product, _fixed_term, _fixed_sum),
    FLOAT: _Arith(np.float64, 1.0, np.asarray, np.float64, np.add, _exact_term, np.add),
}
# the fixed steps of a run that _clamp_free proves cannot saturate: same bits
_CLAMP_FREE = replace(_ARITH[FIXED], narrow_product=_rounded_product, narrow_term=_rounded_term,
                      narrow_sum=partial(np.add, casting="unsafe"))


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

# At most this many parts per step, and threads in the one pool: 32, the cap
# concurrent.futures puts on its default pool size.  It bounds a plan's
# buffer rows, one per part, and the threads, whatever the worker count.  A
# constant, not the CPU count, so a worker count cuts a step the same way on
# every host.
_MAX_PARTS = 32
# the one pool of the process; it starts no thread until a step runs on more than one part
_pool = ThreadPoolExecutor(max_workers=_MAX_PARTS, thread_name_prefix="qea-sim")


def _split(total: int, workers: int) -> list[range]:
    """range(total) cut into at most min(workers, _MAX_PARTS) contiguous parts."""
    step = -(-total // min(workers, total, _MAX_PARTS))
    if step == total:   # one part, the common case, without a comprehension's cost
        return [range(total)]
    return [range(i, min(i + step, total)) for i in range(0, total, step)]


def _run_parts(fn, parts: list[range], *args) -> None:
    """Run fn(*args, i, parts[i]) for every part i: one part inline, more
    on the pool shared by all runs."""
    if len(parts) == 1:
        fn(*args, 0, parts[0])
        return
    # reading every result re-raises a part's error
    for _ in _pool.map(partial(fn, *args), range(len(parts)), parts):
        pass


def _one_qubit(tiles, form: int, fa, fb, i: int, part: range) -> None:
    """The pair kernel of one single-qubit step over one part of its tiles.

    A fixed-point tile is first copied, widened to int64, into the part's
    buffer.  Two multiplies, by the step's operands fa and fb, put every
    product of a tile in the part's buffers before any output is written,
    together covering both planes and both halves; the narrow steps then
    run in place on the buffers, and the last one writes the tile's outputs.
    In the two-term form (form 0) they are the real cross terms of each
    complex product, u*x = ur*x + (-ui, +ui)*x[::-1] per half, and the
    narrow step acts on their sum.  A dense step whose entries u_ij are
    each real or imaginary, same-plane or swapped-plane by d = i XOR j
    alone, takes a one-term form 1 + 2 s_0 + s_1 (_operands): output half
    i gets one product per input half, c_d * view_d(x), where view_d reads
    the other half when d = 1 and the other plane when s_d = 1, and the
    narrow step acts on that product alone.
    Complex arithmetic stays in separately rounded real ufuncs, which never
    fuse a multiply and an add: numpy's complex multiply may contract with
    FMA, which would break bit-identity with the scalar flag-loop oracle.
    (-ui)*xi is exactly -(ui*xi) and a + (-b) is exactly a - b in IEEE-754,
    so the two-term float kernel computes ur*xr - ui*xi, ur*xi + ui*xr bit
    for bit.
    """
    view, cols, sparse, (ia, ib), product, term, total, bufs = tiles
    src, xa, xb, oa, ob, prod, tmp = bufs[i]
    for k in part:
        x = view[divmod(k, cols)]   # (half, plane, blocks and offsets) of the state
        if src is None:   # float words are multiplied where they lie
            xa, xb = x[ia], x[ib]
        else:             # int32 words widen faster in one copy than inside each multiply
            np.copyto(src, x)
        np.multiply(xa, fa, out=oa)
        np.multiply(xb, fb, out=ob)
        if sparse:   # an output half reads only its own input half
            product(prod, tmp, out=x)
        else:        # one SU op per output amplitude
            p = term(prod, tmp) if form else product(prod, tmp, out=tmp)
            total(p[0], p[1], out=x)


def _swap(a, b, t, i: int, part: range) -> None:
    """CX in one pass: swap two quarters of the planes through a temporary."""
    np.copyto(t, a)
    np.copyto(a, b)
    np.copyto(b, t)


def _gather(planes, bits, out, i: int, part: range) -> None:
    """A permutation of the words in one pass: both planes taken through
    the index of bits, _gather_index's columns and offset, into the plan's
    buffer, then copied back, so the views of later steps stay valid.  The
    index is built here, so a plan holds none of its gathers' indices."""
    # every index is in range; "raise" would copy through a buffer, "clip" writes out directly
    np.take(planes, _gather_index(*bits), axis=1, out=out, mode="clip")
    np.copyto(planes, out)


def _gather_index(columns: tuple, offset: int) -> np.ndarray:
    """idx[s] = offset XOR the columns[k] of the set bits k of s, built by
    doubling: each column XORs the half built so far into the next."""
    idx = np.empty(1 << len(columns), np.intp)
    idx[0] = offset
    for k, column in enumerate(columns):
        np.bitwise_xor(idx[:1 << k], column, out=idx[1 << k:2 << k])
    return idx


# The inputs of a step's two multiplies by mode and form, as indices into
# its tile (half, plane, ...).  The two-term form takes x and x with its
# planes swapped, each against every output half (dense) or its own
# (sparse).  A one-term form 1 + 2 s_0 + s_1 takes view_0 and view_1, by
# (output half b, plane p) view_d[b, p] = x[b ^ d, p ^ s_d].
_ALL, _REV = slice(None), slice(None, None, -1)
_INPUTS = {True: [((), (_ALL, _REV))],
           False: [((_ALL, None), (_ALL, None, _REV))]
                  + [((_ALL, _REV) if s0 else (), (_REV, _REV) if s1 else (_REV,)) for s0 in (0, 1) for s1 in (0, 1)]}

# A gate's kernel operands as columns of its words flattened to u00 u01 u10
# u11 as (re, im), and their signs.  Two-term: by (input half, output
# half), ur, the real part of each entry, and sgn, (-im, +im).  A sparse
# gate takes u00 and u11 only.  One-term, a dense gate's real and signed
# imaginary words by (d, output half, plane), entry u_{b, b ^ d}: their sum
# is c, (ur, ur) for a real entry and (-ui, +ui) for an imaginary one.
_COLUMNS = {False: (np.array([0, 4, 2, 6] + [1, 1, 5, 5, 3, 3, 7, 7]
                             + [0, 0, 6, 6, 2, 2, 4, 4] + [1, 1, 7, 7, 3, 3, 5, 5]),
                    np.array([1] * 4 + [-1, 1] * 4 + [1] * 8 + [-1, 1] * 4)),
            True: (np.array([0, 6, 1, 1, 7, 7]), np.array([1, 1, -1, 1, -1, 1]))}


def _one_term_form(zero: int) -> int:
    """The form of a dense step whose zero words are the set bits of
    `zero`, u00 u01 u10 u11 as (re, im) from bit 0: two-term unless at each
    d both entries are real or both imaginary (zero is both), else one-term
    with s_d set where they are not real."""
    def both(a, b):
        return zero >> a & zero >> b & 1
    real, imag = (both(1, 7), both(3, 5)), (both(0, 6), both(2, 4))   # by d
    if not all(r or i for r, i in zip(real, imag)):
        return 0
    return 1 + 2 * (not real[0]) + (not real[1])


_FORMS = np.array([_one_term_form(zero) for zero in range(256)])
_WORD_BITS = 1 << np.arange(8)


def _operands(words: np.ndarray, sparse: bool, wide: type, one_term: bool) -> tuple:
    """Every step's form and kernel operands by one indexing of its picked
    words (steps, 4, 2): the forms, a list, and the operands (fa, fb) of
    the two-term form, (ur, sgn), and of the one-term ones, (c_0, c_1)
    (None for sparse steps).  Steps take one-term forms where `one_term`
    allows them."""
    flat = words.reshape(-1, 8).astype(wide, copy=False)
    columns, signs = _COLUMNS[sparse]
    t = flat.take(columns, axis=1) * signs   # x * -1 is exactly -x, signed zeros included
    if sparse:
        return [0] * len(t), (t[:, :2].reshape(-1, 2, 1, 1, 1), t[:, 2:].reshape(-1, 2, 2, 1, 1)), None
    forms = _FORMS[(flat == 0) @ _WORD_BITS].tolist() if one_term else [0] * len(t)
    c = (t[:, 12:20] + t[:, 20:]).reshape(-1, 2, 2, 2, 1, 1)   # (d, half, plane)
    return forms, (t[:, :4].reshape(-1, 2, 2, 1, 1, 1), t[:, 4:12].reshape(-1, 2, 2, 2, 1, 1)), (c[:, 0], c[:, 1])


def _tile_kernel(planes: np.ndarray, arith: _Arith, target: int, sparse: bool, tile: int, form: int,
                 rows) -> tuple:
    """What _one_qubit needs for steps of one mode and form on one target:
    the planes viewed as tiles, the form's multiply inputs as indices into a
    tile, and per part the arrays it uses, prefixes of its row.
    One reshape makes a tile `blocks` blocks of `offsets` offsets: part of
    one block's offsets when the stride is at least a tile, else whole
    blocks."""
    stride = planes.shape[1] >> (target + 1)
    blocks, offsets = max(1, tile // stride), min(tile, stride)
    # (group, chunk, half, plane, block, offset)
    view = planes.reshape(2, -1, blocks, 2, stride // offsets, offsets).transpose(1, 4, 3, 0, 2, 5)
    # offsets innermost, unless a block holds so few that a strided walk over
    # the blocks is cheaper than numpy's inner loops of length stride.  Both
    # walks timed in turn in one warm process on a 2-vCPU Xeon (n=6-16),
    # blocks-innermost over offsets-innermost: 0.30-1.02 at stride 2 and
    # 0.53-1.05 at stride 4, lowest at n=10-12; 0.62-1.21 at stride 8, slower
    # at n=16; 0.9-2.4 from stride 16.  At stride 1 the two walks are one.
    if blocks > 1 and stride <= 4:
        view = view.swapaxes(4, 5)
    # view[divmod(k, chunks)] is tile k: (half, plane) + inner
    inner = view.shape[4:]
    shape = ((2, 2) if sparse else (2, 2, 2)) + inner
    size = (4 if sparse else 8) * tile
    inputs = _INPUTS[sparse][form]
    bufs = []
    for r in rows:
        prod, tmp = r[:2 * size].reshape((2,) + shape)
        src = xa = xb = None   # a float tile's inputs are taken per tile
        if arith.dtype is not arith.wide:
            src = r[2 * size:2 * size + 4 * tile].reshape((2, 2) + inner)
            xa, xb = src[inputs[0]], src[inputs[1]]
        # the multiplies' outputs: a one-term form's are prod's halves
        bufs.append((src, xa, xb, *(prod if form else (prod, tmp)), prod, tmp))
    return view, view.shape[1], sparse, inputs, arith.narrow_product, arith.narrow_term, arith.narrow_sum, bufs


def _swap_views(planes: np.ndarray, bc: int, bt: int, buf: np.ndarray) -> tuple:
    """_swap's arguments: the two quarters of the planes CX swaps, where the
    control's stored bit bc is 1, across the target's bt, and a temporary,
    a prefix of `buf`.  A permutation's bits do not depend on how it is
    cut, so it is one part."""
    n = planes.shape[1].bit_length() - 1
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


# Why a tracked float run (reference_run) has the values of the in-place
# float run_circuit.  IEEE-754 addition and multiplication round the exact
# result of their operands' values, and +0 and -0 have the same value, so
# on words equal in value they give results equal in value; only the sign
# of a zero result can differ.  By induction over the gates, every word
# the tracked run keeps equals the full run's in value, and every word it
# leaves out (where a classical qubit is not at its value) is ±0 in the
# full run.  CX permutes words in both.  A one-qubit step computes, for
# every amplitude that can be nonzero, the full run's products of the same
# gate words and adds them in the same way, at most with a sum's two terms
# swapped (b_q = 1) or its input halves' products in the other order (a
# one-term step), which IEEE addition allows.  The terms it drops have a
# zero factor, a left-out word or a zero gate word (a scale step's other
# row, its picked form's zeros, and a one-term step's cross term with the
# zero real or imaginary word of each entry, whose c adds ±0 to the other
# word); with the other factor finite such a term is ±0, and x + (±0) = x
# in value.  So values are equal and nonzero words bit-identical, and
# fidelity, mse and norm_error, which square or subtract the words first,
# give the same bits.  The proof needs
# finite words, as 0 * inf is NaN: reference_run refuses non-finite input,
# and a run that overflows to inf, from amplitudes near the float64
# maximum, is outside it.


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
# a one-qubit step's entries by its pick's form (_track), as offsets into its gate's u00 u01
# u10 u11, -1 for zero: the gate, or it with rows and columns swapped (b_q = 1), or a scale
_PICKS = np.array([[0, 1, 2, 3], [3, 2, 1, 0]] * 2 + [[e, -1, -1, e] for e in range(4)])


def _prepare(planes: np.ndarray, arith: _Arith, steps: list, words: np.ndarray, workers: int,
             one_term: bool) -> list:
    """A plan on these (2, 2^M) planes: one _run_parts argument tuple per
    step; `arith` gives the planes' words and the one-qubit steps' narrow
    steps (their variant's, or _CLAMP_FREE), and `one_term` whether dense
    steps may take one-term forms (_one_qubit).

    The host's share of the device loading each gate's context before the
    sweep (pe_model.GATE_BYTES), once per run.  The steps are _track's
    records, transposed once here; one on m axes runs on the first 2^m
    words of each plane, a shorter range of tiles, or one smaller tile.
    Forms and operands come from the picked entries of `words` (as _words
    lays them out) by one indexing per mode, tile views once per target,
    mode, tile size and form.  Tiles of _TILE pairs are the unit of work
    and the only work sharded: a quarter swap or a gather is one part.  Every tile shape's
    product, scratch and widened tile (in a row per tile part), the swap
    temporary and a gather's copy of the planes are reshaped prefixes of
    one flat buffer: one cache-warm block.
    """
    if not steps:
        return []
    classes, _, axes, picks = zip(*steps)
    top = planes.shape[1].bit_length() - 2   # stored bit k is axis top - k of the planes
    tile = min(_TILE, 1 << top)
    spans = {m: min(tile, 1 << (m - 1)) for m in set(axes)}   # pairs per tile on m axes
    tile_parts = {m: _split((1 << (m - 1)) // span, workers) for m, span in spans.items()}
    modes = [mode for mode in (SPARSE, DENSE) if mode in classes]

    # a row per tile part, as long as the longest kernel's product and
    # scratch of 1 or 2 terms x 2 halves x 2 planes and widened tile; a
    # quarter of both planes per swap, or both planes per gather
    widened = 4 if arith.dtype is not arith.wide else 0
    per_wide = np.dtype(arith.wide).itemsize // np.dtype(arith.dtype).itemsize
    row = tile * ((16 if DENSE in modes else 8) + widened) if modes else 0
    perm_words = 4 << top if _GATHER in classes else 1 << top if CX in classes else 0
    parts = max(map(len, tile_parts.values()))
    buf = np.empty(max(parts * row, -(-perm_words // per_wide)), arith.wide)

    rows = buf[:parts * row].reshape(parts, row)
    flat = buf.view(arith.dtype)
    if modes:   # each step's entries, picked from the words' and a zero one (_PICKS)
        picks = np.array(picks)
        forms = _PICKS[picks & 7]
        index = np.where(forms < 0, -1, (picks >> 3 << 2)[:, None] + forms)
        words = np.concatenate((words.reshape(-1, 2), np.zeros((1, 2), words.dtype)))[index]
    operands = {mode == SPARSE: _operands(words, mode == SPARSE, arith.wide, one_term) for mode in modes}
    kernels, plan = {}, []
    for k, (cls, bits, m, _) in enumerate(steps):
        if cls == CX:
            plan.append((_swap, [range(1)], *_swap_views(planes[:, :1 << m], *bits, flat)))
        elif cls == _GATHER:
            plan.append((_gather, [range(1)], planes[:, :1 << m], bits, flat[:2 << m].reshape(2, -1)))
        else:
            forms, two, one = operands[cls == SPARSE]
            form = forms[k]
            key = top - bits[0], cls == SPARSE, spans[m], form   # the tile views of the first 2^m words
            if key not in kernels:
                kernels[key] = _tile_kernel(planes, arith, *key, rows)
            fa, fb = one if form else two
            plan.append((_one_qubit, tile_parts[m], kernels[key], form, fa[k], fb[k]))
    return plan


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
    rows, cols = grid.any(axis=1).nonzero()[0], grid.any(axis=0).nonzero()[0]
    if not rows.size:
        return dict.fromkeys(range(n), 0)
    ors = int(np.bitwise_or.reduce(rows)) << low | int(np.bitwise_or.reduce(cols))
    ands = int(np.bitwise_and.reduce(rows)) << low | int(np.bitwise_and.reduce(cols))
    return {q: ors >> (n - 1 - q) & 1 for q in range(n) if not (ors ^ ands) >> (n - 1 - q) & 1}


def _track(n: int, classes: list, qubits: list, words: np.ndarray, values: dict) -> tuple:
    """The run as one list of steps on a compact state that holds the
    active qubits' axes only, for a state whose classical qubits are
    `values`, with CX deferred.

    Each active qubit has a home bit of the stored index s, in activation
    order: the qubits active from the start hold the low bits in qubit
    order, and each one activated later takes the next bit above them.
    The walk keeps an affine map from s to the logical qubits.  Per qubit
    q it holds a row mask r_q over the stored bits and a bit b_q: q's
    logical bit is parity(r_q & s) XOR b_q.  A classical qubit has r_q = 0
    and value b_q.  It also holds d_q, the stored bits whose flip flips q
    alone (column q of the map's inverse).  The map is the identity when
    every r_q = d_q is its home bit.

    A CX(c, t) is composed, at no pass: b_t ^= b_c, and when c is active
    r_t ^= r_c and d_c ^= d_t, after activating a classical t.  A
    one-qubit gate U on an active q runs on stored bit j when r_q is bit
    j, and, if dense, when d_q is too (no other row holds j); its words
    are reversed when b_q = 1.  Otherwise the map is materialized first:
    one quarter swap (_swap_views) when it is one CX since the last
    materialization, else one gather (_gather_index); either leaves the
    identity and keeps b.  U on a classical qubit whose column b_q of
    words has one nonzero entry, in row r, multiplies every stored
    amplitude by it (a sparse step on the top stored bit, bit 0 while none
    is active) and sets b_q = r; any other U on a classical qubit
    activates it first, keeping b_q: its new home bit's upper half of the
    state is still zero (_execute), so it moves no data and changes no
    other mask.  A run that ends with none active but has steps activates
    qubit 0.  At the end of a run in place (no classical qubits, so every
    b_q = 0) the last step materializes the map; a tracked run's
    write-back does it instead, with b and the activation order absorbed.

    Returns the steps as one list of records (class, stored bits, axis
    count m, pick), all made by step(): a gather's bits are its columns and
    offset, and a one-qubit step's pick is 8 times its gate's index in
    words.reshape(-1, 4, 2) plus its form in _PICKS (0 for a permutation);
    the classical values at the end; and, for a tracked run, the
    write-back as the stored bits of the active qubits from the last in
    qubit order up (_gather_index's columns), the offset, and whether the
    map is not the identity (a CX pass), else None.
    """
    frame = [values.get(q, 0) for q in range(n)]
    home = {q: i for i, q in enumerate(reversed([q for q in range(n) if q not in values]))}   # in bit order
    row, col = [0] * n, [0] * n

    def identity():
        for q, i in home.items():
            row[q] = col[q] = 1 << i

    identity()
    pending, last = 0, None   # CXs composed since the map was last the identity, and the latest
    nonzero = words.reshape(-1, 4, 2).any(axis=2).tolist() if values else None
    steps = []

    def step(cls, bits, pick=0):   # a step on the axes active now
        steps.append((cls, bits, len(home) or 1, pick))

    def activate(q):
        row[q] = col[q] = 1 << len(home)
        home[q] = len(home)

    def moved():   # whether the map is not the identity
        return pending == 1 or pending and any(row[q] != 1 << i for q, i in home.items())

    def materialize():
        nonlocal pending
        if pending == 1:   # its swap; composing the CX again restores the identity
            c, t = last
            step(CX, (home[c], home[t]))
            row[t] ^= row[c]
            col[c] ^= col[t]
        elif pending:
            if moved():
                step(_GATHER, (tuple(col[q] for q in home), 0))
            identity()
        pending = 0

    j = -1
    for cls, qs in zip(classes, qubits):
        if cls == CX:
            c, t = qs
            if c in home:
                if t not in home:
                    activate(t)
                row[t] ^= row[c]
                col[c] ^= col[t]
                pending, last = pending + 1, qs
            frame[t] ^= frame[c]
            continue
        j += 1
        (q,) = qs
        f = frame[q]
        if q not in home:
            upper, lower = nonzero[j][f], nonzero[j][2 + f]
            if upper != lower:   # column f has one nonzero entry, in row r
                r = int(lower)
                step(SPARSE, ((len(home) or 1) - 1,), 8 * j + 4 + 2 * r + f)
                frame[q] = r
                continue
            activate(q)
        elif pending and (row[q] & (row[q] - 1) or cls != SPARSE and col[q] != row[q]):
            materialize()
        step(cls, (row[q].bit_length() - 1,), 8 * j + f)
    if not values:   # in place: the plan's last step materializes the map
        materialize()
        return steps, {}, None
    if steps and not home:
        activate(0)
    offset = 0
    for q in home:
        if frame[q]:
            offset ^= col[q]
    end = {q: frame[q] for q in range(n) if q not in home}
    return steps, end, (tuple(col[q] for q in sorted(home, reverse=True)), offset, moved())


def _frame_view(planes: np.ndarray, values: dict) -> np.ndarray:
    """The amplitudes a compact state holds, as a view of the full planes
    with one axis per qubit not in `values`, each qubit in `values` indexed
    at its value."""
    axes = tuple([values.get(q, slice(None)) for q in range(planes.shape[1].bit_length() - 1)])
    return planes.reshape((2,) + (2,) * len(axes))[(slice(None),) + axes]


def _execute(state: StateVector, classes: list, qubits: list, words: np.ndarray,
             workers: int, track: bool) -> tuple[bool, int, int]:
    """Run the gates on the state in place; returns the run's clamp_free,
    the amplitudes its steps swept and its CX passes (quarter swaps and
    gathers).

    Clamp-freedom is one decision per run (_clamp_free), from the full
    state and every word: a clamp-free run's plan takes the _CLAMP_FREE
    steps.  A run with `track` set tracks classical qubits (_classical,
    _track), with a full sweep's bits in fixed point and its values in
    float (the proof after _saturation_bound): it copies the amplitudes
    that can be nonzero into the first words of compact planes sized for
    the run's last axis count, the rest zero, runs one _prepare plan on
    them, each step on the axes active at its gate, and writes them back
    into the full planes at the classical values, zeroing the rest, by one
    copy when the activation order is qubit order and nothing else moved,
    else by one gather.  A state without classical qubits, and a run
    without `track`, runs the same plan in place, every qubit active from
    the start.  Either way CX is deferred as an index map (_track); what is left of it at the end
    is materialized by the write-back or by the in-place plan's last step.
    Dense steps take one-term forms where `track` is set (_one_qubit): a
    float run without it keeps the two-term form's signs of zero.
    A worker count that is a bool, not an integer or below 1 is a ValueError.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    arith = _ARITH[state.arith]
    clamp_free = state.arith == FIXED and _clamp_free(state.planes, words)
    values = _classical(state.planes) if track else {}
    steps, end, back = _track(state.n, classes, qubits, words, values)
    planes = state.planes
    if values:
        planes = np.zeros((2, 1 << (state.n - len(end))), planes.dtype)
        start = _frame_view(state.planes, values)
        planes[:, :1 << (state.n - len(values))].reshape(start.shape)[...] = start
    for step in _prepare(planes, _CLAMP_FREE if clamp_free else arith, steps, words, workers, track):
        _run_parts(*step)
    swept = sum(1 << m for _, _, m, _ in steps)
    passes = sum(cls in (CX, _GATHER) for cls, _, _, _ in steps)
    if values:
        if end:
            state.planes[:] = 0
        view = _frame_view(state.planes, end)
        columns, offset, moved = back
        if offset or any(column != 1 << k for k, column in enumerate(columns)):
            np.take(planes, _gather_index(columns, offset).reshape(view.shape[1:]), axis=1, out=view, mode="clip")
        else:
            view[...] = planes.reshape(view.shape)
        # the map materialized by the write-back; it counts as a pass when it holds CXs
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
    _execute(state, [app.mode], [(app.target,)], np.array(entries, _ARITH[state.arith].wide), workers,
             state.arith == FIXED)
    return state


def apply_cx(state: StateVector, control: int, target: int, workers: int = 1) -> StateVector:
    """In-place CX: swap amplitude pairs with control bit 1 across the
    target bit.  A one-gate plan (_execute), which has no words."""
    for q in (control, target):
        if not 0 <= q < state.n:
            raise ValueError(f"qubit {q} out of range for n={state.n}")
    if control == target:
        raise ValueError("control and target must differ")
    _execute(state, [CX], [(control, target)], np.empty(0, state.planes.dtype), workers, state.arith == FIXED)
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

    The run quantizes each distinct gate once and prepares its plan against
    the state, then executes it; the counts come from the circuit's classes.
    A fixed run tracks classical qubits; a float run sweeps every amplitude,
    so its dump's zero signs are those of the full sweep.
    """
    return _run(tc, state, workers, state.arith == FIXED)


def _run(tc: TranspiledCircuit, state: StateVector, workers: int, track: bool):
    """run_circuit, tracking classical qubits where `track` says (_execute)."""
    if tc.n != state.n:
        raise ValueError(f"circuit has {tc.n} qubits, state has {state.n}")
    t0 = time.perf_counter()
    gates = [g for g, cls in zip(tc.gates, tc.classes) if cls != CX]
    # a gate's matrix is its kind's at its angle's bits: Rz(0.0) and Rz(-0.0) differ in float
    keys = [(g.kind, g.angle if g.angle is None else struct.pack("d", g.angle)) for g in gates]
    distinct = dict(zip(keys, gates))
    rows = {key: i for i, key in enumerate(distinct)}
    entries = np.array([gate_entries(g) for g in distinct.values()], np.complex128).reshape(-1, 2, 2)
    words = _words(entries, state.arith)[list(map(rows.get, keys))]
    clamp_free, swept, passes = _execute(state, tc.classes, [g.qubits for g in tc.gates], words, workers, track)
    counts = tc.classes.count(SPARSE), tc.classes.count(DENSE), tc.classes.count(CX)
    return state, RunStats(*counts, time.perf_counter() - t0, clamp_free, swept, passes)


def reference_run(tc: TranspiledCircuit, state: StateVector, workers: int = 1) -> StateVector:
    """Double-precision run used as the accuracy reference.

    The input state's values are copied into float planes in one step
    (exact for both variants), never mutated; input holding a non-finite
    value is a ValueError.  The run tracks classical qubits as a fixed run
    does, so its values equal those of a float run_circuit on the same
    input, nonzero words bit for bit, and the signs of its zero words are
    unspecified (the proof follows _saturation_bound); fidelity, mse and
    norm_error against it are the same bits.
    """
    if not np.isfinite(state.planes).all():
        raise ValueError("reference_run needs finite amplitudes")
    out = StateVector(state.n, FLOAT)
    np.divide(state.planes, _ARITH[state.arith].one, out=out.planes)
    return _run(tc, out, workers, True)[0]


# ---------------------------------------------------------------------------
# State dump: header `n=<n> arith=<variant>`, then one line per amplitude:
#   <index> <re_hex> <im_hex> <re_float> <im_float>
# Hex columns are the Q2.30 storage words as Fixed.hex writes them (quantized for the float variant).
# ---------------------------------------------------------------------------

_DUMP_SLICE = 1 << 10   # amplitudes per chunk of dump text written, and floats per block of reprs
_DUMP_PIECE = 1 << 20   # characters of dump text split into lines at a time
# a body line as np.loadtxt reads it; a hex field's 9th byte shows a longer one
_DUMP_LINE = np.dtype([("index", "i8"), ("re_hex", "S9"), ("im_hex", "S9"), ("re", "f8"), ("im", "f8")])
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
    # Fixed.hex on every word: big-endian int32 bytes hexlified, as parse_dump's unhexlify reads them
    hexes = np.frombuffer(binascii.hexlify(words[:, lo:hi].astype(">i4").tobytes()), np.uint8)
    heads[:, width + 1:width + 9], heads[:, width + 10:width + 18] = hexes.reshape(2, hi - lo, 8)
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
    words = state.planes if state.arith == FIXED else fx.to_fixed_array(values)
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


def _check_lines(lines: list[str], seen: bytearray, lineno: int) -> None:
    """Raise ValueError naming the first of these non-blank body lines, the
    first being dump line `lineno`, that fails the per-line checks; `seen`
    marks the indices of the lines before them.  parse_dump runs them only
    to name an error."""
    count = len(seen)
    for lineno, ln in enumerate(lines, start=lineno):
        fields = ln.split()
        if len(fields) != 5:
            raise ValueError(f"dump line {lineno}: expected 5 fields, got {len(fields)}")
        try:
            # the one exception to parse_int: np.loadtxt, the fast path, takes a "+" before an index
            i = parse_int(fields[0][1:] if fields[0][:1] == "+" and fields[0][1:2].isdigit() else fields[0])
            if 0 <= i < count and not seen[i]:
                seen[i] = 1
                for read, field in zip((fx.Fixed.from_hex, fx.Fixed.from_hex, parse_float, parse_float), fields[1:]):
                    read(field)
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


def _read_body(pieces, sv: StateVector, refuse: Callable) -> np.ndarray:
    """Store the body lines in sv's planes by index, read by np.loadtxt one
    piece at a time (it skips blank lines); ValueError unless there are 2^n
    of them, each index once, or on a line _check_lines rejects or a
    non-finite value.  Before it raises, refuse(the pieces from the one
    that failed on, the indices read before it) names the first failure
    it can.  Returns the indices whose hex columns are not the quantized
    float columns."""
    count = len(sv)
    index = np.empty(count, np.int64)
    bad = []
    done = 0   # body lines read
    for lines in pieces:
        if not any(map(str.strip, lines)):   # loadtxt warns on a piece with no data
            continue
        try:
            rec = np.loadtxt(lines, _DUMP_LINE, comments=None, ndmin=1)
            i = rec["index"]
            hexes = np.stack((rec["re_hex"], rec["im_hex"])).view(np.uint8).reshape(2, -1, 9)
            if done + i.size > count or i.min() < 0 or i.max() >= count or hexes[..., 8].any():
                raise ValueError("dump has too many lines, an index out of range or a hex field longer than 8 digits")
            # unhexlify rejects any byte but a hex digit, the zero padding of a short field too
            words = np.frombuffer(binascii.unhexlify(hexes[..., :8].tobytes()), ">i4").reshape(2, -1)
            values = np.stack((rec["re"], rec["im"]))
            bad.append(i[(fx.to_fixed_array(values) != words).any(axis=0)])
            sv.planes[:, i] = words if sv.arith == FIXED else values   # a fixed dump's words are its planes
        except ValueError:
            refuse(itertools.chain([lines], pieces), index[:done])
            raise
        index[done:done + i.size] = i
        done += i.size
    if done != count or (np.bincount(index, minlength=count) != 1).any():
        refuse((), index[:done])
        raise ValueError("dump index missing or repeated")
    return np.concatenate(bad)


def _refuse(text: str, n: int, arith: str, pieces=(), prior: np.ndarray = np.empty(0, np.int64)) -> None:
    """The checks of a dump that failed to read, in order, as separate
    passes: raise ValueError naming the first that fails.  The line count
    takes a pass over the text; the per-line checks run from `pieces` on
    only.  `prior` holds the indices of the body lines before them, which
    passed every check of _read_body, so a repeated index is the only
    per-line failure they can hold, and it is found from `prior` alone."""
    count = sum(1 for lines in _text_pieces(text) for ln in lines if ln.strip()) - 1
    if count.bit_length() - 1 != n or count != 1 << n:   # n may be absurd: 1 << n comes last
        raise ValueError(f"n={n} needs 2^{n} amplitude lines, got {count}")
    StateVector(n, arith)   # its own refusals: n < 1, an unknown arithmetic, too large
    order = np.argsort(prior, kind="stable")   # equal indices stay in line order
    repeats = order[1:][prior[order[1:]] == prior[order[:-1]]]
    if repeats.size:
        first = repeats.min()
        raise ValueError(f"dump line {first + 2}: index {prior[first]} out of range or repeated")
    seen = bytearray(count)
    np.frombuffer(seen, np.uint8)[prior] = 1
    lineno = prior.size + 2
    for lines in pieces:   # names the first bad line from here on
        body = [ln for ln in lines if ln.strip()]
        _check_lines(body, seen, lineno)
        lineno += len(body)


def parse_dump(text: str) -> StateVector:
    """Inverse of format_dump; raises ValueError on a malformed dump.

    Every index in 0..2^n-1 must appear exactly once, every field must
    parse, and the hex columns must be the Q2.30 quantization of the float
    columns, the rule format_dump writes them by for both arithmetics.
    Fields are plain ASCII numerals (parse_int, parse_float; a body index
    may also take a "+", which np.loadtxt reads), and a hex field is a word
    as Fixed.from_hex reads it; a fixed dump's planes are those words.  The
    text is split into lines once, a piece at a time, and the header, the
    line count and the body are read from that pass, the body as arrays;
    only a dump that fails is read again, to name its first failure: its
    lines counted, and the per-line checks run from the piece that failed
    on (_refuse).
    """
    pieces = _text_pieces(text)
    head, rest = _header(pieces)
    try:
        parts = head.split()
        fields = dict(part.split("=", 1) for part in parts)
        if len(parts) != 2 or fields.keys() != {"n", "arith"}:   # each key once, no other
            raise ValueError(head)
        n, arith = parse_int(fields["n"]), fields["arith"]
    except ValueError:
        raise ValueError(f"dump header must be 'n=<n> arith=<fixed|float>', got {head!r}") from None
    try:
        # 2^n + 1 non-blank lines and the breaks between them take more than
        # 2^(n+1) characters: refuse what cannot fit before allocating 2^n
        if not 0 <= n < (len(text) // 2).bit_length():
            raise ValueError("dump too short for its n")
        sv = StateVector(n, arith)
    except ValueError:
        _refuse(text, n, arith)
        raise
    bad = _read_body(itertools.chain([rest], pieces), sv, partial(_refuse, text, n, arith))
    if bad.size:
        raise ValueError(f"dump index {bad.min()}: hex columns are not the quantized float columns")
    return sv
