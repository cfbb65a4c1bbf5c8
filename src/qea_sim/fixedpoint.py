# Signed Q2.30 fixed-point arithmetic: 32-bit words, 2 integer bits,
# 30 fractional bits.  This is the number format of the accelerator's
# state memory, so every operation here is defined bit-exactly:
#   * round-to-nearest-even when narrowing,
#   * saturation (never wraparound) on overflow,
#   * complex multiply accumulates both cross terms at 64 bits and
#     rounds once per component (wide-accumulator MAC behaviour).
from __future__ import annotations

import binascii
import math
from dataclasses import dataclass

import numpy as np

FRAC_BITS = 30
RAW_ONE = 1 << FRAC_BITS
RAW_MAX = (1 << 31) - 1          # +2 - 2^-30
RAW_MIN = -(1 << 31)             # -2
_FRAC_MASK = RAW_ONE - 1
_HALF = 1 << (FRAC_BITS - 1)


def saturate(raw: int) -> int:
    """Clamp an integer to the representable raw range."""
    if raw > RAW_MAX:
        return RAW_MAX
    if raw < RAW_MIN:
        return RAW_MIN
    return raw


def round_q60(wide: int) -> int:
    """Round a Q4.60 integer down to Q2.30: nearest, ties to even.

    Works on plain Python ints, so there is no intermediate overflow
    regardless of operand magnitude.
    """
    q = wide >> FRAC_BITS
    r = wide & _FRAC_MASK
    if r > _HALF or (r == _HALF and q & 1):
        q += 1
    return q


@dataclass(frozen=True, slots=True)
class Fixed:
    """One Q2.30 scalar, immutable, compared and hashed by value; ``raw`` is
    the signed 32-bit storage word."""

    raw: int

    def __post_init__(self) -> None:
        if not RAW_MIN <= self.raw <= RAW_MAX:
            raise ValueError(f"raw {self.raw} outside signed 32-bit range")

    def __reduce__(self):   # copy and pickle build through __init__, so through the range check
        return Fixed, (self.raw,)

    def hex(self) -> str:
        """The storage word as a dump writes it: its big-endian int32 bytes hexlified, 8 digits."""
        return binascii.hexlify(self.raw.to_bytes(4, "big", signed=True)).decode()

    @classmethod
    def from_hex(cls, text: str) -> "Fixed":
        """Inverse of hex, either case: text other than 8 ASCII hex digits is a ValueError, as in a dump."""
        if len(text) != 8:   # unhexlify reads any even number of digits
            raise ValueError(f"a Q2.30 word is 8 hex digits, got {text!r}")
        return cls(int.from_bytes(binascii.unhexlify(text), "big", signed=True))


ZERO = Fixed(0)


def to_fixed(x: float) -> Fixed:
    """Quantize a real number: round-to-nearest-even of x*2^30, saturated."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    # x * 2^30 is exact in double precision, so round() performs true
    # nearest-even rounding of the real product.  Clamping to +-4 first
    # keeps the product finite and saturates to the same word.
    return Fixed(saturate(round(min(max(x, -4.0), 4.0) * RAW_ONE)))


def to_float(a: Fixed) -> float:
    """Exact value raw / 2^30 (always representable in a double)."""
    return a.raw / RAW_ONE


@dataclass(frozen=True, slots=True)
class FixedComplex:
    """Complex amplitude stored as exactly two Q2.30 words (no metadata);
    immutable, compared and hashed by value, slotted like Fixed."""

    re: Fixed
    im: Fixed

    def __reduce__(self):
        return FixedComplex, (self.re, self.im)

    @classmethod
    def from_complex(cls, z: complex) -> "FixedComplex":
        return cls(to_fixed(z.real), to_fixed(z.imag))

    def to_complex(self) -> complex:
        return complex(to_float(self.re), to_float(self.im))


CZERO = FixedComplex(ZERO, ZERO)


def cadd(a: FixedComplex, b: FixedComplex) -> FixedComplex:
    """Component-wise saturating addition."""
    return FixedComplex(
        Fixed(saturate(a.re.raw + b.re.raw)),
        Fixed(saturate(a.im.raw + b.im.raw)),
    )


def cmul(a: FixedComplex, b: FixedComplex) -> FixedComplex:
    """Complex product with 64-bit intermediates and one rounding per component.

    Both cross terms are exact Q4.60 products; their sum/difference is
    rounded to nearest-even and saturated in a single step, so the result
    is independent of term order.
    """
    ar, ai = a.re.raw, a.im.raw
    br, bi = b.re.raw, b.im.raw
    re = saturate(round_q60(ar * br - ai * bi))
    im = saturate(round_q60(ar * bi + ai * br))
    return FixedComplex(Fixed(re), Fixed(im))


# ---------------------------------------------------------------------------
# Vectorized raw-word helpers for the state-vector kernels.
#
# The rounding helper operates on int64 arrays of wide words, which the
# kernels then clip (engine._fixed_product).  They multiply 32-bit state
# words by gate entries of modulus at most 2 (re^2 + im^2 <= 2^62 raw, which
# engine.apply_1q checks; quantized unitaries are within 2^-28 of 1), so each
# two-term sum of cross terms is at most 2^31 * 2^31.5 = 2^62.5, inside int64.
# ---------------------------------------------------------------------------

def to_fixed_array(x: np.ndarray) -> np.ndarray:
    """Vectorized to_fixed: int32 raw words, nearest-even, saturated."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    # to_fixed's word with one clamp, to [RAW_MIN, RAW_MAX] / 2^30: inside it
    # x * 2^30 is exact and rounds within range (np.rint is nearest-even);
    # beyond it to_fixed saturates to the bound passed.  minimum/maximum,
    # not np.clip, whose Python wrapper costs more than both.
    y = np.maximum(x, RAW_MIN / RAW_ONE)
    np.minimum(y, RAW_MAX / RAW_ONE, out=y)
    y *= RAW_ONE
    return np.rint(y, out=y).astype(np.int32)


def round_q60_array(wide: np.ndarray, out: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Vectorized nearest-even rounding of Q4.60 words to Q2.30, allocating
    nothing, in one form: the carry is added into ``wide`` and the sum
    shifted into ``out``.  ``carry`` is scratch of wide's width; ``out`` is
    ``carry`` itself or an integer array that overlaps neither, possibly
    narrower, such as an int32 plane, which keeps the low bits of each result.
    """
    # adding half minus one, plus one more when the kept part is odd, carries
    # into the kept bits exactly when round_q60 rounds up
    np.right_shift(wide, FRAC_BITS, out=carry)
    carry &= 1
    carry += _HALF - 1
    np.add(wide, carry, out=wide)
    return np.right_shift(wide, FRAC_BITS, out=out, casting="unsafe")
