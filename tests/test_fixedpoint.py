import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from qea_sim import engine, fixedpoint as fx
from qea_sim.circuit import DENSE, SPARSE
from qea_sim.engine import FIXED, GateApplication, StateVector, apply_1q


def rne_exact(value: Fraction) -> int:
    """Reference nearest-even rounding in exact rational arithmetic."""
    floor = value.numerator // value.denominator
    rem = value - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def quantize_exact(x: float) -> int:
    """Independent to_fixed oracle: exact rational scaling + RNE + saturate."""
    raw = rne_exact(Fraction(x) * fx.RAW_ONE)
    return min(max(raw, fx.RAW_MIN), fx.RAW_MAX)


class TestToFixed:
    def test_zero(self):
        assert fx.to_fixed(0.0).raw == 0x00000000

    def test_one(self):
        assert fx.to_fixed(1.0).raw == 0x40000000

    def test_inv_sqrt2(self):
        x = 0.7071067811865476
        assert quantize_exact(x) == 759250125
        got = fx.to_fixed(x)
        assert got.raw == 759250125
        assert got.hex() == "2d413ccd"

    def test_saturates_high(self):
        assert fx.to_fixed(3.5).raw == 0x7FFFFFFF

    def test_saturates_low(self):
        assert fx.to_fixed(-3.5).raw == fx.RAW_MIN

    def test_saturates_huge_finite(self):
        # x * 2^30 overflows to inf here; the word still saturates
        assert fx.to_fixed(1e300).raw == fx.RAW_MAX
        assert fx.to_fixed(-1e300).raw == fx.RAW_MIN

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                fx.to_fixed(bad)

    def test_matches_exact_oracle_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2.5, 2.5, size=2000):
            assert fx.to_fixed(float(x)).raw == quantize_exact(float(x))

    def test_ties_round_to_even(self):
        # raw + 0.5 ulp inputs are exactly representable below 2^22
        assert fx.to_fixed(1.5 / fx.RAW_ONE).raw == 2
        assert fx.to_fixed(2.5 / fx.RAW_ONE).raw == 2
        assert fx.to_fixed(-1.5 / fx.RAW_ONE).raw == -2
        assert fx.to_fixed(-2.5 / fx.RAW_ONE).raw == -2


class TestToFloat:
    def test_one(self):
        assert fx.to_float(fx.Fixed(0x40000000)) == 1.0

    def test_zero(self):
        assert fx.to_float(fx.Fixed(0)) == 0.0

    def test_exact_division(self):
        assert fx.to_float(fx.Fixed(759250125)) == 759250125 / 2**30

    def test_round_trip_boundaries(self):
        for raw in (fx.RAW_MIN, fx.RAW_MIN + 1, -1, 0, 1, fx.RAW_ONE, fx.RAW_MAX - 1, fx.RAW_MAX):
            assert fx.to_fixed(fx.to_float(fx.Fixed(raw))).raw == raw

    def test_round_trip_random_raws(self):
        rng = np.random.default_rng(11)
        for raw in rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=5000):
            assert fx.to_fixed(fx.to_float(fx.Fixed(int(raw)))).raw == int(raw)


def fc(re_raw, im_raw):
    return fx.FixedComplex(fx.Fixed(re_raw), fx.Fixed(im_raw))


def cmul_exact(a, b):
    """Exact rational complex product of the stored values, then RNE+saturate."""
    ar, ai = Fraction(a.re.raw, fx.RAW_ONE), Fraction(a.im.raw, fx.RAW_ONE)
    br, bi = Fraction(b.re.raw, fx.RAW_ONE), Fraction(b.im.raw, fx.RAW_ONE)
    re = rne_exact((ar * br - ai * bi) * fx.RAW_ONE)
    im = rne_exact((ar * bi + ai * br) * fx.RAW_ONE)
    sat = lambda r: min(max(r, fx.RAW_MIN), fx.RAW_MAX)
    return sat(re), sat(im)


class TestComplexOps:
    def test_cadd_identity(self):
        one = fc(fx.RAW_ONE, 0)
        assert fx.cadd(one, fx.CZERO) == one

    def test_cadd_saturation(self):
        big = fx.FixedComplex.from_complex(1.5 + 0j)
        out = fx.cadd(big, big)
        assert out.re.raw == fx.RAW_MAX
        assert out.im.raw == 0

    def test_cadd_inverse(self):
        a = fx.FixedComplex.from_complex(0.25 + 0.5j)
        b = fx.FixedComplex.from_complex(-0.25 - 0.5j)
        assert fx.cadd(a, b) == fx.CZERO

    def test_cmul_identity_exact(self):
        one = fc(fx.RAW_ONE, 0)
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = fc(int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)),
                   int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)))
            assert fx.cmul(one, a) == a
            assert fx.cmul(a, one) == a

    def test_cmul_i_squared(self):
        i = fc(0, fx.RAW_ONE)
        out = fx.cmul(i, i)
        assert out == fc(-fx.RAW_ONE, 0)

    def test_cmul_inv_sqrt2_squared(self):
        x = fx.to_fixed(0.7071067811865476)
        a = fx.FixedComplex(x, x)
        out = fx.cmul(a, a)
        assert out.re.raw == cmul_exact(a, a)[0]
        assert out.im.raw == cmul_exact(a, a)[1]
        # approx i, each component within 2^-29 of the exact square
        z = out.to_complex()
        assert abs(z.real - 0.0) <= 2**-29
        assert abs(z.imag - 1.0) <= 2**-29

    def test_cmul_matches_exact_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            a = fc(int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)),
                   int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)))
            b = fc(int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)),
                   int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)))
            assert (fx.cmul(a, b).re.raw, fx.cmul(a, b).im.raw) == cmul_exact(a, b)

    def test_cmul_commutes_bit_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a = fc(int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)),
                   int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)))
            b = fc(int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)),
                   int(rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1)))
            assert fx.cmul(a, b) == fx.cmul(b, a)

    def test_cmul_magnitude_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            a = fc(int(rng.integers(-fx.RAW_ONE, fx.RAW_ONE)),
                   int(rng.integers(-fx.RAW_ONE, fx.RAW_ONE)))
            b = fc(int(rng.integers(-fx.RAW_ONE, fx.RAW_ONE)),
                   int(rng.integers(-fx.RAW_ONE, fx.RAW_ONE)))
            got = abs(fx.cmul(a, b).to_complex())
            assert got <= abs(a.to_complex()) * abs(b.to_complex()) + 2**-28


class TestScalarObjects:
    def test_value_semantics(self):
        a, b = fx.Fixed(5), fx.Fixed(5)
        assert a == b and hash(a) == hash(b) and a != fx.Fixed(6)
        assert a != 5                      # no equality with a bare int
        z = fx.FixedComplex(a, fx.Fixed(-1))
        w = fx.FixedComplex(b, fx.Fixed(-1))
        assert z == w and hash(z) == hash(w) and z != fx.CZERO
        assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z

    def test_immutable(self):
        a = fx.Fixed(5)
        with pytest.raises(AttributeError):
            a.raw = 6
        with pytest.raises(AttributeError):
            fx.CZERO.re = a
        assert a.raw == 5 and fx.CZERO.re == fx.ZERO

    def test_range_check(self):
        for raw in (fx.RAW_MIN - 1, fx.RAW_MAX + 1):
            with pytest.raises(ValueError, match="outside"):
                fx.Fixed(raw)


class TestHexForm:
    def test_hex_digits(self):
        assert fx.Fixed(0x40000000).hex() == "40000000"
        assert fx.Fixed(-1).hex() == "ffffffff"
        assert fx.Fixed(fx.RAW_MIN).hex() == "80000000"

    def test_from_hex_round_trip(self):
        for raw in (0, 1, -1, fx.RAW_MIN, fx.RAW_MAX, 759250125):
            assert fx.Fixed.from_hex(fx.Fixed(raw).hex()).raw == raw


class TestArrayHelpers:
    def test_rounding_matches_scalar(self):
        rng = np.random.default_rng(23)
        wide = rng.integers(-(2**61), 2**61, size=4000, dtype=np.int64)
        # exact ties q*2^30 + 2^29 for even and odd, positive and negative q,
        # and their +-1 neighbours
        q = np.concatenate([np.arange(-4, 4), rng.integers(-(2**31), 2**31, size=500)])
        ties = q * 2**30 + 2**29
        wide = np.concatenate([wide, ties - 1, ties, ties + 1])
        # the carry buffer as the output, the saturating kernel's product step
        got = np.empty_like(wide)
        assert fx.round_q60_array(wide.copy(), got, got) is got
        assert got.tolist() == [fx.round_q60(w) for w in wide.tolist()]
        # into int32 through a carry buffer, the clamp-free kernel's product
        # step, for the words whose results fit 32 bits
        small = np.abs(got) <= fx.RAW_MAX
        fits = wide[small]
        narrow, carry = np.empty(fits.size, np.int32), np.empty_like(fits)
        assert fx.round_q60_array(fits.copy(), narrow, carry) is narrow
        assert narrow.tolist() == got[small].tolist()
        # the saturating kernel's product step into int32, as two terms, over
        # the whole sample and as many words up to 2^62, half of which round
        # past 32 bits, with the ties at both bounds and their neighbours
        edges = np.array([fx.RAW_MAX, fx.RAW_MIN - 1]) * 2**30 + 2**29
        wide = np.concatenate([wide, rng.integers(-(2**62), 2**62, size=6000), edges - 1, edges, edges + 1])
        b = rng.integers(-(2**61), 2**61, size=wide.size, dtype=np.int64)
        out = np.empty(wide.size, np.int32)
        assert engine._fixed_product(wide - b, b, out) is out
        assert out.tolist() == [fx.saturate(fx.round_q60(w)) for w in wide.tolist()]
        # and its sum step, on pairs that sum past both bounds
        x = np.concatenate([rng.integers(-(2**32), 2**32, size=2000), [fx.RAW_MAX, fx.RAW_MIN, fx.RAW_MAX, 0]])
        y = np.concatenate([rng.integers(-(2**32), 2**32, size=2000), [1, -1, fx.RAW_MIN, fx.RAW_MIN]])
        out = np.empty(x.size, np.int32)
        assert engine._fixed_sum(x.copy(), y, out) is out
        assert out.tolist() == [fx.saturate(s + t) for s, t in zip(x.tolist(), y.tolist())]

    def test_cmul_arrays_matches_scalar(self):
        # the array complex product lives in apply_1q's kernel: a diagonal
        # gate multiplies every amplitude by one entry
        rng = np.random.default_rng(29)
        u = fx.FixedComplex.from_complex(complex(0.3, -0.7))
        sv = StateVector(8, FIXED)
        sv.planes[:] = rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=(2, 256))
        re, im = sv.planes.tolist()
        pair = (u.re.raw, u.im.raw)
        apply_1q(sv, GateApplication(pair, (0, 0), (0, 0), pair, 0, SPARSE))
        for k in range(256):
            ref = fx.cmul(u, fc(re[k], im[k]))
            assert int(sv.planes[0, k]) == ref.re.raw
            assert int(sv.planes[1, k]) == ref.im.raw

    def test_cadd_arrays_saturate(self):
        # the array complex sum lives in apply_1q's kernel: with every entry
        # 1.0, both outputs of a pair are the saturated sum of its amplitudes
        one = (fx.RAW_ONE, 0)
        sv = StateVector(3, FIXED)
        a = [fx.RAW_MAX, fx.RAW_MIN, 5, 0]
        sv.planes[:, :4] = sv.planes[:, 4:] = a
        apply_1q(sv, GateApplication(one, one, one, one, 0, DENSE))
        expected = [fx.RAW_MAX, fx.RAW_MIN, 10, 0] * 2
        assert sv.planes[0].tolist() == expected
        assert sv.planes[1].tolist() == expected

    def test_to_fixed_array_matches_scalar(self):
        rng = np.random.default_rng(29)
        top, bottom = fx.RAW_MAX / fx.RAW_ONE, fx.RAW_MIN / fx.RAW_ONE
        xs = np.concatenate([rng.uniform(-2.5, 2.5, size=2000),
                             np.array([1.5, 2.5, -1.5, -2.5]) / fx.RAW_ONE,   # ties
                             [1e300, -1e300, 2.0, -2.0, 0.0],
                             # around the saturation bounds, the top tie included
                             [top, np.nextafter(top, 3.0), (fx.RAW_MAX + 0.5) / fx.RAW_ONE,
                              np.nextafter(2.0, 0.0), np.nextafter(bottom, -3.0),
                              (fx.RAW_MIN - 0.5) / fx.RAW_ONE, 3.999, -3.999, 4.0, -4.0, 4.5, -4.5]])
        got = fx.to_fixed_array(xs)
        assert got.dtype == np.int32
        assert got.tolist() == [fx.to_fixed(float(x)).raw for x in xs]
        with pytest.raises(ValueError):
            fx.to_fixed_array(np.array([0.5, math.nan]))
