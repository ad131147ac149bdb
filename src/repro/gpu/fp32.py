"""Bit-level floating-point functional unit (add / multiply / fused FMA).

The unit reproduces the register-transfer structure of a floating-point
datapath: operands are unpacked into sign/exponent/mantissa stage
registers, aligned or multiplied through explicit intermediate registers,
normalised, and rounded to nearest-even.  Every stage register is declared
on the :class:`~repro.gpu.fault_plane.FaultPlane` and every write goes
through :meth:`FaultPlane.latch`, so a transient fault flips a real
intermediate value and the corrupted bits propagate through the remaining
stages *arithmetically* — the mechanism the paper's RTL campaign relies on
to produce non-obvious output syndromes.

The datapath is **precision-generic**: every stage-register width and
datapath constant derives from a :class:`~repro.gpu.bits.FloatFormat`
(exponent/mantissa field widths), so one implementation serves binary32,
binary16 and bfloat16.  :class:`FP32Unit` is the binary32 instance and is
bit-identical to the historical single-precision unit; the FP16/BF16
instances declare their stage registers at the narrower format widths, so
transients there flip real 16-bit intermediates.

Arithmetic follows the G80's documented behaviour in every format:
round-to-nearest-even with denormals flushed to zero (FTZ) on inputs and
outputs.  Fault-free results are bit-exact against IEEE-754 (verified
against numpy in the test suite); FFMA uses a single rounding of the exact
product-plus-addend, i.e. a true fused multiply-add.
"""

from __future__ import annotations

from typing import Tuple

from .bits import BF16, FP16, FP32, FloatFormat
from .fault_plane import FaultPlane, FlipFlop, ModuleName

__all__ = ["FloatUnit", "FP32Unit", "FP16Unit", "BF16Unit"]

# Guard/round/sticky extension used by the adder datapath (all formats).
_GRS = 3


def _registers_for(fmt: FloatFormat) -> "tuple[tuple[str, int, str], ...]":
    """Stage-register inventory for one lane of a *fmt*-wide pipeline.

    Widths are functions of the exponent field width ``E`` and stored
    mantissa width ``M``: the full mantissa carries a hidden bit (``M+1``),
    the adder datapath extends it by guard/round/sticky (``M+4``), raw sums
    carry two overflow bits more (``M+6``), internal exponents are held in
    ``E+2``-bit registers so underflow/overflow survive fault corruption
    without silently wrapping, and the two-stage multiplier splits the
    second operand at ``(M+1)//2`` bits.  With ``E=8, M=23`` this
    reproduces the historical FP32 inventory register-for-register.
    """
    e, m = fmt.exp_bits, fmt.mant_bits
    full = m + 1            # mantissa with hidden bit
    grsw = m + 4            # GRS-extended mantissa
    split = full // 2       # low-half width of the two-stage multiplier
    shiftw = (m + 5).bit_length()
    return (
        # stage 1: operand unpack
        ("unpack.a_sign", 1, "data"),
        ("unpack.a_exp", e, "data"),
        ("unpack.a_mant", full, "data"),
        ("unpack.b_sign", 1, "data"),
        ("unpack.b_exp", e, "data"),
        ("unpack.b_mant", full, "data"),
        ("unpack.c_sign", 1, "data"),
        ("unpack.c_exp", e, "data"),
        ("unpack.c_mant", full, "data"),
        # stage 2 (add path): exponent compare + mantissa alignment
        ("align.exp_diff", e, "data"),
        ("align.big_mant", grsw, "data"),
        ("align.small_mant", grsw, "data"),
        ("align.result_exp", e + 2, "data"),
        ("align.result_sign", 1, "data"),
        ("align.sticky", 1, "data"),
        ("align.eff_sub", 1, "control"),
        # stage 2 (mul path): booth partial products, then the full product
        # (the second operand's high half carries ceil(full/2) bits, so the
        # partial-product registers are full + ceil(full/2) wide — 36 bits
        # in binary32, where the split is even)
        ("mul.pp_a", 2 * full - split, "data"),
        ("mul.pp_b", 2 * full - split, "data"),
        ("mul.prod_lo", full, "data"),
        ("mul.prod_hi", full, "data"),
        ("mul.prod_exp", e + 2, "data"),
        ("mul.prod_sign", 1, "data"),
        # stage 3: add / normalise
        ("norm.raw_sum", m + 6, "data"),
        ("norm.shift", shiftw, "data"),
        ("norm.mant", grsw, "data"),
        ("norm.exp", e + 2, "data"),
        # fma-specific wide accumulator
        ("fma.wide_lo", m + 7, "data"),
        ("fma.wide_hi", full, "data"),
        ("fma.wide_exp", e + 2, "data"),
        ("fma.wide_sign", 1, "data"),
        # stage 4: round + pack
        ("round.mant", full, "data"),
        ("round.exp", e, "data"),
        ("round.result", fmt.width, "data"),
    )


class FloatUnit:
    """One SIMT lane-group of floating-point pipelines at one precision.

    The SM instantiates one pipeline per lane (``n_lanes`` of them); each
    lane has its own stage registers so a fault in lane *k* only corrupts
    the thread currently mapped onto lane *k* — the behaviour behind the
    paper's observation that FP32/INT faults produce single-thread SDCs.
    """

    def __init__(self, plane: FaultPlane, n_lanes: int = 8,
                 fmt: FloatFormat = FP32,
                 module: str = ModuleName.FP32) -> None:
        self.plane = plane
        self.n_lanes = n_lanes
        self.module = module
        plane.bind(self)
        self.fmt = fmt
        self._REGISTERS = _registers_for(fmt)
        for lane in range(n_lanes):
            for name, width, kind in self._REGISTERS:
                plane.declare(FlipFlop(module, name, width, lane, kind))

        # datapath constants, all derived from the format geometry
        e, m = fmt.exp_bits, fmt.mant_bits
        self._mant_bits = m
        self._full = m + 1                 # hidden-bit mantissa width
        self._grsw = m + 4                 # GRS mantissa width
        self._lead = m + 3                 # leading-one target bit
        self._split = (m + 1) // 2         # multiplier low-half width
        self._shiftw = (m + 5).bit_length()
        self._exp_bias = fmt.bias
        self._exp_mask = fmt.exp_mask
        self._exp2_mask = (1 << (e + 2)) - 1
        self._exp2_half = 1 << (e + 1)     # signed-interpretation threshold
        self._exp2_wrap = 1 << (e + 2)
        self._hidden = 1 << m
        self._mant_mask = fmt.mant_mask
        self._prod_adjust = 2 * m          # top-bit 46 == biased exponent
        self._wide_cap = 2 * m + 7         # fma hi/lo accumulator top bit
        self._qnan = fmt.qnan
        self._plus_inf = fmt.plus_inf
        self._minus_inf = fmt.minus_inf

    def _is_special(self, exp: int) -> bool:
        return exp == self._exp_mask

    def _pack(self, sign: int, exp: int, mant: int) -> int:
        return self.fmt.pack(sign, exp, mant)

    # -- latch helper ------------------------------------------------------
    def _latch(self, name: str, value: int, lane: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.passive:  # hot path: nothing to intercept
            return value & mask
        return self.plane.latch(self.module, name, value & mask, lane) & mask

    # -- public operations ---------------------------------------------------
    def fadd(self, a_bits: int, b_bits: int, lane: int) -> int:
        """FADD: addition on one lane, in the unit's format."""
        a = self._latch_operand("a", a_bits, lane)
        b = self._latch_operand("b", b_bits, lane)
        special = self._add_special(a, b)
        if special is not None:
            return self._latch("round.result", special, lane, self.fmt.width)
        return self._add_datapath(a, b, lane)

    def fmul(self, a_bits: int, b_bits: int, lane: int) -> int:
        """FMUL: multiplication on one lane, in the unit's format."""
        a = self._latch_operand("a", a_bits, lane)
        b = self._latch_operand("b", b_bits, lane)
        special = self._mul_special(a, b)
        if special is not None:
            return self._latch("round.result", special, lane, self.fmt.width)
        sign, exp, hi, lo = self._mul_datapath(a, b, lane)
        # Fold the exact double-width product into the normalise/round stages.
        product = (hi << self._full) | lo
        return self._normalise_product(sign, exp, product, lane)

    def ffma(self, a_bits: int, b_bits: int, c_bits: int, lane: int) -> int:
        """FFMA: fused multiply-add ``a*b + c`` with a single rounding."""
        a = self._latch_operand("a", a_bits, lane)
        b = self._latch_operand("b", b_bits, lane)
        c = self._latch_operand("c", c_bits, lane)
        special = self._fma_special(a, b, c)
        if special is not None:
            return self._latch("round.result", special, lane, self.fmt.width)
        sign, exp, hi, lo = self._mul_datapath(a, b, lane)
        return self._fma_accumulate(sign, exp, (hi << self._full) | lo, c,
                                    lane)

    # -- operand unpack ------------------------------------------------------
    def _latch_operand(self, which: str, bits: int, lane: int
                       ) -> Tuple[int, int, int]:
        """Unpack an operand through the stage-1 registers, applying FTZ."""
        sign, exp, mant = self.fmt.unpack(bits)
        if exp == 0:
            mant = 0  # flush denormal inputs to zero (G80 FTZ)
        sign = self._latch(f"unpack.{which}_sign", sign, lane, 1)
        exp = self._latch(f"unpack.{which}_exp", exp, lane, self.fmt.exp_bits)
        full_mant = mant if exp == 0 else (mant | self._hidden)
        full_mant = self._latch(
            f"unpack.{which}_mant", full_mant, lane, self._full)
        return sign, exp, full_mant

    # -- special-case handling (NaN / Inf / zero) ------------------------------
    def _add_special(self, a, b):
        a_sign, a_exp, a_mant = a
        b_sign, b_exp, b_mant = b
        a_nan = self._is_special(a_exp) and (a_mant & self._mant_mask)
        b_nan = self._is_special(b_exp) and (b_mant & self._mant_mask)
        if a_nan or b_nan:
            return self._qnan
        a_inf = self._is_special(a_exp)
        b_inf = self._is_special(b_exp)
        if a_inf and b_inf:
            if a_sign != b_sign:
                return self._qnan
            return self._plus_inf if a_sign == 0 else self._minus_inf
        if a_inf:
            return self._pack(a_sign, self._exp_mask, 0)
        if b_inf:
            return self._pack(b_sign, self._exp_mask, 0)
        a_zero = a_exp == 0
        b_zero = b_exp == 0
        if a_zero and b_zero:
            return self._pack(a_sign & b_sign, 0, 0)
        if a_zero:
            return self._pack(b_sign, b_exp, b_mant & self._mant_mask)
        if b_zero:
            return self._pack(a_sign, a_exp, a_mant & self._mant_mask)
        return None

    def _mul_special(self, a, b):
        a_sign, a_exp, a_mant = a
        b_sign, b_exp, b_mant = b
        sign = a_sign ^ b_sign
        a_nan = self._is_special(a_exp) and (a_mant & self._mant_mask)
        b_nan = self._is_special(b_exp) and (b_mant & self._mant_mask)
        if a_nan or b_nan:
            return self._qnan
        a_inf = self._is_special(a_exp)
        b_inf = self._is_special(b_exp)
        a_zero = a_exp == 0
        b_zero = b_exp == 0
        if (a_inf and b_zero) or (b_inf and a_zero):
            return self._qnan
        if a_inf or b_inf:
            return self._pack(sign, self._exp_mask, 0)
        if a_zero or b_zero:
            return self._pack(sign, 0, 0)
        return None

    def _fma_special(self, a, b, c):
        c_sign, c_exp, c_mant = c
        c_nan = self._is_special(c_exp) and (c_mant & self._mant_mask)
        if c_nan:
            return self._qnan
        prod = self._mul_special(a, b)
        if prod is None:
            if self._is_special(c_exp):  # finite product + Inf addend
                return self._pack(c_sign, self._exp_mask, 0)
            # finite addend (including +-0): take the exact fused path,
            # which handles a zero addend as c_val == 0
            return None
        if prod == self._qnan:
            return self._qnan
        p_sign, p_exp, p_mant = self.fmt.unpack(prod)
        if self._is_special(p_exp):  # infinite product
            if self._is_special(c_exp) and c_sign != p_sign:
                return self._qnan
            return prod
        if p_exp == 0 and p_mant == 0:  # zero product
            if self._is_special(c_exp):
                return self._pack(c_sign, self._exp_mask, 0)
            if c_exp == 0:
                return self._pack(p_sign & c_sign, 0, 0)
            return self._pack(c_sign, c_exp, c_mant & self._mant_mask)
        if self._is_special(c_exp):  # finite product, infinite addend
            return self._pack(c_sign, self._exp_mask, 0)
        return None

    # -- add datapath --------------------------------------------------------
    def _add_datapath(self, a, b, lane: int) -> int:
        a_sign, a_exp, a_mant = a
        b_sign, b_exp, b_mant = b
        # magnitude ordering: the bigger operand feeds the "big" register
        if (a_exp, a_mant) >= (b_exp, b_mant):
            big_sign, big_exp, big_mant = a_sign, a_exp, a_mant
            small_sign, small_exp, small_mant = b_sign, b_exp, b_mant
        else:
            big_sign, big_exp, big_mant = b_sign, b_exp, b_mant
            small_sign, small_exp, small_mant = a_sign, a_exp, a_mant

        exp_diff = min(big_exp - small_exp, self._exp_mask)
        exp_diff = self._latch(
            "align.exp_diff", exp_diff, lane, self.fmt.exp_bits)
        eff_sub = self._latch(
            "align.eff_sub", big_sign ^ small_sign, lane, 1)
        result_sign = self._latch("align.result_sign", big_sign, lane, 1)
        result_exp = self._latch(
            "align.result_exp", big_exp, lane, self.fmt.exp_bits + 2)

        big_grs = big_mant << _GRS
        small_grs = small_mant << _GRS
        # alignment: keep the shifted-out fraction as a separate sticky flag
        # so the effective subtraction stays exact to within the GRS bits
        if exp_diff >= self._grsw:
            aligned_small = 0
            sticky = 1 if small_grs else 0
        else:
            sticky = 1 if (small_grs & ((1 << exp_diff) - 1)) else 0
            aligned_small = small_grs >> exp_diff
        big_grs = self._latch("align.big_mant", big_grs, lane, self._grsw)
        aligned_small = self._latch(
            "align.small_mant", aligned_small, lane, self._grsw)
        sticky = self._latch("align.sticky", sticky, lane, 1)

        if eff_sub:
            # exact value = raw + (1 - f) when sticky, with 0 < f < 1
            raw = big_grs - aligned_small - sticky
        else:
            raw = big_grs + aligned_small
        if raw < 0:
            # only reachable under fault corruption of the ordering regs
            raw = -raw
            result_sign ^= 1
        raw = self._latch("norm.raw_sum", raw, lane, self._mant_bits + 6)

        if raw == 0:
            if not sticky:
                return self._latch(
                    "round.result", self._pack(0, 0, 0), lane,
                    self.fmt.width)
            raw = 1  # fault-corrupted total cancellation: keep the fraction

        # normalise: bring the leading one to the target bit (1.M+GRS
        # format).  The shift amount is computed first, flows through its
        # own stage register, and only the *latched* value feeds the barrel
        # shifter — a transient on norm.shift therefore mis-normalises the
        # sum and propagates into the packed result.
        shift = 0
        if raw >> self._grsw:
            sticky |= raw & 1
            raw >>= 1
            result_exp += 1
            norm_right = True
        else:
            while (not ((raw << shift) >> self._lead)
                   and shift < self._mant_bits + 5):
                shift += 1
            norm_right = False
        shift = self._latch(
            "norm.shift", min(shift, (1 << self._shiftw) - 1), lane,
            self._shiftw)
        if not norm_right:
            raw <<= shift
            result_exp -= shift
        # a >1-bit left shift only happens when exp_diff <= 2, where the
        # alignment was exact (sticky == 0), so OR-ing the sticky into the
        # lowest kept bit after normalisation preserves round-to-nearest-even
        raw |= sticky
        raw = self._latch("norm.mant", raw, lane, self._grsw)
        result_exp = self._latch(
            "norm.exp", result_exp & self._exp2_mask, lane,
            self.fmt.exp_bits + 2)
        return self._round_pack(result_sign, result_exp, raw, lane)

    # -- multiply datapath -----------------------------------------------------
    def _mul_datapath(self, a, b, lane: int) -> Tuple[int, int, int, int]:
        """Return (sign, unbiased-ish exponent, product hi, product lo)."""
        a_sign, a_exp, a_mant = a
        b_sign, b_exp, b_mant = b
        sign = self._latch("mul.prod_sign", a_sign ^ b_sign, lane, 1)
        exp = a_exp + b_exp - self._exp_bias
        exp = self._latch(
            "mul.prod_exp", exp & self._exp2_mask, lane,
            self.fmt.exp_bits + 2)
        # two-stage multiplier: full x half partial products, then the sum
        split = self._split
        pp_w = 2 * self._full - split
        pp_a = self._latch(
            "mul.pp_a", a_mant * (b_mant & ((1 << split) - 1)), lane, pp_w)
        pp_b = self._latch("mul.pp_b", a_mant * (b_mant >> split), lane, pp_w)
        product = pp_a + (pp_b << split)
        lo = self._latch(
            "mul.prod_lo", product & ((1 << self._full) - 1), lane,
            self._full)
        hi = self._latch("mul.prod_hi", product >> self._full, lane,
                         self._full)
        return sign, exp, hi, lo

    def _normalise_product(self, sign: int, exp: int, product: int,
                           lane: int) -> int:
        """Normalise/round the double-width product of full mantissas."""
        if product == 0:
            return self._latch(
                "round.result", self._pack(sign, 0, 0), lane, self.fmt.width)
        # find the leading one (2M+1 or 2M in the fault-free case)
        top = product.bit_length() - 1
        # align so the leading one sits at the GRS mantissa's target bit
        if top > self._lead:
            shift = top - self._lead
            sticky = 1 if (product & ((1 << shift) - 1)) else 0
            mant = (product >> shift) | sticky
            exp = exp + (top - self._prod_adjust)
        else:
            mant = product << (self._lead - top)
            exp = exp + (top - self._prod_adjust)
        mant = self._latch("norm.mant", mant, lane, self._grsw)
        exp = self._latch("norm.exp", exp & self._exp2_mask, lane,
                          self.fmt.exp_bits + 2)
        return self._round_pack(sign, exp, mant, lane)

    # -- fused accumulate -------------------------------------------------------
    def _fma_accumulate(self, p_sign: int, p_exp: int, product: int,
                        c, lane: int) -> int:
        """Add the exact product to the addend, then round once."""
        c_sign, c_exp, c_mant = c
        # the widened product-exponent register wraps for subnormal-range
        # products; interpret it as signed before using it for alignment
        if p_exp >= self._exp2_half:
            p_exp -= self._exp2_wrap
        # product value  = product * 2^(p_exp - BIAS - 2M)  (2(M+1)-bit int)
        # addend value   = c_mant  * 2^(c_exp - BIAS - M)   (M+1-bit int)
        # align both to a common scale via exact left shifts
        p_val = product << _GRS
        p_scale = p_exp - self._prod_adjust - _GRS
        c_val = c_mant << _GRS
        c_scale = c_exp - self._mant_bits - _GRS
        if c_exp == 0:
            c_val = 0
            c_scale = p_scale
        if c_scale > p_scale:
            shift = min(c_scale - p_scale, 1200)
            c_val <<= shift
            c_scale = p_scale
        elif p_scale > c_scale:
            shift = min(p_scale - c_scale, 1200)
            p_val <<= shift
            p_scale = c_scale
        if p_sign == c_sign:
            total = p_val + c_val
            sign = p_sign
        else:
            total = p_val - c_val
            sign = p_sign
            if total < 0:
                total = -total
                sign = c_sign
        sign = self._latch("fma.wide_sign", sign, lane, 1)
        if total == 0:
            return self._latch(
                "round.result", self._pack(0, 0, 0), lane, self.fmt.width)
        # compress the wide accumulator into hi/lo registers with sticky
        cap = self._wide_cap
        top = total.bit_length() - 1
        if top > cap:
            drop = top - cap
            sticky = 1 if (total & ((1 << drop) - 1)) else 0
            total = (total >> drop) | sticky
            p_scale += drop
            top = cap
        lo_w = self._mant_bits + 7
        lo = self._latch("fma.wide_lo", total & ((1 << lo_w) - 1), lane, lo_w)
        hi = self._latch("fma.wide_hi", total >> lo_w, lane, self._full)
        total = (hi << lo_w) | lo
        if total == 0:
            return self._latch(
                "round.result", self._pack(0, 0, 0), lane, self.fmt.width)
        top = total.bit_length() - 1
        # value == total * 2^(p_scale - BIAS), so the leading bit at
        # position `top` has biased exponent p_scale + top
        exp = p_scale + top
        exp = self._latch("fma.wide_exp", exp & self._exp2_mask, lane,
                          self.fmt.exp_bits + 2)
        if top > self._lead:
            drop = top - self._lead
            sticky = 1 if (total & ((1 << drop) - 1)) else 0
            mant = (total >> drop) | sticky
        else:
            mant = total << (self._lead - top)
        mant = self._latch("norm.mant", mant, lane, self._grsw)
        return self._round_pack(sign, exp, mant, lane)

    # -- round + pack -----------------------------------------------------------
    def _round_pack(self, sign: int, exp: int, mant_grs: int, lane: int) -> int:
        """Round a 1.M+GRS mantissa to nearest-even and pack.

        ``exp`` arrives as an ``E+2``-bit two's-complement-ish biased
        exponent so underflow/overflow survive fault corruption of the
        exponent registers without wrapping silently.
        """
        # interpret the widened register as signed to detect underflow
        if exp >= self._exp2_half:
            exp -= self._exp2_wrap
        grs = mant_grs & 0x7
        mant = mant_grs >> _GRS
        if grs > 4 or (grs == 4 and (mant & 1)):
            mant += 1
            if mant >> self._full:
                mant >>= 1
                exp += 1
        mant = self._latch(
            "round.mant", mant & ((1 << self._full) - 1), lane, self._full)
        if exp >= self._exp_mask:
            result = self._pack(sign, self._exp_mask, 0)  # overflow -> Inf
        elif exp <= 0:
            result = self._pack(sign, 0, 0)  # FTZ underflow
        else:
            exp = self._latch("round.exp", exp, lane, self.fmt.exp_bits)
            result = self._pack(sign, exp, mant & self._mant_mask)
        return self._latch("round.result", result, lane, self.fmt.width)


class FP32Unit(FloatUnit):
    """The binary32 instance — bit-identical to the historical FP32 unit."""

    def __init__(self, plane: FaultPlane, n_lanes: int = 8,
                 module: str = ModuleName.FP32) -> None:
        super().__init__(plane, n_lanes, FP32, module)


class FP16Unit(FloatUnit):
    """IEEE binary16 pipelines with 16-bit-scale stage registers."""

    def __init__(self, plane: FaultPlane, n_lanes: int = 8,
                 module: str = ModuleName.FP16) -> None:
        super().__init__(plane, n_lanes, FP16, module)


class BF16Unit(FloatUnit):
    """bfloat16 pipelines: binary32 exponent range, 8-bit significand."""

    def __init__(self, plane: FaultPlane, n_lanes: int = 8,
                 module: str = ModuleName.BF16) -> None:
        super().__init__(plane, n_lanes, BF16, module)
