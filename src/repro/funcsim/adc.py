"""ADC transfer function.

Bit-line currents are digitised by an ``adc_bits`` converter whose LSB is
*aligned to the unit-count current* ``dV * dG`` — the current produced by a
single (stream-level 1) x (slice-level 1) product. This is how bit-sliced
accelerators size their converters (ISAAC: ``adc_bits ~ log2(rows) +
stream_bits + slice_bits``; the paper's 14 bits = 6 + 4 + 4 for a 64-row
crossbar): with an aligned grid the conversion of an *ideal* current is
lossless, so every ADC error observed downstream is attributable to analog
non-ideality or to genuinely insufficient resolution — not to an arbitrary
misalignment between the ADC grid and the integer count grid.

Currents above the span clip; device non-linearity can genuinely push
bit-line currents beyond the ideal maximum, and that saturation is part of
the modelled behaviour.

Grid-alignment subtlety: the ``g_off`` mapping bias adds ``(2^slice_bits -
1) / (onoff - 1)`` count-units of current per active input row. With the
paper's configuration (4-bit slices, ON/OFF = 6) that is exactly 3 units,
so the aligned ADC digitises ideal currents losslessly; for narrower slices
the bias is fractional and contributes a genuine sub-LSB conversion error.
Tests that want a lossless oracle for arbitrary slicing shrink the LSB with
``adc_headroom = 1 / (onoff - 1)`` so both grids align.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.validation import check_positive


class AdcModel:
    """Uniform quantiser over ``[0, (2**bits - 1) * lsb_a]``.

    Optional converter non-idealities (cf. the AMS error-modelling line of
    work the paper cites as related): a static input-referred ``offset_a``
    and white input-referred noise of ``noise_rms_a`` (re-sampled per
    conversion from a seeded generator, so runs stay reproducible).
    """

    def __init__(self, bits: int, lsb_a: float, offset_a: float = 0.0,
                 noise_rms_a: float = 0.0, seed=0):
        if bits < 1:
            raise ConfigError(f"adc bits must be >= 1, got {bits}")
        check_positive("lsb_a", lsb_a)
        if noise_rms_a < 0:
            raise ConfigError("noise_rms_a must be >= 0")
        self.bits = int(bits)
        self.lsb_a = float(lsb_a)
        self.offset_a = float(offset_a)
        self.noise_rms_a = float(noise_rms_a)
        self.n_codes = 2 ** self.bits
        self.full_scale_a = (self.n_codes - 1) * self.lsb_a
        self._rng = np.random.default_rng(seed)

    @classmethod
    def aligned(cls, bits: int, unit_current_a: float,
                headroom: float = 1.0, offset_lsb: float = 0.0,
                noise_lsb: float = 0.0, seed=0) -> "AdcModel":
        """LSB equal to ``headroom`` unit-count currents (default aligned).

        ``offset_lsb`` / ``noise_lsb`` specify converter non-idealities in
        LSB units.
        """
        lsb = unit_current_a * headroom
        return cls(bits, lsb, offset_a=offset_lsb * lsb,
                   noise_rms_a=noise_lsb * lsb, seed=seed)

    def transfer(self, currents_a: np.ndarray) -> np.ndarray:
        """Convert a float64 current array into output codes, in place.

        Adds the offset and (drawn in the array's own memory order) the
        noise, then rounds to the nearest code and clips to the code
        range. The codes stay float64 — exact integers — so the digital
        back end can contract them without a cast. Returns the array.
        """
        if self.offset_a:
            np.add(currents_a, self.offset_a, out=currents_a)
        if self.noise_rms_a:
            currents_a += self._rng.normal(0.0, self.noise_rms_a,
                                           size=currents_a.shape)
        np.divide(currents_a, self.lsb_a, out=currents_a)
        np.rint(currents_a, out=currents_a)
        return np.clip(currents_a, 0, self.n_codes - 1, out=currents_a)

    def codes(self, currents_a) -> np.ndarray:
        """Digital output codes (clipped round-to-nearest)."""
        return self.transfer(
            np.array(currents_a, dtype=np.float64)).astype(np.int64)

    def measure(self, currents_a) -> np.ndarray:
        """Quantised current estimate (codes scaled back to Amperes)."""
        return self.codes(currents_a) * self.lsb_a

    def __repr__(self):
        return (f"AdcModel(bits={self.bits}, "
                f"full_scale_a={self.full_scale_a:g}, "
                f"offset_a={self.offset_a:g}, "
                f"noise_rms_a={self.noise_rms_a:g})")
