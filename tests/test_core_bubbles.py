"""Tests for the binomial bubble model (Section 6.2)."""

import numpy as np
import pytest

from repro.core.bubbles import (
    _binom_cdf,
    bubbles_per_vop,
    bubbles_per_vop_dense,
    bubbles_per_vop_sparse,
    deca_aixv,
    deca_vops_per_tile,
    lut_reads_per_cycle,
)
from repro.errors import ConfigurationError


class TestLq:
    def test_eight_bit(self):
        assert lut_reads_per_cycle(8, 8) == 8

    def test_seven_bit_doubles(self):
        assert lut_reads_per_cycle(8, 7) == 16

    def test_six_bit_and_below_quadruple(self):
        assert lut_reads_per_cycle(8, 6) == 32
        assert lut_reads_per_cycle(8, 4) == 32
        assert lut_reads_per_cycle(8, 1) == 32

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            lut_reads_per_cycle(8, 9)
        with pytest.raises(ConfigurationError):
            lut_reads_per_cycle(8, 0)


class TestDenseBubbles:
    def test_w32_l8_8bit(self):
        # Window always 32, Lq=8 -> 4 cycles -> 3 bubbles.
        assert bubbles_per_vop_dense(32, 8) == 3

    def test_no_bubbles_when_lq_covers_w(self):
        assert bubbles_per_vop_dense(32, 32) == 0

    def test_w64_l64(self):
        assert bubbles_per_vop_dense(64, 64) == 0


class TestSparseBubbles:
    def test_zero_when_lq_covers_w(self):
        assert bubbles_per_vop_sparse(32, 32, 0.5) == 0.0

    def test_decreases_with_sparsity(self):
        dense_ish = bubbles_per_vop_sparse(32, 8, 0.9)
        sparse = bubbles_per_vop_sparse(32, 8, 0.1)
        assert sparse < dense_ish

    def test_approaches_dense_limit(self):
        # Density ~1 behaves like the dense case.
        assert bubbles_per_vop_sparse(32, 8, 0.9999) == pytest.approx(
            3.0, abs=0.01
        )

    def test_matches_monte_carlo(self):
        # Validate the CDF expectation against direct simulation.
        rng = np.random.default_rng(42)
        width, lq, density = 32, 8, 0.3
        windows = rng.binomial(width, density, size=200_000)
        emp = np.mean(np.maximum(np.ceil(windows / lq), 1) - 1)
        model = bubbles_per_vop_sparse(width, lq, density)
        assert model == pytest.approx(emp, abs=0.01)

    def test_invalid_density(self):
        with pytest.raises(ConfigurationError):
            bubbles_per_vop_sparse(32, 8, 0.0)

    def test_dispatch(self):
        assert bubbles_per_vop(32, 8, 1.0, sparse=False) == 3.0
        assert bubbles_per_vop(32, 8, 0.5, sparse=True) < 3.0


class TestBinomCdfKernel:
    def test_matches_scipy_stats_bit_for_bit(self):
        """The lazily loaded kernel is ``scipy.stats.binom.cdf`` exactly.

        Pins every k of every power-of-two W up to 512 at d = 0.01..1.00:
        a SciPy release that renames or changes the private kernel must
        fail here, not drift the model's outputs by a few ULPs.
        """
        from scipy.stats import binom

        densities = np.arange(1, 101) / 100
        for width in (2**i for i in range(10)):
            ks = np.arange(width + 1)
            expected = binom.cdf(ks[:, None], width, densities[None, :])
            got = np.array(
                [[_binom_cdf(int(k), width, float(d)) for d in densities]
                 for k in ks]
            )
            mismatched = np.argwhere(got != expected)
            assert mismatched.size == 0, (width, mismatched[:5])


class TestVopsPerTile:
    def test_dense_8bit_w32_l8(self):
        # 16 vOps x (1 + 3 bubbles) = 64 pipeline slots.
        assert deca_vops_per_tile(32, 8, 8, 1.0, sparse=False) == 64

    def test_dense_4bit_no_bubbles(self):
        # Lq = 4 x 8 = 32 = W.
        assert deca_vops_per_tile(32, 8, 4, 1.0, sparse=False) == 16

    def test_no_dequant_no_bubbles(self):
        assert deca_vops_per_tile(32, 8, 8, 0.5, True, dequant_needed=False) == 16

    def test_width_must_divide_tile(self):
        with pytest.raises(ConfigurationError):
            deca_vops_per_tile(33, 8, 8, 1.0, sparse=False)

    def test_aixv_is_reciprocal(self):
        vops = deca_vops_per_tile(32, 8, 8, 0.2, sparse=True)
        assert deca_aixv(32, 8, 8, 0.2, sparse=True) == pytest.approx(1 / vops)

    def test_sparser_is_faster(self):
        slow = deca_vops_per_tile(32, 8, 8, 0.8, sparse=True)
        fast = deca_vops_per_tile(32, 8, 8, 0.05, sparse=True)
        assert fast < slow
