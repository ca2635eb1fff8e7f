"""Tests for the Bounding Region Diagram."""

import pytest

from repro.core.bord import Bord
from repro.core.machine import SPR_DDR, SPR_HBM, MachineSpec
from repro.core.roofsurface import BoundingFactor
from repro.errors import ConfigurationError


class TestLines:
    def test_boundary_line_parameters(self):
        lines = Bord(SPR_HBM).lines
        assert lines.mem_vec_slope == pytest.approx(850e9 / 280e9)
        assert lines.mem_mtx_x == pytest.approx(8.75e9 / 850e9)
        assert lines.vec_mtx_y == pytest.approx(8.75e9 / 280e9)

    def test_classification_matches_lines(self):
        bord = Bord(SPR_HBM)
        lines = bord.lines
        # A point just below the MEM/VEC line (y < slope*x) is VEC-bound.
        x = lines.mem_mtx_x / 2
        assert bord.classify(x, lines.mem_vec_slope * x * 0.9) is (
            BoundingFactor.VECTOR
        )
        assert bord.classify(x, lines.mem_vec_slope * x * 1.1) is (
            BoundingFactor.MEMORY
        )


class TestRegions:
    def test_fractions_sum_to_one(self):
        fractions = Bord(SPR_HBM).region_fractions(0.012, 0.012, samples=50)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_ddr_grows_mem_region(self):
        window = (0.012, 0.012)
        hbm = Bord(SPR_HBM).region_fractions(*window, samples=60)
        ddr = Bord(SPR_DDR).region_fractions(*window, samples=60)
        assert ddr[BoundingFactor.MEMORY] > hbm[BoundingFactor.MEMORY]

    def test_ddr_mtx_region_vanishes_in_window(self):
        # Figure 5b: the MTX region is no longer visible for DDR.
        ddr = Bord(SPR_DDR).region_fractions(0.012, 0.012, samples=60)
        assert ddr[BoundingFactor.MATRIX] < 0.02

    def test_vos_scaling_shrinks_vec_region(self):
        base = Bord(SPR_HBM).region_fractions(0.012, 0.012, samples=60)
        scaled = Bord(SPR_HBM.with_vector_scale(4)).region_fractions(
            0.012, 0.012, samples=60
        )
        assert (
            scaled[BoundingFactor.VECTOR] < base[BoundingFactor.VECTOR]
        )

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            Bord(SPR_HBM).region_fractions(0.0, 0.01)


def _scalar_fractions(bord, aixm_max, aixv_max, samples):
    """The per-point ``classify`` loop the vectorized grid replaced."""
    counts = {factor: 0 for factor in BoundingFactor}
    step_x = aixm_max / samples
    step_y = aixv_max / samples
    for i in range(samples):
        x = (i + 0.5) * step_x
        for j in range(samples):
            counts[bord.classify(x, (j + 0.5) * step_y)] += 1
    return {factor: counts[factor] / samples**2 for factor in BoundingFactor}


def _scalar_ascii_rows(bord, aixm_max, aixv_max, width, height):
    letters = {
        BoundingFactor.MEMORY: "m",
        BoundingFactor.VECTOR: "v",
        BoundingFactor.MATRIX: "x",
    }
    return [
        "".join(
            letters[bord.classify(
                (i + 0.5) / width * aixm_max,
                (height - j - 0.5) / height * aixv_max,
            )]
            for i in range(width)
        )
        for j in range(height)
    ]


#: MBW = VOS = MOS = 4, so the boundary lines are x = 1, y = 1 and y = x.
TIE_MACHINE = MachineSpec(
    name="ties", cores=1, frequency_hz=4.0, avx_units_per_core=1,
    memory_bandwidth=4.0, tmul_cycles=1.0,
)


class TestVectorizedGrid:
    @pytest.mark.parametrize(
        "machine",
        [SPR_HBM, SPR_DDR, SPR_HBM.with_vector_scale(4)],
        ids=lambda m: m.name,
    )
    def test_paper_machines_match_scalar_loop(self, machine):
        bord = Bord(machine)
        assert bord.region_fractions(0.012, 0.012, samples=97) == (
            _scalar_fractions(bord, 0.012, 0.012, 97)
        )

    def test_ties_on_every_boundary_keep_mem_mtx_vec_order(self):
        # Window 2 x 2 with 5 samples: centres 0.2, 0.6, 1.0, 1.4, 1.8,
        # so centres sit exactly on all three boundary lines.
        bord = Bord(TIE_MACHINE)
        surface = bord._surface
        centres = [(j + 0.5) * (2.0 / 5) for j in range(5)]
        assert 1.0 in centres
        assert surface.memory_rate(1.0) == surface.matrix_rate()
        assert surface.vector_rate(1.0) == surface.matrix_rate()
        # MEM|VEC below the MTX roof ties to MEM, MEM|MTX ties to MEM,
        # VEC|MTX ties to MTX.
        assert bord.classify(0.6, 0.6) is BoundingFactor.MEMORY
        assert bord.classify(1.0, 1.4) is BoundingFactor.MEMORY
        assert bord.classify(1.4, 1.0) is BoundingFactor.MATRIX
        assert bord.region_fractions(2.0, 2.0, samples=5) == (
            _scalar_fractions(bord, 2.0, 2.0, 5)
        )
        # ASCII cell centres x = 0.2, 0.6, 1.0, ... and y = 1.8, ..., 0.2.
        assert bord.render_ascii([], 4.0, 2.0, width=10, height=5).split(
            "\n"
        )[1:] == _scalar_ascii_rows(bord, 4.0, 2.0, 10, 5)

    @pytest.mark.parametrize(
        "machine", [SPR_HBM, SPR_DDR], ids=lambda m: m.name
    )
    def test_ascii_matches_scalar_loop(self, machine):
        bord = Bord(machine)
        art = bord.render_ascii([], 0.012, 0.012)
        assert art.split("\n")[1:] == _scalar_ascii_rows(
            bord, 0.012, 0.012, 64, 20
        )


class TestAscii:
    def test_contains_all_regions_for_hbm(self):
        bord = Bord(SPR_HBM)
        art = bord.render_ascii([], 0.012, 0.012)
        assert "m" in art and "v" in art and "x" in art

    def test_points_plotted(self):
        bord = Bord(SPR_HBM)
        point = bord.place("Q8", 0.002, 0.002)
        art = bord.render_ascii([point], 0.012, 0.012)
        assert "*" in art

    def test_too_small_canvas(self):
        with pytest.raises(ConfigurationError):
            Bord(SPR_HBM).render_ascii([], 0.01, 0.01, width=4, height=2)

    def test_place_all(self):
        bord = Bord(SPR_HBM)
        points = bord.place_all([("a", 0.001, 0.001), ("b", 0.01, 0.01)])
        assert [p.label for p in points] == ["a", "b"]
