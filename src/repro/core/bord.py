"""The Bounding Region Diagram — the 2-D projection of the Roof-Surface.

A BORD (Section 4.2, Figure 5) projects the roof-surface onto the
(AI_XM, AI_XV) plane. Three straight lines separate the plane into the
MEM-, VEC- and MTX-bound regions::

    y = (MBW / VOS) * x      MEM | VEC boundary
    x =  MOS / MBW           MEM | MTX boundary
    y =  MOS / VOS           VEC | MTX boundary

The BORD carries no FLOPS information but instantly identifies which
resource bounds each plotted kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.machine import MachineSpec
from repro.core.roofsurface import BoundingFactor, RoofSurface
from repro.errors import ConfigurationError

#: The regions :meth:`Bord._classify_grid` codes as 0, 1, 2: tie-break order.
_GRID_FACTORS = (
    BoundingFactor.MEMORY,
    BoundingFactor.MATRIX,
    BoundingFactor.VECTOR,
)


@dataclass(frozen=True)
class BordLines:
    """The three boundary-line parameters of a BORD."""

    mem_vec_slope: float  # y = slope * x separates MEM (above) from VEC
    mem_mtx_x: float  # vertical line x = MOS / MBW
    vec_mtx_y: float  # horizontal line y = MOS / VOS


@dataclass(frozen=True)
class BordPoint:
    """A kernel placed on a BORD."""

    label: str
    aixm: float
    aixv: float
    bound: BoundingFactor


class Bord:
    """Bounding Region Diagram for one machine."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        # The regions do not depend on N; batch_rows=1 is arbitrary here.
        self._surface = RoofSurface(machine, batch_rows=1)

    @property
    def lines(self) -> BordLines:
        """The boundary lines of Figure 5."""
        m = self.machine
        return BordLines(
            mem_vec_slope=m.memory_bandwidth / m.vector_ops_per_second,
            mem_mtx_x=m.matrix_ops_per_second / m.memory_bandwidth,
            vec_mtx_y=m.matrix_ops_per_second / m.vector_ops_per_second,
        )

    def classify(self, aixm: float, aixv: float) -> BoundingFactor:
        """Region of a kernel signature."""
        return self._surface.bounding_factor(aixm, aixv)

    def _classify_grid(self, aixm: np.ndarray, aixv: np.ndarray) -> np.ndarray:
        """:meth:`classify` of every (aixm[i], aixv[j]), as codes at [j, i].

        Code c stands for ``_GRID_FACTORS[c]``. The three rates are the
        same products :class:`RoofSurface` forms, so every cell matches
        the scalar classification, ties included.
        """
        m = self.machine
        mem = m.memory_bandwidth * aixm[np.newaxis, :]
        vec = m.vector_ops_per_second * aixv[:, np.newaxis]
        mtx = m.matrix_ops_per_second
        return np.where(
            (mem <= mtx) & (mem <= vec), 0, np.where(mtx <= vec, 1, 2)
        )

    def place(self, label: str, aixm: float, aixv: float) -> BordPoint:
        """Place a labelled kernel on the diagram."""
        return BordPoint(label, aixm, aixv, self.classify(aixm, aixv))

    def place_all(
        self, signatures: Sequence[Tuple[str, float, float]]
    ) -> List[BordPoint]:
        """Place several (label, aixm, aixv) kernels at once."""
        return [self.place(label, x, y) for label, x, y in signatures]

    def region_fractions(
        self, aixm_max: float, aixv_max: float, samples: int = 200
    ) -> Dict[BoundingFactor, float]:
        """Fraction of the plot window covered by each bounding region.

        This quantifies statements like "the MEM-bound region increases"
        (Figure 5b) and "the VEC-bound area decreases" (Figure 6).
        """
        if aixm_max <= 0 or aixv_max <= 0:
            raise ConfigurationError("window extents must be positive")
        centres = np.arange(samples) + 0.5
        codes = self._classify_grid(
            centres * (aixm_max / samples), centres * (aixv_max / samples)
        )
        counts = np.bincount(codes.ravel(), minlength=len(_GRID_FACTORS))
        by_factor = dict(zip(_GRID_FACTORS, counts.tolist()))
        total = samples * samples
        return {factor: by_factor[factor] / total for factor in BoundingFactor}

    def render_ascii(
        self,
        points: Sequence[BordPoint],
        aixm_max: float,
        aixv_max: float,
        width: int = 64,
        height: int = 20,
    ) -> str:
        """Text rendering of the BORD: region letters plus '*' kernels.

        'm' marks MEM-bound cells, 'v' VEC-bound, 'x' MTX-bound; plotted
        kernels overwrite their cell with '*'. The y axis grows upward.
        """
        if width < 8 or height < 4:
            raise ConfigurationError("ascii canvas too small to be readable")
        letters = {
            BoundingFactor.MEMORY: "m",
            BoundingFactor.VECTOR: "v",
            BoundingFactor.MATRIX: "x",
        }
        codes = self._classify_grid(
            (np.arange(width) + 0.5) / width * aixm_max,
            (height - np.arange(height) - 0.5) / height * aixv_max,
        )
        rows = [
            [letters[_GRID_FACTORS[code]] for code in row]
            for row in codes.tolist()
        ]
        for point in points:
            col = int(point.aixm / aixm_max * width)
            row = height - 1 - int(point.aixv / aixv_max * height)
            if 0 <= row < height and 0 <= col < width:
                rows[row][col] = "*"
        header = (
            f"BORD {self.machine.name}: x=AI_XM (max {aixm_max:g}), "
            f"y=AI_XV (max {aixv_max:g})"
        )
        return "\n".join([header] + ["".join(row) for row in rows])
