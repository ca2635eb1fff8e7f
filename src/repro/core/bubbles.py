"""DECA pipeline-bubble analytics (Section 6.2).

A DECA vOp produces W output elements per cycle, but the dequantization
stage can only look up ``Lq`` elements per cycle (``Lq`` depends on the LUT
count L and the element bit-width). When a vOp's input *window* — the
number of nonzeros it must dequantize — exceeds ``Lq``, the vOp occupies
the stage for extra cycles, injecting bubbles.

For dense schemes the window is always W, so ``bpv = ceil(W / Lq) - 1``.
For unstructured sparsity with uniformly distributed nonzeros the window is
Binomial(W, d) and the expected bubbles follow the paper's formula::

    bpv = sum_{k=0}^{W/Lq - 1} k * [F((k+1) Lq; W, d) - F(k Lq; W, d)]

where F is the binomial CDF.

F is SciPy's Boost binomial-CDF kernel, the one ``scipy.stats.binom.cdf``
wraps. It is loaded on the first sparse evaluation, so importing this
module (and the CLI) never imports SciPy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from repro.errors import ConfigurationError
from repro.units import TILE_ELEMS


def lut_reads_per_cycle(lut_count: int, bits: int) -> int:
    """Lq: elements dequantizable per cycle for a given LUT array and width.

    Each of the L "big" LUTs holds 256 entries split into four 64-entry
    sub-LUTs with independent read ports (Section 6.1). 8-bit codes need the
    whole big LUT (Lq = L); 7-bit codes can pair sub-LUTs (Lq = 2L); 6-bit
    and narrower codes use sub-LUTs independently (Lq = 4L).
    """
    if lut_count < 1:
        raise ConfigurationError(f"lut_count must be >= 1, got {lut_count}")
    if not 1 <= bits <= 8:
        raise ConfigurationError(
            f"LUT dequantization supports 1-8 bit codes, got {bits}"
        )
    if bits == 8:
        return lut_count
    if bits == 7:
        return 2 * lut_count
    return 4 * lut_count


@functools.cache
def binom_cdf_kernel() -> Callable[[float, float, float], float]:
    """SciPy's binomial CDF ufunc ``(k, n, p)``, imported on first use.

    ``scipy.special`` costs a fraction of ``scipy.stats``'s import time,
    and this private ufunc is exactly what ``binom.cdf`` evaluates; the
    public ``bdtr``/``betaincc`` routes differ from it in the last bits.
    A process about to fork workers calls this first, so the workers
    inherit the loaded kernel instead of each importing SciPy.
    """
    from scipy.special._ufuncs import _binom_cdf

    return _binom_cdf


def _binom_cdf(k: int, n: int, p: float) -> float:
    """``scipy.stats.binom.cdf(k, n, p)`` bit for bit, for 0 <= k, n >= 1.

    Mirrors ``rv_discrete.cdf`` around the kernel: exactly 1.0 at or past
    the support's upper end, the kernel's value clipped to [0, 1] below.
    """
    if k >= n:
        return 1.0
    return min(max(binom_cdf_kernel()(k, n, p), 0.0), 1.0)


def bubbles_per_vop_dense(width: int, lq: int) -> int:
    """Bubbles per vOp when every window holds exactly W elements."""
    if width < 1 or lq < 1:
        raise ConfigurationError("width and lq must be >= 1")
    return math.ceil(width / lq) - 1


def bubbles_per_vop_sparse(width: int, lq: int, density: float) -> float:
    """Expected bubbles per vOp for uniform unstructured sparsity.

    Implements the binomial-CDF expectation of Section 6.2. ``density`` is
    the fraction of nonzeros d; the window size is Binomial(W, d).
    """
    if width < 1 or lq < 1:
        raise ConfigurationError("width and lq must be >= 1")
    if not 0.0 < density <= 1.0:
        raise ConfigurationError(f"density must be in (0, 1], got {density}")
    max_extra = math.ceil(width / lq) - 1
    if max_extra <= 0:
        return 0.0
    expected = 0.0
    for extra in range(max_extra + 1):
        upper = _binom_cdf(min((extra + 1) * lq, width), width, density)
        lower = _binom_cdf(extra * lq, width, density)
        expected += extra * (upper - lower)
    return float(expected)


def bubbles_per_vop(
    width: int, lq: int, density: float, sparse: bool
) -> float:
    """Bubbles per vOp for a scheme: exact when dense, expected when sparse.

    A *dense* scheme always presents full-W windows; a sparse one presents
    binomially distributed windows (smaller windows -> fewer bubbles, which
    is how DECA "naturally achieves higher throughput for sparse schemes").
    """
    if sparse:
        return bubbles_per_vop_sparse(width, lq, density)
    return float(bubbles_per_vop_dense(width, lq))


def deca_vops_per_tile(
    width: int,
    lut_count: int,
    bits: int,
    density: float,
    sparse: bool,
    dequant_needed: bool = True,
) -> float:
    """Effective vOp slots (vOps + bubbles) a DECA spends per 512-elem tile.

    ``#vOps = 512 / W`` chunks, each expanded by ``1 + bpv`` cycles. When a
    scheme needs no dequantization (16-bit storage bypasses the LUT stage)
    no bubbles can form regardless of L.
    """
    if width < 1 or TILE_ELEMS % width != 0:
        raise ConfigurationError(
            f"vOp width must divide {TILE_ELEMS}, got {width}"
        )
    vops = TILE_ELEMS / width
    if not dequant_needed:
        return vops
    lq = lut_reads_per_cycle(lut_count, bits)
    return vops * (1.0 + bubbles_per_vop(width, lq, density, sparse))


def deca_aixv(
    width: int,
    lut_count: int,
    bits: int,
    density: float,
    sparse: bool,
    dequant_needed: bool = True,
) -> float:
    """AI_XV of a DECA design for a scheme: 1 / (#vOps * (1 + bpv))."""
    return 1.0 / deca_vops_per_tile(
        width, lut_count, bits, density, sparse, dequant_needed
    )
