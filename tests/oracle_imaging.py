"""Back-projection oracles: the kernels ``repro.analysis.imaging`` replaced.

``back_projection_dense`` is the first kernel (one dense
``(n_photons, P, P)`` temporary per detector, per-photon trig): the
numerical reference of the angle-binning tolerance tests.
``accumulate_patterns_chunked`` is the accumulator as it stood before
the patterns were separated along the image axes (one ``K×P×P`` cosine
per chunk of 64 angles): the reference the separable kernel is compared
with, binned and exact, and the baseline of
``benchmarks/test_analyze_path.py``.  Neither is imported by ``src``.
"""

from __future__ import annotations

from typing import Optional
from unittest import mock

import numpy as np

from repro.analysis import imaging
from repro.analysis.imaging import ImageResult
from repro.rhessi.instrument import COLLIMATOR_PITCHES_ARCSEC, SPIN_PERIOD_S
from repro.rhessi.photons import PhotonList

_CHUNK_ANGLES = 64


def accumulate_patterns_chunked(
    image: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    cos_angles: np.ndarray,
    sin_angles: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Stream ``weights[i] * cos(kx·cosθᵢ + ky·sinθᵢ)`` into ``image``.

    Works on angle chunks so the live temporary stays at
    ``(_CHUNK_ANGLES, n_pixels, n_pixels)`` regardless of how many
    angles (photons or phase bins) are being accumulated.
    """
    for start in range(0, len(cos_angles), _CHUNK_ANGLES):
        cos_chunk = cos_angles[start:start + _CHUNK_ANGLES]
        sin_chunk = sin_angles[start:start + _CHUNK_ANGLES]
        phase = (
            cos_chunk[:, None, None] * kx[None, None, :]
            + sin_chunk[:, None, None] * ky[None, :, None]
        )
        np.cos(phase, out=phase)
        image += np.tensordot(weights[start:start + _CHUNK_ANGLES], phase, axes=1)


def back_projection_chunked(photons: PhotonList, **parameters) -> ImageResult:
    """``back_projection`` with the chunked accumulator in the separable
    one's place: same binning, same grid, the other arithmetic."""
    with mock.patch.object(imaging, "_accumulate_patterns", accumulate_patterns_chunked):
        return imaging.back_projection(photons, **parameters)


def back_projection_dense(
    photons: PhotonList,
    n_pixels: int = 64,
    extent_arcsec: float = 2048.0,
    center_arcsec: tuple[float, float] = (0.0, 0.0),
    detectors: Optional[list[int]] = None,
    source_position: Optional[tuple[float, float]] = None,
) -> ImageResult:
    """The pre-optimisation kernel: one dense ``(n_photons, P, P)``
    temporary per detector and per-photon trig.

    Kept as the numerical reference for the angle-binning tolerance tests
    and as the baseline the ``backprojection`` benchmark measures the
    streamed kernel against.  Do not use on large photon lists.
    """
    if n_pixels < 4:
        raise ValueError("n_pixels must be >= 4")
    if len(photons) == 0:
        return ImageResult(
            np.zeros((n_pixels, n_pixels)), extent_arcsec, center_arcsec, 0
        )
    chosen = detectors if detectors is not None else list(range(1, 10))
    half = extent_arcsec / 2.0
    axis = np.linspace(-half, half, n_pixels) + 0.0
    grid_x = center_arcsec[0] + axis[None, :]
    grid_y = center_arcsec[1] + axis[:, None]
    image = np.zeros((n_pixels, n_pixels))
    used = 0
    source = source_position if source_position is not None else center_arcsec
    for detector_index in chosen:
        subset = photons.select_detector(detector_index)
        if len(subset) == 0:
            continue
        pitch = COLLIMATOR_PITCHES_ARCSEC[detector_index - 1]
        # Grid orientation at each photon's arrival time.
        angles = 2.0 * np.pi * (subset.times % SPIN_PERIOD_S) / SPIN_PERIOD_S
        # Projected sky coordinate along the grid normal, per photon/pixel.
        cos_a = np.cos(angles)[:, None, None]
        sin_a = np.sin(angles)[:, None, None]
        projected = grid_x[None, :, :] * cos_a + grid_y[None, :, :] * sin_a
        source_projected = source[0] * cos_a[:, 0, 0] + source[1] * sin_a[:, 0, 0]
        # Modulation pattern: photons arrive preferentially when the source
        # sits on a grid-transmission maximum; back-project that phase.
        phase = 2.0 * np.pi * (projected - source_projected[:, None, None]) / pitch
        image += np.cos(phase).sum(axis=0)
        used += len(subset)
    if used:
        image /= used
    return ImageResult(image, extent_arcsec, center_arcsec, used)
