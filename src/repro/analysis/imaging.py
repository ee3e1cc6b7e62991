"""Rotating-modulation-collimator imaging via back-projection.

RHESSI has no focusing optics: each collimator casts a rotating shadow
pattern on its detector, and the source position is recovered by
*back-projection* — for every photon, add its collimator's modulation
pattern (a sinusoid across the sky in the direction the grid faced at the
photon's arrival time) to the image.  Sources reinforce where patterns
intersect.  This is the classic, genuinely CPU-bound RHESSI imaging step
(~20-60 s per image in the paper's Table 1), and it is the kernel whose
cost our processing evaluation inherits.

The kernel exploits the fact that a photon influences the image only
through its *spin-phase angle* (arrival time modulo the spacecraft spin):
photons are binned into ``n_phase_bins`` rotation-phase bins, one
modulation pattern is computed per **occupied** bin at the bin's circular
mean angle, and the weighted patterns are streamed into the output image
in bounded steps.  A pattern is a cosine of a sum of one term per image
axis, so it separates (``cos(a+b) = cos a·cos b − sin a·sin b``): K
patterns cost 4·K·P trig evaluations and two (P×K)·(K×P) matrix
products, 4·K·P² multiply-adds, where the naive per-photon evaluation —
an ``(n_photons, n_pixels, n_pixels)`` temporary — takes N·P² cosines,
K ≪ N.  The working set is O(step·P).  The phase grid (pixel offsets
from the assumed source) is built once and shared by all detectors; only
the pitch-dependent wavenumber differs per collimator.

Accuracy bound of the binning approximation: within a bin the angle is
off by at most Δθ/2 = π/K, so a pattern value is off by at most
``2π·r/pitch · π/K`` radians of phase at sky distance ``r`` from the
source — second-order near the source peak (r → 0), which is why peak
position and dynamic range are preserved.  ``n_phase_bins=None`` disables
binning and evaluates per photon (exact, still streamed in steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..rhessi.instrument import COLLIMATOR_PITCHES_ARCSEC, SPIN_PERIOD_S
from ..rhessi.photons import PhotonList

#: Default number of rotation-phase bins; preserves the unbinned result
#: within tolerance (see module docstring) while doing K ≪ N pattern
#: evaluations.
DEFAULT_PHASE_BINS = 256

#: Angles per step of the streaming accumulator.  It bounds the working
#: set of exact mode, where every photon is an angle, and it keeps each
#: matrix product small enough (n_pixels² · 64 multiply-adds, up to the
#: default 64-pixel image) that OpenBLAS runs it on the calling thread:
#: measured, its worker threads gain nothing at these sizes and now and
#: then stall a product for ~25 ms.  Larger steps are no faster (the
#: trig dominates): 64, 256, 1024, 4096 angles read the same within 15 %.
_ANGLES_PER_STEP = 64


@dataclass(frozen=True)
class ImageResult:
    """A reconstructed image with its world coordinates."""

    image: np.ndarray          # (n_pixels, n_pixels) float64
    extent_arcsec: float       # full field-of-view width
    center_arcsec: tuple[float, float]
    n_photons_used: int

    @property
    def n_pixels(self) -> int:
        return self.image.shape[0]

    def peak_position(self) -> tuple[float, float]:
        """Sky position (arcsec) of the brightest pixel."""
        row, column = np.unravel_index(int(np.argmax(self.image)), self.image.shape)
        half = self.extent_arcsec / 2.0
        step = self.extent_arcsec / self.n_pixels
        x = self.center_arcsec[0] - half + (column + 0.5) * step
        y = self.center_arcsec[1] - half + (row + 0.5) * step
        return x, y

    def dynamic_range(self) -> float:
        peak = float(self.image.max())
        floor = float(np.abs(self.image).mean()) or 1.0
        return peak / floor


def _accumulate_patterns(
    image: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    cos_angles: np.ndarray,
    sin_angles: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Stream ``weights[i] * cos(kx·cosθᵢ + ky·sinθᵢ)`` into ``image``.

    The pattern separates along the image axes,
    ``cos(a + b) = cos a · cos b − sin a · sin b`` with ``a = kx·cosθᵢ``
    (columns) and ``b = ky·sinθᵢ`` (rows), so a step of angles costs
    four ``(step, n_pixels)`` trig arrays and two
    ``(n_pixels, step)·(step, n_pixels)`` products: no
    ``(step, n_pixels, n_pixels)`` temporary is ever built, and the
    working set stays at ``_ANGLES_PER_STEP`` rows however many angles
    (photons or phase bins) are accumulated.
    """
    for start in range(0, len(cos_angles), _ANGLES_PER_STEP):
        step = slice(start, start + _ANGLES_PER_STEP)
        along_x = cos_angles[step, None] * kx[None, :]
        along_y = sin_angles[step, None] * ky[None, :]
        weighted = weights[step, None]
        image += (weighted * np.cos(along_y)).T @ np.cos(along_x)
        image -= (weighted * np.sin(along_y)).T @ np.sin(along_x)


def back_projection(
    photons: PhotonList,
    n_pixels: int = 64,
    extent_arcsec: float = 2048.0,
    center_arcsec: tuple[float, float] = (0.0, 0.0),
    detectors: Optional[list[int]] = None,
    source_position: Optional[tuple[float, float]] = None,
    n_phase_bins: Optional[int] = DEFAULT_PHASE_BINS,
) -> ImageResult:
    """Back-project a photon list onto an image grid.

    ``source_position`` lets the synthetic pipeline imprint a coherent
    modulation phase for a known source (the generator does not simulate
    grid transmission itself); analyses of real detections pass the
    detected event's position estimate.

    ``n_phase_bins`` is the angle-binning knob: photons collapse into
    that many spin-phase bins before pattern evaluation (see module
    docstring for the accuracy bound).  ``None`` evaluates every photon
    exactly; any value still streams with a bounded working set.
    """
    if n_pixels < 4:
        raise ValueError("n_pixels must be >= 4")
    if n_phase_bins is not None and n_phase_bins < 1:
        raise ValueError("n_phase_bins must be >= 1 (or None for exact)")
    if len(photons) == 0:
        return ImageResult(
            np.zeros((n_pixels, n_pixels)), extent_arcsec, center_arcsec, 0
        )
    chosen = detectors if detectors is not None else list(range(1, 10))
    half = extent_arcsec / 2.0
    axis = np.linspace(-half, half, n_pixels) + 0.0
    source = source_position if source_position is not None else center_arcsec
    # Phase grid relative to the assumed source, shared by every detector:
    # (projected - source_projected)(θ) = x_rel·cosθ + y_rel·sinθ with
    # x_rel varying along columns and y_rel along rows.
    x_rel = (center_arcsec[0] - source[0]) + axis
    y_rel = (center_arcsec[1] - source[1]) + axis
    image = np.zeros((n_pixels, n_pixels))
    used = 0

    # Spin-phase angle of every photon, trig evaluated once for the lot.
    all_angles = 2.0 * np.pi * (photons.times % SPIN_PERIOD_S) / SPIN_PERIOD_S
    if n_phase_bins is not None:
        bin_width = 2.0 * np.pi / n_phase_bins
        all_bins = np.minimum(
            (all_angles / bin_width).astype(np.intp), n_phase_bins - 1
        )
        all_cos = np.cos(all_angles)
        all_sin = np.sin(all_angles)

    for detector_index in chosen:
        mask = photons.detectors == detector_index
        n_subset = int(np.count_nonzero(mask))
        if n_subset == 0:
            continue
        pitch = COLLIMATOR_PITCHES_ARCSEC[detector_index - 1]
        wavenumber = 2.0 * np.pi / pitch
        kx = wavenumber * x_rel
        ky = wavenumber * y_rel
        if n_phase_bins is None:
            angles = all_angles[mask]
            _accumulate_patterns(
                image, kx, ky, np.cos(angles), np.sin(angles),
                np.ones(n_subset),
            )
        else:
            bins = all_bins[mask]
            counts = np.bincount(bins, minlength=n_phase_bins)
            # Circular mean angle per occupied bin: bins are narrower than
            # π so the resultant never cancels and the mean is well defined.
            cos_sum = np.bincount(bins, weights=all_cos[mask], minlength=n_phase_bins)
            sin_sum = np.bincount(bins, weights=all_sin[mask], minlength=n_phase_bins)
            occupied = counts > 0
            mean_angles = np.arctan2(sin_sum[occupied], cos_sum[occupied])
            _accumulate_patterns(
                image, kx, ky, np.cos(mean_angles), np.sin(mean_angles),
                counts[occupied].astype(np.float64),
            )
        used += n_subset
    if used:
        image /= used
    return ImageResult(image, extent_arcsec, center_arcsec, used)


def clean_iterations(image_result: ImageResult, n_iterations: int = 16, gain: float = 0.1) -> ImageResult:
    """A toy CLEAN pass: iteratively subtract the brightest point response.

    Included as one of the "several dozen analysis algorithms" HEDC runs
    per event (paper §2.2); it sharpens a back-projection map.
    """
    image = image_result.image.copy()
    model = np.zeros_like(image)
    sigma_pixels = max(image.shape[0] / 32.0, 1.0)
    rows = np.arange(image.shape[0])[:, None]
    columns = np.arange(image.shape[1])[None, :]
    for _iteration in range(n_iterations):
        row, column = np.unravel_index(int(np.argmax(image)), image.shape)
        peak = image[row, column]
        if peak <= 0:
            break
        beam = np.exp(
            -((rows - row) ** 2 + (columns - column) ** 2) / (2.0 * sigma_pixels ** 2)
        )
        image -= gain * peak * beam
        model[row, column] += gain * peak
    return ImageResult(
        model + image * 0.1,
        image_result.extent_arcsec,
        image_result.center_arcsec,
        image_result.n_photons_used,
    )
