"""Photon event lists.

RHESSI raw data "is a list of photon impacts on the detectors, with an
energy and a time tag attached to each record" (paper §3.4).  A
:class:`PhotonList` is exactly that: parallel numpy arrays of arrival
time (s), energy (keV) and detector index, sorted by time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..fits import BinTableHDU, FitsError, FitsFile, Header, PrimaryHDU
from .instrument import ENERGY_MAX_KEV, ENERGY_MIN_KEV, N_COLLIMATORS


@dataclass
class PhotonList:
    """Time-ordered photon impact records."""

    times: np.ndarray       # float64 seconds (mission-relative)
    energies: np.ndarray    # float32 keV
    detectors: np.ndarray   # int16 detector index, 1..9

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.energies = np.asarray(self.energies, dtype=np.float32)
        self.detectors = np.asarray(self.detectors, dtype=np.int16)
        if not (len(self.times) == len(self.energies) == len(self.detectors)):
            raise ValueError("photon arrays must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) < 0):
            order = np.argsort(self.times, kind="stable")
            self.times = self.times[order]
            self.energies = self.energies[order]
            self.detectors = self.detectors[order]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def start(self) -> float:
        return float(self.times[0]) if len(self) else 0.0

    @property
    def end(self) -> float:
        return float(self.times[-1]) if len(self) else 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    # -- slicing ------------------------------------------------------------

    def select_time(self, start: float, end: float) -> "PhotonList":
        """Photons with start <= t < end."""
        # Times are sorted (``__post_init__``): two bisections, and copies
        # so the window does not keep the whole list's arrays alive.
        first, last = np.searchsorted(self.times, (start, end), side="left")
        window = slice(first, max(first, last))
        return PhotonList(
            self.times[window].copy(),
            self.energies[window].copy(),
            self.detectors[window].copy(),
        )

    def select_energy(self, low_kev: float, high_kev: float) -> "PhotonList":
        """Photons with low <= E < high."""
        mask = (self.energies >= low_kev) & (self.energies < high_kev)
        return PhotonList(self.times[mask], self.energies[mask], self.detectors[mask])

    def select_detector(self, detector_index: int) -> "PhotonList":
        mask = self.detectors == detector_index
        return PhotonList(self.times[mask], self.energies[mask], self.detectors[mask])

    def concat(self, other: "PhotonList") -> "PhotonList":
        return PhotonList(
            np.concatenate([self.times, other.times]),
            np.concatenate([self.energies, other.energies]),
            np.concatenate([self.detectors, other.detectors]),
        )

    # -- binning -------------------------------------------------------------

    def bin_counts(self, bin_width_s: float, start: Optional[float] = None,
                   end: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """(bin_edges, counts) histogram of arrival times."""
        if bin_width_s <= 0:
            raise ValueError("bin width must be positive")
        t0 = self.start if start is None else start
        t1 = self.end if end is None else end
        if t1 <= t0:
            return np.array([t0, t0 + bin_width_s]), np.zeros(1, dtype=np.int64)
        n_bins = max(1, int(np.ceil((t1 - t0) / bin_width_s)))
        edges = t0 + np.arange(n_bins + 1) * bin_width_s
        counts, _edges = np.histogram(self.times, bins=edges)
        return edges, counts.astype(np.int64)

    def spectrum(self, n_bins: int = 64) -> Tuple[np.ndarray, np.ndarray]:
        """Log-spaced energy spectrum: (bin_edges_keV, counts)."""
        edges = np.logspace(
            np.log10(ENERGY_MIN_KEV), np.log10(ENERGY_MAX_KEV), n_bins + 1
        )
        counts, _edges = np.histogram(self.energies, bins=edges)
        return edges, counts.astype(np.int64)

    # -- FITS I/O -----------------------------------------------------------

    EXTENSION_NAME = "PHOTONS"

    def to_fits(self, extra_header: Optional[Header] = None) -> FitsFile:
        primary = PrimaryHDU()
        primary.header.set("TELESCOP", "RHESSI")
        primary.header.set("NPHOTON", len(self))
        primary.header.set("TSTART", self.start)
        primary.header.set("TSTOP", self.end)
        if extra_header is not None:
            for keyword, value, comment in extra_header:
                primary.header.set(keyword, value, comment)
        table = BinTableHDU(
            ["time", "energy", "detector"],
            [self.times, self.energies, self.detectors.astype(np.int32)],
            name=self.EXTENSION_NAME,
        )
        return FitsFile([primary, table])

    @classmethod
    def from_fits(cls, fits_file: FitsFile) -> "PhotonList":
        table = fits_file.table(cls.EXTENSION_NAME)
        columns = {name: table.column(name) for name in ("time", "energy", "detector")}
        for name, column in columns.items():
            if column.dtype.kind not in "if":
                raise FitsError(f"photon column {name!r} is not numeric")
        return cls(columns["time"], columns["energy"],
                   columns["detector"].astype(np.int16))

    def validate(self) -> None:
        """Raise ValueError if any record is physically impossible."""
        if len(self) == 0:
            return
        if np.any(self.energies < 0):
            raise ValueError("negative photon energy")
        if np.any((self.detectors < 1) | (self.detectors > N_COLLIMATORS)):
            raise ValueError("detector index out of range 1..9")


def merge(photon_lists: Sequence[PhotonList]) -> PhotonList:
    """Merge several lists into one time-ordered list."""
    if not photon_lists:
        return PhotonList(np.array([]), np.array([]), np.array([]))
    return PhotonList(
        np.concatenate([pl.times for pl in photon_lists]),
        np.concatenate([pl.energies for pl in photon_lists]),
        np.concatenate([pl.detectors for pl in photon_lists]),
    )
