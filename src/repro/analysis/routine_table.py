"""The analysis routine table: every built-in analysis, declared once.

A row says what an analysis is called, which IDL function runs it, which
parameters it takes (type, default, bounds or choices, degrade cap), what
it costs, and how its raw result becomes an image, a summary and the
``ana`` columns.  The PL builds one strategy per row
(:mod:`repro.pl.requests`), the web tier parses ``/hedc/analyze`` against
the row's parameters, the estimation phase reads its cost and the
frontend its degrade caps: adding or changing an analysis is a change to
this table and to nothing else (paper §5.1, "one strategy").

Not re-exported through :mod:`repro.analysis`: the kernels' package stays
importable without the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .cost import HISTOGRAM, IMAGING, LIGHTCURVE, SPECTROSCOPY, CostModel
from .histogram import SUPPORTED_ATTRIBUTES
from .products import render_pgm, render_series_pgm


class ParameterError(ValueError):
    """A request parameter is malformed, out of range or not one of its
    declared choices."""


@dataclass(frozen=True)
class Parameter:
    """One declared parameter of an analysis.

    ``type`` is ``int``, ``float`` or ``str``.  A number is bounded by
    ``minimum``/``maximum`` (inclusive); a string is one of ``choices``.
    The default is ``default``, or the ``hle`` column ``default_from``
    (0 when the column is null).
    ``degrade_cap`` is the value a request short of its deadline is cut
    down to (§6.3 approximation).
    """

    name: str
    type: type
    default: Any = None
    default_from: Optional[str] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: tuple[str, ...] = ()
    degrade_cap: Optional[int] = None

    def check(self, raw: Any) -> Any:
        """``raw`` (URL text or a Python value) as a value of ``type``
        inside the declared bounds; the message never repeats ``raw``."""
        try:
            if self.type is str:
                return self.choices[self.choices.index(raw)]
            value = self.type(raw)
            if math.isfinite(value) and self.minimum <= value <= self.maximum:
                return value
        except (TypeError, ValueError, OverflowError):
            pass
        expected = ("one of " + ", ".join(self.choices) if self.type is str else
                    f"a {self.type.__name__} from {self.minimum} to {self.maximum}")
        raise ParameterError(f"parameter {self.name!r} must be {expected}")

    def default_for(self, hle: dict) -> Any:
        if self.default_from is not None:
            return self.type(hle.get(self.default_from) or 0)
        return self.default


@dataclass(frozen=True)
class Routine:
    """One row: an analysis the PL can run through an IDL server."""

    #: The request's ``algorithm``.
    name: str
    #: The IDL function called, with ``bound`` (variables of the bound
    #: photon list) then ``parameters`` as its arguments, in order.
    function: str
    parameters: tuple[Parameter, ...]
    cost: CostModel
    #: Raw result -> image payload, product summary, ``ana`` columns
    #: (given the resolved parameter values) and the log line's tail.
    render: Callable[[np.ndarray], bytes]
    summary: Callable[[np.ndarray], dict]
    fields: Callable[[np.ndarray, dict], dict]
    describe: Callable[[np.ndarray], str]
    bound: tuple[str, ...] = ()
    #: The name log and error lines use, when it is not ``name``.
    label: str = ""
    #: Tell a fresh run about an earlier analysis of the same event
    #: (§3.5) in the request's ``reused_ana_id``.
    reuse_hint: bool = False


def _peak(series: np.ndarray) -> float:
    return float(series.max()) if len(series) else 0.0


ROUTINES = (
    Routine(
        name="imaging",
        function="hsi_image",
        parameters=(
            Parameter("n_pixels", int, 32, minimum=4, maximum=256, degrade_cap=16),
            Parameter("extent_arcsec", float, 2048.0, minimum=1.0, maximum=65536.0),
            Parameter("center_x", float, default_from="position_x_arcsec",
                      minimum=-32768.0, maximum=32768.0),
            Parameter("center_y", float, default_from="position_y_arcsec",
                      minimum=-32768.0, maximum=32768.0),
        ),
        cost=IMAGING,
        render=render_pgm,
        summary=lambda image: {"peak_value": float(image.max()),
                               "n_pixels": int(image.shape[0])},
        fields=lambda image, values: {"n_pixels": int(image.shape[0]),
                                      "extent_arcsec": values["extent_arcsec"],
                                      "peak_value": float(image.max())},
        describe=lambda image: f"{image.shape} image",
        reuse_hint=True,
    ),
    Routine(
        name="lightcurve",
        function="hsi_lightcurve",
        parameters=(
            Parameter("bin_width_s", float, 4.0, minimum=0.01, maximum=86400.0),
        ),
        cost=LIGHTCURVE,
        render=render_series_pgm,
        summary=lambda rates: {"peak_rate": _peak(rates), "n_bins": int(len(rates))},
        fields=lambda rates, values: {"time_bin_s": values["bin_width_s"],
                                      "peak_value": _peak(rates),
                                      "n_bins": int(len(rates))},
        describe=lambda rates: f"{len(rates)} bins",
    ),
    Routine(
        name="spectroscopy",
        function="hsi_spectrogram",
        parameters=(
            Parameter("time_bin_s", float, 4.0, minimum=0.1, maximum=86400.0),
            Parameter("n_energy_bins", int, 32, minimum=2, maximum=256, degrade_cap=8),
        ),
        cost=SPECTROSCOPY,
        render=lambda counts: render_pgm(np.log1p(counts)),
        summary=lambda counts: {"total_counts": int(counts.sum()),
                                "shape": list(counts.shape)},
        fields=lambda counts, values: {"time_bin_s": values["time_bin_s"],
                                       "n_energy_bins": values["n_energy_bins"],
                                       "total_counts": int(counts.sum())},
        describe=lambda counts: f"shape {counts.shape}",
        label="spectrogram",
    ),
    Routine(
        name="histogram",
        function="hsi_histogram",
        parameters=(
            Parameter("attribute", str, "energy", choices=SUPPORTED_ATTRIBUTES),
            Parameter("n_bins", int, 64, minimum=1, maximum=4096, degrade_cap=16),
        ),
        cost=HISTOGRAM,
        render=render_series_pgm,
        summary=lambda counts: {"total": int(counts.sum()), "n_bins": int(len(counts))},
        fields=lambda counts, values: {"attribute": values["attribute"],
                                       "n_bins": int(len(counts)),
                                       "total_counts": int(counts.sum())},
        describe=lambda counts: f"{len(counts)} bins",
    ),
)
