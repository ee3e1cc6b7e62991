"""Analysis kernels: the "SSW routines" of the reproduction.

Imaging (back-projection), lightcurves, spectrograms and histograms, plus
the cost models the PL's estimation phase uses.
"""

from .cost import (
    CLIENT_SPEED_FACTOR,
    HISTOGRAM,
    IMAGING,
    LIGHTCURVE,
    MODELS,
    SERVER_SPEED_FACTOR,
    SPECTROSCOPY,
    CostModel,
    approximation_speedup,
    predict,
)
from .histogram import SUPPORTED_ATTRIBUTES, HistogramResult, histogram
from .imaging import (
    DEFAULT_PHASE_BINS,
    ImageResult,
    back_projection,
    clean_iterations,
)
from .lightcurve import Lightcurve, lightcurve
from .products import (
    AnalysisProduct,
    parse_pgm,
    render_pgm,
    render_series_pgm,
)
from .spectrogram import Spectrogram, spectrogram

__all__ = [
    "AnalysisProduct",
    "CLIENT_SPEED_FACTOR",
    "CostModel",
    "DEFAULT_PHASE_BINS",
    "HISTOGRAM",
    "HistogramResult",
    "IMAGING",
    "ImageResult",
    "LIGHTCURVE",
    "Lightcurve",
    "MODELS",
    "SERVER_SPEED_FACTOR",
    "SPECTROSCOPY",
    "SUPPORTED_ATTRIBUTES",
    "Spectrogram",
    "approximation_speedup",
    "back_projection",
    "clean_iterations",
    "histogram",
    "lightcurve",
    "parse_pgm",
    "predict",
    "render_pgm",
    "render_series_pgm",
    "spectrogram",
]
