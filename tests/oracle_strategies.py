"""The differential oracle for the analysis routine table.

The four strategy classes ``repro.pl.requests`` held before the table
(commit 3f30b46), copied unchanged, and the three key tuples
``Servlets.analyze`` parsed ``/hedc/analyze`` with.  Nothing under
``src/`` imports this module; ``tests/test_routine_table.py`` runs every
row of the table against the class it replaced.
"""

from typing import Any

import numpy as np

from repro.analysis import AnalysisProduct, render_pgm, render_series_pgm
from repro.pl import AnalysisRequest, AnalysisStrategy, RequestFailed, StrategyContext


class ImagingStrategy(AnalysisStrategy):
    """Back-projection imaging via the IDL server's ``hsi_image``."""

    algorithm = "imaging"

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> np.ndarray:
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        photons = context.load_photons_for(hle)
        existing = context.check_existing(request.user, request.hle_id, self.algorithm)
        if existing is not None and not request.parameters.get("force", False):
            request.parameters["reused_ana_id"] = existing["ana_id"]
        n_pixels = int(request.parameters.get("n_pixels", 32))
        extent = float(request.parameters.get("extent_arcsec", 2048.0))
        center_x = float(request.parameters.get("center_x", hle.get("position_x_arcsec") or 0.0))
        center_y = float(request.parameters.get("center_y", hle.get("position_y_arcsec") or 0.0))
        source = (
            f"img = hsi_image({n_pixels}, {extent}, {center_x}, {center_y})\n"
            "img"
        )
        result = context.idl.invoke(source, photons=photons)
        if not result.ok:
            raise RequestFailed(f"imaging failed: {result.error}")
        request.parameters["n_photons_used"] = len(photons)
        return result.value

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        image = request.raw_result
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        product.add_image(render_pgm(image))
        product.summary = {
            "peak_value": float(image.max()),
            "n_pixels": int(image.shape[0]),
        }
        product.log(f"imaging {request.request_id}: {image.shape} image")
        return product

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict:
        fields = super().commit_fields(request, hle)
        image = request.raw_result
        fields.update(
            {
                "n_pixels": int(image.shape[0]),
                "extent_arcsec": float(request.parameters.get("extent_arcsec", 2048.0)),
                "peak_value": float(image.max()),
                "n_photons_used": request.parameters.get("n_photons_used"),
            }
        )
        return fields


class LightcurveStrategy(AnalysisStrategy):
    algorithm = "lightcurve"

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> np.ndarray:
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        photons = context.load_photons_for(hle)
        context.check_existing(request.user, request.hle_id, self.algorithm)
        bin_width = float(request.parameters.get("bin_width_s", 4.0))
        result = context.idl.invoke(
            f"rates = hsi_lightcurve({bin_width})\nrates", photons=photons
        )
        if not result.ok:
            raise RequestFailed(f"lightcurve failed: {result.error}")
        request.parameters["n_photons_used"] = len(photons)
        return result.value

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        rates = np.asarray(request.raw_result, dtype=float)
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        product.add_image(render_series_pgm(rates))
        product.summary = {"peak_rate": float(rates.max()) if len(rates) else 0.0,
                           "n_bins": int(len(rates))}
        product.log(f"lightcurve {request.request_id}: {len(rates)} bins")
        return product

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict:
        fields = super().commit_fields(request, hle)
        rates = np.asarray(request.raw_result, dtype=float)
        fields.update(
            {
                "time_bin_s": float(request.parameters.get("bin_width_s", 4.0)),
                "peak_value": float(rates.max()) if len(rates) else 0.0,
                "n_bins": int(len(rates)),
                "n_photons_used": request.parameters.get("n_photons_used"),
            }
        )
        return fields


class SpectrogramStrategy(AnalysisStrategy):
    algorithm = "spectroscopy"

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> np.ndarray:
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        photons = context.load_photons_for(hle)
        context.check_existing(request.user, request.hle_id, self.algorithm)
        time_bin = float(request.parameters.get("time_bin_s", 4.0))
        n_energy = int(request.parameters.get("n_energy_bins", 32))
        result = context.idl.invoke(
            f"sg = hsi_spectrogram({time_bin}, {n_energy})\nsg", photons=photons
        )
        if not result.ok:
            raise RequestFailed(f"spectrogram failed: {result.error}")
        request.parameters["n_photons_used"] = len(photons)
        return result.value

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        counts = np.asarray(request.raw_result, dtype=float)
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        product.add_image(render_pgm(np.log1p(counts)))
        product.summary = {"total_counts": int(counts.sum()), "shape": list(counts.shape)}
        product.log(f"spectrogram {request.request_id}: shape {counts.shape}")
        return product

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict:
        fields = super().commit_fields(request, hle)
        counts = np.asarray(request.raw_result, dtype=float)
        fields.update(
            {
                "time_bin_s": float(request.parameters.get("time_bin_s", 4.0)),
                "n_energy_bins": int(request.parameters.get("n_energy_bins", 32)),
                "total_counts": int(counts.sum()),
                "n_photons_used": request.parameters.get("n_photons_used"),
            }
        )
        return fields


class HistogramStrategy(AnalysisStrategy):
    algorithm = "histogram"

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> np.ndarray:
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        photons = context.load_photons_for(hle)
        context.check_existing(request.user, request.hle_id, self.algorithm)
        attribute = request.parameters.get("attribute", "energy")
        n_bins = int(request.parameters.get("n_bins", 64))
        result = context.idl.invoke(
            f"h = hsi_histogram('{attribute}', {n_bins})\nh", photons=photons
        )
        if not result.ok:
            raise RequestFailed(f"histogram failed: {result.error}")
        request.parameters["n_photons_used"] = len(photons)
        return result.value

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        counts = np.asarray(request.raw_result, dtype=float)
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        product.add_image(render_series_pgm(counts))
        product.summary = {"total": int(counts.sum()), "n_bins": int(len(counts))}
        product.log(f"histogram {request.request_id}: {len(counts)} bins")
        return product

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict:
        fields = super().commit_fields(request, hle)
        counts = np.asarray(request.raw_result, dtype=float)
        fields.update(
            {
                "attribute": request.parameters.get("attribute", "energy"),
                "n_bins": int(len(counts)),
                "total_counts": int(counts.sum()),
                "n_photons_used": request.parameters.get("n_photons_used"),
            }
        )
        return fields


ORACLE_STRATEGIES = (
    ImagingStrategy(),
    LightcurveStrategy(),
    SpectrogramStrategy(),
    HistogramStrategy(),
)


def servlet_parameters(params: dict[str, str]) -> dict[str, Any]:
    """``Servlets.analyze``'s parameter parsing at 3f30b46."""
    parameters: dict[str, Any] = {}
    for key in ("n_pixels", "n_bins", "n_energy_bins"):
        if key in params:
            parameters[key] = int(params[key])
    for key in ("bin_width_s", "time_bin_s", "extent_arcsec"):
        if key in params:
            parameters[key] = float(params[key])
    if "attribute" in params:
        parameters["attribute"] = params["attribute"]
    return parameters
