"""Video-animation analysis — an absorbed change (§3.1).

The paper lists "producing video animation rather than just still
images" among the changes HEDC absorbed after going operational.  In the
strategy framework that is exactly one new strategy: an imaging run per
time sub-window, delivered as a multi-frame product (frame PGMs plus a
manifest), committed through the unchanged DM services.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..analysis import IMAGING, AnalysisProduct, back_projection, render_pgm
from ..analysis.routine_table import Parameter
from .requests import AnalysisRequest, AnalysisStrategy, RequestFailed, StrategyContext


class AnimationStrategy(AnalysisStrategy):
    """Back-projection movie: one frame per time slice of the event."""

    algorithm = "animation"
    parameters = (
        Parameter("n_frames", int, 6, minimum=2, maximum=32, degrade_cap=2),
        Parameter("n_pixels", int, 16, minimum=4, maximum=128, degrade_cap=16),
    )
    #: The frames share the event's photons: one imaging run's worth.
    cost = IMAGING

    def execute(self, request: AnalysisRequest, context: StrategyContext) -> list[np.ndarray]:
        hle = context.fetch_hle(request.user, request.hle_id)
        request.hle_row = hle
        request.arguments = self.resolve(request.parameters, hle)
        n_frames = request.arguments["n_frames"]
        n_pixels = request.arguments["n_pixels"]
        photons = context.load_photons_for(hle)
        context.check_existing(request.user, request.hle_id, self.algorithm)
        if len(photons) == 0:
            raise RequestFailed("no photons in the event window")
        center = (
            float(hle.get("position_x_arcsec") or 0.0),
            float(hle.get("position_y_arcsec") or 0.0),
        )
        edges = np.linspace(photons.start, photons.end, n_frames + 1)
        frames: list[np.ndarray] = []
        for frame_index in range(n_frames):
            request.check_cancelled()  # frames are a natural cancel point
            window = photons.select_time(edges[frame_index], edges[frame_index + 1])
            image = back_projection(
                window, n_pixels=n_pixels, source_position=center,
                center_arcsec=center,
            )
            frames.append(image.image)
        request.parameters["n_photons_used"] = len(photons)
        return frames

    def deliver(self, request: AnalysisRequest, context: StrategyContext) -> AnalysisProduct:
        frames: list[np.ndarray] = request.raw_result
        product = AnalysisProduct(self.algorithm, dict(request.parameters))
        # Shared grayscale range across frames so the movie doesn't flicker.
        low = min(float(frame.min()) for frame in frames)
        high = max(float(frame.max()) for frame in frames)
        span = (high - low) or 1.0
        for frame in frames:
            normalized = (frame - low) / span
            product.add_image(render_pgm(normalized))
        manifest = {
            "frames": len(frames),
            "n_pixels": int(frames[0].shape[0]),
            "value_range": [low, high],
        }
        product.summary = manifest
        product.log(f"animation {request.request_id}: {json.dumps(manifest)}")
        return product

    def commit_fields(self, request: AnalysisRequest, hle: dict) -> dict[str, Any]:
        fields = super().commit_fields(request, hle)
        frames: list[np.ndarray] = request.raw_result
        fields.update(
            {
                "n_pixels": int(frames[0].shape[0]),
                "n_bins": len(frames),  # frame count rides the bin column
                "n_photons_used": request.parameters.get("n_photons_used"),
                "notes": f"animation, {len(frames)} frames",
            }
        )
        return fields
