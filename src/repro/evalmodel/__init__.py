"""Calibrated performance models of the paper's evaluation testbeds:
browsing (§7, Figures 4-5) and processing (§8, Tables 1-3)."""

from .browsing import (
    BrowsingResult,
    figure4_series,
    figure5_series,
    print_figure4,
    print_figure5,
    simulate_browsing,
)
from .processing import (
    HISTOGRAM,
    HISTOGRAM_CONFIGS,
    IMAGING,
    IMAGING_CONFIGS,
    Configuration,
    ProcessingResult,
    Workload,
    print_table1,
    simulate_processing,
    table1_histogram,
    table1_imaging,
)

__all__ = [
    "BrowsingResult",
    "Configuration",
    "HISTOGRAM",
    "HISTOGRAM_CONFIGS",
    "IMAGING",
    "IMAGING_CONFIGS",
    "ProcessingResult",
    "Workload",
    "figure4_series",
    "figure5_series",
    "print_figure4",
    "print_figure5",
    "print_table1",
    "simulate_browsing",
    "simulate_processing",
    "table1_histogram",
    "table1_imaging",
]
