"""Analysis layer: curve fitting, substrate calibration, result rendering."""

from .calibration import (
    WorkloadCalibration,
    calibrate_workload,
    measure_miss_curve,
    measure_sharing_fraction,
    sharing_vs_cores,
)
from .export import figure_to_csv, figure_to_json, write_figure
from .report import generate_report, write_report
from .fitting import PowerLawFit, fit_miss_curve, fit_power_law
from .series import FigureData, Series
from .tables import ascii_bars, format_figure, format_table
from .validation import ValidationReport, validate_traffic_prediction

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_miss_curve",
    "measure_miss_curve",
    "WorkloadCalibration",
    "calibrate_workload",
    "measure_sharing_fraction",
    "sharing_vs_cores",
    "Series",
    "FigureData",
    "format_table",
    "format_figure",
    "ascii_bars",
    "figure_to_csv",
    "figure_to_json",
    "write_figure",
    "ValidationReport",
    "validate_traffic_prediction",
    "generate_report",
    "write_report",
]
