"""Precomputed lookup tables and gm/Id width estimation (Stage III)."""

from .table import LUT_OUTPUTS, SCAN_OUTPUTS, LookupTable, build_lut
from .width_estimator import (
    DeviceParams,
    WidthEstimate,
    WidthEstimates,
    estimate_width,
    estimate_widths,
)

__all__ = [
    "LUT_OUTPUTS",
    "SCAN_OUTPUTS",
    "LookupTable",
    "build_lut",
    "DeviceParams",
    "WidthEstimate",
    "WidthEstimates",
    "estimate_width",
    "estimate_widths",
]
