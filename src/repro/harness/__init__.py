"""Litmus-running harness: incantations, iteration counts, histograms and
reports."""

from .histogram import Histogram
from .incantations import (ALL_COMBINATIONS, Incantations, TABLE6, best_for,
                           efficacy)
from .runner import PAPER_ITERATIONS, default_iterations
from .report import comparison_line, figure_table

__all__ = [
    "Histogram",
    "ALL_COMBINATIONS", "Incantations", "TABLE6", "best_for", "efficacy",
    "PAPER_ITERATIONS", "default_iterations",
    "comparison_line", "figure_table",
]
