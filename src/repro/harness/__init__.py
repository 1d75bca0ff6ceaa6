"""Litmus-running harness: incantations, iteration counts and
histograms."""

from .histogram import Histogram
from .incantations import (ALL_COMBINATIONS, Incantations, TABLE6, best_for,
                           efficacy)
from .runner import PAPER_ITERATIONS, default_iterations

__all__ = [
    "Histogram",
    "ALL_COMBINATIONS", "Incantations", "TABLE6", "best_for", "efficacy",
    "PAPER_ITERATIONS", "default_iterations",
]
