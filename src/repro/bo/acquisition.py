"""Acquisition functions for Bayesian optimization (minimization)."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

# The standard normal's cdf and pdf as scipy.stats.norm computes them
# (``_norm_cdf`` and ``_norm_pdf``), bit for bit, without importing
# scipy.stats: its import is most of a cold start.
_NORM_PDF_C = np.sqrt(2 * np.pi)


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best: float,
    xi: float = 0.01,
) -> np.ndarray:
    """EI for minimization: how much each candidate is expected to improve
    on *best*.  Candidates with zero predictive uncertainty fall back to the
    plain improvement of their mean (greedy)."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improvement = best - mean - xi
    ei = np.where(improvement > 0, improvement, 0.0)
    positive = std > 1e-12
    if positive.any():
        z = improvement[positive] / std[positive]
        ei = ei.copy()
        ei[positive] = improvement[positive] * ndtr(z) + std[positive] * (
            np.exp(-z**2 / 2.0) / _NORM_PDF_C
        )
    return ei


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, beta: float = 2.0
) -> np.ndarray:
    """Negated LCB so that higher is better (consistent with EI ranking)."""
    return -(np.asarray(mean) - beta * np.asarray(std))
