"""Expected Improvement against the scipy.stats.norm formula it replaced.

``expected_improvement`` takes the normal cdf from ``scipy.special.ndtr``
and writes the pdf out, so that starting a process need not import
scipy.stats.  The former formula is kept here as the reference: the
results must be equal bit for bit, and NaN where it gave NaN.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from repro.bo import acquisition
from repro.bo.acquisition import expected_improvement

EDGE_Z = np.array(
    [0.0, -0.0, 40.0, -40.0, 1e-300, -1e-300, 5e-324, 38.5, -38.5, 1e308,
     -1e308, np.inf, -np.inf, np.nan]
)


def reference_expected_improvement(
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
        ei[positive] = improvement[positive] * stats.norm.cdf(z) + std[
            positive
        ] * stats.norm.pdf(z)
    return ei


def assert_bitwise(new: np.ndarray, ref: np.ndarray) -> None:
    assert new.dtype == ref.dtype and new.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(new), nan)
    assert np.array_equal(new[~nan].view(np.uint64), ref[~nan].view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExpectedImprovementExact:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_candidates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        mean = rng.normal(0.0, 10.0 ** rng.uniform(-3, 4), n)
        std = np.abs(rng.normal(0.0, 10.0 ** rng.uniform(-4, 3), n))
        std[rng.random(n) < 0.1] = 0.0
        std[rng.random(n) < 0.05] = 1e-13
        best = float(rng.normal(0.0, 50.0))
        xi = float(rng.choice([0.0, 0.01, rng.uniform(0, 2)]))
        assert_bitwise(
            expected_improvement(mean, std, best, xi),
            reference_expected_improvement(mean, std, best, xi),
        )

    def test_edge_z_values(self):
        # best 0, xi 0 and std 1 make z equal -mean exactly.
        for std in (np.ones_like(EDGE_Z), np.full_like(EDGE_Z, 3.5)):
            mean = -EDGE_Z * std
            assert_bitwise(
                expected_improvement(mean, std, 0.0, 0.0),
                reference_expected_improvement(mean, std, 0.0, 0.0),
            )

    def test_cdf_and_pdf_are_scipy_norms(self):
        z = np.concatenate([EDGE_Z, np.random.default_rng(1).normal(0, 6, 5000)])
        assert_bitwise(ndtr(z), stats.norm.cdf(z))
        finite = z[~np.isnan(z)]
        pdf = np.exp(-finite**2 / 2.0) / acquisition._NORM_PDF_C
        assert_bitwise(pdf, stats.norm.pdf(finite))
