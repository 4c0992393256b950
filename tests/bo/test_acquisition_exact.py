"""Expected Improvement against the scipy.stats.norm formula it replaced.

``expected_improvement`` takes the normal cdf from ``acquisition.ndtr``, a
port of Cephes' ``ndtr``/``erf``/``erfc``, and writes the pdf out, so that
a process imports no scipy at all.  The former formula is kept here as the
reference: the results must be equal bit for bit, and NaN where it gave
NaN.  scipy is only the tests' reference: ``scipy.special.ndtr`` for the
port, ``scipy.stats.norm`` for Expected Improvement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def assert_bits_equal(new: np.ndarray, ref: np.ndarray) -> None:
    """Equal bit for bit, NaN payloads included."""
    assert new.dtype == ref.dtype == np.float64 and new.shape == ref.shape
    mismatched = new.view(np.uint64) != ref.view(np.uint64)
    assert not mismatched.any(), (
        f"{int(mismatched.sum())} of {mismatched.size} values differ"
    )


def _neighbours(value: float, steps: int = 8) -> list[float]:
    """*value* and its *steps* nearest doubles on each side."""
    out = [value]
    up = down = value
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out


def _underflow_edge() -> float:
    """The largest |x| whose erfc does not underflow: -x*x >= -MAXLOG."""
    x = math.sqrt(acquisition._MAXLOG)
    while -x * x < -acquisition._MAXLOG:
        x = math.nextafter(x, 0.0)
    while -math.nextafter(x, math.inf) ** 2 >= -acquisition._MAXLOG:
        x = math.nextafter(x, math.inf)
    return x


class TestNdtrPortExact:
    """``acquisition.ndtr`` equals ``scipy.special.ndtr`` bit for bit."""

    def test_a_million_seeded_values(self):
        rng = np.random.default_rng(20240607)
        n = 250_000
        band = rng.uniform(0.99, 1.42, n) * rng.choice([-1.0, 1.0], n)
        a = np.concatenate([
            rng.normal(0.0, 1.0, n),
            rng.normal(0.0, 5.0, n),
            rng.uniform(-40.0, 40.0, n),
            band,  # |a| around the erf/erfc switch at |x| = √½
        ])
        assert_bits_equal(acquisition.ndtr(a), ndtr(a))

    def test_branch_boundaries_and_their_neighbours(self):
        # Cephes switches on x = a·√½: erf below √½, 1 - erf below 1, the
        # P/Q erfc below 8, R/S above, and 0 once -x² < -MAXLOG.
        sqrt1_2 = acquisition._SQRT1_2
        edges = [sqrt1_2, 1.0, 8.0, _underflow_edge()]
        a = []
        for edge in edges:
            around = _neighbours(edge / sqrt1_2)
            x = np.array(around) * sqrt1_2
            # Both sides of every switch are reached.
            if edge == edges[-1]:
                assert (-x * x < -acquisition._MAXLOG).any()
                assert (-x * x >= -acquisition._MAXLOG).any()
            else:
                assert (x < edge).any() and (x >= edge).any()
            a += around + [-v for v in around]
        a = np.array(a)
        assert_bits_equal(acquisition.ndtr(a), ndtr(a))

    def test_special_values(self):
        tiny = np.finfo(np.float64).tiny
        a = np.array([
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308,
            np.finfo(np.float64).max, -np.finfo(np.float64).max,
            5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3,
            1e-300, -1e-300, 38.5, -38.5, 40.0, -40.0,
        ])
        assert_bits_equal(acquisition.ndtr(a), ndtr(a))

    def test_shapes(self):
        a = np.random.default_rng(3).normal(0.0, 4.0, (7, 5))
        assert_bits_equal(acquisition.ndtr(a), ndtr(a))
        for value in (0.3, -2.0, 9.0, np.nan):
            assert_bits_equal(
                acquisition.ndtr(np.float64(value)), ndtr(np.float64(value))
            )
        assert acquisition.ndtr(np.zeros(0)).shape == (0,)

    @settings(max_examples=3000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_double(self, value):
        a = np.array([value])
        assert_bits_equal(acquisition.ndtr(a), ndtr(a))
