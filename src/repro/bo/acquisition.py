"""Acquisition functions for Bayesian optimization (minimization)."""

from __future__ import annotations

import math

import numpy as np

# The standard normal's cdf and pdf as scipy.stats.norm computes them
# (``_norm_cdf`` and ``_norm_pdf``), bit for bit, without importing scipy:
# scipy.special alone would be about a fifth of a process's peak memory.
_NORM_PDF_C = np.sqrt(2 * np.pi)

# ndtr, erf and erfc from the Cephes Math Library (Copyright 1984, 1987,
# 1988, 1992, 2000 by Stephen L. Moshier), as scipy.special ships them:
# the same coefficients, branches and operation order, so ``ndtr`` equals
# ``scipy.special.ndtr`` bit for bit.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
# erf(x) = x·T(x²)/U(x²) for |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # monic: the leading 1 is implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x²)·P(x)/Q(x) for 1 <= x < 8.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # monic
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x²)·R(x)/S(x) for x >= 8.
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # monic
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)


def _rows(*polynomials: tuple[float, ...]) -> np.ndarray:
    """Coefficient rows padded with leading zeros to one length: Horner's
    rule turns a leading 0 into exactly the next coefficient, so a padded
    row evaluates bit for bit like Cephes' ``polevl`` (``p1evl`` when the
    row starts with the implied 1)."""
    width = max(len(p) for p in polynomials)
    return np.array([(0.0,) * (width - len(p)) + p for p in polynomials])


# One row per branch of ndtr: erf (|x| < √½), 1 - erf (√½ <= |x| < 1),
# the P/Q erfc (1 <= |x| < 8) and the R/S erfc (|x| >= 8).
_NUMERATORS = _rows(_T, _T, _P, _R)
_DENOMINATORS = _rows((1.0,) + _U, (1.0,) + _U, (1.0,) + _Q, (1.0,) + _S)
# Past √MAXLOG ≈ 26.6 Cephes' erfc underflows to 0.  Clamping the Horner
# argument there keeps those elements finite; their exp factor is 0.
_HORNER_CLAMP = 27.0


def ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal cdf of each element of *a* (float64), equal bit
    for bit to ``scipy.special.ndtr``; NaN gives NaN.

    Cephes evaluates ``0.5 + 0.5·erf(x)`` for ``x = a·√½`` below √½ in
    magnitude and ``0.5·erfc(|x|)`` (subtracted from 1 for ``x > 0``)
    otherwise.  Here all four polynomial branches run as one Horner pass,
    each element using its branch's coefficient row.  The ``exp(-x²)`` of
    erfc comes from ``math.exp``, the C library's ``exp`` that scipy's
    compiled code calls: numpy's vectorized ``exp`` differs from it in the
    last bit for some arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    z = np.abs(x)
    branch = (z >= _SQRT1_2).astype(np.intp)
    branch += z >= 1.0
    branch += z >= 8.0
    clamped = np.minimum(z, _HORNER_CLAMP)
    t = np.where(branch < 2, clamped * clamped, clamped)
    numerators = _NUMERATORS[branch]
    denominators = _DENOMINATORS[branch]
    num = numerators[..., 0]
    den = denominators[..., 0]
    for i in range(1, _NUMERATORS.shape[1]):
        num = num * t + numerators[..., i]
        den = den * t + denominators[..., i]
    # erf multiplies by its argument (x, or |x| in 1 - erf(|x|)); erfc by
    # exp(-x²), 0 where -x² < -MAXLOG (Cephes' underflow).
    factor = np.where(branch == 0, x, z)
    tail = branch >= 2
    if tail.any():
        factor[tail] = [
            0.0 if -v * v < -_MAXLOG else math.exp(-v * v)
            for v in z[tail].tolist()
        ]
    ratio = factor * num / den
    erfc = np.where(branch == 1, 1.0 - ratio, ratio)
    y = np.where(branch == 0, 0.5 + 0.5 * ratio, 0.5 * erfc)
    y = np.where((branch > 0) & (x > 0), 1.0 - y, y)
    y[np.isnan(a)] = np.nan
    return y


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
