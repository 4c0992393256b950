"""A from-scratch random-forest regressor (the SMAC3-style surrogate).

Regression trees split on variance reduction; the forest combines bootstrap
resampling with per-split feature subsampling.  ``predict`` returns both the
mean and the across-tree standard deviation — the epistemic-uncertainty
signal Expected Improvement needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class RegressionTree:
    """A CART-style regression tree over a float matrix.

    The fitted tree is five flat arrays indexed by node, in depth-first
    build order (a node, then its left subtree, then its right): the split
    ``feature`` (-1 at a leaf), its ``threshold``, the ``left`` and
    ``right`` child indexes (-1 at a leaf) and the leaf ``value`` (0.0 at an
    internal node).  ``predict`` moves every row down one level per numpy
    step with the same ``x <= threshold`` comparison a per-row walk makes.
    """

    def __init__(
        self,
        max_depth: int = 14,
        min_samples_leaf: int = 1,
        max_features: float = 0.8,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng()
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        nodes: list[list] = []  # [feature, threshold, left, right, value]
        self._build(X, y, 0, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=np.float64)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X)
        nodes = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(self.left[nodes] >= 0)  # rows at a split
        while rows.size:
            at = nodes[rows]
            goes_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(goes_left, self.left[at], self.right[at])
            nodes[rows] = at
            rows = rows[self.left[at] >= 0]
        return self.value[nodes]

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list[list]
    ) -> int:
        """Append the subtree fitted to (X, y) to *nodes*; returns its
        root's index."""
        node = [-1, 0.0, -1, -1, 0.0]
        index = len(nodes)
        nodes.append(node)
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or np.ptp(y) < 1e-12
        ):
            node[4] = float(y.mean())
            return index
        split = self._best_split(X, y)
        if split is None:
            node[4] = float(y.mean())
            return index
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node[0], node[1] = feature, threshold
        node[2] = self._build(X[mask], y[mask], depth + 1, nodes)
        node[3] = self._build(X[~mask], y[~mask], depth + 1, nodes)
        return index

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        n_samples, n_features = X.shape
        n_consider = max(1, int(round(self.max_features * n_features)))
        features = self._rng.permutation(n_features)[:n_consider]
        best: tuple[float, int, float] | None = None
        low, high = self.min_samples_leaf, n_samples - self.min_samples_leaf + 1
        last = n_samples - 1
        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            ys = y[order]
            # The scan runs on Python floats: the same IEEE operations as
            # on numpy scalars, without a numpy scalar per step.
            xs = X[order, feature].tolist()
            prefix_sum = np.cumsum(ys).tolist()
            prefix_sq = np.cumsum(ys**2).tolist()
            total_sum, total_sq = prefix_sum[-1], prefix_sq[-1]
            # candidate split positions between distinct x values
            for i in range(low, high):
                below, above = xs[i - 1], xs[min(i, last)]
                if below == above:
                    continue
                left_sum, left_sq = prefix_sum[i - 1], prefix_sq[i - 1]
                right_sum = total_sum - left_sum
                right_sq = total_sq - left_sq
                sse = (left_sq - left_sum**2 / i) + (
                    right_sq - right_sum**2 / (n_samples - i)
                )
                if best is None or sse < best[0]:
                    best = (sse, int(feature), (below + above) / 2.0)
        if best is None:
            return None
        return best[1], best[2]


@dataclass
class RandomForestRegressor:
    """Bootstrap ensemble of regression trees with uncertainty estimates."""

    n_trees: int = 20
    max_depth: int = 14
    min_samples_leaf: int = 1
    max_features: float = 0.8
    seed: int = 0
    _trees: list[RegressionTree] = field(default_factory=list, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y) or len(y) == 0:
            raise ValueError("X and y must be non-empty and the same length")
        rng = np.random.default_rng(self.seed)
        self._trees = []
        for _ in range(self.n_trees):
            indices = rng.integers(0, len(y), len(y))
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=rng,
            )
            tree.fit(X[indices], y[indices])
            self._trees.append(tree)
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (mean, std) across the ensemble for each row of X."""
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        per_tree = np.stack([tree.predict(X) for tree in self._trees])
        return per_tree.mean(axis=0), per_tree.std(axis=0)
