"""A from-scratch random-forest regressor (the SMAC3-style surrogate).

Regression trees split on variance reduction; the forest combines bootstrap
resampling with per-split feature subsampling.  ``predict`` returns both the
mean and the across-tree standard deviation — the epistemic-uncertainty
signal Expected Improvement needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

_ROOT = np.zeros(1, dtype=np.intp)


def _walk(feature, threshold, left, right, value, roots, X) -> np.ndarray:
    """The leaf value each tree gives each row of *X*: a ``(len(roots),
    len(X))`` array.

    The five node arrays hold one or more trees, with absolute child
    indexes; *roots* holds each tree's root index.  Every (tree, row) pair
    moves down one level per numpy step, with the same ``x <= threshold``
    comparison a per-row walk makes.
    """
    n_rows = len(X)
    nodes = np.repeat(roots, n_rows)
    rows = np.tile(np.arange(n_rows), len(roots))
    active = np.flatnonzero(left[nodes] >= 0)  # pairs at a split
    while active.size:
        at = nodes[active]
        goes_left = X[rows[active], feature[at]] <= threshold[at]
        at = np.where(goes_left, left[at], right[at])
        nodes[active] = at
        active = active[left[at] >= 0]
    return value[nodes].reshape(len(roots), n_rows)


class RegressionTree:
    """A CART-style regression tree over a float matrix.

    The fitted tree is five flat arrays indexed by node, in depth-first
    build order (a node, then its left subtree, then its right): the split
    ``feature`` (-1 at a leaf), its ``threshold``, the ``left`` and
    ``right`` child indexes (-1 at a leaf) and the leaf ``value`` (0.0 at an
    internal node).  ``predict`` moves every row down one level per numpy
    step with the same ``x <= threshold`` comparison a per-row walk makes.

    ``fit`` runs on Python lists, sorted once: each feature column as a
    list, and per feature the rows in stable-sorted order.  A node holds its
    rows in sample order and, per feature, in sorted order.  A split hands
    each child the stable partition of both, and a stable partition of a
    stable sort is the stable sort of the child's rows, so no node sorts.
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
        n_samples, n_features = X.shape
        columns = [X[:, f].tolist() for f in range(n_features)]
        orders = [
            np.argsort(X[:, f], kind="stable").tolist() for f in range(n_features)
        ]
        data = _Sample(columns, y.tolist(), y, [False] * n_samples)
        nodes: list[list] = []  # [feature, threshold, left, right, value]
        self._build(data, list(range(n_samples)), orders, 0, nodes)
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
        arrays = (self.feature, self.threshold, self.left, self.right, self.value)
        return _walk(*arrays, _ROOT, np.asarray(X))[0]

    def _build(
        self,
        data: "_Sample",
        rows: list[int],
        orders: list[list[int]],
        depth: int,
        nodes: list[list],
    ) -> int:
        """Append the subtree fitted to *rows* (in sample order; *orders*
        holds them sorted by each feature) to *nodes*; returns its root's
        index."""
        node = [-1, 0.0, -1, -1, 0.0]
        index = len(nodes)
        nodes.append(node)
        targets = [data.targets[i] for i in rows]
        if (
            depth >= self.max_depth
            or len(rows) < 2 * self.min_samples_leaf
            or max(targets) - min(targets) < 1e-12
        ):
            # np.mean sums pairwise; a Python sum would round differently.
            node[4] = float(data.y[rows].mean())
            return index
        split = self._best_split(data, len(rows), orders)
        if split is None:
            node[4] = float(data.y[rows].mean())
            return index
        feature, threshold = split
        column, side = data.columns[feature], data.side
        for i in rows:
            side[i] = column[i] <= threshold
        left = [[i for i in order if side[i]] for order in (rows, *orders)]
        right = [[i for i in order if not side[i]] for order in (rows, *orders)]
        node[0], node[1] = feature, threshold
        node[2] = self._build(data, left[0], left[1:], depth + 1, nodes)
        node[3] = self._build(data, right[0], right[1:], depth + 1, nodes)
        return index

    def _best_split(
        self, data: "_Sample", n_samples: int, orders: list[list[int]]
    ) -> tuple[int, float] | None:
        n_features = len(orders)
        n_consider = max(1, int(round(self.max_features * n_features)))
        features = self._rng.permutation(n_features)[:n_consider]
        best_sse: float | None = None
        best: tuple[int, float, float] | None = None  # feature, below, above
        low, high = self.min_samples_leaf, n_samples - self.min_samples_leaf + 1
        for feature in features:
            order, column = orders[feature], data.columns[feature]
            xs = [column[i] for i in order]
            xs.append(xs[-1])  # position n_samples reads the last x again
            ys = [data.targets[i] for i in order]
            # numpy's IEEE operations: np.cumsum adds left to right, and
            # squaring an array is ``v * v``.
            prefix_sum = list(accumulate(ys))
            prefix_sq = list(accumulate([v * v for v in ys]))
            total_sum, total_sq = prefix_sum[-1], prefix_sq[-1]
            # candidate split positions between distinct x values
            for i in range(low, high):
                below = xs[i - 1]
                above = xs[i]
                if below == above:
                    continue
                left_sum = prefix_sum[i - 1]
                left_sq = prefix_sq[i - 1]
                right_sum = total_sum - left_sum
                right_sq = total_sq - left_sq
                sse = (left_sq - left_sum**2 / i) + (
                    right_sq - right_sum**2 / (n_samples - i)
                )
                if best_sse is None or sse < best_sse:
                    best_sse, best = sse, (feature, below, above)
        if best is None:
            return None
        feature, below, above = best
        return int(feature), (below + above) / 2.0


@dataclass
class _Sample:
    """One tree's training sample, as :meth:`RegressionTree.fit` reads it."""

    columns: list[list[float]]  # per feature, the value of each row
    targets: list[float]  # the target of each row
    y: np.ndarray  # the targets as an array, for numpy's leaf mean
    side: list[bool]  # scratch: whether a row goes left at the current split


@dataclass
class RandomForestRegressor:
    """Bootstrap ensemble of regression trees with uncertainty estimates."""

    n_trees: int = 20
    max_depth: int = 14
    min_samples_leaf: int = 1
    max_features: float = 0.8
    seed: int = 0
    _trees: list[RegressionTree] = field(default_factory=list, repr=False)
    # The trees' node arrays end to end, child indexes offset, and the
    # roots: what ``predict`` walks.
    _nodes: tuple | None = field(default=None, repr=False, compare=False)

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
        self._nodes = _concatenate(self._trees) if self._trees else None
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (mean, std) across the ensemble for each row of X."""
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        per_tree = _walk(*self._nodes, X)
        return per_tree.mean(axis=0), per_tree.std(axis=0)


def _concatenate(trees: list[RegressionTree]) -> tuple:
    """The arguments :func:`_walk` takes for *trees*, minus the rows."""
    sizes = [len(tree.value) for tree in trees]
    roots = np.cumsum([0, *sizes[:-1]]).astype(np.intp)
    offsets = np.repeat(roots, sizes)

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(tree, name) for tree in trees])

    left, right = joined("left"), joined("right")
    return (
        joined("feature"),
        joined("threshold"),
        np.where(left >= 0, left + offsets, -1),
        np.where(right >= 0, right + offsets, -1),
        joined("value"),
        roots,
    )
