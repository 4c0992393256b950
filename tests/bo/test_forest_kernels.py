"""The forest's array kernels against the per-row Python they replaced.

``RegressionTree`` keeps its nodes in flat arrays, predicts one tree level
per numpy step, and scans split candidates over Python floats.  The former
linked-node tree — its per-row walk and its numpy-scalar split loop — is
kept here verbatim as the reference: on every seeded case the fitted trees
must hold the same nodes in the same build order, and the forests' mean and
standard deviation must be bit-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.bo.forest import RandomForestRegressor, RegressionTree

FORESTS = 320


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class ReferenceTree:
    """The regression tree as it was: linked nodes, a per-row walk and a
    numpy-scalar split scan."""

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
        self._root: _TreeNode | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceTree":
        self._root = self._build(X, y, depth=0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return np.array([self._predict_one(row) for row in X])

    def _predict_one(self, row: np.ndarray) -> float:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or np.ptp(y) < 1e-12
        ):
            return _TreeNode(value=float(y.mean()))
        split = self._best_split(X, y)
        if split is None:
            return _TreeNode(value=float(y.mean()))
        feature, threshold = split
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1)
        right = self._build(X[~mask], y[~mask], depth + 1)
        return _TreeNode(feature=feature, threshold=threshold, left=left, right=right)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        n_samples, n_features = X.shape
        n_consider = max(1, int(round(self.max_features * n_features)))
        features = self._rng.permutation(n_features)[:n_consider]
        best: tuple[float, int, float] | None = None
        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            ys = y[order]
            # candidate split positions between distinct x values
            prefix_sum = np.cumsum(ys)
            prefix_sq = np.cumsum(ys**2)
            total_sum, total_sq = prefix_sum[-1], prefix_sq[-1]
            for i in range(self.min_samples_leaf, n_samples - self.min_samples_leaf + 1):
                if xs[i - 1] == xs[min(i, n_samples - 1)]:
                    continue
                left_n, right_n = i, n_samples - i
                left_sum, left_sq = prefix_sum[i - 1], prefix_sq[i - 1]
                right_sum = total_sum - left_sum
                right_sq = total_sq - left_sq
                sse = (left_sq - left_sum**2 / left_n) + (
                    right_sq - right_sum**2 / right_n
                )
                if best is None or sse < best[0]:
                    threshold = (xs[i - 1] + xs[min(i, n_samples - 1)]) / 2.0
                    best = (float(sse), int(feature), float(threshold))
        if best is None:
            return None
        return best[1], best[2]


def reference_nodes(tree: ReferenceTree) -> list[tuple[int, float, float]]:
    """(feature, threshold, value) per node, a node before its left subtree
    and its left subtree before its right: the array tree's build order."""
    out: list[tuple[int, float, float]] = []

    def visit(node: _TreeNode) -> None:
        out.append((node.feature, node.threshold, node.value))
        if not node.is_leaf:
            visit(node.left)
            visit(node.right)

    visit(tree._root)
    return out


def array_nodes(tree: RegressionTree) -> list[tuple[int, float, float]]:
    return [
        (int(f), float(t), float(v))
        for f, t, v in zip(tree.feature, tree.threshold, tree.value)
    ]


def reference_forest(forest: RandomForestRegressor, X, y) -> list[ReferenceTree]:
    """``RandomForestRegressor.fit``'s loop with the reference tree."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(forest.seed)
    trees = []
    for _ in range(forest.n_trees):
        indices = rng.integers(0, len(y), len(y))
        tree = ReferenceTree(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            rng=rng,
        )
        trees.append(tree.fit(X[indices], y[indices]))
    return trees


def random_case(seed: int):
    """A seeded training set and query set.  The case mix covers a single
    sample, few distinct x values (duplicates), a constant target, and 1 to
    6 features, with depth and leaf-size limits that bind."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    n_features = int(rng.integers(1, 7))
    n = 1 if kind == 0 else int(rng.integers(2, 100))
    if kind == 1:
        X = rng.integers(0, 3, size=(n, n_features)).astype(np.float64)
    else:
        X = rng.random((n, n_features))
    if kind == 2:
        y = np.full(n, float(rng.normal()))
    elif kind == 3:
        y = np.round(rng.random(n) * 4) / 4  # ties in y as well
    else:
        y = rng.normal(size=n) * 10 + X[:, 0] * 5
    queries = np.vstack([rng.random((17, n_features)), X[: min(n, 5)]])
    params = dict(
        n_trees=int(rng.integers(1, 7)),
        max_depth=int(rng.choice([2, 4, 14])),
        min_samples_leaf=int(rng.choice([1, 1, 2, 3])),
        max_features=float(rng.choice([0.5, 0.8, 1.0])),
        seed=int(rng.integers(0, 2**31)),
    )
    return X, y, queries, params


class TestForestExactness:
    def test_trees_and_predictions_match_the_reference(self):
        kinds = set()
        for seed in range(FORESTS):
            X, y, queries, params = random_case(seed)
            forest = RandomForestRegressor(**params).fit(X, y)
            reference = reference_forest(forest, X, y)
            assert len(forest._trees) == len(reference)
            for tree, ref in zip(forest._trees, reference):
                assert array_nodes(tree) == reference_nodes(ref), seed
            mean, std = forest.predict(queries)
            per_tree = np.stack([ref.predict(queries) for ref in reference])
            assert mean.tobytes() == per_tree.mean(axis=0).tobytes(), seed
            assert std.tobytes() == per_tree.std(axis=0).tobytes(), seed
            kinds.add((seed % 5, X.shape[1]))
        assert {k for k, _ in kinds} == {0, 1, 2, 3, 4}
        assert {f for _, f in kinds} == {1, 2, 3, 4, 5, 6}

    def test_single_tree_predict_on_training_rows(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 3))
        y = rng.normal(size=60)
        tree = RegressionTree(rng=np.random.default_rng(9)).fit(X, y)
        ref = ReferenceTree(rng=np.random.default_rng(9)).fit(X, y)
        assert tree.predict(X).tobytes() == ref.predict(X).tobytes()
        assert tree.predict(X[:0]).shape == (0,)

    def test_unfitted_tree_refuses_to_predict(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 1)))


def paper_case(seed: int):
    """A surrogate of the size the paper-scale search fits: 20 trees on 50
    to 400 observations of 1 to 6 unit-cube features, the targets interval
    distances with ties at 0."""
    rng = np.random.default_rng([seed, 400])
    n = int(rng.integers(50, 401))
    n_features = int(rng.integers(1, 7))
    X = rng.random((n, n_features))
    if seed % 2:
        X = np.round(X * 40) / 40  # integer and categorical columns repeat
    y = np.maximum(np.abs(X[:, 0] - 0.4) - 0.1, 0.0) + rng.random(n) * 0.01
    queries = rng.random((260, n_features))
    return X, y, queries, dict(n_trees=20, seed=int(rng.integers(0, 2**31)))


class TestPaperSizedForests:
    """Presorted fitting and the all-trees walk on paper-sized forests."""

    @pytest.mark.parametrize("seed", range(6))
    def test_nodes_and_walk_match_the_reference(self, seed):
        X, y, queries, params = paper_case(seed)
        forest = RandomForestRegressor(**params).fit(X, y)
        reference = reference_forest(forest, X, y)
        for tree, ref in zip(forest._trees, reference, strict=True):
            assert array_nodes(tree) == reference_nodes(ref)
        mean, std = forest.predict(queries)
        per_tree = np.stack([ref.predict(queries) for ref in reference])
        assert mean.tobytes() == per_tree.mean(axis=0).tobytes()
        assert std.tobytes() == per_tree.std(axis=0).tobytes()
        # One tree's predict takes the same walk as the forest's.
        for tree, ref in zip(forest._trees[:3], reference):
            assert tree.predict(queries).tobytes() == ref.predict(queries).tobytes()
