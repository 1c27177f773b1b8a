"""CART decision-tree classifier (from scratch, numpy).

Binary splits on numeric features chosen by Gini impurity reduction, with
the usual regularisation knobs (depth, minimum split/leaf sizes) plus
``max_features`` and sample weighting so the same tree serves as the base
learner for the random forest and AdaBoost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.sim.rng import spawn_rng


@dataclass
class _Node:
    prediction: int
    proba: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(weighted_counts: np.ndarray) -> float:
    total = weighted_counts.sum()
    if total <= 0:
        return 0.0
    p = weighted_counts / total
    return float(1.0 - np.sum(p * p))


class DecisionTreeClassifier:
    """Gini-based CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (None = unlimited).
    min_samples_split / min_samples_leaf:
        Minimum sample counts to attempt / keep a split.
    max_features:
        Features examined per split: None (all), "sqrt", or an int.
    seed:
        Seed for feature subsampling (only relevant with max_features).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise ConfigError("min_samples_split >= 2 and min_samples_leaf >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self._total_weight: float = 0.0

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ConfigError("X must be (N, F) and y (N,) with matching N")
        if X.shape[0] == 0:
            raise ConfigError("cannot fit on an empty dataset")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        w = (
            np.ones(X.shape[0])
            if sample_weight is None
            else np.asarray(sample_weight, dtype=float)
        )
        if w.shape != (X.shape[0],) or np.any(w < 0):
            raise ConfigError("sample_weight must be non-negative, shape (N,)")
        self._rng = spawn_rng(self.seed, "tree")
        self.feature_importances_ = np.zeros(self.n_features_)
        self._total_weight = float(w.sum())
        self._root = self._build(X, y_enc, w, depth=0)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ /= total
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self.n_features_)
        raise ConfigError(f"bad max_features {self.max_features!r}")

    def _leaf(self, y: np.ndarray, w: np.ndarray) -> _Node:
        counts = np.bincount(y, weights=w, minlength=len(self.classes_))
        total = counts.sum()
        proba = counts / total if total > 0 else np.full_like(counts, 1.0 / len(counts))
        return _Node(prediction=int(np.argmax(counts)), proba=proba)

    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, depth: int) -> _Node:
        node = self._leaf(y, w)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.size < self.min_samples_split
            or np.unique(y).size == 1
        ):
            return node
        split = self._best_split(X, y, w)
        if split is None:
            return node
        feature, threshold, gain = split
        # mean-impurity-decrease importance, weighted by the node's share
        # of the training weight
        if self._total_weight > 0:
            self.feature_importances_[feature] += gain * (
                float(w.sum()) / self._total_weight
            )
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], w[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], w[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray
    ) -> tuple[int, float, float] | None:
        n_classes = len(self.classes_)
        n = y.size
        k = self._n_split_features()
        if k < self.n_features_:
            features = self._rng.choice(self.n_features_, size=k, replace=False)
        else:
            features = np.arange(self.n_features_)
        parent_counts = np.bincount(y, weights=w, minlength=n_classes)
        parent_impurity = _gini(parent_counts)
        total_w = parent_counts.sum()
        leaf = self.min_samples_leaf
        # all candidate features at once: column j sorts feature features[j]
        Xf = X[:, features]
        order = np.argsort(Xf, axis=0, kind="stable")
        xs = np.take_along_axis(Xf, order, axis=0)
        # prefix-weighted class counts per (position, feature)
        onehot = np.zeros((n, k, n_classes))
        onehot[np.arange(n)[:, None], np.arange(k), y[order]] = w[order]
        prefix = np.cumsum(onehot, axis=0)
        # candidate split after position i (between xs[i] and xs[i+1]),
        # respecting the minimum leaf size
        left = prefix[:-1]  # (n-1, k, C)
        right = parent_counts - left
        lw = left.sum(axis=2)
        rw = right.sum(axis=2)
        pos = np.arange(n - 1)[:, None]
        valid = (
            (xs[:-1] < xs[1:])
            & (pos + 1 >= leaf)
            & (n - pos - 1 >= leaf)
            & (lw > 0)
            & (rw > 0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.sum((left / lw[..., None]) ** 2, axis=2)
            gini_right = 1.0 - np.sum((right / rw[..., None]) ** 2, axis=2)
            impurity = (lw * gini_left + rw * gini_right) / total_w
            gains = np.where(valid, parent_impurity - impurity, -np.inf)
        # first best boundary per feature, then the first feature (in
        # ``features`` order) with the strictly largest gain
        idx = np.argmax(gains, axis=0)
        per_feature = gains[idx, np.arange(k)]
        j = int(np.argmax(per_feature))
        gain = float(per_feature[j])
        if not gain > 1e-12:
            return None
        i = int(idx[j])
        return int(features[j]), float((xs[i, j] + xs[i + 1, j]) / 2.0), gain

    # -- prediction ---------------------------------------------------------

    def _check_fitted(self) -> None:
        if self._root is None or self.classes_ is None:
            raise ConfigError("classifier is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        return self.classes_[np.array([self._walk(row).prediction for row in X])]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities in the order of ``classes_``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        return np.vstack([self._walk(row).proba for row in X])

    def _walk(self, row: np.ndarray) -> _Node:
        node = self._root
        assert node is not None
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
            assert node is not None
        return node

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
