"""Differential checks: the vectorised analytics against per-column references.

``DecisionTreeClassifier._best_split`` searches every candidate feature in
one pass and ``extract_features`` summarises a whole window in one pass.
Both must reproduce, byte for byte, the obviously correct per-feature /
per-column code kept here as test-only references.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.analytics.features import extract_features
from repro.analytics.adaboost import AdaBoostClassifier
from repro.analytics.forest import RandomForestClassifier
from repro.analytics.tree import DecisionTreeClassifier, _gini
from repro.sim.rng import make_rng

# -- reference split search -------------------------------------------------


def reference_best_split(self, X, y, w, last_max=False):
    """The per-feature split search, one numpy pass per feature.

    Verbatim from the loop the vectorised search replaced, except that
    ``impurity`` is computed inside the ``errstate`` block (it leaked a
    RuntimeWarning on zero-weight nodes; masked entries never mattered).
    ``last_max=True`` plants a bug: ties between features go to the last.
    """
    n_classes = len(self.classes_)
    n = y.size
    k = self._n_split_features()
    if k < self.n_features_:
        features = self._rng.choice(self.n_features_, size=k, replace=False)
    else:
        features = np.arange(self.n_features_)
    best = None
    parent_counts = np.bincount(y, weights=w, minlength=n_classes)
    parent_impurity = _gini(parent_counts)
    total_w = parent_counts.sum()
    leaf = self.min_samples_leaf
    for feature in features:
        order = np.argsort(X[:, feature], kind="stable")
        xs, ys, ws = X[order, feature], y[order], w[order]
        # prefix-weighted class counts per candidate boundary
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = ws
        prefix = np.cumsum(onehot, axis=0)
        # candidate split after position i (between xs[i] and xs[i+1]),
        # respecting the minimum leaf size
        boundaries = np.nonzero(xs[:-1] < xs[1:])[0]
        boundaries = boundaries[
            (boundaries + 1 >= leaf) & (n - boundaries - 1 >= leaf)
        ]
        if boundaries.size == 0:
            continue
        left = prefix[boundaries]  # (B, C)
        right = parent_counts[None, :] - left
        lw = left.sum(axis=1)
        rw = right.sum(axis=1)
        valid = (lw > 0) & (rw > 0)
        if not np.any(valid):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.sum((left / lw[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right / rw[:, None]) ** 2, axis=1)
            impurity = (lw * gini_left + rw * gini_right) / total_w
        impurity[~valid] = np.inf
        gains = parent_impurity - impurity
        idx = int(np.argmax(gains))
        gain = float(gains[idx])
        better = best is None or (gain >= best[0] if last_max else gain > best[0])
        if gain > 1e-12 and better:
            i = int(boundaries[idx])
            threshold = float((xs[i] + xs[i + 1]) / 2.0)
            best = (gain, int(feature), threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


def planted_best_split(self, X, y, w):
    return reference_best_split(self, X, y, w, last_max=True)


def dump(node):
    """Every byte that defines a fitted (sub)tree."""
    if node.is_leaf:
        return (node.prediction, node.proba.tobytes())
    return (
        node.feature,
        node.threshold.hex(),
        node.proba.tobytes(),
        dump(node.left),
        dump(node.right),
    )


def fuzz_case(seed):
    """A small seeded fit: ties, zero weights and every regularisation knob."""
    rng = make_rng(seed)
    n = int(rng.integers(2, 41))
    f = int(rng.integers(1, 13))
    n_classes = int(rng.integers(1, 7))
    kind = seed % 3
    if kind == 0:  # integer-valued: heavy ties within and across features
        X = rng.integers(0, 4, size=(n, f)).astype(float)
    elif kind == 1:
        X = rng.normal(size=(n, f))
    else:  # duplicated columns tie exactly across features
        X = np.repeat(rng.integers(0, 6, size=(n, max(1, f // 2))), 2, axis=1)
        X = X[:, :f].astype(float)
    y = rng.integers(0, n_classes, size=n)
    weight_kind = int(rng.integers(0, 3))
    if weight_kind == 0:
        w = None
    elif weight_kind == 1:
        w = rng.random(n) * (rng.random(n) > 0.3)
    else:
        w = rng.integers(0, 3, size=n).astype(float)
    max_features = [None, "sqrt", int(rng.integers(1, f + 1))][int(rng.integers(0, 3))]
    params = dict(
        max_depth=[None, int(rng.integers(1, 7))][int(rng.integers(0, 2))],
        min_samples_split=int(rng.integers(2, 7)),
        min_samples_leaf=int(rng.integers(1, 6)),
        max_features=max_features,
        seed=seed,
    )
    return X, y, w, params


def fitted_bytes(X, y, w, params):
    tree = DecisionTreeClassifier(**params).fit(X, y, sample_weight=w)
    return dump(tree._root), tree.feature_importances_.tobytes()


def mismatches(split, seeds, monkeypatch):
    """Seeds whose fitted tree differs between the fast path and ``split``."""
    cases = [fuzz_case(seed) for seed in seeds]
    fast = [fitted_bytes(*case) for case in cases]
    with monkeypatch.context() as patch:
        patch.setattr(DecisionTreeClassifier, "_best_split", split)
        other = [fitted_bytes(*case) for case in cases]
    return [s for s, a, b in zip(seeds, fast, other) if a != b]


@pytest.mark.parametrize("start", range(0, 300, 50))
def test_split_matches_reference(start, monkeypatch):
    assert mismatches(reference_best_split, range(start, start + 50), monkeypatch) == []


def test_planted_last_max_tie_break_is_caught(monkeypatch):
    assert mismatches(planted_best_split, range(0, 300, 3), monkeypatch)


def ensemble_bytes(model):
    trees = getattr(model, "learners_", None) or model.trees_
    return [dump(tree._root) for tree in trees], getattr(model, "alphas_", None)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: AdaBoostClassifier(n_estimators=10, max_depth=2, seed=5),
        lambda: RandomForestClassifier(n_estimators=10, seed=5),
    ],
    ids=["adaboost", "forest"],
)
def test_ensembles_match_reference(factory, monkeypatch):
    rng = make_rng(11)
    X = np.round(rng.normal(size=(45, 30)), 1)
    y = np.repeat(np.arange(5), 9)
    fast = ensemble_bytes(factory().fit(X, y))
    monkeypatch.setattr(DecisionTreeClassifier, "_best_split", reference_best_split)
    assert ensemble_bytes(factory().fit(X, y)) == fast


def test_zero_weights_fit_without_warnings():
    # seed 1541 leaked "invalid value encountered in multiply" before the
    # impurity moved inside the errstate block: a child's class weights
    # cancel to rw == 0 through rounding, and 0 * -inf is invalid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(1500, 1600):
            rng = make_rng(seed)
            n = int(rng.integers(4, 40))
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, 4, size=n)
            w = rng.random(n) * (rng.random(n) > 0.5)
            DecisionTreeClassifier(seed=seed).fit(X, y, w)


# -- reference feature extraction ---------------------------------------------


def reference_column_features(col):
    """One metric column, statistic by statistic (scipy for the moments)."""
    constant = bool(np.all(col == col[0]))
    with warnings.catch_warnings():
        # scipy flags near-constant columns; the values are what matter here
        warnings.simplefilter("ignore", RuntimeWarning)
        return [
            float(np.mean(col)),
            float(np.std(col)),
            float(np.min(col)),
            float(np.max(col)),
            0.0 if constant else float(stats.skew(col)),
            0.0 if constant else float(stats.kurtosis(col)),
            float(np.percentile(col, 5)),
            float(np.percentile(col, 25)),
            float(np.percentile(col, 50)),
            float(np.percentile(col, 75)),
            float(np.percentile(col, 95)),
        ]


def reference_features(window):
    cols = [reference_column_features(window[:, m]) for m in range(window.shape[1])]
    return np.asarray([v for col in cols for v in col])


def window_case(seed):
    rng = make_rng(seed)
    t = int(rng.integers(1, 61))
    m = int(rng.integers(1, 9))
    scale = 10.0 ** int(rng.integers(-3, 10))
    window = rng.normal(loc=scale, scale=scale, size=(t, m))
    window[:, rng.random(m) < 0.3] = scale  # constant columns
    near = rng.random(m) < 0.3  # nearly constant: scipy's zero-variance rule
    window[:, near] = scale * (1.0 + 1e-15 * rng.integers(0, 2, size=(t, near.sum())))
    ints = rng.random(m) < 0.3  # ties at the percentile positions
    window[:, ints] = rng.integers(0, 5, size=(t, ints.sum()))
    return window


@pytest.mark.parametrize("start", range(0, 400, 100))
def test_features_match_reference(start):
    for seed in range(start, start + 100):
        window = window_case(seed)
        assert extract_features(window).tobytes() == (
            reference_features(window).tobytes()
        ), seed
