"""Statistical feature extraction from monitoring time series.

Following Tuncer et al. (the diagnosis framework the paper evaluates), each
metric's time-series window is summarised by order statistics and moments;
the concatenation over all metrics is the sample fed to the classifiers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: per-metric statistics, in emission order
STAT_NAMES = (
    "mean",
    "std",
    "min",
    "max",
    "skew",
    "kurtosis",
    "p5",
    "p25",
    "p50",
    "p75",
    "p95",
)


def extract_features(window: np.ndarray) -> np.ndarray:
    """Features for one (T, M) window: 11 statistics per metric column."""
    arr = np.asarray(window, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("window must be a (T, M) array")
    if arr.shape[0] == 0:
        raise ConfigError("cannot extract features from an empty window")
    cols = np.ascontiguousarray(arr.T)  # (M, T): one row per metric
    mean = cols.mean(axis=1, keepdims=True)
    # skew and kurtosis exactly as scipy.stats computes them (biased,
    # Fisher): central moments along each row ...
    d = cols - mean
    sq = d**2
    m2 = sq.mean(axis=1)
    m3 = (sq * d).mean(axis=1)
    m4 = (sq**2).mean(axis=1)
    # ... but the last steps stay scalar per column: numpy's SIMD pow on
    # arrays (and its x**2 -> x*x shortcut) can land one ulp away from the
    # libm pow scipy applies to a single column's moments
    eps = np.finfo(float).eps
    shape = np.array(
        [
            (np.nan, np.nan)
            if v <= (eps * mu) ** 2
            else (c3 / v**1.5, c4 / v**2.0 - 3)
            for mu, v, c3, c4 in zip(mean[:, 0], m2, m3, m4)
        ]
    ).reshape(-1, 2)
    # a constant column has no shape: report 0.0 rather than nan
    shape[np.all(cols == cols[:, :1], axis=1)] = 0.0
    feats = np.column_stack(
        [
            mean[:, 0],
            cols.std(axis=1),
            cols.min(axis=1),
            cols.max(axis=1),
            shape[:, 0],
            shape[:, 1],
            *np.percentile(cols, [5, 25, 50, 75, 95], axis=1),
        ]
    )
    return feats.ravel()


def feature_names(metrics: list[str]) -> list[str]:
    """Names aligned with :func:`extract_features` output order."""
    return [f"{metric}__{stat}" for metric in metrics for stat in STAT_NAMES]


def windows(
    series: np.ndarray, width: int, stride: int | None = None
) -> list[np.ndarray]:
    """Slice a (T, M) matrix into fixed-width windows along time.

    The paper's framework uses 45-sample windows; a trailing partial
    window is dropped (diagnosis needs full windows).
    """
    if width < 1:
        raise ConfigError("window width must be >= 1")
    stride = width if stride is None else stride
    if stride < 1:
        raise ConfigError("window stride must be >= 1")
    arr = np.asarray(series, dtype=float)
    out = []
    start = 0
    while start + width <= arr.shape[0]:
        out.append(arr[start : start + width])
        start += stride
    return out
