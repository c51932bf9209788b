"""Distance statistics and empirical-law helpers for the experiment harness."""

from __future__ import annotations

from collections import Counter

import numpy as np


def empirical_law(samples) -> dict:
    """Relative frequencies of hashable states."""
    counts = Counter(samples)
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample")
    return {s: c / n for s, c in counts.items()}


def rows_to_tuples(rows: np.ndarray) -> list[tuple]:
    """The rows of a 2-D integer array with at least one column, as tuples
    of Python ints.  Converting column by column with tolist() avoids a
    numpy scalar per entry."""
    return list(zip(*rows.T.tolist()))


def tv_distance(a: dict, b: dict) -> float:
    """Total variation distance (1/2) sum |a - b| over the union support.

    Truncation deficits of the inputs are not folded in; report them
    separately."""
    states = set(a) | set(b)
    return 0.5 * sum(abs(float(a.get(s, 0)) - float(b.get(s, 0))) for s in states)


def ks_two_sample(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_x - F_y|."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


def exact_law_to_floats(law: dict) -> dict:
    return {s: float(p) for s, p in law.items()}
