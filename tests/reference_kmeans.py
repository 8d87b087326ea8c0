"""Frozen copies of the original k-means, kept as a test oracle.

This `_lloyd` updates the centroids with one boolean gather and `.mean`
per cluster and recomputes the inertia after the loop.  The library's
`kmeans_fit` must give the same labels, centroid bytes, inertia history,
iteration count and inertia for two or more features; with one feature
numpy's pairwise mean may round the centroids differently in the last
place.  The differential tests in `test_kmeans_reference.py` compare them.
Do not edit the code below.
"""

from __future__ import annotations

import numpy as np

from offloadlab.cluster import KMeansModel


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # k-means++ D^2 sampling; falls back to uniform picks once all mass is 0
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _repair_empty(points: np.ndarray, centroids: np.ndarray,
                  labels: np.ndarray) -> bool:
    """Reseed empty clusters at the point farthest from its own centroid.

    Mutates centroids and labels in place.  Skips the move when every point
    already sits on its centroid: there is nothing to gain and the donated
    point would just oscillate.
    """
    k = len(centroids)
    repaired = False
    for _ in range(2 * k):
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        dist2 = ((points - centroids[labels]) ** 2).sum(axis=1)
        donor = int(dist2.argmax())
        if dist2[donor] <= 0.0:
            break
        centroids[empty[0]] = points[donor]
        labels[donor] = empty[0]
        repaired = True
    return repaired


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
           tol: float, max_iter: int):
    centroids = _seed_centroids(points, k, rng)
    prev_labels = None
    labels = np.zeros(len(points), dtype=int)
    history: list[float] = []
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        labels = _nearest(points, centroids)
        repaired = _repair_empty(points, centroids, labels)
        if not repaired and prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        previous = centroids.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
        history.append(float(((points - centroids[labels]) ** 2).sum()))
        prev_labels = labels
        shift = float(np.sqrt(((centroids - previous) ** 2).sum(axis=1)).max())
        if not repaired and shift < tol:
            break
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return centroids, labels, inertia, iterations, history


def kmeans_fit(points: np.ndarray, k: int, seed: int = 0, tol: float = 1e-6,
               max_iter: int = 300, restarts: int = 1) -> KMeansModel:
    """Seeded k-means++ plus Lloyd iterations; the best of `restarts` runs.

    Restarts draw from one generator stream, so the result is a pure
    function of (points, k, seed, tol, max_iter, restarts).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or infinite values")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pts):
        raise ValueError(f"k={k} exceeds the {len(pts)} available points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        candidate = _lloyd(pts, k, rng, tol, max_iter)
        if best is None or candidate[2] < best[2]:
            best = candidate
    centroids, labels, inertia, iterations, history = best
    return KMeansModel(k=k, centroids=centroids, inertia=inertia, seed=seed,
                       iterations_run=iterations, labels=labels,
                       inertia_history=tuple(history))
