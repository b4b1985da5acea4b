"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (loops,
itertools, plain formulas) rather than reusing package code, so a bug in
the package cannot hide in its own oracle.
"""

import itertools
import math

import numpy as np


def enumerate_kmeans_sse(x, k):
    """Globally optimal k-means SSE by exhaustive search over partitions."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        sse = 0.0
        for j in range(k):
            members = [i for i in range(n) if assign[i] == j]
            center = x[members].mean(axis=0)
            for i in members:
                sse += float(((x[i] - center) ** 2).sum())
        best = min(best, sse)
    return best


def adjusted_rand(a, b):
    """Adjusted Rand index by pair counting."""
    a = list(a)
    b = list(b)
    n = len(a)
    assert len(b) == n

    def comb2(v):
        return v * (v - 1) // 2

    table = {}
    for ai, bi in zip(a, b):
        table[(ai, bi)] = table.get((ai, bi), 0) + 1
    sum_cells = sum(comb2(v) for v in table.values())
    rows = {}
    cols = {}
    for (ai, bi), v in table.items():
        rows[ai] = rows.get(ai, 0) + v
        cols[bi] = cols.get(bi, 0) + v
    sum_rows = sum(comb2(v) for v in rows.values())
    sum_cols = sum(comb2(v) for v in cols.values())
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def objective(u, w, x, m, v, alpha=None):
    """Penalized fuzzy objective evaluated with explicit python loops."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    n, c = u.shape
    if alpha is None:
        col = np.zeros(c)
        for j in range(c):
            for i in range(n):
                col[j] += u[i, j] ** m
        alpha = col / col.sum()
    total = 0.0
    for i in range(n):
        for j in range(c):
            d2 = float(((x[i] - w[j]) ** 2).sum())
            total += 0.5 * (u[i, j] ** m) * d2
            if v != 0.0:
                total -= 0.5 * v * (u[i, j] ** m) * math.log(alpha[j])
    return total


def induced_objective(u, x, m, v):
    """Objective of a membership matrix at its own best centroids/proportions.

    Returns inf for matrices with a zero-mass column (no defined centroid).
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    um = u ** m
    mass = um.sum(axis=0)
    if (mass <= 0.0).any():
        return math.inf
    w = (um.T @ x) / mass[:, None]
    alpha = mass / mass.sum()
    return objective(u, w, x, m, v, alpha)


def membership_grid(n, c, step):
    """Every row-stochastic matrix whose entries lie on the step lattice."""
    levels = int(round(1.0 / step))
    rows = []
    for combo in itertools.product(range(levels + 1), repeat=c - 1):
        if sum(combo) <= levels:
            row = [v * step for v in combo]
            row.append(1.0 - sum(row))
            rows.append(row)
    for pick in itertools.product(range(len(rows)), repeat=n):
        yield np.array([rows[p] for p in pick])


def grid_min_induced_objective(x, m, v, step):
    """Min induced objective over the two-cluster membership grid, batched.

    Same quantity as min(induced_objective(u, ...)) over membership_grid
    but evaluated with batched numpy so a 0.05 step is affordable.
    Zero-mass columns are skipped.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    levels = int(round(1.0 / step))
    pts = np.array([[i * step, 1.0 - i * step] for i in range(levels + 1)])
    idx = np.array(list(itertools.product(range(len(pts)), repeat=n)))
    u = pts[idx]
    um = u ** m
    mass = um.sum(axis=1)
    keep = (mass > 0.0).all(axis=1)
    um, mass = um[keep], mass[keep]
    w = np.einsum("Bnc,nd->Bcd", um, x) / mass[..., None]
    d2 = ((x[None, :, None, :] - w[:, None, :, :]) ** 2).sum(axis=-1)
    j = 0.5 * (um * d2).sum(axis=(1, 2))
    if v != 0.0:
        alpha = mass / mass.sum(axis=1, keepdims=True)
        j -= 0.5 * v * (um * np.log(alpha)[:, None, :]).sum(axis=(1, 2))
    return float(j.min())


def sq_distances(x, w):
    """Squared Euclidean distances between rows, summed term by term."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    out = np.zeros((x.shape[0], w.shape[0]))
    for i in range(x.shape[0]):
        for j in range(w.shape[0]):
            out[i, j] = sum((a - b) ** 2 for a, b in zip(x[i].tolist(), w[j].tolist()))
    return out


def rough_kmeans(x, k, init_centroids, zeta=1.3, w_lower=0.7, max_iter=300, eps=1e-5):
    """Rough k-means kept as frozensets of gene indices.

    Lower and upper sets are tuples of frozensets, each mean averages the
    rows of a sorted index list, and the run stops when the (lower, upper)
    tuples repeat or no centroid moves eps. Distances come from the
    package kernel, so the ratio test sees the same bits as the package
    and only the set bookkeeping is independent.

    Returns (lower, upper, centroids, iterations, converged).
    """
    from pfclust._util import sq_distances

    x = np.asarray(x, dtype=float)
    w = np.array(init_centroids, dtype=float)
    n = x.shape[0]
    prev = None
    iterations = 0
    converged = False
    for _ in range(max_iter):
        d = np.sqrt(sq_distances(x, w))
        upper_lists = [[] for _ in range(k)]
        for i in range(n):
            near = int(np.argmin(d[i]))
            for j in range(k):
                if j == near or (d[i, near] > 0.0 and d[i, j] <= zeta * d[i, near]):
                    upper_lists[j].append(i)
        upper = tuple(frozenset(up) for up in upper_lists)
        counts = [sum(i in up for up in upper) for i in range(n)]
        lower = tuple(frozenset(i for i in up if counts[i] == 1) for up in upper)
        w_new = np.empty_like(w)
        for j in range(k):
            low = sorted(lower[j])
            bound = sorted(upper[j] - lower[j])
            if low and bound:
                w_new[j] = w_lower * x[low].mean(axis=0) + (1.0 - w_lower) * x[bound].mean(axis=0)
            elif low:
                w_new[j] = x[low].mean(axis=0)
            elif bound:
                w_new[j] = x[bound].mean(axis=0)
            else:
                w_new[j] = w[j]
        movement = float(np.sqrt(((w_new - w) ** 2).sum(axis=1)).max())
        w = w_new
        iterations += 1
        stable = (lower, upper) == prev
        prev = (lower, upper)
        if stable or movement < eps:
            converged = True
            break
    return lower, upper, w, iterations, converged
