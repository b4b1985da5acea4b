"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (loops,
itertools, plain formulas) rather than reusing package code, so a bug in
the package cannot hide in its own oracle. The exceptions are named where
they occur: the iterative oracles share the package's distance kernel,
its starting centroids and its centroid rule (``weighted_means``), so
their results can be compared bit for bit; an independent check of that
rule is in tests/test_kmeans.py.
"""

import csv
import itertools
import math

import numpy as np

from pfclust import FuzzyPartition, NumericalError, ParseError, PartitionFile
from pfclust._util import initial_centroids, weighted_means
from pfclust._util import sq_distances as kernel_sq_distances
from pfclust.matrix import ExpressionMatrix


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


def update_memberships(d2, alpha, m, v):
    """The fuzzy membership update as it stood with split row paths.

    Singular rows (some D_ij within 1e-12 of zero) and regular rows are
    copied out by boolean masks and updated apart, so the regular formula
    never sees a zero or tiny row minimum.
    """
    big_d = d2 - v * np.log(alpha)[None, :]
    u = np.empty_like(big_d)
    singular = (big_d <= 1e-12).any(axis=1)
    if singular.any():
        rows = big_d[singular]
        winners = rows <= 1e-12
        u[singular] = winners / winners.sum(axis=1, keepdims=True)
    regular = ~singular
    if regular.any():
        rows = big_d[regular]
        scaled = rows / rows.min(axis=1, keepdims=True)
        weights = scaled ** (-1.0 / (m - 1.0))
        u[regular] = weights / weights.sum(axis=1, keepdims=True)
    return u


def pfcm(x, c, m, v, eps, max_iter, seed, u_init=None, on_iteration=None):
    """The fuzzy loop as it stood before each state was fitted once.

    Each step rebuilds u**m, d^2 is computed for the objective and again
    for the membership update, and the returned state is recomputed after
    the loop. Only the package's distance kernel and its starting centroids
    (``initial_centroids``, as the kmeans oracle takes its init) are shared,
    so results can be compared bit for bit. Without u_init the memberships
    start from one update at v = 0 from those centroids. fcm is this loop at
    v = 0 with alpha dropped.
    """
    x = np.asarray(x, dtype=np.float64)

    def compute_alpha(u, m):
        mass = (u ** m).sum(axis=0)
        total = mass.sum()
        if not total > 0.0:
            raise ValueError("membership matrix has zero total mass")
        alpha = mass / total
        if alpha.shape[0] == 1:
            return np.ones(1)
        clamped = np.maximum(alpha, 1e-12)
        alpha = clamped / clamped.sum()
        alpha[-1] = 1.0 - alpha[:-1].sum()
        return alpha

    def compute_centroids(u, m, x):
        um = u ** m
        mass = um.sum(axis=0)
        dead = np.flatnonzero(mass <= 0.0)
        if dead.size:
            raise ValueError(f"cluster {int(dead[0])} has zero membership mass")
        return (um.T @ x) / mass[:, None]

    def memberships(x, w, alpha, m, v):
        return update_memberships(kernel_sq_distances(x, w), alpha, m, v)

    def pfcm_objective(u, w, alpha, x, m, v):
        um = u ** m
        scatter = 0.5 * float((um * kernel_sq_distances(x, w)).sum())
        if alpha is None or v == 0.0:
            penalty = 0.0
        else:
            penalty = 0.5 * v * float((um * np.log(alpha)[None, :]).sum())
        return scatter - penalty

    if u_init is not None:
        # cluster-major, as the package holds every U
        u = np.array(u_init, dtype=np.float64, order="F")
        u = u / u.sum(axis=1, keepdims=True)
    else:
        # the package's start: seeded rows as centroids, one update at v = 0
        w = initial_centroids(x, c, seed, False)
        u = memberships(x, w, np.full(c, 1.0 / c), m, 0.0)

    trace = []
    iterations = 0
    stop_reason = "max_iter"
    try:
        for t in range(max_iter):
            alpha = compute_alpha(u, m)
            w = compute_centroids(u, m, x)
            j_val = pfcm_objective(u, w, alpha, x, m, v)
            if not np.isfinite(j_val):
                raise NumericalError(
                    f"objective became non-finite at iteration {t} (J={j_val!r}); "
                    f"c={c} m={m} v={v} seed={seed}"
                )
            trace.append(j_val)
            u_new = memberships(x, w, alpha, m, v)
            delta = float(np.abs(u_new - u).max())
            u = u_new
            iterations = t + 1
            if on_iteration is not None:
                on_iteration(u.copy(), w.copy(), alpha.copy())
            if delta < eps:
                stop_reason = "tolerance"
                break

        alpha = compute_alpha(u, m)
        w = compute_centroids(u, m, x)
        trace.append(pfcm_objective(u, w, alpha, x, m, v))
    except ValueError as exc:
        raise NumericalError(
            f"{exc} at iteration {iterations}; c={c} m={m} v={v} seed={seed}"
        ) from exc

    return FuzzyPartition(
        memberships=u,
        centroids=w,
        alpha=alpha,
        trace=tuple(trace),
        iterations=iterations,
        stop_reason=stop_reason,
    )


def rough_kmeans(x, k, init_centroids, zeta=1.3, w_lower=0.7, max_iter=300, eps=1e-5):
    """Rough k-means kept as frozensets of gene indices.

    Lower and upper sets are tuples of frozensets, and the run stops when
    the (lower, upper) tuples repeat or no centroid moves eps. Distances
    come from the package kernel, and the lower and boundary means from
    its ``weighted_means``, one call on each full (n, k) indicator matrix
    built from the sets (a per-cluster product would round differently),
    so the ratio test and the means see the same bits as the package. The
    set bookkeeping and the choice among the fallbacks are independent.

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
        low_mean, _ = weighted_means(
            [[i in lower[j] for j in range(k)] for i in range(n)], x)
        bound_mean, _ = weighted_means(
            [[i in upper[j] - lower[j] for j in range(k)] for i in range(n)], x)
        w_new = np.empty_like(w)
        for j in range(k):
            low = lower[j]
            bound = upper[j] - lower[j]
            if low and bound:
                w_new[j] = w_lower * low_mean[j] + (1.0 - w_lower) * bound_mean[j]
            elif low:
                w_new[j] = low_mean[j]
            elif bound:
                w_new[j] = bound_mean[j]
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


def kmeans(x, k, init_centroids, max_iter=300, eps=1e-5):
    """K-means with explicit loops and the assignment-stability stop.

    Each round sends every row to its nearest centroid (the lowest index
    on ties), then fills each empty cluster, in index order, with the row
    farthest from its own centroid among clusters that keep a member.
    The run stops when the assignment repeats or no centroid moves eps.
    Distances come from the package kernel, the means from its
    ``weighted_means`` on the full (n, k) one-hot matrix built from the
    assignment list, and the SSE is summed in the package's order, so the
    trace can be compared bit for bit; the assignment, repair and
    stopping bookkeeping are independent.

    Returns (assignments, centroids, iterations, converged, sse_trace).
    """
    from pfclust._util import sq_distances

    x = np.asarray(x, dtype=float)
    w = np.array(init_centroids, dtype=float)
    n = x.shape[0]
    assign = None
    trace = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        d = sq_distances(x, w)
        new = [min(range(k), key=lambda j: (d[i, j], j)) for i in range(n)]
        counts = [new.count(j) for j in range(k)]
        for j in [j for j in range(k) if counts[j] == 0]:
            far = None
            for i in range(n):
                if counts[new[i]] >= 2 and (far is None or d[i, new[i]] > d[far, new[far]]):
                    far = i
            counts[new[far]] -= 1
            new[far] = j
            counts[j] += 1
        stable = new == assign
        assign = new
        w_new, _ = weighted_means([[assign[i] == j for j in range(k)] for i in range(n)], x)
        movement = float(np.sqrt(((w_new - w) ** 2).sum(axis=1)).max())
        w = w_new
        resid = x - w[assign]
        trace.append(float(np.einsum("ij,ij->i", resid, resid).sum()))
        iterations += 1
        if stable or movement < eps:
            converged = True
            break
    return np.array(assign), w, iterations, converged, tuple(trace)


# The matrix parser as it was before one row reader served the three
# formats: a row loop per format, one float() call per cell. Only the
# error type and the matrix type are shared with the package, since the
# comparison is of their contents.

FORMATS = ("tsv", "gct", "res")


def _parse_cell(field: str, line_no: int, col_no: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ParseError(f"non-numeric value {field!r}", line_no, col_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {field!r}", line_no, col_no)
    return value


def _build(gene_ids: list[str], sample_ids: list[str], rows: list[list[float]]) -> ExpressionMatrix:
    try:
        return ExpressionMatrix(tuple(gene_ids), tuple(sample_ids), rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_matrix(source: str, format: str = "tsv") -> ExpressionMatrix:
    """Parse a matrix from a string.

    Parameters
    ----------
    source : str
        The raw file content.
    format : {"tsv", "gct", "res"}
        Which grammar to apply.

    Raises
    ------
    ParseError
        On empty input, header/body dimension mismatches, duplicate gene
        ids, or non-numeric cells; the message names the offending line
        and column.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    lines = source.splitlines()
    if not lines or all(not ln.strip() for ln in lines):
        raise ParseError("empty file")
    if format == "tsv":
        return _parse_tsv(lines)
    if format == "gct":
        return _parse_gct(lines)
    return _parse_res(lines)


def _data_lines(lines: list[str], start: int) -> list[tuple[int, str]]:
    """The numbered lines from index `start` on, after the empty lines that end
    the file are dropped; any blank or whitespace-only one left is refused."""
    while len(lines) > start and not lines[-1]:
        lines = lines[:-1]
    numbered = list(enumerate(lines[start:], start=start + 1))
    for line_no, line in numbered:
        if not line.strip():
            raise ParseError("blank line inside data section", line_no)
    return numbered


def _parse_tsv(lines: list[str]) -> ExpressionMatrix:
    sample_ids = lines[0].split("\t")
    if any(not s for s in sample_ids):
        raise ParseError("empty sample id in header", 1)
    n_samples = len(sample_ids)
    gene_ids: list[str] = []
    rows: list[list[float]] = []
    for line_no, line in _data_lines(lines, 1):
        fields = line.split("\t")
        if len(fields) != n_samples + 1:
            raise ParseError(
                f"expected {n_samples + 1} fields (gene id + {n_samples} values), "
                f"found {len(fields)}",
                line_no,
            )
        if not fields[0]:
            raise ParseError("empty gene id", line_no, 1)
        gene_ids.append(fields[0])
        rows.append([_parse_cell(f, line_no, col + 2) for col, f in enumerate(fields[1:])])
    if not rows:
        raise ParseError("no data rows after the header", 1)
    return _build(gene_ids, sample_ids, rows)


def _parse_gct(lines: list[str]) -> ExpressionMatrix:
    if lines[0].strip() != "#1.2":
        raise ParseError(f"unsupported GCT version marker {lines[0]!r} (expected '#1.2')", 1)
    if len(lines) < 3:
        raise ParseError("truncated GCT file: missing dimension or header line", len(lines))
    dims = lines[1].split("\t")
    if len(dims) < 2:
        raise ParseError("dimension line must hold gene and sample counts", 2)
    try:
        n_genes, n_samples = int(dims[0]), int(dims[1])
    except ValueError:
        raise ParseError(f"non-integer dimensions {lines[1]!r}", 2) from None
    header = lines[2].split("\t")
    if len(header) < 2 or header[0].lower() != "name" or header[1].lower() != "description":
        raise ParseError("header must start with 'Name<TAB>Description'", 3)
    sample_ids = header[2:]
    if len(sample_ids) != n_samples:
        raise ParseError(
            f"dimension line declares {n_samples} samples but header names "
            f"{len(sample_ids)}",
            3,
        )
    data_lines = _data_lines(lines, 3)
    if len(data_lines) != n_genes:
        raise ParseError(
            f"dimension line declares {n_genes} data rows but file contains "
            f"{len(data_lines)}",
            2,
        )
    gene_ids: list[str] = []
    rows: list[list[float]] = []
    for line_no, line in data_lines:
        fields = line.split("\t")
        if len(fields) != n_samples + 2:
            raise ParseError(
                f"expected {n_samples + 2} fields (name, description, "
                f"{n_samples} values), found {len(fields)}",
                line_no,
            )
        if not fields[0]:
            raise ParseError("empty gene name", line_no, 1)
        gene_ids.append(fields[0])
        rows.append([_parse_cell(f, line_no, col + 3) for col, f in enumerate(fields[2:])])
    return _build(gene_ids, sample_ids, rows)


def _parse_res(lines: list[str]) -> ExpressionMatrix:
    header = lines[0].split("\t")
    if len(header) < 3:
        raise ParseError("header must hold two labels plus at least one sample id", 1)
    rest = header[2:]
    sample_ids = rest[0::2]
    if any(not s for s in sample_ids):
        raise ParseError("empty sample id in header", 1)
    n_samples = len(sample_ids)
    if len(lines) < 4:
        raise ParseError("truncated RES file: missing count line or data rows", len(lines))
    # lines[1] is the sample-description line and is intentionally skipped.
    try:
        n_genes = int(lines[2].strip())
    except ValueError:
        raise ParseError(f"gene-count line must be an integer, found {lines[2]!r}", 3) from None
    data_lines = _data_lines(lines, 3)
    if len(data_lines) != n_genes:
        raise ParseError(
            f"count line declares {n_genes} data rows but file contains {len(data_lines)}",
            3,
        )
    gene_ids: list[str] = []
    rows: list[list[float]] = []
    for line_no, line in data_lines:
        fields = line.split("\t")
        if len(fields) != 2 + 2 * n_samples:
            raise ParseError(
                f"expected {2 + 2 * n_samples} fields (description, accession and "
                f"{n_samples} value/call pairs), found {len(fields)}",
                line_no,
            )
        if not fields[1]:
            raise ParseError("empty accession", line_no, 2)
        gene_ids.append(fields[1])
        rows.append(
            [_parse_cell(f, line_no, 3 + 2 * col) for col, f in enumerate(fields[2::2])]
        )
    return _build(gene_ids, sample_ids, rows)


# The partition and centroid readers as they were before one cell rule
# served them: one int() or float() call per cell, math.fsum for a fuzzy
# row's sum, and a hard reader of its own. They take an open text stream.
# Only PartitionFile, the result type, is shared with the package. They
# accept a cluster index at or above the gene count, which the package
# refuses, so comparisons keep indices below it.

def read_partition_csv(source):
    rows = [row for row in csv.reader(source) if row]
    if not rows:
        raise ValueError("empty partition file")
    header = rows[0]
    body = rows[1:]
    if not body:
        raise ValueError("partition file has no data rows")
    if header == ["gene_id", "cluster"]:
        return _hard_from_rows(body)
    if header == ["gene_id", "cluster", "membership_kind"]:
        return _rough_from_rows(body)
    if header[0] == "gene_id" and len(header) > 1 and all(
        h == f"u{j}" for j, h in enumerate(header[1:])
    ):
        return _fuzzy_from_rows(body, len(header) - 1)
    raise ValueError(f"unrecognized partition header {header!r}")


def _cluster_index(gid, cell):
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"gene {gid!r}: cluster index must be an integer, got {cell!r}") from None


def _hard_from_rows(body):
    gene_ids = []
    assigns = []
    for row in body:
        if len(row) != 2:
            raise ValueError(f"expected 2 fields per row, found {len(row)}: {row!r}")
        gene_ids.append(row[0])
        assigns.append(_cluster_index(row[0], row[1]))
    if len(set(gene_ids)) != len(gene_ids):
        raise ValueError("duplicate gene id in partition file")
    if min(assigns) < 0:
        raise ValueError("negative cluster index")
    k = max(assigns) + 1
    a = np.asarray(assigns, dtype=np.intp)
    u = np.zeros((len(gene_ids), k))
    u[np.arange(len(gene_ids)), a] = 1.0
    return PartitionFile("hard", tuple(gene_ids), u, a)


def _rough_from_rows(body):
    index = {}
    genes, clusters, lower = [], [], []
    for row in body:
        if len(row) != 3:
            raise ValueError(f"expected 3 fields per row, found {len(row)}: {row!r}")
        gid, cluster_s, kind = row
        if kind not in ("lower", "boundary"):
            raise ValueError(f"membership_kind must be lower or boundary, got {kind!r}")
        genes.append(index.setdefault(gid, len(index)))
        clusters.append(_cluster_index(gid, cluster_s))
        lower.append(kind == "lower")
    g = np.asarray(genes, dtype=np.intp)
    c = np.asarray(clusters, dtype=np.intp)
    if c.min() < 0:
        raise ValueError("negative cluster index")
    mixed = np.asarray(lower) & (np.bincount(g)[g] > 1)
    if mixed.any():
        gid = list(index)[g[mixed].min()]
        raise ValueError(f"gene {gid!r} mixes lower membership with other rows")
    member = np.zeros((len(index), c.max() + 1), dtype=bool)
    member[g, c] = True
    if np.count_nonzero(member) != g.size:
        raise ValueError("duplicate (gene id, cluster) row in partition file")
    u = member / member.sum(axis=1, keepdims=True)
    return PartitionFile("rough", tuple(index), u, np.argmax(member, axis=1))


def _fuzzy_from_rows(body, c):
    gene_ids = []
    values = []
    for row in body:
        if len(row) != c + 1:
            raise ValueError(f"expected {c + 1} fields per row, found {len(row)}: {row!r}")
        try:
            row_u = [float(v) for v in row[1:]]
        except ValueError:
            row_u = [math.nan]
        if not (all(0.0 <= v <= 1.0 for v in row_u) and abs(math.fsum(row_u) - 1.0) <= 1e-9):
            raise ValueError(
                f"gene {row[0]!r}: memberships must be in [0, 1] and sum to 1, "
                f"got {', '.join(row[1:])}"
            )
        gene_ids.append(row[0])
        values.append(row_u)
    if len(set(gene_ids)) != len(gene_ids):
        raise ValueError("duplicate gene id in partition file")
    u = np.asarray(values)
    return PartitionFile("fuzzy", tuple(gene_ids), u, np.argmax(u, axis=1))


def read_centroids_csv(source):
    rows = [row for row in csv.reader(source) if row]
    if len(rows) < 2:
        raise ValueError("centroid file needs a header plus at least one row")
    sample_ids = tuple(rows[0])
    centroids = np.empty((len(rows) - 1, len(sample_ids)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(sample_ids):
            raise ValueError(
                f"expected {len(sample_ids)} fields per centroid row, found {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                centroids[i, j] = float(cell)
                kind = "" if math.isfinite(centroids[i, j]) else "non-finite"
            except ValueError:
                kind = "non-numeric"
            if kind:
                raise ValueError(
                    f"{kind} value {cell!r} for centroid {i}, sample {sample_ids[j]!r}"
                )
    return centroids, sample_ids
