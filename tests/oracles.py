"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written as plain scalar loops over the
defining formulas, sharing no code with the package.  Six groups keep a
former implementation as the reference for a faster one: the tree builder
(the per-node argsort split search, for the presorted one, and the
one-block float scan of sorted values and targets, for the blocked complex
one), the per-second
timeline functions and per-row attack-name strings (one record per second
and one tag per window, for the columnar timeline and its attack codes), the
schema-1 dataset store (every flattened row as ``repr`` CSV, for the
window-free ``dataset.npz``), and the logistic fit (500 full-batch
gradient-descent steps, for the Newton solver).  Timeline records are
``(second, features, label, attack)`` tuples.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np


def sspe_brute_force(labels, d_model: int, base: float = 10000.0) -> float:
    """Double loop over (position, encoding component)."""
    total = 0.0
    for pos, bit in enumerate(labels):
        for i in range(d_model // 2):
            angle = pos / base ** (2 * i / d_model)
            total += bit * math.sin(angle)
            total += bit * math.cos(angle)
    return total


def encoding_oracle(pos: int, d_model: int, base: float = 10000.0) -> list[float]:
    """Sinusoidal encoding of one position, component by component."""
    out = []
    for i in range(d_model // 2):
        angle = pos / base ** (2 * i / d_model)
        out += [math.sin(angle), math.cos(angle)]
    return out


def sspe_weights_whole_matrix(window: int, d_model: int, base: float = 10000.0) -> np.ndarray:
    """SSPE position weights as row sums of the whole (window, d_model)
    encoding matrix, built in one piece with the same numpy operations."""
    half = np.arange(d_model // 2, dtype=np.float64)
    scale = base ** (2.0 * half / d_model)
    angles = np.arange(window, dtype=np.float64)[:, None] / scale[None, :]
    matrix = np.empty((window, d_model), dtype=np.float64)
    matrix[:, 0::2] = np.sin(angles)
    matrix[:, 1::2] = np.cos(angles)
    return matrix.sum(axis=1)


def coap_brute_force(labels) -> float:
    return float(sum(labels))


def rank_threshold_oracle(values, n1: int) -> float:
    """n1-th largest value; max + 1 when n1 is zero."""
    ordered = sorted(values, reverse=True)
    if n1 == 0:
        return ordered[0] + 1.0
    return ordered[n1 - 1]


def ascending_percentile_oracle(values, n1: int) -> float:
    """Nearest-rank percentile of the ascending sequence at 100 * n1 / n."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(n1 / n * n))
    return ordered[rank - 1]


def confusion_oracle(y_true, y_pred):
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 1 and p == 0:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def population_moments(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def best_split_scan_oracle(xs, ys):
    """Best (candidate index, threshold, score) for one node, or None: the
    former scan of all candidates at once, on float cumsums of the targets
    and of their squares.  Row i of ``xs``/``ys`` holds the node's values of
    candidate i and its targets, both in ascending order of that candidate
    (ties in ascending row order)."""
    m = xs.shape[1]
    left_n = np.arange(1, m, dtype=np.float64)
    right_n = m - left_n
    cum_sum = np.cumsum(ys, axis=1)
    cum_sq = np.cumsum(ys * ys, axis=1)
    left_sum = cum_sum[:, :-1]
    left_sq = cum_sq[:, :-1]
    total_sum = cum_sum[:, -1:]
    total_sq = cum_sq[:, -1:]
    sse = (left_sq - left_sum**2 / left_n) + (
        (total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n
    )
    sse[xs[:, 1:] == xs[:, :-1]] = np.inf
    per_feature_best = sse.min(axis=1)
    col = int(np.argmin(per_feature_best))
    best = per_feature_best[col]
    if not np.isfinite(best):
        return None
    row = int(np.argmin(sse[col]))
    return col, float(0.5 * (xs[col, row] + xs[col, row + 1])), float(best)


def _best_split_argsort(X, y, idx, feats, record=None):
    """Best (feature, threshold, score) for the rows in ``idx``: argsort
    every candidate feature of the node from scratch.  ``record``, a list,
    receives the node's sorted (values, targets), one column per feature."""
    sub = X[np.ix_(idx, feats)]
    yv = y[idx]
    m = idx.size

    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = yv[order]
    if record is not None:
        record.append((xs, ys))

    left_n = np.arange(1, m, dtype=np.float64)[:, None]
    right_n = m - left_n
    left_sum = np.cumsum(ys, axis=0)[:-1]
    left_sq = np.cumsum(ys * ys, axis=0)[:-1]
    total_sum = left_sum[-1] + ys[-1]
    total_sq = left_sq[-1] + ys[-1] * ys[-1]

    sse = (left_sq - left_sum**2 / left_n) + (
        (total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n
    )
    sse[xs[1:] == xs[:-1]] = np.inf

    per_feature_best = sse.min(axis=0)
    col = int(np.argmin(per_feature_best))
    best = per_feature_best[col]
    if not np.isfinite(best):
        return None
    row = int(np.argmin(sse[:, col]))
    threshold = 0.5 * (xs[row, col] + xs[row + 1, col])
    return int(feats[col]), float(threshold), float(best)


def build_tree_argsort(X, y, max_depth, max_features=None, rng=None, record=None):
    """Reference exact-greedy tree as per-node lists (``feature``,
    ``threshold``, ``left``, ``right``, ``value``; 0.0 stands for a leaf's
    threshold and a split node's value, which no ``NodeTable`` keeps): same
    node numbering, stopping rules, feature draws and tie-breaks as the
    package."""
    min_gain = 1e-12
    n, width = X.shape
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def grow(idx, depth):
        node = len(tree["feature"])
        tree["feature"].append(-1)
        tree["threshold"].append(0.0)
        tree["left"].append(-1)
        tree["right"].append(-1)
        yv = y[idx]
        mean = float(yv.mean())
        tree["value"].append(mean)

        parent_sse = float(((yv - mean) ** 2).sum())
        if depth >= max_depth or idx.size < 2 or parent_sse <= min_gain:
            return node

        if max_features is not None and max_features < width:
            feats = np.sort(rng.choice(width, size=max_features, replace=False))
        else:
            feats = np.arange(width)
        found = _best_split_argsort(X, y, idx, feats, record)
        if found is None:
            return node
        feat, thr, child_sse = found
        if child_sse >= parent_sse - min_gain:
            return node

        mask = X[idx, feat] <= thr
        tree["feature"][node] = feat
        tree["threshold"][node] = thr
        tree["value"][node] = 0.0
        tree["left"][node] = grow(idx[mask], depth + 1)
        tree["right"][node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(n), 0)
    return tree


def preorder_links_oracle(split):
    """(left, right, roots) of the trees whose nodes, numbered depth-first
    and left child first, split where ``split`` is True, by a stack walk:
    each node is the next child of the split node on top of the stack, or a
    new tree's root when the stack is empty.  Raises ``ValueError`` for an
    empty sequence and for one that ends inside a tree."""
    left, right, roots = [-1] * len(split), [-1] * len(split), []
    waiting = []  # split nodes short of a child
    for node, splits in enumerate(split):
        if not waiting:
            roots.append(node)
        elif left[waiting[-1]] == -1:
            left[waiting[-1]] = node
        else:
            right[waiting.pop()] = node
        if splits:
            waiting.append(node)
    if not roots or waiting:
        raise ValueError("empty, or ends inside a tree")
    return left, right, roots


def tree_leaf_oracle(tree, X):
    """Leaf node of every row, walking from the root one row at a time."""
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, row in enumerate(X):
        node = 0
        while tree["feature"][node] != -1:
            if row[tree["feature"][node]] <= tree["threshold"][node]:
                node = tree["left"][node]
            else:
                node = tree["right"][node]
        out[i] = node
    return out


def tree_predict_oracle(tree, X):
    return np.asarray(tree["value"])[tree_leaf_oracle(tree, X)]


def _sigmoid_oracle(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def binomial_objective(X, y, weights, intercept, l2):
    """Mean log loss plus ``0.5 * l2 * |w|^2``, row by row; the intercept is
    unpenalized.  ``log(1 + e^z) - y z`` is each row's loss at score z."""
    total = 0.0
    for row, label in zip(X, y):
        z = float(np.dot(row, weights)) + intercept
        total += max(z, 0.0) + math.log1p(math.exp(-abs(z))) - label * z
    return total / len(y) + 0.5 * l2 * float(np.dot(weights, weights))


def binomial_gradient(X, y, weights, intercept, l2):
    """Gradient of ``binomial_objective``: weights first, intercept last."""
    residual = _sigmoid_oracle(X @ weights + intercept) - y
    return np.append(X.T @ residual / len(y) + l2 * weights, residual.mean())


def fit_binomial_gd_oracle(X, y, l2, learning_rate=0.1, max_iter=500, tol=1e-8):
    """Full-batch gradient descent on the same objective (the former fit):
    stops when the loss improves by less than ``tol`` or after ``max_iter``
    steps.  Returns ``(weights, intercept)``."""
    n, width = X.shape
    weights = np.zeros(width)
    intercept = 0.0
    prev_loss = np.inf
    eps = 1e-12
    for _ in range(max_iter):
        p = _sigmoid_oracle(X @ weights + intercept)
        loss = float(
            -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
            + 0.5 * l2 * float(weights @ weights)
        )
        if abs(prev_loss - loss) < tol:
            break
        prev_loss = loss
        grad_w = X.T @ (p - y) / n + l2 * weights
        grad_b = float(np.mean(p - y))
        weights = weights - learning_rate * grad_w
        intercept -= learning_rate * grad_b
    return weights, intercept


def forest_fit_oracle(X, y, max_features, n_trees, max_depth, tree_rng, record=None):
    """Bootstrapped forest of reference trees; ``tree_rng(t)`` is tree t's
    generator, used for its bootstrap and then its feature draws.  ``record``
    is passed to every tree's ``build_tree_argsort``."""
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        rng = tree_rng(t)
        boot = rng.integers(0, n, size=n)
        trees.append(
            build_tree_argsort(X[boot], y[boot], max_depth, max_features, rng, record=record)
        )
    return trees


def gbm_fit_oracle(X, y, task, n_trees, learning_rate, max_depth):
    """Gradient boosting on reference trees, one tree per round fit on every
    row, with a Newton step per leaf for classification."""
    n = X.shape[0]
    if task == "classify":
        p0 = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        f0 = math.log(p0 / (1.0 - p0))
    else:
        f0 = float(y.mean())
    scores = np.full(n, f0)
    trees = []
    for _ in range(n_trees):
        if task == "classify":
            prob = _sigmoid_oracle(scores)
            residual = y - prob
            tree = build_tree_argsort(X, residual, max_depth)
            leaves = tree_leaf_oracle(tree, X)
            hess = prob * (1.0 - prob)
            for leaf in np.unique(leaves):
                members = leaves == leaf
                tree["value"][leaf] = float(
                    residual[members].sum() / max(hess[members].sum(), 1e-12)
                )
        else:
            tree = build_tree_argsort(X, y - scores, max_depth)
        scores += learning_rate * tree_predict_oracle(tree, X)
        trees.append(tree)
    return f0, trees


def generate_synthetic_oracle(scenario, seed):
    """Per-second records of a synthetic scenario: one normal draw per
    second, plus the segment's shift on its attack seconds."""
    width = scenario.feature_count

    def per_feature(value):
        arr = np.asarray(value, dtype=np.float64)
        return np.full(width, float(arr)) if arr.ndim == 0 else arr

    mean, std = per_feature(scenario.normal_mean), per_feature(scenario.normal_std)
    attack_at = {}
    for seg in scenario.segments:
        for off in seg.attack_offsets():
            attack_at[seg.start + off] = (seg.name, per_feature(seg.offset))
    rng = np.random.default_rng(seed)
    records = []
    for second in range(scenario.duration):
        values = rng.normal(mean, std)
        label, attack = 0, ""
        if second in attack_at:
            attack, shift = attack_at[second]
            values = values + shift
            label = 1
        records.append((second, tuple(float(v) for v in values), label, attack))
    return records


def fill_missing_points_oracle(records, seed):
    """Insert one record per gap second, copying the features of a label-0
    record drawn with one ``integers`` call per gap, in ascending gap order."""
    if not records:
        return list(records)
    present = {r[0] for r in records}
    gaps = [s for s in range(min(present), max(present) + 1) if s not in present]
    normals = [r for r in records if r[2] == 0]
    rng = np.random.default_rng(seed)
    fills = []
    for second in gaps:
        donor = normals[int(rng.integers(0, len(normals)))]
        fills.append((second, donor[1], 0, ""))
    return sorted(list(records) + fills, key=lambda r: r[0])


def window_matrices_oracle(matrix, bits, window_size):
    """Flattened feature windows and label windows, stacked one by one."""
    starts = list(range(len(bits) - window_size + 1))
    features = np.stack([matrix[s : s + window_size].ravel() for s in starts])
    labels = np.stack([bits[s : s + window_size] for s in starts])
    return features, labels, np.array(starts, dtype=np.int64)


def window_attack_tags_oracle(names, bits, window_size):
    """Most frequent attack name among each window's attack packets; the
    earliest-seen name wins ties, and no named attack packet gives ""."""
    tags = []
    for s in range(len(bits) - window_size + 1):
        counts: Counter[str] = Counter()
        order: dict[str, int] = {}
        for p in range(s, s + window_size):
            if bits[p] == 1 and names[p]:
                counts[names[p]] += 1
                order.setdefault(names[p], p)
        tags.append(max(counts, key=lambda n: (counts[n], -order[n])) if counts else "")
    return tuple(tags)


def contiguous_segments_oracle(tags):
    """Maximal runs of rows sharing one non-empty tag, in row order, as
    (tag, row indices): one pass over the per-row tag strings."""
    segments: list[tuple[str, list[int]]] = []
    current = None
    for i, tag in enumerate(tags):
        if not tag:
            current = None
            continue
        if tag != current:
            segments.append((tag, []))
            current = tag
        segments[-1][1].append(i)
    return [(tag, np.asarray(rows, dtype=np.int64)) for tag, rows in segments]


def labels_by_attack_oracle(values, tags):
    """Each non-empty tag's values in row order, tags in order of their
    first row."""
    grouped: dict[str, list[float]] = {}
    for value, tag in zip(values, tags):
        if tag:
            grouped.setdefault(tag, []).append(float(value))
    return {name: np.asarray(vals) for name, vals in grouped.items()}


def inject_noise_oracle(features, ratio, seed):
    """A copy of ``features`` with round(ratio * M) rows, drawn without
    replacement, noised in place by one seeded standard normal draw."""
    m = features.shape[0]
    n_rows = int(round(ratio * m))
    noised = features.copy()
    if n_rows > 0:
        rng = np.random.default_rng(seed)
        rows = rng.choice(m, size=n_rows, replace=False)
        noised[rows] += rng.normal(0.0, 1.0, size=(n_rows, features.shape[1]))
    return noised


def cosine_similarity(u, v) -> float:
    """(u @ v) / (|u| |v|) of two equal-length, nonzero vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("cosine similarity needs two equal-length vectors")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(u @ v) / (nu * nv)


def identify_segments_oracle(predictions, segments, names, edges, signatures):
    """(predicted attack, similarities, margin) per (name, rows) segment:
    one ``np.histogram`` of the segment's clamped predictions and one
    ``cosine_similarity`` per signature, a segment at a time."""
    out = []
    for _, rows in segments:
        values = np.clip(np.asarray(predictions, dtype=np.float64)[rows], edges[0], edges[-1])
        observed = np.histogram(values, bins=edges)[0].astype(np.float64)
        sims = [cosine_similarity(observed, row) for row in signatures]
        ordered = sorted(sims, reverse=True)
        margin = float(ordered[0] - ordered[1]) if len(sims) > 1 else 0.0
        out.append((names[int(np.argmax(sims))], dict(zip(names, sims)), margin))
    return out


def save_dataset_v1(ds, out_dir) -> None:
    """The schema-1 writer: ``dataset.csv`` with every flattened row as
    ``repr`` text (f0..f{D-1}, spectrum_label, binary_label) and a
    ``dataset.json`` sidecar with provenance and window tags."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = ds.features.shape[1]
    with (out_dir / "dataset.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{j}" for j in range(width)] + ["spectrum_label", "binary_label"])
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(repr(float(ds.spectrum_labels[i])))
            row.append(str(int(ds.binary_labels[i])))
            writer.writerow(row)
    sidecar = {
        "schema_version": 1,
        "rows": len(ds),
        "feature_width": width,
        "attack_name": None,
        "provenance": ds.provenance,
        "window_tags": [ds.attack_names[c] for c in ds.tag_codes.tolist()],
    }
    (out_dir / "dataset.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_dataset_v1(in_dir):
    """The schema-1 reader: (features, spectrum_labels, binary_labels,
    window_tags) parsed back from ``save_dataset_v1`` output."""
    in_dir = Path(in_dir)
    features, spectrum, binary = [], [], []
    with (in_dir / "dataset.csv").open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            features.append([float(v) for v in row[:-2]])
            spectrum.append(float(row[-2]))
            binary.append(int(row[-1]))
    sidecar = json.loads((in_dir / "dataset.json").read_text())
    tags = sidecar["window_tags"]
    return (
        np.asarray(features, dtype=np.float64).reshape(len(features), sidecar["feature_width"]),
        np.asarray(spectrum, dtype=np.float64),
        np.asarray(binary, dtype=np.int64),
        tuple(tags) if tags is not None else None,
    )
