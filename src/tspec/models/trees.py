"""Deterministic regression trees shared by the forest and boosting models.

Splits minimize the summed within-child squared error, which for {0,1}
targets is proportional to Gini impurity, so the same builder serves both
tasks (classification leaves hold the class fraction).  Ties are broken
toward the lowest feature index, then the lowest threshold; candidate
thresholds are midpoints between consecutive distinct values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_GAIN = 1e-12
# Feature-subset nodes holding fewer than this share of the tree's rows
# argsort their own rows; larger ones filter the tree's sorted columns.
# Timed on forest fits of 840 x 180 and 3,438 x 60 rows x features.
_ARGSORT_BELOW = 0.5


@dataclass(eq=False)
class Tree:
    feature: np.ndarray    # int64; -1 marks a leaf
    threshold: np.ndarray  # float64; 0.0 at leaves
    left: np.ndarray       # int64 child ids; -1 at leaves
    right: np.ndarray
    value: np.ndarray      # float64 node means (used at leaves)

    def to_dict(self) -> dict:
        return {
            "feature": [int(v) for v in self.feature],
            "threshold": [float(v) for v in self.threshold],
            "left": [int(v) for v in self.left],
            "right": [int(v) for v in self.right],
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, data: dict, feature_count: int) -> "Tree":
        """Inverse of ``to_dict``.  Raises ``ValueError`` unless every array
        has one entry per node, every split feature is below
        ``feature_count`` and every split node's children come after it, so
        that prediction always ends at a leaf."""
        tree = cls(
            feature=np.asarray(data["feature"], dtype=np.int64),
            threshold=np.asarray(data["threshold"], dtype=np.float64),
            left=np.asarray(data["left"], dtype=np.int64),
            right=np.asarray(data["right"], dtype=np.int64),
            value=np.asarray(data["value"], dtype=np.float64),
        )
        n = tree.feature.size
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError("tree arrays must be non-empty and have one entry per node")
        if tree.feature.min() < -1 or tree.feature.max() >= feature_count:
            raise ValueError(f"tree split feature out of range for {feature_count} features")
        node = np.arange(n)
        split = tree.feature >= 0
        for child in (tree.left, tree.right):
            if ((child <= node) | (child >= n))[split].any():
                raise ValueError("tree child index out of range")
        return tree


def presort(X: np.ndarray) -> np.ndarray:
    """Each column's rows in ascending value order, feature-major ``(D, n)``.

    The sort is stable, so equal values keep ascending row order.
    """
    return np.argsort(X.T, axis=1, kind="stable")


def _gather(XT: np.ndarray, feats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``XT[feats[i], rows[i, j]]`` for every (i, j), as one flat take."""
    return XT.take(rows + feats[:, None] * XT.shape[1])


def _best_split(xs: np.ndarray, ys: np.ndarray):
    """Best (candidate index, threshold, score) for one node, or None.

    Row i of ``xs``/``ys`` holds the node's values of candidate feature i
    and its targets, both in ascending order of that feature (ties in
    ascending row order).
    """
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
    sse[xs[:, 1:] == xs[:, :-1]] = np.inf  # no boundary between equal values

    per_feature_best = sse.min(axis=1)
    col = int(np.argmin(per_feature_best))  # first minimum: lowest feature index
    best = per_feature_best[col]
    if not np.isfinite(best):
        return None
    row = int(np.argmin(sse[col]))  # first minimum: lowest threshold
    threshold = 0.5 * (xs[col, row] + xs[col, row + 1])
    return col, float(threshold), float(best)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    min_samples_split: int = 2,
    order: np.ndarray | None = None,
) -> Tree:
    """Grow a depth-limited tree on (X, y).

    ``max_features`` < D enables per-node feature subsampling (drawn from
    ``rng``, so tree construction is a pure function of its generator state).
    Nodes are numbered in depth-first, left-child-first order.

    The split search scans rows presorted once per fit: ``order`` is
    ``presort(X)`` from a caller that fits several trees on one X, and is
    computed here otherwise.  Without feature subsampling each child keeps a
    stable filter of its parent's sorted rows.  With it, a node sorts only
    the features it draws: it filters the tree's order down to its rows, or,
    when it holds under ``_ARGSORT_BELOW`` of the tree's rows, argsorts its
    own rows.  Either way the rows reach the scan in the order a stable
    argsort of the node's rows gives.
    """
    n, width = X.shape
    XT = np.ascontiguousarray(X.T)
    subset = max_features is not None and max_features < width
    if order is None and subset:  # columns are sorted when first drawn
        order = np.empty((width, n), dtype=np.intp)
        is_sorted = np.zeros(width, dtype=bool)
    else:
        order = presort(X) if order is None else order
        is_sorted = np.ones(width, dtype=bool)
    all_feats = np.arange(width)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def sorted_subset(idx: np.ndarray, feats: np.ndarray):
        """The node's rows and values of ``feats``, sorted per feature."""
        if idx.size < _ARGSORT_BELOW * n:
            local = np.argsort(_gather(XT, feats, idx[None, :]), axis=1, kind="stable")
            rows = idx[local]
        else:
            todo = feats[~is_sorted[feats]]
            if todo.size:
                order[todo] = np.argsort(XT[todo], axis=1, kind="stable")
                is_sorted[todo] = True
            member = np.zeros(n, dtype=bool)
            member[idx] = True
            cols = order[feats]
            rows = cols.compress(member.take(cols).ravel()).reshape(feats.size, idx.size)
        return rows, _gather(XT, feats, rows)

    # Depth-first, left child first, with an explicit stack: a node's sorted
    # rows are dropped once its children are filtered, so only the pending
    # right children's rows stay alive.  Entries: (the node's rows of X in
    # ascending order, its per-feature sorted rows and values or None, depth,
    # (left or right, parent id) to link it from, or None at the root).
    root = (None, None) if subset else (order, _gather(XT, all_feats, order))
    stack = [(np.arange(n), *root, 0, None)]
    while stack:
        idx, rows, xs, depth, link = stack.pop()
        node = len(feature)
        if link is not None:
            link[0][link[1]] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        yv = y[idx]
        mean = float(yv.mean())
        value.append(mean)

        parent_sse = float(((yv - mean) ** 2).sum())
        if depth >= max_depth or idx.size < min_samples_split or parent_sse <= _MIN_GAIN:
            continue

        if subset:
            feats = np.sort(rng.choice(width, size=max_features, replace=False))
            rows, xs = sorted_subset(idx, feats)
        else:
            feats = all_feats
        found = _best_split(xs, y.take(rows))
        if found is None:
            continue
        col, thr, child_sse = found
        if child_sse >= parent_sse - _MIN_GAIN:
            continue

        feat = int(feats[col])
        goes_left = XT[feat] <= thr
        mask = goes_left[idx]
        children = [(None, None), (None, None)]
        if not subset and depth + 1 < max_depth:  # leaf children need no orders
            # Stable filter of every feature's sorted rows (and values) into
            # each child; each feature row keeps the same number of entries.
            side = goes_left.take(rows)
            for i, keep in enumerate((side, ~side)):
                at = np.flatnonzero(keep)
                children[i] = (rows.take(at).reshape(width, -1), xs.take(at).reshape(width, -1))
        feature[node] = feat
        threshold[node] = thr
        stack.append((idx[~mask], *children[1], depth + 1, (right, node)))
        stack.append((idx[mask], *children[0], depth + 1, (left, node)))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def tree_apply(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf node id for every row of X."""
    n = X.shape[0]
    out = np.zeros(n, dtype=np.int64)
    stack = [(0, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if tree.feature[node] == -1:
            out[idx] = node
            continue
        mask = X[idx, tree.feature[node]] <= tree.threshold[node]
        stack.append((int(tree.left[node]), idx[mask]))
        stack.append((int(tree.right[node]), idx[~mask]))
    return out


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    return tree.value[tree_apply(tree, X)]
