"""Deterministic regression trees shared by the forest and boosting models.

Splits minimize the summed within-child squared error, which for {0,1}
targets is proportional to Gini impurity, so the same builder serves both
tasks (classification leaves hold the class fraction).  Ties are broken
toward the lowest feature index, then the lowest threshold; candidate
thresholds are midpoints between consecutive distinct values.  Ensembles
predict with one walk for each group of trees (``add_leaf_values``).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from ..errors import read_field

_MIN_GAIN = 1e-12


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
        holds integers or finite reals, one per node, every split feature is
        below ``feature_count`` and every split node's children come after
        it, so that prediction always ends at a leaf."""
        tree = cls(
            feature=read_field(data, "feature", list[Integral]),
            threshold=read_field(data, "threshold", list[Real]),
            left=read_field(data, "left", list[Integral]),
            right=read_field(data, "right", list[Integral]),
            value=read_field(data, "value", list[Real]),
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


def rank_codes(X: np.ndarray) -> np.ndarray:
    """Dense per-column value ranks of X, feature-major ``(D, n)``.

    Equal values (``-0.0`` and ``0.0`` too) share a rank and larger values
    get larger ranks, so a stable argsort of a column's codes orders its rows
    as a stable argsort of its values does.  The codes are ``uint16``, which
    numpy's stable sort handles with a radix sort, when every column has
    fewer than 65,536 distinct values, and ``uint32`` otherwise.  Raises
    ``ValueError`` unless X is finite.
    """
    if not np.isfinite(X).all():
        raise ValueError("tree features must be finite")
    order = presort(X)
    xs = np.take_along_axis(X.T, order, axis=1)
    ranks = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=ranks[:, 1:])
    codes = np.empty(order.shape, dtype=np.uint16 if ranks.max(initial=0) < 2**16 else np.uint32)
    np.put_along_axis(codes, order, ranks, axis=1)
    return codes


def tied_columns(X: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Whether each column of X holds two equal values; ``order`` is
    ``presort(X)``."""
    xs = np.take_along_axis(X.T, order, axis=1)
    return (xs[:, 1:] == xs[:, :-1]).any(axis=1)


class Presorted:
    """What full-width trees grown on one X share: X.T as a contiguous copy,
    ``presort(X)``, ``tied_columns`` and, in ``last``, the splits of the
    last tree grown with it and their children's sorted rows.

    A node's path (the (feature, threshold, side) steps from the root) fixes
    its rows, and its rows and split fix its children's sorted rows, so a
    node that makes the split the last tree made at the same path takes
    that tree's child orders instead of filtering its own: the trees are the
    same either way.  Sorted rows are kept as the narrowest unsigned
    integers that hold n - 1 (``uint16`` below 65,536 rows) and widened to
    ``intp`` only at the node that scans them.  Child orders are kept from
    the last tree only: a tree frees the last tree's orders under a node as
    soon as it has taken them or split the node another way, and the rest
    when it ends.
    """

    def __init__(self, X: np.ndarray):
        order = presort(X)
        self.XT = np.ascontiguousarray(X.T)
        self.tied = tied_columns(X, order)
        self.dtype = np.min_scalar_type(max(X.shape[0] - 1, 0))
        self.order = order.astype(self.dtype)
        self.last: _Split | None = None  # the last tree's root


@dataclass(eq=False)
class _Split:
    """A split node of a tree grown with a ``Presorted``, and the sorted rows
    of its children (``Presorted.dtype``).  ``below`` holds the children's
    own ``_Split``, None where a child is a leaf or too deep to need orders."""

    feature: int
    threshold: float
    orders: tuple[np.ndarray, np.ndarray]
    below: list


def _gather(XT: np.ndarray, feats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``XT[feats[i], rows[i, j]]`` for every (i, j), as one flat take."""
    return XT.take(rows + feats[:, None] * XT.shape[1])


# Cells (features x rows) one block of the split scan covers, so that the
# block's complex prefix sums and score buffers stay in cache.  The fastest
# of 4k to 256k cells and no blocking in timed GBM and forest fits on the
# benchmark's training sets (README "Tree fitting").
_BLOCK_CELLS = 32_768


def _best_split(XT, packed, feats, rows, tied):
    """Best (feature, threshold, score) for one node, or None.

    Row i of ``rows`` holds the node's rows in ascending order of feature
    ``feats[i]`` (ties in ascending row order).  ``packed`` holds every
    row's target y as ``y + 1j * y * y``: complex addition rounds each part
    on its own, so one complex cumsum gives the bits of the cumsums of y and
    of y * y.  Boundaries between equal values are no candidates; they are
    looked for only in the features where ``tied`` is True.  Features are
    scanned in blocks of about ``_BLOCK_CELLS`` cells.
    """
    m = rows.shape[1]
    left_n = np.arange(1, m, dtype=np.float64)
    right_n = m - left_n
    step = max(1, _BLOCK_CELLS // m)
    best, where = np.inf, None
    for start in range(0, feats.size, step):
        block = slice(start, start + step)
        cum = packed.take(rows[block])
        np.cumsum(cum, axis=1, out=cum)
        left_sum = cum.real[:, :-1]
        left_sq = cum.imag[:, :-1]
        total_sum = cum.real[:, -1:]
        total_sq = cum.imag[:, -1:]

        # sse = (left_sq - left_sum**2 / left_n)
        #       + ((total_sq - left_sq) - (total_sum - left_sum)**2 / right_n),
        # computed in place, operation for operation, so it rounds the same.
        sse = np.square(left_sum)
        sse /= left_n
        np.subtract(left_sq, sse, out=sse)
        right = np.subtract(total_sum, left_sum)
        np.square(right, out=right)
        right /= right_n
        np.subtract(total_sq, left_sq, out=left_sq)
        np.subtract(left_sq, right, out=right)
        sse += right
        tie = tied[block]
        if tie.all():  # forest nodes, or columns that all hold ties
            xs = _gather(XT, feats[block], rows[block])
            np.copyto(sse, np.inf, where=xs[:, 1:] == xs[:, :-1])
        elif tie.any():
            xs = _gather(XT, feats[block][tie], rows[block][tie])
            equal = np.zeros(sse.shape, dtype=bool)
            equal[tie] = xs[:, 1:] == xs[:, :-1]
            np.copyto(sse, np.inf, where=equal)

        per_feature_best = sse.min(axis=1)
        col = int(np.argmin(per_feature_best))  # first minimum: lowest feature index
        score = per_feature_best[col]
        if score < best:  # strictly: an earlier block keeps its ties
            best, where = score, (start + col, int(np.argmin(sse[col])))  # lowest threshold
    if not np.isfinite(best):  # no candidate, or -inf from overflowing targets
        return None
    col, row = where
    feat = int(feats[col])
    a, b = float(XT[feat, rows[col, row]]), float(XT[feat, rows[col, row + 1]])
    threshold = 0.5 * (a + b)
    if abs(threshold) == np.inf:  # a + b overflows near the float64 maximum
        threshold = 0.5 * a + 0.5 * b
    return feat, threshold, float(best)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    min_samples_split: int = 2,
    presorted: Presorted | None = None,
    codes: np.ndarray | None = None,
) -> Tree:
    """Grow a depth-limited tree on (X, y).

    ``max_features`` < D enables per-node feature subsampling (drawn from
    ``rng``, so tree construction is a pure function of its generator state).
    Nodes are numbered in depth-first, left-child-first order.

    Without feature subsampling the split search scans rows presorted once
    per fit: ``presorted`` is ``Presorted(X)`` from a caller that fits
    several trees on one X, and is made here otherwise.  Each child keeps a
    stable filter of its parent's sorted rows, or the last tree's orders
    for the same child (see ``Presorted``).  With feature subsampling a node
    stably argsorts its own rows by the ``codes`` of the features it draws
    (``rank_codes(X)``, from the caller or computed here; a C-contiguous
    array, else every node's gather copies it), and every drawn feature is
    checked for equal values, since bootstrap rows repeat.  ``presorted``
    serves full-width trees only and ``codes`` feature-subset trees only;
    each is ignored by the other kind.  Either way the rows reach the scan
    in the order a stable argsort of the node's rows gives.
    """
    n, width = X.shape
    packed = np.empty(n, dtype=np.complex128)
    packed.real = y
    packed.imag = y * y
    subset = max_features is not None and max_features < width
    carry = not subset and presorted is not None  # only a caller's trees share orders
    if subset:
        XT = np.ascontiguousarray(X.T)
        codes = rank_codes(X) if codes is None else codes
        tied = np.ones(max_features, dtype=bool)
        order = last = None
    else:
        presorted = presorted or Presorted(X)
        XT, order, tied = presorted.XT, presorted.order, presorted.tied
        last, presorted.last = presorted.last, None
    all_feats = np.arange(width)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    # Depth-first, left child first, with an explicit stack: a node's sorted
    # rows are dropped once its children are filtered, so only the pending
    # right children's rows stay alive.  Entries: (the node's rows of X in
    # ascending order, its per-feature sorted rows or None, depth, (left or
    # right, parent id) to link it from, or None at the root, the last
    # tree's ``_Split`` at the node's path or None, (list, index) to store
    # the node's own ``_Split`` at, or None).
    top = [None]
    stack = [(np.arange(n), order, 0, None, last, (top, 0))]
    while stack:
        idx, rows, depth, link, last, slot = stack.pop()
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
            rows = idx[np.argsort(_gather(codes, feats, idx[None, :]), axis=1, kind="stable")]
        else:
            feats, rows = all_feats, rows.astype(np.intp, copy=False)
        found = _best_split(XT, packed, feats, rows, tied)
        if found is None:
            continue
        feat, thr, child_sse = found
        if child_sse >= parent_sse - _MIN_GAIN:
            continue

        goes_left = XT[feat] <= thr
        mask = goes_left[idx]
        children = below = slots = (None, None)
        if not subset and depth + 1 < max_depth:  # leaf children need no orders
            if last is not None and (last.feature, last.threshold) == (feat, thr):
                children, below = last.orders, last.below
            else:
                last = None  # frees the last tree's orders under this node
                # Stable filter of every feature's sorted rows into each
                # child; each feature row keeps the same number of entries.
                side = goes_left.take(rows)
                children = tuple(
                    rows.take(np.flatnonzero(keep)).astype(presorted.dtype).reshape(width, -1)
                    for keep in (side, ~side)
                )
            if carry:
                split = _Split(feat, thr, children, [None, None])
                slot[0][slot[1]] = split
                slots = ((split.below, 0), (split.below, 1))
        feature[node] = feat
        threshold[node] = thr
        stack.append((idx[~mask], children[1], depth + 1, (right, node), below[1], slots[1]))
        stack.append((idx[mask], children[0], depth + 1, (left, node), below[0], slots[0]))

    if carry:
        presorted.last = top[0]
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


# (tree, row) pairs one step of the walk moves together: enough to spread
# numpy's per-call cost, few enough that the walk's buffers stay in cache.
# Faster than 2^12 and 2^16 on the benchmark's test sets (README "Tree
# fitting").
_WALK_PAIRS = 2**14


@dataclass(eq=False)
class _Packed:
    """The nodes of several trees as one set of arrays, each tree's child ids
    offset by its first node's id (``roots``).  ``children[2 * i]`` and
    ``children[2 * i + 1]`` are node i's left and right children.  A leaf is
    its own left and right child and splits on feature 0, so a walk steps
    past it without moving; ``split`` marks the nodes that are not leaves."""

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    split: np.ndarray
    value: np.ndarray


def _pack(trees: list[Tree]) -> _Packed:
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    split = feature >= 0
    children = np.empty((feature.size, 2), dtype=np.int64)
    children[:, 0] = np.concatenate([tree.left for tree in trees]) + offset
    children[:, 1] = np.concatenate([tree.right for tree in trees]) + offset
    children[~split] = np.flatnonzero(~split)[:, None]
    return _Packed(
        roots=roots,
        feature=np.where(split, feature, 0).astype(np.int64, copy=False),
        threshold=np.concatenate([tree.threshold for tree in trees]),
        children=children.ravel(),
        split=split,
        value=np.concatenate([tree.value for tree in trees]),
    )


def _walk(packed: _Packed, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Packed leaf id of every (tree, row) pair, shape ``(len(roots), n)``:
    all pairs step down together until each is at a leaf.  A step sends a
    pair right unless its feature value is <= the node's threshold, so a NaN
    goes right.  Every split node's children come after it (``Tree.from_dict``
    checks this), so the walk ends.

    Three ``(len(roots), n)`` int64 buffers serve every step: the pairs'
    nodes, their next nodes and their flat indices into X.  A step keeps its
    float64 feature values in the next-node buffer and its thresholds in the
    index buffer, each until it is overwritten; both types are 8 bytes wide
    on every platform, so each view has the buffer's shape.  ``take`` writes into a buffer
    unbuffered only in its "clip" mode, which the ids, all in range, never
    trigger.
    """
    n, width = X.shape
    flat = np.ascontiguousarray(X, dtype=np.float64).ravel()
    base = np.arange(0, n * width, width, dtype=np.int64)
    node = np.empty((roots.size, n), dtype=np.int64)
    node[...] = roots[:, None]
    spare = np.empty_like(node)
    index = np.empty_like(node)
    left = np.empty(node.shape, dtype=bool)
    while packed.split.take(node).any():
        np.take(packed.feature, node, out=index, mode="clip")
        index += base
        x = spare.view(np.float64)
        np.take(flat, index, out=x, mode="clip")
        threshold = index.view(np.float64)
        np.take(packed.threshold, node, out=threshold, mode="clip")
        np.less_equal(x, threshold, out=left)
        np.multiply(node, 2, out=index)
        index += 1
        index -= left  # 2 * node + (1 if the pair goes right else 0)
        np.take(packed.children, index, out=spare, mode="clip")
        node, spare = spare, node
    return node


def add_leaf_values(trees: list[Tree], X: np.ndarray, out: np.ndarray, scale=None) -> None:
    """Add every tree's leaf value for each row of X (times ``scale`` when
    given) to ``out``, one tree after another in order.

    Groups of consecutive trees walk X together (``_walk``).  A group holds
    about ``_WALK_PAIRS`` (tree, row) pairs and at least one tree, so no
    ``(trees, n)`` array is ever built.  Each pair ends at the leaf a walk of
    its tree alone reaches, and the sums are those of a tree-by-tree loop.
    """
    packed = _pack(trees)
    per_group = max(1, _WALK_PAIRS // max(X.shape[0], 1))
    for roots in np.array_split(packed.roots, -(-len(trees) // per_group)):
        values = packed.value.take(_walk(packed, roots, X))
        if scale is not None:
            values *= scale
        for row in values:
            out += row


def tree_apply(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf node id for every row of X: the one-tree walk."""
    packed = _pack([tree])
    return _walk(packed, packed.roots, X)[0]


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    return tree.value[tree_apply(tree, X)]
