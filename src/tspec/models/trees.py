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

import numpy as np

_MIN_GAIN = 1e-12
# Cells (columns x rows) ``rank_codes`` ranks at a time.
_RANK_CELLS = 2**16


@dataclass(eq=False)
class NodeTable:
    """The nodes of one tree or of several, concatenated tree after tree, as
    three preorder lists: nodes are numbered depth-first, left child first;
    ``feature[i]`` is node i's split feature, -1 at a leaf; ``threshold``
    holds the split nodes' thresholds and ``value`` the leaves' predictions
    (the mean target of their rows), each in node order.

    The split/leaf sequence is a preorder shape code (Jacobson, FOCS 1989):
    the links follow from it, worked out once, when a table is made.
    ``split`` marks the nodes that are not leaves, ``left[i]`` and
    ``right[i]`` are node i's children (-1 at a leaf), and tree t holds the
    nodes from ``roots[t]`` up to the next tree's root.  Raises
    ``ValueError`` unless there is a node, one threshold per split node and
    one value per leaf, and the sequence is a concatenation of complete
    binary trees.

    The arrays the walk reads are derived too, after the predicated
    traversal of Asadi, Lin & de Vries (IEEE TKDE 2014):
    ``children[2 * i]`` and ``children[2 * i + 1]`` are node i's left and
    right children, a leaf being its own left and right child and splitting
    on ``step_feature`` 0, so a walk steps past it without moving; ``cut``
    and ``leaf_value`` hold the thresholds and values by node id.
    """

    feature: np.ndarray    # int64, one per node
    threshold: np.ndarray  # float64, one per split node
    value: np.ndarray      # float64, one per leaf

    def __post_init__(self):
        split = self.split = self.feature >= 0
        n, splits = split.size, int(np.count_nonzero(split))
        if n == 0:
            raise ValueError("an ensemble needs at least one tree")
        if self.threshold.shape != (splits,) or self.value.shape != (n - splits,):
            raise ValueError(f"{self.threshold.size} thresholds and {self.value.size} values "
                             f"for {splits} split nodes and {n - splits} leaves")
        # count[i]: splits minus leaves up to node i.  A subtree ends at its
        # first node where the count falls below the count before its root,
        # so a tree ends where it falls below every earlier count and 0, and
        # a split's right child follows the first node after it where the
        # count falls below its own.
        count = np.cumsum(np.where(split, 1, -1))
        ends = np.flatnonzero(count < np.minimum.accumulate(np.append(0, count[:-1])))
        if ends.size == 0 or ends[-1] != n - 1:
            raise ValueError("the tree node sequence ends inside a tree")
        self.roots = np.append(0, ends[:-1] + 1)
        ids = np.arange(n, dtype=np.int64)
        keys = np.sort(count * (n + 1) + ids)  # by count, then node id
        below = (count[split] - 1) * (n + 1)
        self.left = np.where(split, ids + 1, -1)
        self.right = np.full(n, -1, dtype=np.int64)
        self.right[split] = keys[np.searchsorted(keys, below + ids[split] + 1)] - below + 1
        self.step_feature = np.where(split, self.feature, 0)
        self.children = np.column_stack([np.where(split, self.left, ids),
                                         np.where(split, self.right, ids)]).ravel()
        self.cut = np.zeros(n)
        self.cut[split] = self.threshold
        self.leaf_value = np.zeros(n)
        self.leaf_value[~split] = self.value

    @classmethod
    def join(cls, tables: list["NodeTable"]) -> "NodeTable":
        """One table of the trees of ``tables``, in order."""
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in ("feature", "threshold", "value")))


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
    fewer than 65,536 distinct values, and ``uint32`` otherwise.  They are
    ranked ``_RANK_CELLS`` cells of columns at a time, so the sort's int64
    and float64 temporaries never span all of X.  Raises ``ValueError``
    unless X is finite.
    """
    if not np.isfinite(X).all():
        raise ValueError("tree features must be finite")
    n, width = X.shape
    codes = np.empty((width, n), dtype=np.uint16 if n <= 2**16 else np.uint32)
    step, top = max(1, _RANK_CELLS // max(n, 1)), 0
    for start in range(0, width, step):
        columns = X[:, start:start + step]
        order = presort(columns)
        xs = np.take_along_axis(columns.T, order, axis=1)
        ranks = np.zeros(order.shape, dtype=np.int64)
        np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=ranks[:, 1:])
        top = max(top, ranks.max(initial=0))
        np.put_along_axis(codes[start:start + step], order, ranks, axis=1)
    return codes if top >= 2**16 else codes.astype(np.uint16, copy=False)


def tied_columns(X: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Whether each column of X holds two equal values; ``order`` is
    ``presort(X)``."""
    xs = np.take_along_axis(X.T, order, axis=1)
    return (xs[:, 1:] == xs[:, :-1]).any(axis=1)


class Presorted:
    """What full-width trees grown on one X share: X.T as a contiguous copy,
    and for the ``block`` of features this process scans (a slice, every
    feature by default) ``presort``, ``tied_columns`` and, in ``last``, the
    splits of the last tree grown with it and their children's sorted rows.
    X.T is not copied when X is the transpose of a C-contiguous array, so
    processes forked after making that array share it.

    ``exchange``, when given, turns this block's best split of a node into
    the best split of every block (see ``_best_split``), so that processes
    scanning the blocks of one X grow the same trees; by default this block
    is every feature and its best split is the node's.

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

    def __init__(self, X: np.ndarray, block: slice = slice(None), exchange=None):
        self.XT = np.ascontiguousarray(X.T)
        self.feats = np.arange(X.shape[1])[block]
        columns = self.XT[block].T
        order = presort(columns)
        self.tied = tied_columns(columns, order)
        self.dtype = np.min_scalar_type(max(X.shape[0] - 1, 0))
        self.order = order.astype(self.dtype)
        self.exchange = exchange
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
    """Best (feature, threshold, score) of ``feats`` for one node: the lowest
    score, at the lowest feature, then the lowest threshold, among them;
    ``(-1, 0.0, inf)`` without a candidate.  The score is passed on as it
    is, ``-inf`` from overflowing targets too, so that the best of several
    blocks of features, taken in ascending order with a strict ``<``, is the
    best of one scan of them all; the caller makes a leaf unless that is
    finite.

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
    if where is None:
        return -1, 0.0, np.inf
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
    presorted: Presorted | None = None,
    codes: np.ndarray | None = None,
) -> NodeTable:
    """Grow a depth-limited tree on (X, y): a one-tree table.

    ``max_features`` < D enables per-node feature subsampling (drawn from
    ``rng``, so tree construction is a pure function of its generator state).
    Nodes are numbered in depth-first, left-child-first order.

    Without feature subsampling the split search scans rows presorted once
    per fit: ``presorted`` is ``Presorted(X)`` from a caller that fits
    several trees on one X, and is made here otherwise; nodes scan its block
    of features and take the split its ``exchange`` returns.  Each child keeps a
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

    feature: list[int] = []
    threshold: list[float] = []
    value: list[float] = []

    # Depth-first, left child first, with an explicit stack: a node's sorted
    # rows are dropped once its children are filtered, so only the pending
    # right children's rows stay alive.  Entries: (the node's rows of X in
    # ascending order, its per-feature sorted rows or None, depth, the last
    # tree's ``_Split`` at the node's path or None, (list, index) to store
    # the node's own ``_Split`` at, or None).
    top = [None]
    stack = [(np.arange(n), order, 0, last, (top, 0))]
    while stack:
        idx, rows, depth, last, slot = stack.pop()
        yv = y[idx]
        mean = float(yv.mean())
        feature.append(-1)  # a leaf, until it splits
        value.append(mean)

        parent_sse = float(((yv - mean) ** 2).sum())
        if depth >= max_depth or idx.size < 2 or parent_sse <= _MIN_GAIN:
            continue

        if subset:
            feats = np.sort(rng.choice(width, size=max_features, replace=False))
            rows = idx[np.argsort(_gather(codes, feats, idx[None, :]), axis=1, kind="stable")]
        else:
            feats, rows = presorted.feats, rows.astype(np.intp, copy=False)
        found = _best_split(XT, packed, feats, rows, tied)
        if not subset and presorted.exchange is not None:
            found = presorted.exchange(found)
        feat, thr, child_sse = found
        # No candidate (inf), or -inf from overflowing targets.
        if not np.isfinite(child_sse) or child_sse >= parent_sse - _MIN_GAIN:
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
                    rows.take(np.flatnonzero(keep)).astype(presorted.dtype).reshape(feats.size, -1)
                    for keep in (side, ~side)
                )
            if carry:
                split = _Split(feat, thr, children, [None, None])
                slot[0][slot[1]] = split
                slots = ((split.below, 0), (split.below, 1))
        feature[-1] = feat
        threshold.append(thr)
        value.pop()  # only leaves keep a value
        stack.append((idx[~mask], children[1], depth + 1, below[1], slots[1]))
        stack.append((idx[mask], children[0], depth + 1, below[0], slots[0]))

    if carry:
        presorted.last = top[0]
    return NodeTable(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        value=np.asarray(value, dtype=np.float64),
    )


# (tree, row) pairs one step of the walk moves together: enough to spread
# numpy's per-call cost, few enough that the walk's buffers stay in cache.
# Faster than 2^12 and 2^16 on the benchmark's test sets (README "Tree
# fitting").
_WALK_PAIRS = 2**14


def _walk(table: NodeTable, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf id in ``table`` of every (tree, row) pair, shape
    ``(len(roots), n)``: all pairs step down together until each is at a
    leaf.  A step sends a pair right unless its feature value is <= the
    node's threshold, so a NaN goes right.  Every split node's children come
    after it inside its own tree, as preorder links do, so the walk ends at
    a leaf of the tree it started in.

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
    while table.split.take(node).any():
        np.take(table.step_feature, node, out=index, mode="clip")
        index += base
        x = spare.view(np.float64)
        np.take(flat, index, out=x, mode="clip")
        threshold = index.view(np.float64)
        np.take(table.cut, node, out=threshold, mode="clip")
        np.less_equal(x, threshold, out=left)
        np.multiply(node, 2, out=index)
        index += 1
        index -= left  # 2 * node + (1 if the pair goes right else 0)
        np.take(table.children, index, out=spare, mode="clip")
        node, spare = spare, node
    return node


def add_leaf_values(table: NodeTable, X: np.ndarray, out: np.ndarray, scale=None) -> None:
    """Add every tree's leaf value for each row of X (times ``scale`` when
    given) to ``out``, one tree after another in order.

    Groups of consecutive trees walk X together (``_walk``).  A group holds
    about ``_WALK_PAIRS`` (tree, row) pairs and at least one tree, so no
    ``(trees, n)`` array is ever built.  Each pair ends at the leaf a walk of
    its tree alone reaches, and the sums are those of a tree-by-tree loop.
    """
    per_group = max(1, _WALK_PAIRS // max(X.shape[0], 1))
    for roots in np.array_split(table.roots, -(-table.roots.size // per_group)):
        values = table.leaf_value.take(_walk(table, roots, X))
        if scale is not None:
            values *= scale
        for row in values:
            out += row


def tree_apply(tree: NodeTable, X: np.ndarray) -> np.ndarray:
    """Leaf node id for every row of X: the walk of a one-tree table."""
    return _walk(tree, tree.roots, X)[0]


def tree_predict(tree: NodeTable, X: np.ndarray, leaves: np.ndarray | None = None) -> np.ndarray:
    """Each row's leaf value; ``leaves``, the rows' leaf ids when known, spares the walk."""
    return tree.leaf_value[tree_apply(tree, X) if leaves is None else leaves]
