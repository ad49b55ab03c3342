"""Second-order gradient-boosted regression trees.

Exact greedy split search over sorted unique feature values with midpoint
thresholds.  Each tree is grown on per-observation gradient/Hessian
statistics; node gain is

    1/2 [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - (G_L+G_R)^2/(H_L+H_R+lambda)] - gamma

and leaf weights are -G/(H+lambda).  Shrinkage scales leaf contributions
at prediction time.

A fit is one Boosting object: the data, the bound loss, the model and
its training prediction, which grow(rounds) advances in place, so a fit
resumes where it stopped; train() is a new fit grown to config.rounds.

Split search runs on pre-sorted columns (the exact greedy algorithm of
Chen & Guestrin 2016, section 4.1).  Each grow argsorts every feature once,
stably, into a (p, n) order matrix and gathers the sorted values beside
it, as XGBoost's column blocks keep each row index with its value.  Each
node keeps its own (p, m) order and value matrices; a split partitions
both stably with one go-left mask, so children inherit sorted rows and
values and no node sorts or gathers X again.  Children at max_depth are
leaves and read neither matrix, so only their row lists are partitioned.
One complex cumsum (g real, h imaginary) along the rows of the order
matrix scores every (feature, threshold) cut at once.  A node scores its
cuts on its flat p*m block, cut k of feature f in cell f*m + k, so every
pass runs over one contiguous array; the last cell of each feature has
no right child and is marked unusable.  A cut is usable when its two
sorted neighbours differ, and only the chosen cut gets a threshold: the
midpoint lo/2 + hi/2, or hi where that rounds onto lo, which lies in
(lo, hi] and cannot overflow.
Every node works in buffers allocated once per grow (_Fit), and
children's matrices go into one of two arenas, by the parity of their
depth.  Two are enough for any depth: a node's cells lie inside its
parent's, and the parent is done with them once it splits.  Of node
size, a split allocates only the flat positions it partitions by.

The node totals G and H (parent score, leaf weight) are summed once per
node, by _grow_tree, over the node's rows in ascending row order, not in
any feature's sorted order.
Floating-point addition is not associative; row order makes the totals,
and with them every gain, threshold choice and leaf weight, the same bits
as those of a grower that re-sorts each node, so models do not depend on
how a node's rows were partitioned.

Training is single-threaded and fully deterministic: ties between
equal-gain splits break toward the lowest feature index and then the
lowest threshold.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import SurvivalDataset
from .errors import (ABOVE, AT_LEAST, AT_MOST, ConfigError, DataError, NumericError,
                     PersistenceError, Record, number, read_json)
from .loss import loss_from_config

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig(Record):
    what = "train config"

    rounds: int = field(default=100, metadata={AT_LEAST: 1})
    learning_rate: float = field(default=0.1, metadata={ABOVE: 0, AT_MOST: 1})
    max_depth: int = field(default=3, metadata={AT_LEAST: 1})
    # L2 on leaf weights ("lambda" in config files)
    reg_lambda: float = field(default=1.0, metadata={AT_LEAST: 0})
    gamma: float = field(default=0.0, metadata={AT_LEAST: 0})  # per-leaf penalty
    # minimum Hessian sum per child
    min_child_weight: float = field(default=0.0, metadata={AT_LEAST: 0})
    base_score: float | str = "auto"

    def __post_init__(self):
        super().__post_init__()
        if self.base_score != "auto":
            score = number(self.base_score, float, "train config field 'base_score'")
            object.__setattr__(self, "base_score", score)


class RegressionTree:
    """Array-of-nodes binary tree.  feature[i] == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Raw (unshrunk) leaf weight for every row of X.

        Rows are routed by boolean masks.  Nodes are visited in id order,
        in which every child follows its parent; an internal node splits
        the mask of the rows that reach it with one compare on its column
        (rows at the threshold go right), and a leaf writes its weight to
        its rows.  Column reads are contiguous when X is column-major,
        which is how TreeEnsemble.predict passes it.
        """
        out = np.empty(X.shape[0])
        reach = [None] * self.n_nodes  # row mask per node; None: unreached
        reach[0] = np.ones(X.shape[0], dtype=bool)
        nodes = zip(self.feature.tolist(), self.threshold.tolist(),
                    self.left.tolist(), self.right.tolist(), self.value.tolist())
        for i, (f, thr, left, right, value) in enumerate(nodes):
            rows, reach[i] = reach[i], None
            if rows is None:
                continue
            if f < 0:
                out[rows] = value
            else:
                reach[left] = rows & (X[:, f] < thr)
                reach[right] = rows ^ reach[left]  # rows & ~go: left is a subset
        return out


@dataclass
class TreeEnsemble:
    """Additive model on the log-time scale: h(x) = base + lr * sum trees."""

    base_score: float
    learning_rate: float
    n_features: int
    loss_config: dict
    trees: list[RegressionTree] = field(default_factory=list)

    def predict(self, X) -> np.ndarray:
        """Predicted log event time per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature matrix must have shape (n, {self.n_features}), got {X.shape}"
            )
        X = np.asfortranarray(X)  # one column-major copy serves every tree
        out = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out

    def predict_time(self, X) -> np.ndarray:
        """Predicted event time per row (exp of the log-scale prediction)."""
        return np.exp(self.predict(X))

    @property
    def n_rounds(self) -> int:
        return len(self.trees)


def _pack(g, h):
    """g and h as one complex array, assigned part by part: g + 1j*h would
    turn a -0.0 in g into +0.0."""
    gh = np.empty(g.shape[0], dtype=complex)
    gh.real = g
    gh.imag = h
    return gh


class _Fit:
    """Sorted columns and node buffers of one Boosting.grow, shared by its trees.

    order is the (p, n) stable argsort of every column of X and xs the
    sorted values: the root holds every row in every round, so they serve
    each round.  A node of m rows scores its cuts in the first p*m cells
    of each buffer.
    A split writes its children's order and value matrices into the arena
    of the children's depth parity, in the cells the node's own matrices
    take in its depth.  Two arenas serve every depth: a node's cells lie
    inside its parent's, and the parent is done with them once it splits,
    while every node still to be grown is a right sibling of the node or
    of one of its ancestors, with cells outside the node's.  So children
    may overwrite what their grandparent read.  Of node size, a split then
    allocates only the flat positions it partitions by.  Whether the
    allocator hands a freed array that large back to the system depends on
    what the process ran before, so with every per-node array allocated
    anew a fit paid page faults at every node or at none, and its speed
    was set by earlier work.
    """

    def __init__(self, X):
        n, p = X.shape
        self.p = p
        self.order = np.argsort(X.T, axis=1, kind="stable")
        self.xs = np.take_along_axis(X.T, self.order, axis=1)
        self.stats = np.empty(p * n, dtype=complex)  # gathered (g, h), then their prefix sums
        self.hr = np.empty(p * n)
        self.gains = np.empty(p * n)
        self.tmp = np.empty(p * n)
        self.valid = np.empty(p * n, dtype=bool)
        self.mask = np.empty(p * n, dtype=bool)
        # flat (order, values) of the even depths below the root, then the odd
        self.arenas = [(np.empty(p * n, dtype=np.int64), np.empty(p * n)) for _ in range(2)]


def _best_split(g_total, h_total, order, xs, gh, fit: _Fit, cfg: TrainConfig):
    """Best (gain, feature, threshold) over a node, or None.

    g_total and h_total are the node's totals, summed in row order;
    order is the (p, m) matrix whose row f lists the node's rows sorted
    stably by feature f, and xs the flat block of their sorted values.
    Cell f*m + k is the cut between the k-th and (k+1)-th value of feature f.  gh packs
    g and h as the real and imaginary parts of one complex array (_pack),
    and the node works in the flat buffers of fit.  All features are
    scored in one pass, and an argmax over the flat (feature, threshold)
    gains realizes the lowest-feature-then-lowest-threshold tie-break.
    """
    p, m = order.shape
    size = p * m
    lam = cfg.reg_lambda
    parent_score = g_total * g_total / (h_total + lam)
    # complex addition is componentwise, so both prefix sums come out
    # with the bits of separate cumsums of g and h; order holds only
    # valid rows, so mode="clip" clips nothing (and needs no buffer)
    left = fit.stats[:size]
    block = left.reshape(p, m)
    gh.take(order, out=block, mode="clip")
    np.add.accumulate(block, axis=1, out=block)
    gl, hl = left.real, left.imag
    hr = np.subtract(h_total, hl, out=fit.hr[:size])
    # a feature's last cell has no right child: a unit Hessian there
    # keeps 0/0 out of the scoring when lam is 0
    hr[m - 1::m] = 1.0
    # both children above the Hessian-mass floor, and sorted neighbours
    # that differ; a feature's last cell pairs its largest value with the
    # next feature's smallest
    mask = fit.mask[:size]
    valid = np.greater_equal(hl, cfg.min_child_weight, out=fit.valid[:size])
    valid &= np.greater_equal(hr, cfg.min_child_weight, out=mask)
    valid[:-1] &= np.less(xs[:-1], xs[1:], out=mask[:-1])
    valid[m - 1::m] = False
    if not valid.any():
        return None
    # 1/2 [gl^2/(hl+lam) + gr^2/(hr+lam) - parent_score] - gamma, scored
    # densely; invalid cuts may divide by zero and are dropped after
    gains, tmp = fit.gains[:size], fit.tmp[:size]
    np.square(gl, out=gains)
    gains /= np.add(hl, lam, out=tmp)
    np.subtract(g_total, gl, out=tmp)
    np.square(tmp, out=tmp)
    hr += lam
    tmp /= hr
    gains += tmp
    gains -= parent_score
    gains *= 0.5
    gains -= cfg.gamma
    gains[np.logical_not(valid, out=mask)] = -np.inf
    best = int(gains.argmax())
    # halved before adding, so no sum overflows; where the midpoint rounds
    # onto lo, hi is the one threshold that parts the two
    lo, hi = float(xs[best]), float(xs[best + 1])
    thr = lo * 0.5 + hi * 0.5
    return float(gains[best]), best // m, thr if thr > lo else hi


def _partition(go_left, order, xs, fit, order_out, xs_out):
    """Stably partition a node's (p, m) order and value matrices by row.

    Entries whose row goes left fill the first cells of the flat order_out
    and xs_out and the others the cells after, each feature's entries in
    their sorted order: the children's (p, m_left) and (p, m - m_left)
    matrices, row-major.  Order holds only valid rows and the positions
    only valid cells, so mode="clip" clips nothing (and needs no buffer).
    """
    order, xs = order.ravel(), xs.ravel()
    in_left = go_left.take(order, out=fit.mask[:order.size], mode="clip")
    at_left = in_left.nonzero()[0]
    at_right = np.logical_not(in_left, out=in_left).nonzero()[0]
    for at, cells in ((at_left, slice(0, at_left.size)), (at_right, slice(at_left.size, None))):
        order.take(at, out=order_out[cells], mode="clip")
        xs.take(at, out=xs_out[cells], mode="clip")


def _grow_tree(X, g, h, fit: _Fit, cfg: TrainConfig):
    """Grow one tree; returns (tree, leaf_index_per_row).

    fit is the _Fit of X.  A split partitions the node's order and value
    matrices stably with one go-left mask, so every child inherits its
    rows and values already sorted and no node sorts or gathers X again.
    Children at max_depth are leaves: only their rows are partitioned.
    A node's totals serve both its split search and its leaf weight.
    """
    n = X.shape[0]
    leaf = [-1, 0.0, -1, -1, 0.0]  # feature, threshold, left, right, value
    nodes = [leaf.copy()]
    row_leaf = np.empty(n, dtype=np.int64)
    p = fit.p
    root = fit.order.ravel(), fit.xs.ravel()
    gh = _pack(g, h)
    # a node is (index, rows, depth, first cell of its matrices in its depth)
    stack = [(0, np.arange(n), 0, 0)]
    while stack:
        node, rows, depth, at = stack.pop()
        g_total, h_total = g[rows].sum(), h[rows].sum()
        split = None
        if depth < cfg.max_depth:
            m = len(rows)
            orders, values = fit.arenas[depth % 2] if depth else root
            node_order, node_xs = orders[at:at + p * m], values[at:at + p * m]
            split = _best_split(g_total, h_total, node_order.reshape(p, m), node_xs, gh, fit, cfg)
        if split is not None and split[0] > 0.0:
            _, f, thr = split
            go_left = X[:, f] < thr  # indexed by row
            rows_left = go_left[rows]
            rows_l, rows_r = rows[rows_left], rows[~rows_left]
            if depth + 1 < cfg.max_depth:
                orders, values = fit.arenas[(depth + 1) % 2]
                _partition(go_left, node_order, node_xs, fit,
                           orders[at:at + p * m], values[at:at + p * m])
            left = len(nodes)
            nodes[node][:4] = f, thr, left, left + 1
            nodes += leaf.copy(), leaf.copy()
            # push right first so nodes are numbered in left-first order
            stack.append((left + 1, rows_r, depth + 1, at + p * len(rows_l)))
            stack.append((left, rows_l, depth + 1, at))
        else:
            nodes[node][4] = float(-g_total / (h_total + cfg.reg_lambda))
            row_leaf[rows] = node
    return RegressionTree(*zip(*nodes)), row_leaf


class Boosting:
    """One resumable fit: the data, the loss bound to it (loss.bind(times,
    events), so a round's grad_hess(prediction) does only the arithmetic),
    the config, the model grown so far and its training prediction.

    base_score "auto" starts the model at the mean log observed time; the
    dataset's times and the config's number are finite, so the starting
    prediction is.  grow(rounds) adds trees until the model holds
    `rounds`, adding each tree's leaf weights to the prediction as it
    grows, so a fit grown in legs is the same bits as one grown straight
    through, and no training row is predicted twice.  A fit pickles with
    its state, so a process pool can grow it; what grow made, the new
    trees and the prediction, is all a caller's copy needs back.
    """

    def __init__(self, data: SurvivalDataset, loss, config: TrainConfig):
        base = float(np.mean(np.log(data.times))) if config.base_score == "auto" else float(config.base_score)
        self.data, self.config = data, config
        self.model = TreeEnsemble(base_score=base, learning_rate=config.learning_rate,
                                  n_features=data.n_features, loss_config=loss.to_config())
        self.pred = np.full(data.n, base)
        self.loss = loss.bind(data.times, data.events)

    # Training runs without numpy's warnings: an invalid cut may divide by
    # zero and is dropped (_best_split), and statistics past ~1e154 may
    # overflow a gain to nan, which never splits, or to inf.  A prediction
    # that such statistics make non-finite is a NumericError.
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def grow(self, rounds: int) -> Boosting:
        """Grow trees until the model holds `rounds`; return the fit.

        Raises NumericError naming the round, and the row if the loss
        returned a non-finite statistic.
        """
        X, model, pred, lr = self.data.X, self.model, self.pred, self.config.learning_rate
        fit = _Fit(X)
        for k in range(model.n_rounds, rounds):
            try:
                g, h = self.loss.grad_hess(pred)
            except NumericError as exc:
                raise NumericError(f"round {k}: {exc}") from exc
            bad = ~(np.isfinite(g) & np.isfinite(h))
            if np.any(bad):
                row = int(np.argmax(bad))
                raise NumericError(f"non-finite gradient statistic at round {k}, row {row}")
            tree, row_leaf = _grow_tree(X, g, h, fit, self.config)
            model.trees.append(tree)
            pred += lr * tree.value[row_leaf]
            if not np.isfinite(pred).all():
                raise NumericError(f"non-finite prediction at round {k}")
        return self


def train(data: SurvivalDataset, loss, config: TrainConfig) -> TreeEnsemble:
    """Fit a boosted ensemble of config.rounds trees: the model of a new
    Boosting fit grown to config.rounds."""
    return Boosting(data, loss, config).grow(config.rounds).model


# -- persistence ---------------------------------------------------------
#
# Model files are compact JSON from json.dumps, which writes each float as
# its repr: the shortest string that round-trips the float64 exactly, so
# the bytes are deterministic.  load() reads files written at 17
# significant digits by earlier versions just the same.


def _tree_to_nodes(tree: RegressionTree) -> list[dict]:
    nodes = []
    for i in range(tree.n_nodes):
        if tree.feature[i] < 0:
            nodes.append({"id": i, "weight": float(tree.value[i])})
        else:
            nodes.append(
                {
                    "id": i,
                    "split_feature": int(tree.feature[i]),
                    "threshold": float(tree.threshold[i]),
                    "left": int(tree.left[i]),
                    "right": int(tree.right[i]),
                    "default_direction": "left",
                }
            )
    return nodes


def save(model: TreeEnsemble, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "n_features": model.n_features,
        "loss": model.loss_config,
        "trees": [{"nodes": _tree_to_nodes(t)} for t in model.trees],
    }
    try:
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NumericError("cannot serialize non-finite number") from exc
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _number(value, kind, what: str):
    """number() for model-file fields, failing with PersistenceError."""
    return number(value, kind, what, PersistenceError)


def _nodes_to_tree(nodes, n_features: int) -> RegressionTree:
    """Rebuild a tree, refusing any node list that save() cannot write.

    Ids must be exactly 0..n-1, every child id must exceed its parent's
    and no node may have two parents.  Together these make the tree
    acyclic, so predict() always reaches a leaf.  Split features must
    index one of the model's n_features columns.
    """
    if not isinstance(nodes, list):
        raise PersistenceError("tree field 'nodes' must be a list")
    n = len(nodes)
    if n == 0:
        raise PersistenceError("tree has no nodes")
    feature = np.full(n, -1, dtype=np.int64)
    threshold = np.zeros(n)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    value = np.zeros(n)
    try:
        ids = [_number(node["id"], int, "tree node field 'id'") for node in nodes]
    except (KeyError, TypeError) as exc:
        raise PersistenceError("tree node missing field 'id'") from exc
    if sorted(ids) != list(range(n)):
        raise PersistenceError(f"tree node ids must be 0..{n - 1}, each once")
    for i, node in zip(ids, nodes):
        if "weight" in node:
            value[i] = _number(node["weight"], float, f"leaf {i}: field 'weight'")
            continue
        for key in ("split_feature", "threshold", "left", "right"):
            if key not in node:
                raise PersistenceError(f"internal node {i} missing field {key!r}")
        feature[i] = _number(node["split_feature"], int, f"node {i}: field 'split_feature'")
        threshold[i] = _number(node["threshold"], float, f"node {i}: field 'threshold'")
        left[i] = _number(node["left"], int, f"node {i}: field 'left'")
        right[i] = _number(node["right"], int, f"node {i}: field 'right'")
        if not 0 <= feature[i] < n_features:
            raise PersistenceError(
                f"node {i}: field 'split_feature' must lie in 0..{n_features - 1}"
            )
        if not (i < left[i] < n and i < right[i] < n):
            raise PersistenceError(f"node {i}: child ids must lie in {i + 1}..{n - 1}")
    internal = feature >= 0
    parents = np.bincount(np.concatenate([left[internal], right[internal]]), minlength=n)
    if np.any(parents > 1):
        raise PersistenceError(f"tree node {int(np.argmax(parents > 1))} has two parents")
    return RegressionTree(feature, threshold, left, right, value)


def load(path) -> TreeEnsemble:
    doc = read_json(path, PersistenceError, "model file")
    if not isinstance(doc, dict):
        raise PersistenceError(f"{path}: model file must hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"{path}: field 'format_version' is {version!r}, expected {FORMAT_VERSION}"
        )
    for key in ("base_score", "learning_rate", "n_features", "loss", "trees"):
        if key not in doc:
            raise PersistenceError(f"{path}: missing field {key!r}")
    loss_config = doc["loss"]
    try:
        loss_from_config(loss_config)  # validates, including "unknown loss"
    except ConfigError as exc:
        raise PersistenceError(f"{path}: field 'loss': {exc}") from exc
    if not isinstance(doc["trees"], list):
        raise PersistenceError(f"{path}: field 'trees' must be a list")
    n_features = _number(doc["n_features"], int, f"{path}: field 'n_features'")
    trees = []
    for k, t in enumerate(doc["trees"]):
        if not isinstance(t, dict) or "nodes" not in t:
            raise PersistenceError(f"{path}: tree {k} must be an object with field 'nodes'")
        try:
            trees.append(_nodes_to_tree(t["nodes"], n_features))
        except PersistenceError as exc:
            raise PersistenceError(f"{path}: tree {k}: {exc}") from exc
    return TreeEnsemble(
        base_score=_number(doc["base_score"], float, f"{path}: field 'base_score'"),
        learning_rate=_number(doc["learning_rate"], float, f"{path}: field 'learning_rate'"),
        n_features=n_features,
        loss_config=loss_config,
        trees=trees,
    )
