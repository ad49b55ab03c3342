"""Second-order gradient-boosted regression trees.

Exact greedy split search over sorted unique feature values with midpoint
thresholds.  Each tree is grown on per-observation gradient/Hessian
statistics; node gain is

    1/2 [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - (G_L+G_R)^2/(H_L+H_R+lambda)] - gamma

and leaf weights are -G/(H+lambda).  Shrinkage scales leaf contributions
at prediction time.

Split search runs on pre-sorted columns (the exact greedy algorithm of
Chen & Guestrin 2016, section 4.1).  train() argsorts every feature once,
stably, into a (p, n) order matrix and gathers the sorted values beside
it, as XGBoost's column blocks keep each row index with its value.  Each
node keeps its own (p, m) order and value matrices; a split partitions
both stably with one go-left mask, so children inherit sorted rows and
values and no node sorts or gathers X again.  Children at max_depth are
leaves and read neither matrix, so only their row lists are partitioned.
One complex cumsum (g real, h imaginary) along the rows of the order
matrix scores every (feature, threshold) cut at once.  A cut is usable
when its midpoint lies in (lo, hi]; the root holds every row in every
round, so its midpoints and usable mask are computed once per fit.
Every node works in buffers allocated once per fit (_Scratch), and
children's matrices go into one arena per depth; of node size, a split
allocates only the flat positions it partitions by.

The node totals G and H (parent score, leaf weight) are summed over the
node's rows in ascending row order, not in any feature's sorted order.
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
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import SurvivalDataset
from .errors import ConfigError, DataError, NumericError, PersistenceError, number
from .loss import loss_from_config

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    reg_lambda: float = 1.0  # L2 on leaf weights ("lambda" in config files)
    gamma: float = 0.0  # per-leaf penalty
    min_child_weight: float = 0.0  # minimum Hessian sum per child
    base_score: float | str = "auto"
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise ConfigError(f"rounds must be a positive integer, got {self.rounds}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must lie in (0, 1]")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 1):
            raise ConfigError("max_depth must be a positive integer")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ConfigError("lambda, gamma, min_child_weight must be >= 0")
        if self.base_score != "auto" and not np.isfinite(self.base_score):
            raise ConfigError("base_score must be finite or 'auto'")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        kinds = {
            "rounds": int, "learning_rate": float, "max_depth": int, "lambda": float,
            "gamma": float, "min_child_weight": float, "base_score": float, "seed": int,
        }
        extra = set(d) - set(kinds)
        if extra:
            raise ConfigError(f"unknown train config fields: {sorted(extra)}")
        kwargs = {
            name: value if name == "base_score" and value == "auto"
            else number(value, kinds[name], f"train config field {name!r}")
            for name, value in d.items()
        }
        if "lambda" in kwargs:
            kwargs["reg_lambda"] = kwargs.pop("lambda")
        return cls(**kwargs)


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

    def predict(self, X, num_trees: int | None = None) -> np.ndarray:
        """Predicted log event time per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature matrix must have shape (n, {self.n_features}), got {X.shape}"
            )
        X = np.asfortranarray(X)  # one column-major copy serves every tree
        out = np.full(X.shape[0], self.base_score)
        use = self.trees if num_trees is None else self.trees[:num_trees]
        for tree in use:
            out += self.learning_rate * tree.predict(X)
        return out

    def predict_time(self, X, num_trees: int | None = None) -> np.ndarray:
        """Predicted event time per row (exp of the log-scale prediction)."""
        return np.exp(self.predict(X, num_trees=num_trees))

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


class _Scratch:
    """Buffers of one fit, reused by every node of every tree.

    A node of m rows scores its cuts in the first p*m cells of each
    buffer, viewed as a (p, m) matrix.  Its children's order and value
    matrices go into the arena of the next depth, in the cells the node's
    own matrices take in its depth; the nodes of one depth hold disjoint
    rows, so they never overlap.  Of node size, a split then allocates
    only the flat positions it partitions by.  Whether the allocator
    hands a freed array that large back to the system depends on what
    the process ran before, so with every per-node array allocated anew a
    fit paid page faults at every node or at none, and its speed was set
    by earlier work.
    """

    def __init__(self, p: int, n: int, levels: int = 0):
        self.p = p
        self.stats = np.empty(p * n, dtype=complex)  # gathered (g, h), then their prefix sums
        self.mid = np.empty(p * n)
        self.hr = np.empty(p * n)
        self.gains = np.empty(p * n)
        self.tmp = np.empty(p * n)
        self.usable = np.empty(p * n, dtype=bool)
        self.valid = np.empty(p * n, dtype=bool)
        self.mask = np.empty(p * n, dtype=bool)
        # arenas of depths 1..levels: the nodes of one depth hold disjoint rows
        self.order = [np.empty(p * n, dtype=np.int64) for _ in range(levels)]
        self.xs = [np.empty(p * n) for _ in range(levels)]

    def view(self, buf, m):
        return buf[: self.p * m].reshape(self.p, m)


def _cuts(xs, out=None):
    """Midpoint thresholds between sorted neighbours, and which are usable.

    xs is a (p, m) matrix of sorted values; out, when given, is three
    (p, m - 1) buffers: midpoints, usable mask and a mask to work in.  A
    cut is usable when its midpoint lies in (lo, hi]: strictly above the
    left value, so rounding has not collapsed it onto lo (this also
    implies lo < hi), and not above the right value, which is what fails
    when lo + hi overflows to inf.
    """
    lo, hi = xs[:, :-1], xs[:, 1:]
    if out is None:
        out = np.empty(lo.shape), np.empty(lo.shape, dtype=bool), np.empty(lo.shape, dtype=bool)
    mid, usable, below = out
    with np.errstate(over="ignore"):
        np.add(lo, hi, out=mid)
    mid *= 0.5
    np.greater(mid, lo, out=usable)
    usable &= np.less_equal(mid, hi, out=below)
    return mid, usable


def _best_split(X, g, h, rows, order, cfg: TrainConfig, *,
                gh=None, xs=None, cuts=None, scratch=None):
    """Best (gain, feature, threshold) over a node, or None.

    rows holds the node's row indices in ascending order; order is the
    (p, m) matrix whose row f lists the same rows sorted stably by feature
    f.  All features are scored in one pass, and a row-major argmax over
    the (feature, threshold) gains realizes the
    lowest-feature-then-lowest-threshold tie-break.

    The carried arrays are derived here when absent: gh packs g and h as
    the real and imaginary parts of one complex array, xs holds X's values
    in the order of `order`, cuts is _cuts(xs), and scratch is a _Scratch
    with room for the node.
    """
    p, m = order.shape
    if scratch is None:
        scratch = _Scratch(p, m)
    view = scratch.view
    if gh is None:
        gh = _pack(g, h)
    if xs is None:
        xs = np.take_along_axis(X.T, order, axis=1)
    if cuts is None:
        out = view(scratch.mid, m - 1), view(scratch.usable, m - 1), view(scratch.valid, m - 1)
        cuts = _cuts(xs, out)
    mid, usable = cuts
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    lam = cfg.reg_lambda
    parent_score = g_total * g_total / (h_total + lam)
    # complex addition is componentwise, so both prefix sums come out
    # with the bits of separate cumsums of g and h; order holds only
    # valid rows, so mode="clip" clips nothing (and needs no buffer)
    left = gh.take(order, out=view(scratch.stats, m), mode="clip")
    left = np.add.accumulate(left, axis=1, out=left)[:, :-1]
    gl, hl = left.real, left.imag
    hr = np.subtract(h_total, hl, out=view(scratch.hr, m - 1))
    # usable threshold, and both children above the Hessian-mass floor
    mask = view(scratch.mask, m - 1)
    valid = np.greater_equal(hl, cfg.min_child_weight, out=view(scratch.valid, m - 1))
    valid &= np.greater_equal(hr, cfg.min_child_weight, out=mask)
    valid &= usable
    if not valid.any():
        return None
    # 1/2 [gl^2/(hl+lam) + gr^2/(hr+lam) - parent_score] - gamma, scored
    # densely; invalid cuts may divide by zero and are dropped after
    gains, tmp = view(scratch.gains, m - 1), view(scratch.tmp, m - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    f, k = np.unravel_index(int(gains.argmax()), gains.shape)
    return float(gains[f, k]), int(f), float(mid[f, k])


def _partition(go_left, order, xs, scratch, order_out, xs_out):
    """Stably partition a node's (p, m) order and value matrices by row.

    Entries whose row goes left fill the first cells of the flat order_out
    and xs_out and the others the cells after, each feature's entries in
    their sorted order: the children's (p, m_left) and (p, m - m_left)
    matrices, row-major.  Order holds only valid rows and the positions
    only valid cells, so mode="clip" clips nothing (and needs no buffer).
    """
    order, xs = order.ravel(), xs.ravel()
    in_left = go_left.take(order, out=scratch.mask[:order.size], mode="clip")
    at_left = in_left.nonzero()[0]
    at_right = np.logical_not(in_left, out=in_left).nonzero()[0]
    for at, cells in ((at_left, slice(0, at_left.size)), (at_right, slice(at_left.size, None))):
        order.take(at, out=order_out[cells], mode="clip")
        xs.take(at, out=xs_out[cells], mode="clip")


def _grow_tree(X, g, h, order, xs, cuts, scratch, cfg: TrainConfig):
    """Grow one tree; returns (tree, leaf_index_per_row).

    order is the (p, n) stable argsort of every feature column, xs the
    sorted values, cuts the root's _cuts(xs) and scratch a _Scratch with
    max_depth - 1 levels, all made once per fit.  A split partitions the
    node's order and value matrices stably with one go-left mask, so
    every child inherits its rows and values already sorted and no node
    sorts or gathers X again.  Children at max_depth are leaves: only
    their rows are partitioned.
    """
    n = X.shape[0]
    feature, threshold, left, right, value = [], [], [], [], []
    row_leaf = np.empty(n, dtype=np.int64)

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    lam = cfg.reg_lambda
    p = order.shape[0]
    # per depth, the flat order and value matrices of its nodes
    orders, values = [order.ravel(), *scratch.order], [xs.ravel(), *scratch.xs]
    gh = _pack(g, h)
    # a node is (index, rows, depth, first cell of its matrices in its depth)
    stack = [(new_node(), np.arange(n), 0, 0)]
    while stack:
        node, rows, depth, at = stack.pop()
        split = None
        if depth < cfg.max_depth:
            end = at + p * len(rows)
            node_order = orders[depth][at:end].reshape(p, -1)
            node_xs = values[depth][at:end].reshape(p, -1)
            split = _best_split(X, g, h, rows, node_order, cfg, gh=gh, xs=node_xs,
                                cuts=cuts if depth == 0 else None, scratch=scratch)
        if split is not None and split[0] > 0.0:
            _, f, thr = split
            go_left = X[:, f] < thr  # indexed by row
            rows_left = go_left[rows]
            rows_l, rows_r = rows[rows_left], rows[~rows_left]
            if depth + 1 < cfg.max_depth:
                _partition(go_left, node_order, node_xs, scratch,
                           orders[depth + 1][at:end], values[depth + 1][at:end])
            feature[node] = f
            threshold[node] = thr
            left[node] = new_node()
            right[node] = new_node()
            # push right first so nodes are numbered in left-first order
            stack.append((right[node], rows_r, depth + 1, at + p * len(rows_l)))
            stack.append((left[node], rows_l, depth + 1, at))
        else:
            # summed in row order, like the totals in _best_split
            w = -g[rows].sum() / (h[rows].sum() + lam)
            value[node] = float(w)
            row_leaf[rows] = node
    return RegressionTree(feature, threshold, left, right, value), row_leaf


def train(data: SurvivalDataset, loss, config: TrainConfig,
          init_model: TreeEnsemble | None = None) -> TreeEnsemble:
    """Fit a boosted ensemble by iterating loss -> statistics -> tree.

    base_score "auto" initializes at the mean log observed time.  Raises
    NumericError naming the round, and the row if the loss returned a
    non-finite statistic.

    Given init_model, a fit of the same data, loss and learning rate,
    training resumes from it and grows trees until the ensemble holds
    config.rounds; init_model itself is left as it was.  Its training
    prediction is rebuilt by init_model.predict, which sums the same
    leaf weights in the same order as the loop below, so a fit resumed
    any number of times is the same bits as one run straight through.
    """
    X, t, delta = data.X, data.times, data.events
    if X.shape[1] == 0:
        raise ConfigError("training requires at least one feature")
    if init_model is None:
        base = float(np.mean(np.log(t))) if config.base_score == "auto" else float(config.base_score)
        model = TreeEnsemble(
            base_score=base,
            learning_rate=config.learning_rate,
            n_features=X.shape[1],
            loss_config=loss.to_config(),
        )
        pred = np.full(data.n, base)
    else:
        if (init_model.learning_rate, init_model.loss_config) != (config.learning_rate, loss.to_config()):
            raise ConfigError("init_model was fit with another learning rate or loss")
        model = replace(init_model, trees=list(init_model.trees))
        pred = model.predict(X)
    # every root holds every row, so its sort, values and cuts serve each round
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    cuts = _cuts(xs)
    scratch = _Scratch(X.shape[1], data.n, max(config.max_depth - 1, 0))
    for k in range(model.n_rounds, config.rounds):
        try:
            g, h = loss.grad_hess(t, delta, pred)
        except NumericError as exc:
            raise NumericError(f"round {k}: {exc}") from exc
        bad = ~(np.isfinite(g) & np.isfinite(h))
        if np.any(bad):
            row = int(np.argmax(bad))
            raise NumericError(f"non-finite gradient statistic at round {k}, row {row}")
        tree, row_leaf = _grow_tree(X, g, h, order, xs, cuts, scratch, config)
        model.trees.append(tree)
        pred += config.learning_rate * tree.value[row_leaf]
    return model


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
        ids = [int(node["id"]) for node in nodes]
    except (KeyError, TypeError, ValueError) as exc:
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
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PersistenceError(f"cannot read model file {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"{path}: malformed model file: {exc}") from exc
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
