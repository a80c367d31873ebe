"""Reverse-mode automatic differentiation on numpy arrays, plus layers,
samplers, and Adam.

Everything downstream builds minibatch-sized graphs out of these ops: a node
wraps a float64 ndarray and remembers each parent together with that
parent's share of the node's gradient.  Graphs are small (a few hundred
nodes) while the arrays carry the batch dimension, so training stays fast
without any framework dependency.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LOG_VAR_CLAMP = 15.0  # |log variance| bound before exponentiation
LOG_2PI = math.log(2.0 * math.pi)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x); below x = -709.78 e^-x overflows to inf and the result is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class Tensor:
    """A differentiable array: values, a same-shape grad accumulator, and the
    ``(parent, share)`` pairs of the op that made it.

    ``share(grad)`` maps this tensor's grad to one parent's part of it,
    before the parent's broadcast axes are summed away.  ``backward`` alone
    skips parents that do not require grad, unbroadcasts and accumulates; a
    share that writes the parent's grad itself (``take``'s scatter) returns
    None.

    A leaf that requires grad (a parameter) holds a zero grad from the start.
    Every other tensor holds ``grad = None`` until backward writes to it, and
    constants, which do not require grad, are never written.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents")

    def __init__(self, values, requires_grad=False, _parents=()):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values) if requires_grad and not _parents else None
        self.requires_grad = requires_grad
        self._parents = _parents

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


_recording = True  # off inside no_grad()


@contextmanager
def no_grad():
    """Record no graph inside the block (process-wide): every op's output is
    a constant, so each intermediate array is freed once its last reader is
    done.  The op sequence, and so every value, is the same as with recording on."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(values, *pairs) -> Tensor:
    """An op's output, with one ``(parent, share)`` pair per input.

    The output requires grad when a parent does, outside no_grad(); otherwise
    it is a constant and keeps no pairs.  Shares hold the parents, never the
    output, so a dropped graph is freed by reference counting without waiting
    for the cyclic collector.
    """
    if _recording and any(p.requires_grad for p, _ in pairs):
        return Tensor(values, requires_grad=True, _parents=pairs)
    return Tensor(values)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g to t's grad; the first write, g + 0.0, rounds like 0.0 + g did."""
    if t.grad is None:
        t.grad = g + 0.0
    else:
        t.grad += g


def _same(grad):
    return grad


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _node(a.values + b.values, (a, _same), (b, _same))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _node(a.values - b.values, (a, _same), (b, np.negative))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _node(a.values * b.values, (a, lambda g: g * b.values), (b, lambda g: g * a.values))


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _node(
        a.values / b.values,
        (a, lambda g: g / b.values),
        (b, lambda g: -g * a.values / (b.values * b.values)),
    )


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.values.shape} @ {b.values.shape}")
    return _node(a.values @ b.values, (a, lambda g: g @ b.values.T), (b, lambda g: a.values.T @ g))


def linear(x, weights, bias) -> Tensor:
    """x @ weights + bias in one op, rounded as add(matmul(x, weights), bias) is."""
    x = _lift(x)
    W = weights.values
    return _node(
        x.values @ W + bias.values,
        (x, lambda g: g @ W.T),
        (weights, lambda g: x.values.T @ g),
        (bias, _same),
    )


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)

    def share(grad):
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return np.broadcast_to(grad, a.values.shape)

    return _node(a.values.sum(axis=axis, keepdims=keepdims), (a, share))


def exp(a) -> Tensor:
    a = _lift(a)
    e = np.exp(a.values)
    return _node(e, (a, lambda g: g * e))


def log(a) -> Tensor:
    a = _lift(a)
    return _node(np.log(a.values), (a, lambda g: g / a.values))


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably for large |x|."""
    a = _lift(a)
    return _node(np.logaddexp(0.0, a.values), (a, lambda g: g * logistic(a.values)))


def sigmoid(a) -> Tensor:
    a = _lift(a)
    s = logistic(a.values)
    return _node(s, (a, lambda g: g * s * (1.0 - s)))


def relu(a) -> Tensor:
    a = _lift(a)
    return _node(np.maximum(a.values, 0.0), (a, lambda g: g * (a.values > 0.0)))


def clip(a, lo=None, hi=None) -> Tensor:
    """Hard clamp; gradient passes where lo <= input <= hi, bounds included."""
    a = _lift(a)

    def share(grad):
        inside = np.ones_like(a.values, dtype=bool)
        if lo is not None:
            inside &= a.values >= lo
        if hi is not None:
            inside &= a.values <= hi
        return grad * inside

    return _node(np.clip(a.values, lo, hi), (a, share))


def concat(parts, axis=1) -> Tensor:
    parts = [_lift(p) for p in parts]
    offsets = np.cumsum([0] + [p.values.shape[axis] for p in parts])
    pairs = []
    for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
        idx = [slice(None)] * p.values.ndim
        idx[axis] = slice(start, stop)
        pairs.append((p, lambda g, idx=tuple(idx): g[idx]))
    return _node(np.concatenate([p.values for p in parts], axis=axis), *pairs)


def narrow(a, start, width, axis=1) -> Tensor:
    """Contiguous slice along an axis."""
    return take(a, slice(start, start + width), axis)


def narrow_clip(a, start, width, lo, hi) -> Tensor:
    """clip(narrow(a, start, width), lo, hi) along the last axis in one op;
    the gradient passes where lo <= input <= hi, bounds included."""
    a = _lift(a)
    index = (..., slice(start, start + width))
    part = a.values[index]

    def share(grad):
        g = np.zeros_like(a.values)
        g[index] = grad * ((part >= lo) & (part <= hi))
        return g

    return _node(np.clip(part, lo, hi), (a, share))


def take(a, index, axis=1) -> Tensor:
    """The entries at ``index``, a slice or distinct positions, along an axis.

    Its share scatters into the parent's grad in place and returns None."""
    a = _lift(a)
    idx = [slice(None)] * a.values.ndim
    idx[axis] = index
    idx = tuple(idx)

    def scatter(grad):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        a.grad[idx] += grad

    return _node(a.values[idx], (a, scatter))


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    return _node(a.values.reshape(shape), (a, lambda g: g.reshape(a.values.shape)))


def cumsum(a, axis=1) -> Tensor:
    a = _lift(a)
    return _node(
        np.cumsum(a.values, axis=axis),
        (a, lambda g: np.flip(np.cumsum(np.flip(g, axis), axis), axis)),
    )


def softmax(a, axis=-1) -> Tensor:
    """Shift-invariant softmax; the max is subtracted as a constant."""
    a = _lift(a)
    shifted = sub(a, constant(a.values.max(axis=axis, keepdims=True)))
    e = exp(shifted)
    return div(e, tsum(e, axis=axis, keepdims=True))


def group_dense(x, s, weights, bias, squeeze=False) -> Tensor:
    """G per-column dense layers in one op, (B, G, n_out): column g maps its
    own input x[:, g] (B, G, n_x) and the shared s (B, n_s) through
    weights[g] (G, n_x + n_s, n_out), rows :n_x for x and the rest for s, plus
    bias[g] (G, n_out).  Either input may be None (n_x or n_s = 0).  With
    squeeze, a width-1 output is returned as its (B, G) block.

    The x rows are one batched matmul over G and the s rows one s @ W_s over
    all G at once, so the (B, G, n_x + n_s) concatenation is never built.
    """
    W = weights.values
    G, _, n_out = W.shape
    n_x = 0 if x is None else x.values.shape[2]
    shape = (-1, G, n_out)  # the output's grad, as each share reads it
    W_x = W[:, :n_x]
    W_s = W[:, n_x:].transpose(1, 0, 2).reshape(-1, G * n_out)  # (n_s, G * n_out)
    parts, pairs = [], []
    if x is not None:
        parts.append(np.matmul(x.values.transpose(1, 0, 2), W_x).transpose(1, 0, 2))
        W_xt = W_x.transpose(0, 2, 1)
        pairs.append(
            (x, lambda g: np.matmul(g.reshape(shape).transpose(1, 0, 2), W_xt).transpose(1, 0, 2))
        )
    if s is not None:
        parts.append((s.values @ W_s).reshape(-1, G, n_out))
        pairs.append((s, lambda g: g.reshape(-1, G * n_out) @ W_s.T))

    def weights_share(grad):
        g_w = np.empty_like(W)
        if x is not None:
            g_out = grad.reshape(shape).transpose(1, 0, 2)
            g_w[:, :n_x] = np.matmul(x.values.transpose(1, 2, 0), g_out)
        if s is not None:
            flat = grad.reshape(-1, G * n_out)
            g_w[:, n_x:] = (s.values.T @ flat).reshape(-1, G, n_out).transpose(1, 0, 2)
        return g_w

    # C order, so that reductions over the output's grad run in one order for every caller
    out = np.ascontiguousarray(sum(parts) + bias.values)
    return _node(
        out.reshape(-1, G) if squeeze else out,
        *pairs,
        (weights, weights_share),
        (bias, lambda g: g.reshape(shape).sum(axis=0)),
    )


def normal_log_density(x, mu, var) -> Tensor:
    """log N(x; mu, var) elementwise, for constant x; closed-form backward."""
    mu, var = _lift(mu), _lift(var)
    diff = np.asarray(x, dtype=np.float64) - mu.values
    value = -0.5 * LOG_2PI - 0.5 * np.log(var.values) - diff * diff / (var.values * 2.0)
    return _node(
        value,
        (mu, lambda g: g * diff / var.values),
        (var, lambda g: g * 0.5 * (diff * diff / var.values - 1.0) / var.values),
    )


def log_softmax_gather(logits, classes) -> Tensor:
    """log softmax(logits)[..., classes] over the last axis, shape classes.shape.

    Computed from the shifted logits, so a class whose probability underflows
    still has a finite log-probability and a nonzero gradient.
    """
    logits = _lift(logits)
    shifted = logits.values - logits.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(shifted, classes[..., None], axis=-1)[..., 0]

    def share(grad):
        one_hot = np.arange(shifted.shape[-1]) == classes[..., None]
        return (one_hot - e / total) * grad[..., None]

    return _node(picked - np.log(total[..., 0]), (logits, share))


def cumulative_logit_log_prob(thresholds, location, classes) -> Tensor:
    """log P(classes) under the cumulative-logit model, shape classes.shape:
    log(sigmoid(t_c - loc) - sigmoid(t_(c-1) - loc)) for increasing
    thresholds t (..., R-1) and location loc (...), with t_(-1) = -inf and
    t_(R-1) = +inf.

    At the class's edges a < b it is log sigmoid(b) + log sigmoid(-a) +
    log(1 - e^(a-b)), so a class whose probability underflows still has a
    finite log-probability and a nonzero gradient.
    """
    thresholds, location = _lift(thresholds), _lift(location)
    inf = np.full(thresholds.values.shape[:-1] + (1,), np.inf)
    edges = np.concatenate([-inf, thresholds.values, inf], axis=-1) - location.values[..., None]
    lower = classes[..., None]
    a = np.take_along_axis(edges, lower, axis=-1)[..., 0]
    b = np.take_along_axis(edges, lower + 1, axis=-1)[..., 0]
    value = -np.logaddexp(0.0, -b) - np.logaddexp(0.0, a) + np.log(-np.expm1(a - b))
    inv_gap = 1.0 / np.expm1(b - a)
    d_a, d_b = -logistic(a) - inv_gap, logistic(-b) + inv_gap  # d value / d edge

    def thresholds_share(grad):
        g = np.zeros(edges.shape)
        np.put_along_axis(g, lower, (grad * d_a)[..., None], axis=-1)
        np.put_along_axis(g, lower + 1, (grad * d_b)[..., None], axis=-1)
        return g[..., 1:-1]

    return _node(
        value, (thresholds, thresholds_share), (location, lambda g: -(g * (d_a + d_b)))
    )


def gaussian_kl(mu_q, log_var_q, mu_p) -> Tensor:
    """KL( N(mu_q, diag e^log_var_q) || N(mu_p, I) ) per row of (B, K) moments."""
    mu_q, log_var_q, mu_p = _lift(mu_q), _lift(log_var_q), _lift(mu_p)
    diff = mu_p.values - mu_q.values
    var = np.exp(log_var_q.values)
    terms = var + diff * diff - 1.0 - log_var_q.values
    return _node(
        terms.sum(axis=1) * 0.5,
        (mu_q, lambda g: -(g[:, None] * diff)),
        (log_var_q, lambda g: g[:, None] * 0.5 * (var - 1.0)),
        (mu_p, lambda g: g[:, None] * diff),
    )


def uniform_kl(logits) -> Tensor:
    """KL( softmax(logits) || uniform ) per row of (B, L) logits: log L minus
    the entropy.  Its gradient is p * (log p + log L - KL)."""
    logits = _lift(logits)
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    log_ratio = shifted - np.log(e.sum(axis=1, keepdims=True)) + math.log(p.shape[1])
    kl = (p * log_ratio).sum(axis=1)
    return _node(kl, (logits, lambda g: g[:, None] * p * (log_ratio - kl[:, None])))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf tensor's grad.

    Interior grads are reset per pass, so calling backward twice doubles the
    leaf gradients, as an accumulator should.  The walk follows only tensors
    that require grad, so constants are never visited.  In reverse
    topological order each node's shares run in pair order, and each result
    is summed down to its parent's shape and added to the parent's grad.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        return
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    for node in topo:
        if node._parents:
            node.grad = None
    _accumulate(loss, np.ones_like(loss.values))
    for node in reversed(topo):
        for parent, share in node._parents:
            if not parent.requires_grad:
                continue
            g = share(node.grad)
            if g is None:
                continue
            if g.shape != parent.values.shape:
                g = _unbroadcast(g, parent.values.shape)
            _accumulate(parent, g)


def view(t: Tensor, index) -> Tensor:
    """A leaf whose values and grad are live views of t's at ``index``; t must
    be a parameter, whose grad is allocated once and updated in place."""
    v = Tensor(t.values[index])
    v.requires_grad = True
    v.grad = t.grad[index]
    return v


def pack(tensors: list) -> Tensor:
    """One parameter with the given parameters' values end to end and a zero grad.
    Each one's values and grad become live views of its slice: pack before viewing."""
    flat = parameter(np.concatenate([t.values.ravel() for t in tensors]))
    offsets = np.cumsum([0] + [t.values.size for t in tensors])
    for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
        t.values = flat.values[start:stop].reshape(t.values.shape)
        t.grad = flat.grad[start:stop].reshape(t.values.shape)
    return flat


def zero_grads(params) -> None:
    for p in params:
        p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

ACTIVATIONS = ("identity", "relu", "softplus", "sigmoid")


@dataclass
class DenseLayer:
    weights: Tensor  # (n_in, n_out)
    bias: Tensor  # (n_out,)
    activation: str = "identity"

    @property
    def n_in(self) -> int:
        return self.weights.values.shape[0]


def init_dense(n_in: int, n_out: int, activation: str, rng) -> DenseLayer:
    """Uniform +-sqrt(6/(n_in+n_out)) weights, zero bias."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    bound = np.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform(-bound, bound, size=(n_in, n_out))
    return DenseLayer(parameter(w), parameter(np.zeros(n_out)), activation)


def forward_dense(layer: DenseLayer, x: Tensor) -> Tensor:
    x = _lift(x)
    if x.values.ndim != 2 or x.values.shape[1] != layer.n_in:
        raise ValueError(
            f"dense layer expects (batch, {layer.n_in}), got {x.values.shape}"
        )
    y = linear(x, layer.weights, layer.bias)
    if layer.activation == "relu":
        return relu(y)
    if layer.activation == "softplus":
        return softplus(y)
    if layer.activation == "sigmoid":
        return sigmoid(y)
    return y


def init_stack(n_in: int, n_out: int, layers: int, rng) -> list[DenseLayer]:
    """One dense layer, or hidden-ReLU + output for the 2-layer variant."""
    if layers == 1:
        return [init_dense(n_in, n_out, "identity", rng)]
    return [init_dense(n_in, n_in, "relu", rng), init_dense(n_in, n_out, "identity", rng)]


def forward_stack(layers, x: Tensor) -> Tensor:
    for layer in layers:
        x = forward_dense(layer, x)
    return x


def forward_group_stack(layers, x, s, squeeze=False) -> Tensor:
    """A stack of stacked per-column layers (weights (G, n_in, n_out)); the
    first layer reads x (B, G, n_x) and the shared s, later ones only x.
    With squeeze, a width-1 last layer gives its (B, G) block."""
    for layer in layers:
        x = group_dense(x, s, layer.weights, layer.bias, squeeze and layer is layers[-1])
        if layer.activation == "relu":
            x = relu(x)
        s = None
    return x


def stack_columns(stacks) -> list[DenseLayer]:
    """Per-column stacks of one shape as one stack of (G, n_in, n_out) weights
    and (G, n_out) biases, column j at index j."""
    return [DenseLayer(parameter(np.stack([c.weights.values for c in layers])),
                       parameter(np.stack([c.bias.values for c in layers])), layers[0].activation)
            for layers in zip(*stacks)]


def column_views(layers, j) -> list[DenseLayer]:
    """Column j's own stack: live views of its slice of stacked layers."""
    return [DenseLayer(view(layer.weights, j), view(layer.bias, j), layer.activation)
            for layer in layers]


def named_stacks(stacks: dict) -> dict[str, Tensor]:
    """Each stack's tensors as {prefix}.{i}.w / {prefix}.{i}.b, in the given order."""
    return {
        f"{prefix}.{i}.{part}": tensor
        for prefix, stack in stacks.items()
        for i, layer in enumerate(stack)
        for part, tensor in (("w", layer.weights), ("b", layer.bias))
    }


# ---------------------------------------------------------------------------
# Stochastic nodes
# ---------------------------------------------------------------------------


def sample_gaussian_reparam(mu: Tensor, log_var: Tensor, rng) -> Tensor:
    """mu + exp(log_var/2) * eps with eps ~ N(0, 1), log_var clamped to
    +-LOG_VAR_CLAMP first; one op, differentiable in both."""
    mu, log_var = _lift(mu), _lift(log_var)
    if mu.values.shape != log_var.values.shape:
        raise ValueError("mu/log_var shape mismatch")
    eps = rng.standard_normal(mu.values.shape)
    lv = log_var.values
    std = np.exp(np.clip(lv, -LOG_VAR_CLAMP, LOG_VAR_CLAMP) * 0.5)
    inside = (lv >= -LOG_VAR_CLAMP) & (lv <= LOG_VAR_CLAMP)
    return _node(
        mu.values + std * eps, (mu, _same), (log_var, lambda g: g * eps * std * 0.5 * inside)
    )


def sample_gumbel_softmax(logits: Tensor, tau: float, rng) -> Tensor:
    """softmax((logits + Gumbel noise)/tau); positive, sums to 1 along the
    last axis.  One op: the softmax Jacobian-vector product is
    s * (g - sum(g * s)), divided by tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    logits = _lift(logits)
    u = np.clip(rng.random(logits.values.shape), 1e-12, 1.0 - 1e-12)
    y = (logits.values - np.log(-np.log(u))) / tau  # plus the Gumbel noise -log(-log(u))
    shifted = y - y.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return _node(s, (logits, lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True)) / tau))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(state: AdamState, params) -> None:
    """One bias-corrected Adam update; zeroes the gradients afterwards."""
    params = list(params)
    if not state.m:
        state.m = [np.zeros_like(p.values) for p in params]
        state.v = [np.zeros_like(p.values) for p in params]
    if len(state.m) != len(params):
        raise ValueError("parameter list does not match optimizer state")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**state.step)
        v_hat = v / (1.0 - b2**state.step)
        p.values -= ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad[...] = 0.0
