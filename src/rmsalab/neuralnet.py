"""Fully-connected policy and value networks with hand-derived gradients.

Both networks are plain ELU stacks of identical shape; the policy head
emits one logit per action and the value head a single scalar. All
parameters live in one flat float64 vector, and every weight and bias is
a reshaped view into it, so a weight sync or a copy is one whole-vector
operation, Adam one update rule over the flat vectors, and a checkpoint
the flat vectors (parameters and both Adam moments). Gradients for the
advantage-weighted log-likelihood loss (with entropy term) and the
mean-squared value loss are computed analytically for this fixed
architecture into a vector laid out like the parameters, and parameters
are updated with bias-corrected Adam. All math is double precision.

One layer loop, ``_forward_trace``, serves every forward pass. Both
forwards, ``forward_policy`` and ``forward_value``, take one 1-D state or
an ``(n, d)`` row stack, and each row of a stack has the bits of its
single-state call. ``backward`` is the one place a loss is evaluated:
the ``BatchStats`` it returns are the only report of the policy and value
losses.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ContractViolation

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 14  # elements; one block of Adam's four vectors fits L2


@dataclass(frozen=True)
class LayerSpec:
    """Network shape: input width, hidden stack, and policy output width."""

    input_dim: int
    hidden_layers: int
    hidden_width: int
    action_count: int

    def __post_init__(self) -> None:
        if min(self.input_dim, self.hidden_layers, self.hidden_width,
               self.action_count) < 1:
            raise ValueError(f"invalid layer spec {self}")

    def dims(self, output_dim: int) -> list[tuple[int, int]]:
        widths = [self.input_dim] + [self.hidden_width] * self.hidden_layers
        pairs = list(zip(widths[:-1], widths[1:]))
        pairs.append((self.hidden_width, output_dim))
        return pairs


def _aligned_zeros(n: int) -> np.ndarray:
    """``n`` float64 zeros starting on a 64-byte boundary, which the weight
    views inherit from ``flat``."""
    buf = np.zeros(n + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + n]


class ParamSet:
    """Policy and value network parameters in one flat vector, plus Adam
    state shaped like it.

    ``flat`` holds every distinct array back to back, weight then bias,
    layer by layer: the policy net, then the value net. With
    ``shared_hidden`` the value net keeps only its head there and reuses
    the policy's hidden layers, so gradients of both losses sum into the
    shared arrays. ``policy_weights``, ``policy_biases``,
    ``value_weights`` and ``value_biases`` are lists of views into
    ``flat``; under a shared trunk the hidden views are the same objects
    in both nets.
    """

    def __init__(self, spec: LayerSpec, shared_hidden: bool = False):
        self.spec = spec
        self.shared_hidden = shared_hidden
        value_dims = spec.dims(1)[-1:] if shared_hidden else spec.dims(1)
        self._shapes = [shape
                        for fan_in, fan_out in spec.dims(spec.action_count)
                        + value_dims
                        for shape in ((fan_in, fan_out), (fan_out,))]
        sizes = [math.prod(shape) for shape in self._shapes]
        self._offsets = np.cumsum(sizes)[:-1]
        self.flat = _aligned_zeros(sum(sizes))
        self.adam_step = 0
        self.adam_m = _aligned_zeros(self.flat.size)
        self.adam_v = _aligned_zeros(self.flat.size)
        (self.policy_weights, self.policy_biases, self.value_weights,
         self.value_biases) = self.layer_views(self.flat)

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """The distinct arrays of a vector laid out like ``flat``, in
        layout order."""
        return [part.reshape(shape) for part, shape
                in zip(np.split(vec, self._offsets), self._shapes)]

    def layer_views(self, vec: np.ndarray):
        """(policy weights, policy biases, value weights, value biases)
        view lists of a vector laid out like ``flat``."""
        arrays = self.views(vec)
        policy_count = 2 * (self.spec.hidden_layers + 1)
        pw = arrays[0:policy_count:2]
        pb = arrays[1:policy_count:2]
        vw = arrays[policy_count::2]
        vb = arrays[policy_count + 1::2]
        if self.shared_hidden:
            vw = pw[:-1] + vw
            vb = pb[:-1] + vb
        return pw, pb, vw, vb

    def clone(self) -> "ParamSet":
        """Independent deep copy (fresh Adam state)."""
        copy = ParamSet(self.spec, self.shared_hidden)
        np.copyto(copy.flat, self.flat)
        return copy

    def copy_weights_from(self, other: "ParamSet") -> None:
        """In-place weight sync; Adam state is left untouched."""
        np.copyto(self.flat, other.flat)


@dataclass(frozen=True)
class Batch:
    """Training samples: states are row-stacked, the rest are 1-D."""

    states: np.ndarray
    actions: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


@dataclass(frozen=True)
class BatchStats:
    policy_loss: float
    value_loss: float
    entropy: float


def init_params(spec: LayerSpec, seed: int, shared_hidden: bool = False,
                head_scale: float = 0.01, input_gain: float = 2.5) -> ParamSet:
    """He-style fan-in normal initialization, zero biases, seeded.

    Output heads are shrunk by ``head_scale`` so the initial policy is
    near-uniform (maximum entropy) and the initial value estimate near
    zero; exploration then decays with training instead of starting from
    an arbitrary bias. ``input_gain`` boosts the first layer: the state
    features are sparse and mostly well below unit magnitude, so plain
    fan-in scaling leaves the hidden activations (and with them every
    gradient) several times smaller than the scheme assumes.
    """
    rng = np.random.default_rng(seed)

    def draw(output_dim: int) -> list[np.ndarray]:
        dims = spec.dims(output_dim)
        weights = []
        for i, (fan_in, fan_out) in enumerate(dims):
            scale = np.sqrt(2.0 / fan_in)
            if i == 0:
                scale *= input_gain
            if i == len(dims) - 1:
                scale *= head_scale
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        return weights

    # both stacks are drawn, in this order, also when the value net's
    # hidden layers are then dropped for a shared trunk: the policy's
    # draws are written last, so they are the ones a shared view keeps
    policy = draw(spec.action_count)
    value = draw(1)
    params = ParamSet(spec, shared_hidden)
    for view, weights in zip(params.value_weights + params.policy_weights,
                             value + policy):
        view[...] = weights
    return params


# ELU as ``maximum(x, expm1(minimum(x, 0)))`` and its derivative in min form,
# not ``np.where``, which evaluates both branches, so ``expm1`` or ``exp`` of
# a large positive input would overflow (and warn). For x < 0, expm1(x) >= x,
# equal where |x| is tiny. Both give the ``where`` bits on every input but an
# exact -0.0 (``_elu`` gives +0.0): checked on infinities, NaN, subnormals,
# -1e-320 to -1e-1 and normal draws, under numpy's AVX2 and AVX-512 tiers.
def _elu(x: np.ndarray) -> np.ndarray:
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    return np.maximum(x, out, out=out)


def _elu_grad(pre: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(pre, 0.0))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b``; a 1-D ``dot`` rounds as a one-row ``matmul`` does."""
    out = x.dot(w) if x.ndim == 1 else x @ w
    out += b
    return out


def _forward_trace(weights, biases, x: np.ndarray):
    """Forward pass keeping layer inputs and pre-activations for backprop;
    the last pre-activation is the net's output."""
    inputs = [x]
    pres = [_affine(x, weights[0], biases[0])]
    for w, b in zip(weights[1:], biases[1:]):
        inputs.append(_elu(pres[-1]))
        pres.append(_affine(inputs[-1], w, b))
    return inputs, pres


def _softmax(logits: np.ndarray) -> np.ndarray:
    if logits.ndim == 1:
        e = np.exp(logits - logits.max())
        return np.divide(e, e.sum(), out=e)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_input(spec: LayerSpec, s: np.ndarray) -> None:
    if s.shape[-1] != spec.input_dim:
        raise ValueError(
            f"state length {s.shape[-1]} does not match network input "
            f"{spec.input_dim}")


def _rows(states: np.ndarray) -> np.ndarray:
    """A 1-D state as is, an ``(n, d)`` row stack as ``(n, 1, d)``: the
    stack then runs as ``n`` separate 1 x d products, so each row has the
    bits of its single-state call; one ``(n, d)`` matrix product would
    round differently."""
    return states if states.ndim == 1 else states[:, None, :]


def forward_policy(params: ParamSet, states: np.ndarray) -> np.ndarray:
    """Action probabilities: an ``(A,)`` vector for one 1-D state, an
    ``(n, A)`` array for an ``(n, d)`` row stack, each row with the bits of
    its single-state call."""
    _check_input(params.spec, states)
    _, pres = _forward_trace(params.policy_weights, params.policy_biases,
                             _rows(states))
    probs = _softmax(pres[-1])
    return probs if states.ndim == 1 else probs[:, 0, :]


def forward_value(params: ParamSet, states: np.ndarray) -> float | np.ndarray:
    """Value estimate (linear, unbounded): a ``float`` for one 1-D state,
    an ``(n,)`` array for an ``(n, d)`` row stack, each entry with the bits
    of its single-state call."""
    _check_input(params.spec, states)
    _, pres = _forward_trace(params.value_weights, params.value_biases,
                             _rows(states))
    if states.ndim == 1:
        return float(pres[-1][0])
    return pres[-1][:, 0, 0]


def entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of each distribution along the last axis (0 log 0 = 0)."""
    return -(probs * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=-1)


def _backprop(weights, inputs, pres, dout, grads_w, grads_b) -> None:
    """Add one net's gradients into the ``grads_w`` / ``grads_b`` views."""
    delta = dout
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] += inputs[layer].T @ delta
        grads_b[layer] += delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            delta *= _elu_grad(pres[layer - 1])


def backward(params: ParamSet, batch: Batch, entropy_weight: float,
             entropy_sign: float = -1.0) -> tuple[np.ndarray, BatchStats]:
    """Exact gradients of both losses at the current parameters, as one
    vector laid out like ``params.flat``; a shared hidden layer gets the
    sum of both nets' gradients. The policy loss is the advantage-weighted
    negative log-likelihood plus ``entropy_sign`` times the weighted
    entropy (the default -1 makes it an exploration bonus); the value loss
    is the mean squared error of the value estimates against the returns."""
    _check_input(params.spec, batch.states)
    n = len(batch.actions)
    grads = np.zeros_like(params.flat)
    grad_pw, grad_pb, grad_vw, grad_vb = params.layer_views(grads)

    p_inputs, p_pres = _forward_trace(params.policy_weights,
                                      params.policy_biases, batch.states)
    probs = _softmax(p_pres[-1])
    logp = np.log(np.maximum(probs, PROB_FLOOR))
    sample_entropy = entropy(probs)
    idx = np.arange(n)
    p_loss = -float(np.mean(batch.advantages * logp[idx, batch.actions]))
    if entropy_weight:
        p_loss += entropy_sign * entropy_weight * float(sample_entropy.mean())

    dlogits = probs * batch.advantages[:, None]
    dlogits[idx, batch.actions] -= batch.advantages
    if entropy_weight:
        # d(entropy)/dlogits = -p * (log p + H)
        dlogits += (entropy_sign * entropy_weight) * (
            -probs * (logp + sample_entropy[:, None]))
    dlogits /= n
    _backprop(params.policy_weights, p_inputs, p_pres, dlogits, grad_pw,
              grad_pb)

    v_inputs, v_pres = _forward_trace(params.value_weights,
                                      params.value_biases, batch.states)
    values = v_pres[-1][:, 0]
    residual = values - batch.returns
    dvalue = (2.0 / n) * residual[:, None]
    _backprop(params.value_weights, v_inputs, v_pres, dvalue, grad_vw,
              grad_vb)
    if not np.isfinite(grads).all():
        raise ContractViolation(
            "non-finite gradient encountered; batch advantages "
            f"min/max = {batch.advantages.min()}/{batch.advantages.max()}")

    return grads, BatchStats(p_loss, float(np.mean(residual ** 2)),
                             float(sample_entropy.mean()))


def adam_apply(params: ParamSet, grads: np.ndarray, lr: float,
               grad_clip: float = 0.0) -> None:
    """Bias-corrected Adam step applied in place to ``params``.

    ``grad_clip`` > 0 rescales the whole gradient vector to that global
    L2 norm when exceeded; 0 disables clipping.
    """
    if grads.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match "
                         f"parameters {params.flat.shape}")
    if grad_clip > 0.0:
        # summed per array, in layout order: one dot product over the
        # whole vector would round differently
        norm = np.sqrt(sum(float((g * g).sum())
                           for g in params.views(grads)))
        if norm > grad_clip:
            grads = grads * (grad_clip / norm)
    params.adam_step += 1
    t = params.adam_step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # walked block by block, so that each block stays in cache through all
    # five updates instead of each update streaming the whole vectors
    edges = range(ADAM_BLOCK, grads.size, ADAM_BLOCK)
    for p, g, m, v in zip(*(np.split(x, edges) for x in (
            params.flat, grads, params.adam_m, params.adam_v))):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    if not np.isfinite(params.flat).all():
        raise ContractViolation(f"non-finite parameter after Adam step {t}")


def save_checkpoint(params: ParamSet, path: str | Path) -> None:
    """Write a bit-exact snapshot: the layer spec, the trunk flag, the Adam
    step and the three flat vectors (parameters and both Adam moments).
    A sibling temporary file is renamed over ``path`` once complete, so an
    interrupted write leaves the previous file, or none, never a torn one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, version=CHECKPOINT_VERSION, **vars(params.spec),
                     shared_hidden=int(params.shared_hidden),
                     adam_step=params.adam_step, flat=params.flat,
                     adam_m=params.adam_m, adam_v=params.adam_v)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> ParamSet:
    """The ``ParamSet`` a ``save_checkpoint`` file holds. A path that cannot
    be opened raises ``OSError``; any other file that is not a checkpoint
    of this version raises ``ValueError``, naming the file."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as data:
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            spec = LayerSpec(*(int(data[f.name]) for f in fields(LayerSpec)))
            params = ParamSet(spec, bool(int(data["shared_hidden"])))
            params.adam_step = int(data["adam_step"])
            for key in ("flat", "adam_m", "adam_v"):
                vec = data[key]
                if vec.shape != params.flat.shape:
                    raise ValueError(
                        f"checkpoint array {key} has shape {vec.shape}, "
                        f"expected {params.flat.shape}")
                np.copyto(getattr(params, key), vec)
    except (ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot load checkpoint {path}: {exc}") from None
    return params
