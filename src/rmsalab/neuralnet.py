"""Fully-connected policy and value networks with hand-derived gradients.

Both networks are plain ELU stacks of identical shape; the policy head
emits one logit per action and the value head a single scalar. Gradients
for the advantage-weighted log-likelihood loss (with entropy term) and
the mean-squared value loss are computed analytically for this fixed
architecture, and parameters are updated with bias-corrected Adam. All
math is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 1


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


class ParamSet:
    """Policy and value network parameters plus shared Adam state.

    With ``shared_hidden`` the two networks alias the same hidden-layer
    arrays and only the output heads differ; gradients of both losses
    then sum into the shared arrays on update.
    """

    def __init__(self, spec: LayerSpec, policy_weights, policy_biases,
                 value_weights, value_biases, shared_hidden: bool = False):
        self.spec = spec
        self.policy_weights = policy_weights
        self.policy_biases = policy_biases
        self.value_weights = value_weights
        self.value_biases = value_biases
        self.shared_hidden = shared_hidden
        self.adam_step = 0
        uniques = self._unique_params()
        self.adam_m = [np.zeros_like(p) for p in uniques]
        self.adam_v = [np.zeros_like(p) for p in uniques]

    def _unique_params(self) -> list[np.ndarray]:
        if self.shared_hidden:
            hidden = []
            for w, b in zip(self.policy_weights[:-1], self.policy_biases[:-1]):
                hidden.extend((w, b))
            return hidden + [self.policy_weights[-1], self.policy_biases[-1],
                             self.value_weights[-1], self.value_biases[-1]]
        out = []
        for w, b in zip(self.policy_weights, self.policy_biases):
            out.extend((w, b))
        for w, b in zip(self.value_weights, self.value_biases):
            out.extend((w, b))
        return out

    def pair_grads(self, grads: "GradientSet") -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs over unique parameters.

        Under shared hidden layers the two nets' hidden gradients are
        summed so each shared array is updated exactly once.
        """
        if self.shared_hidden:
            pairs: list[tuple[np.ndarray, np.ndarray]] = []
            for i, (w, b) in enumerate(zip(self.policy_weights[:-1],
                                           self.policy_biases[:-1])):
                pairs.append((w, grads.policy_w[i] + grads.value_w[i]))
                pairs.append((b, grads.policy_b[i] + grads.value_b[i]))
            pairs.append((self.policy_weights[-1], grads.policy_w[-1]))
            pairs.append((self.policy_biases[-1], grads.policy_b[-1]))
            pairs.append((self.value_weights[-1], grads.value_w[-1]))
            pairs.append((self.value_biases[-1], grads.value_b[-1]))
            return pairs
        params = self._unique_params()
        flat: list[np.ndarray] = []
        for w, b in zip(grads.policy_w, grads.policy_b):
            flat.extend((w, b))
        for w, b in zip(grads.value_w, grads.value_b):
            flat.extend((w, b))
        return list(zip(params, flat))

    def clone(self) -> "ParamSet":
        """Independent deep copy (fresh Adam state)."""
        pw = [w.copy() for w in self.policy_weights]
        pb = [b.copy() for b in self.policy_biases]
        if self.shared_hidden:
            vw = pw[:-1] + [self.value_weights[-1].copy()]
            vb = pb[:-1] + [self.value_biases[-1].copy()]
        else:
            vw = [w.copy() for w in self.value_weights]
            vb = [b.copy() for b in self.value_biases]
        return ParamSet(self.spec, pw, pb, vw, vb, self.shared_hidden)

    def copy_weights_from(self, other: "ParamSet") -> None:
        """In-place weight sync; Adam state is left untouched."""
        for dst, src in zip(self._unique_params(), other._unique_params()):
            np.copyto(dst, src)


class GradientSet:
    """Loss gradients, shaped exactly like the networks they came from."""

    def __init__(self, policy_w, policy_b, value_w, value_b):
        self.policy_w = policy_w
        self.policy_b = policy_b
        self.value_w = value_w
        self.value_b = value_b

    def arrays(self) -> list[np.ndarray]:
        out = []
        for group in (self.policy_w, self.policy_b, self.value_w, self.value_b):
            out.extend(group)
        return out


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

    def stack(output_dim: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        weights, biases = [], []
        dims = spec.dims(output_dim)
        for i, (fan_in, fan_out) in enumerate(dims):
            scale = np.sqrt(2.0 / fan_in)
            if i == 0:
                scale *= input_gain
            if i == len(dims) - 1:
                scale *= head_scale
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return weights, biases

    pw, pb = stack(spec.action_count)
    vw, vb = stack(1)
    if shared_hidden:
        vw = pw[:-1] + vw[-1:]
        vb = pb[:-1] + vb[-1:]
    return ParamSet(spec, pw, pb, vw, vb, shared_hidden)


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(x))


def _elu_grad(pre: np.ndarray) -> np.ndarray:
    return np.where(pre >= 0.0, 1.0, np.exp(pre))


def _forward(weights, biases, x: np.ndarray) -> np.ndarray:
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < last:
            h = _elu(h)
    return h


def _forward_trace(weights, biases, x: np.ndarray):
    """Forward pass keeping layer inputs and pre-activations for backprop."""
    inputs = [x]
    pres = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        pre = h @ w + b
        pres.append(pre)
        if i < last:
            h = _elu(pre)
            inputs.append(h)
    return inputs, pres


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_input(spec: LayerSpec, s: np.ndarray) -> None:
    if s.shape[-1] != spec.input_dim:
        raise ValueError(
            f"state length {s.shape[-1]} does not match network input "
            f"{spec.input_dim}")


def forward_policy(params: ParamSet, state: np.ndarray) -> np.ndarray:
    """Action probabilities for one state."""
    _check_input(params.spec, state)
    logits = _forward(params.policy_weights, params.policy_biases, state)
    return _softmax(logits)


def forward_value(params: ParamSet, state: np.ndarray) -> float:
    """Scalar value estimate for one state (linear, unbounded)."""
    _check_input(params.spec, state)
    return float(_forward(params.value_weights, params.value_biases, state)[..., 0])


def _plogp(probs: np.ndarray) -> np.ndarray:
    # p * log p with the 0 * log 0 = 0 convention
    return probs * np.log(np.maximum(probs, PROB_FLOOR))


def entropy(probs: np.ndarray) -> np.ndarray:
    return -_plogp(probs).sum(axis=-1)


def policy_loss(params: ParamSet, batch: Batch, entropy_weight: float,
                entropy_sign: float = -1.0) -> float:
    """Advantage-weighted negative log-likelihood plus entropy term.

    With the default ``entropy_sign`` of -1 high entropy lowers the loss
    (an exploration bonus); +1 flips the term to a penalty.
    """
    probs = _softmax(_forward(params.policy_weights, params.policy_biases,
                              batch.states))
    idx = np.arange(len(batch.actions))
    logp_taken = np.log(np.maximum(probs[idx, batch.actions], PROB_FLOOR))
    loss = -float(np.mean(batch.advantages * logp_taken))
    if entropy_weight:
        loss += entropy_sign * entropy_weight * float(np.mean(entropy(probs)))
    return loss


def value_loss(params: ParamSet, batch: Batch) -> float:
    """Mean squared error of the value estimates against the returns."""
    values = _forward(params.value_weights, params.value_biases,
                      batch.states)[:, 0]
    return float(np.mean((values - batch.returns) ** 2))


def _backprop(weights, inputs, pres, dout):
    grads_w = [np.empty(0)] * len(weights)
    grads_b = [np.empty(0)] * len(weights)
    delta = dout
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = inputs[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * _elu_grad(pres[layer - 1])
    return grads_w, grads_b


def backward(params: ParamSet, batch: Batch, entropy_weight: float,
             entropy_sign: float = -1.0) -> tuple[GradientSet, BatchStats]:
    """Exact gradients of both losses at the current parameters."""
    _check_input(params.spec, batch.states)
    n = len(batch.actions)
    idx = np.arange(n)

    p_inputs, p_pres = _forward_trace(params.policy_weights,
                                      params.policy_biases, batch.states)
    probs = _softmax(p_pres[-1])
    logp = np.log(np.maximum(probs, PROB_FLOOR))
    sample_entropy = -(probs * logp).sum(axis=1)

    dlogits = probs * batch.advantages[:, None]
    dlogits[idx, batch.actions] -= batch.advantages
    if entropy_weight:
        # d(entropy)/dlogits = -p * (log p + H)
        dlogits += (entropy_sign * entropy_weight) * (
            -probs * (logp + sample_entropy[:, None]))
    dlogits /= n
    policy_w, policy_b = _backprop(params.policy_weights, p_inputs, p_pres,
                                   dlogits)

    v_inputs, v_pres = _forward_trace(params.value_weights,
                                      params.value_biases, batch.states)
    values = v_pres[-1][:, 0]
    residual = values - batch.returns
    dvalue = (2.0 / n) * residual[:, None]
    value_w, value_b = _backprop(params.value_weights, v_inputs, v_pres, dvalue)

    grads = GradientSet(policy_w, policy_b, value_w, value_b)
    for g in grads.arrays():
        if not np.isfinite(g).all():
            raise ContractViolation(
                "non-finite gradient encountered; batch advantages "
                f"min/max = {batch.advantages.min()}/{batch.advantages.max()}")

    p_loss = -float(np.mean(batch.advantages * logp[idx, batch.actions]))
    mean_entropy = float(sample_entropy.mean())
    if entropy_weight:
        p_loss += entropy_sign * entropy_weight * mean_entropy
    v_loss = float(np.mean(residual ** 2))
    return grads, BatchStats(p_loss, v_loss, mean_entropy)


def adam_apply(params: ParamSet, grads: GradientSet, lr: float,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
               grad_clip: float = 0.0) -> None:
    """Bias-corrected Adam step applied in place to ``params``.

    ``grad_clip`` > 0 rescales the whole gradient set to that global
    L2 norm when exceeded; 0 disables clipping.
    """
    pairs = params.pair_grads(grads)
    for p, g in pairs:
        if p.shape != g.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {p.shape}")
    if grad_clip > 0.0:
        norm = np.sqrt(sum(float((g * g).sum()) for _, g in pairs))
        if norm > grad_clip:
            scale = grad_clip / norm
            pairs = [(p, g * scale) for p, g in pairs]
    params.adam_step += 1
    t = params.adam_step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for i, (p, g) in enumerate(pairs):
        m = params.adam_m[i]
        v = params.adam_v[i]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        if not np.isfinite(p).all():
            raise ContractViolation(
                f"non-finite parameter after Adam step {t}")


def save_checkpoint(params: ParamSet, path: str | Path) -> None:
    """Write a bit-exact snapshot (weights, Adam state, layer spec)."""
    spec = params.spec
    payload: dict[str, np.ndarray] = {
        "version": np.array(CHECKPOINT_VERSION),
        "input_dim": np.array(spec.input_dim),
        "hidden_layers": np.array(spec.hidden_layers),
        "hidden_width": np.array(spec.hidden_width),
        "action_count": np.array(spec.action_count),
        "shared_hidden": np.array(int(params.shared_hidden)),
        "adam_step": np.array(params.adam_step),
    }
    for i, (w, b) in enumerate(zip(params.policy_weights, params.policy_biases)):
        payload[f"policy_w{i}"] = w
        payload[f"policy_b{i}"] = b
    for i, (w, b) in enumerate(zip(params.value_weights, params.value_biases)):
        payload[f"value_w{i}"] = w
        payload[f"value_b{i}"] = b
    for i, (m, v) in enumerate(zip(params.adam_m, params.adam_v)):
        payload[f"adam_m{i}"] = m
        payload[f"adam_v{i}"] = v
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path: str | Path) -> ParamSet:
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        spec = LayerSpec(int(data["input_dim"]), int(data["hidden_layers"]),
                         int(data["hidden_width"]), int(data["action_count"]))
        shared = bool(int(data["shared_hidden"]))
        layer_count = spec.hidden_layers + 1
        pw = [data[f"policy_w{i}"] for i in range(layer_count)]
        pb = [data[f"policy_b{i}"] for i in range(layer_count)]
        vw = [data[f"value_w{i}"] for i in range(layer_count)]
        vb = [data[f"value_b{i}"] for i in range(layer_count)]
        if shared:
            vw = pw[:-1] + vw[-1:]
            vb = pb[:-1] + vb[-1:]
        params = ParamSet(spec, pw, pb, vw, vb, shared)
        params.adam_step = int(data["adam_step"])
        for i in range(len(params.adam_m)):
            np.copyto(params.adam_m[i], data[f"adam_m{i}"])
            np.copyto(params.adam_v[i], data[f"adam_v{i}"])
    return params
