import math
import warnings

import numpy as np
import pytest

from rmsalab.errors import ContractViolation
from rmsalab.neuralnet import (Batch, LayerSpec, adam_apply, backward,
                               entropy, forward_policy, forward_value,
                               init_params, load_checkpoint, save_checkpoint,
                               _elu, _elu_grad)

SPEC = LayerSpec(input_dim=54, hidden_layers=5, hidden_width=128,
                 action_count=5)


def zeroed(spec, **kwargs):
    params = init_params(spec, 0, **kwargs)
    for group in (params.policy_weights, params.policy_biases,
                  params.value_weights, params.value_biases):
        for arr in group:
            arr[:] = 0.0
    return params


def batch_of(states, actions, advantages, returns):
    return Batch(np.asarray(states, dtype=float),
                 np.asarray(actions, dtype=np.intp),
                 np.asarray(advantages, dtype=float),
                 np.asarray(returns, dtype=float))


def test_layer_dimensions_5x128():
    params = init_params(SPEC, 0)
    shapes = [w.shape for w in params.policy_weights]
    assert shapes == [(54, 128)] + [(128, 128)] * 4 + [(128, 5)]
    assert [w.shape for w in params.value_weights][-1] == (128, 1)
    assert all(b.shape == (w.shape[1],) for w, b in
               zip(params.policy_weights, params.policy_biases))


def test_same_seed_bit_identical():
    a = init_params(SPEC, 123)
    b = init_params(SPEC, 123)
    for wa, wb in zip(a.policy_weights + a.value_weights,
                      b.policy_weights + b.value_weights):
        assert np.array_equal(wa, wb)
    c = init_params(SPEC, 124)
    assert not np.array_equal(a.policy_weights[0], c.policy_weights[0])


def test_forward_finite_on_random_input():
    params = init_params(SPEC, 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = rng.uniform(-1, 1, 54)
        probs = forward_policy(params, state)
        assert np.isfinite(probs).all()
        assert math.isfinite(forward_value(params, state))


def test_zero_weights_give_uniform_policy_and_zero_value():
    params = zeroed(SPEC)
    state = np.random.default_rng(1).uniform(-1, 1, 54)
    probs = forward_policy(params, state)
    assert probs == pytest.approx(np.full(5, 0.2))
    assert forward_value(params, state) == 0.0


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("width", [16, 128])
@pytest.mark.parametrize("shared", [False, True])
def test_value_row_stack_matches_single_states(shared, width, n):
    params = init_params(LayerSpec(54, 5, width, 5), 11,
                         shared_hidden=shared, head_scale=1.0)
    states = np.random.default_rng(width + n).uniform(0, 1, size=(n, 54))
    single = [forward_value(params, state) for state in states]
    assert all(type(value) is float for value in single)
    stacked = forward_value(params, states)
    assert stacked.shape == (n,)
    # bit-for-bit: the trainer values a batch in one stacked call
    assert np.array_equal(stacked, np.array(single))


@pytest.mark.parametrize("n", [1, 2, 16, 50])
@pytest.mark.parametrize("width", [16, 128])
@pytest.mark.parametrize("shared", [False, True])
def test_policy_row_stack_matches_single_states(shared, width, n):
    params = init_params(LayerSpec(54, 5, width, 5), 11,
                         shared_hidden=shared, head_scale=1.0)
    states = np.random.default_rng(width + n).uniform(0, 1, size=(n, 54))
    single = [forward_policy(params, state) for state in states]
    assert all(probs.shape == (5,) for probs in single)
    stacked = forward_policy(params, states)
    assert stacked.shape == (n, 5)
    # bit-for-bit: the trainer serves a round from one stacked call
    assert np.array_equal(stacked, np.array(single))


def test_elu_kernels_equal_the_where_formulas():
    tiny = np.finfo(np.float64).smallest_subnormal
    grid = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                     1e3 * tiny, -1e3 * tiny, 800.0, -800.0, 709.0, 710.0,
                     -745.0, 1e-300, -1e-300, 1.0, -1.0])
    values = np.concatenate(
        [grid, np.random.default_rng(5).normal(scale=4.0, size=(1000,))])
    with np.errstate(over="ignore"):
        elu = np.where(values > 0.0, values, np.expm1(values))
        grad = np.where(values >= 0.0, 1.0, np.exp(values))
    for shaped in (values, values.reshape(-1, 1, 2)):
        assert np.array_equal(_elu(shaped).ravel(), elu, equal_nan=True)
        assert np.array_equal(_elu_grad(shaped).ravel(), grad,
                              equal_nan=True)
    # the one input whose bits move: -0.0 maps to +0.0
    assert not np.signbit(_elu(np.array([-0.0]))[0])


def test_large_pre_activations_do_not_overflow():
    params = zeroed(SPEC)
    params.policy_biases[0][:] = 800.0
    params.value_biases[0][:] = 800.0
    state = np.zeros(54)
    batch = batch_of([state], [0], [1.0], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = forward_policy(params, state)
        value = forward_value(params, state)
        stacked = forward_value(params, state[None, :])
        grads, _ = backward(params, batch, 0.01)
    assert probs == pytest.approx(np.full(5, 0.2))
    assert value == 0.0 and stacked.tolist() == [0.0]
    assert np.isfinite(grads).all()


def test_elu_definition():
    assert _elu(np.array([-math.log(2.0)]))[0] == pytest.approx(-0.5)
    assert _elu(np.array([3.0]))[0] == 3.0
    assert _elu(np.array([0.0]))[0] == 0.0


def test_dimension_mismatch_rejected():
    params = init_params(SPEC, 0)
    with pytest.raises(ValueError, match="does not match"):
        forward_policy(params, np.zeros(10))
    with pytest.raises(ValueError, match="does not match"):
        forward_value(params, np.zeros(53))


def test_softmax_normalization_many_random_nets():
    rng = np.random.default_rng(7)
    spec = LayerSpec(6, 2, 16, 4)
    for seed in range(50):
        params = init_params(spec, seed, head_scale=1.0)
        states = rng.uniform(-1, 1, size=(200, 6))
        probs = np.stack([forward_policy(params, s) for s in states])
        assert np.all(probs > 0) and np.all(probs < 1)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
        ent = entropy(probs)
        assert np.all(ent >= 0) and np.all(ent <= math.log(4) + 1e-12)


# --- losses ---------------------------------------------------------------


def two_action_uniform_params():
    return zeroed(LayerSpec(3, 1, 4, 2))


def losses(params, batch, entropy_weight=0.0, entropy_sign=-1.0):
    """The (policy, value) losses ``backward`` reports."""
    stats = backward(params, batch, entropy_weight, entropy_sign)[1]
    return stats.policy_loss, stats.value_loss


def test_policy_loss_single_sample_no_entropy():
    params = two_action_uniform_params()
    batch = batch_of([[0.0, 0.0, 0.0]], [0], [1.0], [0.0])
    assert losses(params, batch)[0] == pytest.approx(math.log(2.0))


def test_policy_loss_entropy_bonus_lowers_loss():
    params = two_action_uniform_params()
    batch = batch_of([[0.0, 0.0, 0.0]], [0], [1.0], [0.0])
    expected = math.log(2.0) - 0.01 * math.log(2.0)
    assert losses(params, batch, 0.01)[0] == pytest.approx(expected)
    literal = math.log(2.0) + 0.01 * math.log(2.0)
    assert losses(params, batch, 0.01,
                  entropy_sign=1.0)[0] == pytest.approx(literal)


def test_policy_loss_zero_advantages():
    params = two_action_uniform_params()
    batch = batch_of([[0.0] * 3] * 4, [0, 1, 0, 1], [0.0] * 4, [0.0] * 4)
    assert losses(params, batch)[0] == 0.0


def test_value_loss_examples():
    spec = LayerSpec(3, 1, 4, 2)
    params = zeroed(spec)
    params.value_biases[-1][0] = 0.5  # constant value estimate of 0.5
    batch = batch_of([[0.0] * 3], [0], [0.0], [1.0])
    assert losses(params, batch)[1] == pytest.approx(0.25)
    batch_eq = batch_of([[0.0] * 3] * 3, [0] * 3, [0.0] * 3, [0.5] * 3)
    assert losses(params, batch_eq)[1] == 0.0
    params.value_biases[-1][0] = 0.0
    two = batch_of([[0.0] * 3] * 2, [0, 1], [0.0] * 2, [1.0, 0.0])
    assert losses(params, two)[1] == pytest.approx(0.5)


# --- gradients ------------------------------------------------------------


def finite_difference_check(shared, entropy_sign):
    rng = np.random.default_rng(99)
    spec = LayerSpec(6, 2, 8, 4)
    params = init_params(spec, 5, shared_hidden=shared, head_scale=1.0)
    batch = batch_of(rng.normal(size=(6, 6)), rng.integers(0, 4, 6),
                     rng.normal(size=6), rng.normal(size=6))
    grads, _ = backward(params, batch, 0.01, entropy_sign)
    pairs = zip(params.views(params.flat), params.views(grads))

    def total_loss():
        return sum(losses(params, batch, 0.01, entropy_sign))

    h = 1e-5
    worst = 0.0
    for p, g in pairs:
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            old = flat_p[i]
            flat_p[i] = old + h
            up = total_loss()
            flat_p[i] = old - h
            down = total_loss()
            flat_p[i] = old
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst


@pytest.mark.parametrize("shared", [False, True])
def test_gradients_match_finite_differences(shared):
    assert finite_difference_check(shared, entropy_sign=-1.0) < 1e-4


def test_gradients_match_finite_differences_literal_entropy_sign():
    assert finite_difference_check(False, entropy_sign=1.0) < 1e-4


def test_zero_advantage_zero_entropy_gives_zero_policy_gradient():
    params = init_params(LayerSpec(4, 1, 6, 3), 2, head_scale=1.0)
    rng = np.random.default_rng(1)
    batch = batch_of(rng.normal(size=(5, 4)), rng.integers(0, 3, 5),
                     np.zeros(5), rng.normal(size=5))
    grads, _ = backward(params, batch, 0.0)
    grad_pw, grad_pb, _, _ = params.layer_views(grads)
    for g in grad_pw + grad_pb:
        assert np.allclose(g, 0.0)


def test_perfectly_fit_value_gives_zero_value_gradient():
    params = zeroed(LayerSpec(4, 1, 6, 3))
    params.value_biases[-1][0] = 2.0
    batch = batch_of(np.zeros((4, 4)), [0] * 4, np.zeros(4), [2.0] * 4)
    grads, stats = backward(params, batch, 0.0)
    assert stats.value_loss == 0.0
    _, _, grad_vw, grad_vb = params.layer_views(grads)
    for g in grad_vw + grad_vb:
        assert np.allclose(g, 0.0)


@pytest.mark.parametrize("entropy_weight", [0.0, 0.01])
@pytest.mark.parametrize("entropy_sign", [-1.0, 1.0])
@pytest.mark.parametrize("shared", [False, True])
def test_backward_stats_equal_loss_functions_exactly(shared, entropy_sign,
                                                     entropy_weight):
    # metrics.csv records the BatchStats bits, so the entropy must be the
    # entropy function's own bits, not merely close to them
    rng = np.random.default_rng(12)
    params = init_params(LayerSpec(5, 2, 7, 3), 8, shared_hidden=shared,
                         head_scale=1.0)
    batch = batch_of(rng.normal(size=(9, 5)), rng.integers(0, 3, 9),
                     rng.normal(size=9), rng.normal(size=9))
    _, stats = backward(params, batch, entropy_weight, entropy_sign)
    # the whole row stack in one call, as backward runs it
    probs = forward_policy(params, batch.states)
    assert stats.entropy == float(np.mean(entropy(probs)))


# --- Adam -----------------------------------------------------------------


def scalar_params():
    # 1-in, 1-hidden, 1-action net; we poke a single weight
    return zeroed(LayerSpec(1, 1, 1, 1))


def zero_grads_like(params):
    return np.zeros_like(params.flat)


def policy_weight_grads(params, grads):
    """The policy-weight views of a gradient vector."""
    return params.layer_views(grads)[0]


def test_adam_zero_gradient_is_noop():
    params = init_params(SPEC, 3)
    before = [w.copy() for w in params.policy_weights]
    adam_apply(params, zero_grads_like(params), lr=1e-3)
    for w, w0 in zip(params.policy_weights, before):
        assert np.array_equal(w, w0)
    assert params.adam_step == 1


def test_adam_first_step_closed_form():
    params = scalar_params()
    grads = zero_grads_like(params)
    policy_weight_grads(params, grads)[0][0, 0] = 1.0
    adam_apply(params, grads, lr=1e-3)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert params.policy_weights[0][0, 0] == pytest.approx(expected)


def test_adam_repeated_updates_not_idempotent():
    params = scalar_params()
    grads = zero_grads_like(params)
    policy_weight_grads(params, grads)[0][0, 0] = 1.0
    adam_apply(params, grads, lr=1e-3)
    first = params.policy_weights[0][0, 0]
    m_after_first = params.views(params.adam_m)[0][0, 0]
    adam_apply(params, grads, lr=1e-3)
    # the second apply keeps moving the parameter and the moments accumulate
    assert params.policy_weights[0][0, 0] < first
    assert params.views(params.adam_m)[0][0, 0] != m_after_first
    assert params.adam_step == 2


def test_adam_shape_mismatch_rejected():
    params = scalar_params()
    grads = np.zeros(params.flat.size + 1)
    with pytest.raises(ValueError, match="shape"):
        adam_apply(params, grads, lr=1e-3)


def test_parameters_stay_finite_through_many_steps():
    rng = np.random.default_rng(0)
    spec = LayerSpec(6, 2, 8, 4)
    params = init_params(spec, 1, head_scale=1.0)
    for _ in range(10_000):
        batch = batch_of(rng.normal(size=(4, 6)), rng.integers(0, 4, 4),
                         rng.normal(size=4) * 5, rng.normal(size=4) * 5)
        grads, _ = backward(params, batch, 0.01)
        adam_apply(params, grads, lr=1e-3)
    for w in params.policy_weights + params.value_weights:
        assert np.isfinite(w).all()


def test_gradient_clipping_rescales_global_norm():
    params = scalar_params()
    grads = zero_grads_like(params)
    grad_pw = policy_weight_grads(params, grads)
    grad_pw[0][0, 0] = 3.0
    grad_pw[1][0, 0] = 4.0  # global norm 5
    adam_apply(params, grads, lr=1.0, grad_clip=1.0)
    # post-clip gradients are 0.6 and 0.8; first-step update is -lr * ~1
    assert params.policy_weights[0][0, 0] == pytest.approx(-1.0, rel=1e-6)


def test_nonfinite_gradient_raises():
    params = init_params(LayerSpec(3, 1, 4, 2), 0, head_scale=1.0)
    batch = batch_of([[0.0, 0.0, 0.0]], [0], [np.inf], [0.0])
    with pytest.raises(ContractViolation, match="non-finite"), \
            np.errstate(invalid="ignore"):
        backward(params, batch, 0.0)


# --- shared trunk and checkpoints ----------------------------------------


def test_shared_hidden_aliases_arrays():
    params = init_params(SPEC, 0, shared_hidden=True)
    for pw, vw in zip(params.policy_weights[:-1], params.value_weights[:-1]):
        assert pw is vw
    assert params.policy_weights[-1] is not params.value_weights[-1]
    clone = params.clone()
    for pw, vw in zip(clone.policy_weights[:-1], clone.value_weights[:-1]):
        assert pw is vw


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for shared in (False, True):
        params = init_params(SPEC, 17, shared_hidden=shared)
        # give the Adam state some history
        rng = np.random.default_rng(2)
        batch = batch_of(rng.normal(size=(3, 54)), rng.integers(0, 5, 3),
                         rng.normal(size=3), rng.normal(size=3))
        grads, _ = backward(params, batch, 0.01)
        adam_apply(params, grads, lr=1e-4)
        path = tmp_path / f"ckpt-{shared}.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == params.spec
        assert loaded.shared_hidden == shared
        assert loaded.adam_step == params.adam_step
        for a, b in zip(params.policy_weights + params.value_weights,
                        loaded.policy_weights + loaded.value_weights):
            assert np.array_equal(a, b)
        assert np.array_equal(params.adam_m, loaded.adam_m)
        assert np.array_equal(params.adam_v, loaded.adam_v)
        if shared:
            for pw, vw in zip(loaded.policy_weights[:-1],
                              loaded.value_weights[:-1]):
                assert pw is vw


def test_load_checkpoint_rejects_a_damaged_file(tmp_path,
                                                damaged_checkpoints):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(init_params(SPEC, 0), path)
    for damaged, named in damaged_checkpoints(path):
        with pytest.raises(ValueError, match=named) as err:
            load_checkpoint(damaged)
        assert str(damaged) in str(err.value)


def test_vectors_start_on_64_byte_boundaries(tmp_path):
    params = init_params(SPEC, 3)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(params, path)
    for made in (params, params.clone(), load_checkpoint(path)):
        for vec in (made.flat, made.adam_m, made.adam_v):
            assert vec.ctypes.data % 64 == 0


@pytest.mark.parametrize("existing", [False, True])
def test_interrupted_checkpoint_write_keeps_the_old_file(tmp_path, monkeypatch,
                                                        existing):
    params = init_params(SPEC, 0)
    path = tmp_path / "checkpoint-final.npz"
    if existing:
        save_checkpoint(init_params(SPEC, 1), path)
    before = path.read_bytes() if existing else None

    def interrupted_savez(file, **arrays):
        file.write(b"PK\x03\x04 partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", interrupted_savez)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(params, path)
    assert (path.read_bytes() if path.exists() else None) == before
    # and no temporary file is left beside it
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if existing
                                                    else [])


def test_copy_weights_from_syncs_without_touching_adam():
    src = init_params(SPEC, 1)
    dst = init_params(SPEC, 2)
    dst.adam_step = 7
    dst.copy_weights_from(src)
    for a, b in zip(src.policy_weights, dst.policy_weights):
        assert np.array_equal(a, b)
        assert a is not b
    assert dst.adam_step == 7


def test_clone_starts_fresh_adam_state():
    params = scalar_params()
    grads = zero_grads_like(params)
    policy_weight_grads(params, grads)[0][0, 0] = 1.0
    adam_apply(params, grads, lr=1e-3)
    assert (params.adam_step == 1
            and params.views(params.adam_m)[0][0, 0] != 0.0)
    copy = params.clone()
    assert np.array_equal(copy.policy_weights[0], params.policy_weights[0])
    assert copy.adam_step == 0
    assert not copy.adam_m.any()
    assert not copy.adam_v.any()
