"""The fused ops of the encoder, latent draws, KL terms and ordinal log-prob
against the composed ops they replace, and the size of a training step's graph.

Each reference is the chain of generic ops the package ran before the fusion.
Values the fused op computes with the same numpy expressions must match
exactly; gradients, which now come from one closed form, match within
GRAD_RTOL of the largest entry of each input's gradient.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hivae import benchmark as B
from hivae import compute as C
from hivae import recognition as R
from hivae import training as T

GRAD_RTOL = 1e-14
ORDINAL_RTOL = 1e-13  # the log-sigmoid form against log of the sigmoid difference


def evaluate(build, inputs, seed=0):
    """Values of build(*inputs) and each input's gradient of a weighted sum of them."""
    for t in inputs:
        t.grad[...] = 0.0
    out = build(*inputs)
    weights = np.random.default_rng(seed).normal(size=out.values.shape)
    C.backward(C.tsum(out * C.constant(weights)))
    return out.values.copy(), [t.grad.copy() for t in inputs]


def assert_matches(fused, composed, inputs, values_equal=True, rtol=GRAD_RTOL):
    value, grads = evaluate(fused, inputs)
    ref_value, ref_grads = evaluate(composed, inputs)
    if values_equal:
        assert value.tobytes() == ref_value.tobytes()
    else:
        assert np.allclose(value, ref_value, rtol=rtol, atol=0.0)
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() <= rtol * np.abs(ref).max()


def params(rng, *shapes, scale=1.0):
    return [C.parameter(scale * rng.normal(size=shape)) for shape in shapes]


class RecordingRng:
    """A seeded generator that records each draw's method and shape."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = []

    def random(self, shape):
        self.calls.append(("random", shape))
        return self.gen.random(shape)

    def standard_normal(self, shape):
        self.calls.append(("standard_normal", shape))
        return self.gen.standard_normal(shape)


# ---------------------------------------------------------------------------
# The composed references
# ---------------------------------------------------------------------------


def composed_gumbel_softmax(logits, tau, rng):
    u = np.clip(rng.random(logits.values.shape), 1e-12, 1.0 - 1e-12)
    return C.softmax(C.div(C.add(logits, C.constant(-np.log(-np.log(u)))), tau), axis=-1)


def composed_gaussian_reparam(mu, log_var, rng):
    eps = C.constant(rng.standard_normal(mu.values.shape))
    lv = C.clip(log_var, -C.LOG_VAR_CLAMP, C.LOG_VAR_CLAMP)
    return C.add(mu, C.mul(C.exp(C.mul(lv, 0.5)), eps))


def composed_gaussian_kl(mu_q, log_var_q, mu_p):
    diff = mu_p - mu_q
    terms = C.exp(log_var_q) + diff * diff - 1.0 - log_var_q
    return 0.5 * C.tsum(terms, axis=1)


def composed_categorical_kl(logits):
    shifted = C.sub(logits, C.constant(logits.values.max(axis=1, keepdims=True)))
    log_p = C.sub(shifted, C.log(C.tsum(C.exp(shifted), axis=1, keepdims=True)))
    p = C.softmax(logits, axis=1)
    return C.tsum(p * (log_p + math.log(logits.values.shape[1])), axis=1)


def composed_ordinal_log_prob(thresholds, location, classes):
    """log of the adjacent cdf differences, at (B, G) classes."""
    loc = C.reshape(location, location.values.shape + (1,))
    cdf = C.sigmoid(thresholds - loc)
    ones, zeros = C.constant(np.ones(loc.values.shape)), C.constant(np.zeros(loc.values.shape))
    probs = C.concat([cdf, ones], axis=2) - C.concat([zeros, cdf], axis=2)
    one_hot = np.arange(probs.values.shape[2]) == classes[..., None]
    return C.tsum(C.log(probs) * C.constant(one_hot.astype(np.float64)), axis=2)


# ---------------------------------------------------------------------------
# Fused op against its reference
# ---------------------------------------------------------------------------


def test_linear_is_bit_identical_to_matmul_plus_bias():
    rng = np.random.default_rng(0)
    inputs = params(rng, (6, 4), (4, 3), (3,))
    value, grads = evaluate(C.linear, inputs)
    ref_value, ref_grads = evaluate(lambda x, w, b: C.add(C.matmul(x, w), b), inputs)
    assert value.tobytes() == ref_value.tobytes()
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


def test_narrow_clip_is_clip_of_narrow():
    rng = np.random.default_rng(1)
    [a] = params(rng, (5, 6), scale=3.0)
    assert_matches(
        lambda a: C.narrow_clip(a, 2, 3, -1.5, 2.0),
        lambda a: C.clip(C.narrow(a, 2, 3), -1.5, 2.0),
        [a],
    )
    part = a.values[:, 2:5]
    assert np.any(part < -1.5) and np.any(part > 2.0)  # both bounds clamp some entries


def test_narrow_clip_reads_the_last_axis_of_a_3d_block():
    rng = np.random.default_rng(1)
    [a] = params(rng, (4, 3, 6), scale=3.0)
    assert_matches(
        lambda a: C.narrow_clip(a, 2, 3, -1.5, 2.0),
        lambda a: C.clip(C.narrow(a, 2, 3, axis=2), -1.5, 2.0),
        [a],
    )
    part = a.values[..., 2:5]
    assert np.any(part < -1.5) and np.any(part > 2.0)


def test_squeezed_group_dense_is_the_reshaped_block():
    rng = np.random.default_rng(2)
    inputs = params(rng, (5, 4, 2), (5, 3), (4, 5, 1), (4, 1))
    value, grads = evaluate(lambda *t: C.group_dense(*t, squeeze=True), inputs)
    ref_value, ref_grads = evaluate(lambda *t: C.reshape(C.group_dense(*t), (5, 4)), inputs)
    assert value.shape == (5, 4)
    assert value.tobytes() == ref_value.tobytes()
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


def test_gumbel_softmax_matches_the_composed_draw():
    rng = np.random.default_rng(3)
    [logits] = params(rng, (7, 5), scale=2.0)
    assert_matches(
        lambda t: C.sample_gumbel_softmax(t, 0.6, np.random.default_rng(9)),
        lambda t: composed_gumbel_softmax(t, 0.6, np.random.default_rng(9)),
        [logits],
    )


def test_gaussian_reparam_matches_the_composed_draw():
    rng = np.random.default_rng(4)
    mu, log_var = params(rng, (6, 3), (6, 3), scale=2.0)
    log_var.values[0, :2] = [-20.0, 20.0]  # clamped: no gradient reaches these
    assert_matches(
        lambda m, v: C.sample_gaussian_reparam(m, v, np.random.default_rng(8)),
        lambda m, v: composed_gaussian_reparam(m, v, np.random.default_rng(8)),
        [mu, log_var],
    )


def test_gaussian_kl_matches_the_composed_terms():
    rng = np.random.default_rng(5)
    inputs = params(rng, (8, 4), (8, 4), (8, 4))
    assert_matches(C.gaussian_kl, composed_gaussian_kl, inputs)
    assert_matches(T.gaussian_kl, composed_gaussian_kl, inputs)


def test_gaussian_kl_against_a_broadcast_prior_mean():
    rng = np.random.default_rng(6)
    inputs = params(rng, (8, 4), (8, 4), (1, 4))
    assert_matches(C.gaussian_kl, composed_gaussian_kl, inputs)


def test_categorical_kl_matches_softmax_and_log_softmax():
    rng = np.random.default_rng(7)
    [logits] = params(rng, (9, 6), scale=3.0)
    assert_matches(C.uniform_kl, composed_categorical_kl, [logits])
    assert_matches(T.categorical_kl, composed_categorical_kl, [logits])


def test_ordinal_log_prob_matches_log_of_the_cdf_differences():
    rng = np.random.default_rng(8)
    B_, G, R_ = 10, 3, 5
    gaps = C.parameter(rng.uniform(0.2, 1.5, size=(B_, G, R_ - 1)))
    location = C.parameter(rng.normal(size=(B_, G)))
    classes = rng.integers(0, R_, size=(B_, G))
    classes[:2] = [[0, R_ - 1, 2], [R_ - 1, 0, 1]]  # both open ends

    def fused(gaps, location):
        return C.cumulative_logit_log_prob(C.cumsum(gaps, axis=2) - 1.5, location, classes)

    def composed(gaps, location):
        return composed_ordinal_log_prob(C.cumsum(gaps, axis=2) - 1.5, location, classes)

    assert_matches(fused, composed, [gaps, location], values_equal=False, rtol=ORDINAL_RTOL)


# ---------------------------------------------------------------------------
# The samplers draw what they drew before, in the same order
# ---------------------------------------------------------------------------


def test_gumbel_softmax_takes_one_uniform_draw():
    logits = C.parameter(np.random.default_rng(0).normal(size=(4, 3)))
    fused, composed = RecordingRng(11), RecordingRng(11)
    a = C.sample_gumbel_softmax(logits, 0.5, fused)
    b = composed_gumbel_softmax(logits, 0.5, composed)
    assert fused.calls == composed.calls == [("random", (4, 3))]
    assert a.values.tobytes() == b.values.tobytes()
    assert fused.gen.random() == composed.gen.random()


def test_gaussian_reparam_takes_one_normal_draw():
    mu, log_var = C.parameter(np.zeros((4, 2))), C.parameter(np.ones((4, 2)))
    fused, composed = RecordingRng(12), RecordingRng(12)
    a = C.sample_gaussian_reparam(mu, log_var, fused)
    b = composed_gaussian_reparam(mu, log_var, composed)
    assert fused.calls == composed.calls == [("standard_normal", (4, 2))]
    assert a.values.tobytes() == b.values.tobytes()
    assert fused.gen.random() == composed.gen.random()


def test_a_latent_draw_takes_s_then_z(small_synthetic):
    table, mask = small_synthetic
    config = T.TrainConfig(dim_z=3, dim_s=4, dim_y=2, epochs=1, batch_size=20, seed=0)
    state = T.build_model(table.schema, config, np.random.default_rng(0))
    params = R.posterior(state.encoder, table, mask, state.stats, range(table.n_rows))
    rng = RecordingRng(13)
    R.sample_latent(params, 0.5, rng)
    assert rng.calls == [("random", (table.n_rows, 4)), ("standard_normal", (table.n_rows, 3))]


# ---------------------------------------------------------------------------
# Graph size of a training step
# ---------------------------------------------------------------------------

STEP_NODES = 58  # compute._node calls in one elbo_batch + backward, either table
FACTORIZED_STEP_NODES = 71  # the same with the factorized encoder (dim_s = 1)


def load_step_time():
    """scripts/step_time.py, whose table and node count this test pins."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "step_time.py"
    spec = importlib.util.spec_from_file_location("step_time", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def step_nodes(tiles, **config):
    """Nodes of one step on the script's table, with the benchmark's model sizes."""
    step_time = load_step_time()
    table = step_time.tiled_table(tiles, 60)
    mask = B.generate_mcar_mask(table, 0.2, seed=1)
    config = T.TrainConfig(dim_z=10, dim_y=5, layers=1, epochs=1, batch_size=60, **config)
    state = T.build_model(table.schema, config, np.random.default_rng(0))

    def step():
        elbo = T.elbo_batch(state, table, mask, np.arange(table.n_rows), 0.5, np.random.default_rng(2))
        C.backward(elbo * (-1.0 / table.n_rows))

    return step_time.count_nodes(step)


@pytest.mark.parametrize("tiles", [1, 10])
def test_a_training_step_makes_a_fixed_number_of_nodes(tiles):
    """Groups, not columns, set the graph: D = 7 and D = 70 make the same
    count, with the benchmark's model sizes."""
    assert step_nodes(tiles, dim_s=10) == STEP_NODES <= 60


@pytest.mark.parametrize("tiles", [1, 10])
def test_a_factorized_training_step_makes_a_fixed_number_of_nodes(tiles):
    """The factorized encoder runs one op per group too, so its step does not
    grow with D either."""
    assert step_nodes(tiles, dim_s=1, encoder_mode=R.FACTORIZED) == FACTORIZED_STEP_NODES
