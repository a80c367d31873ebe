"""Posterior networks over the latent mixture assignment s and code z.

The default encoder feeds the zero-filled input vector through a dense stack
to get mixture logits, then conditions the Gaussian over z on the input
concatenated with (a sample of) s.  Because missing slots are exactly zero,
they contribute nothing to any pre-activation sum or to any weight gradient.

An alternative factorized encoder builds q(z | observed) as a precision-
weighted product of per-attribute Gaussians with the prior; it exists for
comparison runs and requires a single mixture component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import compute as C
from .tabular import (
    EncodedBatch,
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    Schema,
    encode_inputs,
)

INPUT_DROPOUT = "input_dropout"
FACTORIZED = "factorized"


class ConfigError(ValueError):
    """Inconsistent encoder configuration."""


@dataclass
class EncoderNets:
    """Trainable encoder parameters for either encoder mode."""

    mode: str
    dim_s: int
    dim_z: int
    input_width: int
    s_layers: list | None = None  # x_tilde -> L logits
    z_layers: list | None = None  # concat(x_tilde, s) -> (K mu, K log_var)
    per_column: list | None = None  # factorized: column slots -> (K mu, K log_var)

    def parameters(self) -> list[C.Tensor]:
        params = []
        for stack in ([self.s_layers, self.z_layers] if self.mode == INPUT_DROPOUT else []):
            for layer in stack:
                params.extend([layer.weights, layer.bias])
        if self.mode == FACTORIZED:
            for stack in self.per_column:
                for layer in stack:
                    params.extend([layer.weights, layer.bias])
        return params


def build_encoder(
    schema: Schema, dim_s: int, dim_z: int, layers: int, mode: str, rng
) -> EncoderNets:
    width = schema.encoded_width
    if mode == INPUT_DROPOUT:
        return EncoderNets(
            mode=mode,
            dim_s=dim_s,
            dim_z=dim_z,
            input_width=width,
            s_layers=C.init_stack(width, dim_s, layers, rng),
            z_layers=C.init_stack(width + dim_s, 2 * dim_z, layers, rng),
        )
    if mode == FACTORIZED:
        if dim_s != 1:
            raise ConfigError("factorized encoder does not model s; requires dim_s = 1")
        return EncoderNets(
            mode=mode,
            dim_s=1,
            dim_z=dim_z,
            input_width=width,
            per_column=[
                C.init_stack(col.encoded_width, 2 * dim_z, layers, rng)
                for col in schema.columns
            ],
        )
    raise ConfigError(f"unknown encoder mode {mode!r}")


def s_logits(nets: EncoderNets, x_tilde: C.Tensor) -> C.Tensor:
    if nets.mode != INPUT_DROPOUT:
        raise ConfigError("mixture logits only exist for the input-dropout encoder")
    return C.forward_stack(nets.s_layers, x_tilde)


def z_params(nets: EncoderNets, x_tilde: C.Tensor, s: C.Tensor) -> tuple[C.Tensor, C.Tensor]:
    """Gaussian posterior moments conditioned on s; log-variance clamped."""
    out = C.forward_stack(nets.z_layers, C.concat([x_tilde, s]))
    mu = C.narrow(out, 0, nets.dim_z)
    log_var = C.clip(C.narrow(out, nets.dim_z, nets.dim_z), -C.LOG_VAR_CLAMP, C.LOG_VAR_CLAMP)
    return mu, log_var


@dataclass
class RecognitionParams:
    """Posterior parameters for a batch of rows.

    s_logits parameterize q(s | x); conditioner maps a chosen s to the moments
    of q(z | x, s), running the z-net only when called (the factorized
    posterior ignores s, so there it just returns the fused moments).
    """

    s_logits: C.Tensor  # (B, L)
    conditioner: Callable[[C.Tensor], tuple[C.Tensor, C.Tensor]]


@dataclass
class LatentSample:
    """A latent draw and the z-moments it was conditioned on."""

    s_soft: C.Tensor  # (B, L) on the simplex
    z: C.Tensor  # (B, K)
    tau: float
    z_mu: C.Tensor | None = None  # (B, K)
    z_log_var: C.Tensor | None = None  # (B, K)


def hard_assignment(s_logits_values: np.ndarray) -> np.ndarray:
    """One-hot at the argmax of each row; ties resolve to the lowest index."""
    idx = np.argmax(s_logits_values, axis=1)
    out = np.zeros_like(s_logits_values)
    out[np.arange(idx.size), idx] = 1.0
    return out


def encode(nets: EncoderNets, x_tilde) -> RecognitionParams:
    """Run the input-dropout encoder on encoded rows.

    Only the mixture logits are computed here; the z-net runs when a caller
    conditions on a chosen s (sample_latent, map_latent).
    """
    if isinstance(x_tilde, EncodedBatch):
        x_tilde = C.constant(x_tilde.values)
    elif not isinstance(x_tilde, C.Tensor):
        x_tilde = C.constant(np.atleast_2d(np.asarray(x_tilde, dtype=np.float64)))
    logits = s_logits(nets, x_tilde)

    def conditioner(s_new: C.Tensor) -> tuple[C.Tensor, C.Tensor]:
        return z_params(nets, x_tilde, s_new)

    return RecognitionParams(logits, conditioner)


def posterior(
    nets: EncoderNets,
    table: HeterogeneousTable,
    mask: MissingMask,
    stats: NormalizationStats,
    rows,
) -> RecognitionParams:
    """The posterior over the given rows, from whichever encoder nets were built."""
    if nets.mode == FACTORIZED:
        return encode_factorized(nets, table, mask, stats, rows)
    return encode(nets, encode_inputs(table, mask, stats, rows))


def sample_latent(params: RecognitionParams, tau: float, rng) -> LatentSample:
    """Draw (s, z) with reparameterized gradients through both."""
    s_soft = C.sample_gumbel_softmax(params.s_logits, tau, rng)
    mu, log_var = params.conditioner(s_soft)
    z = C.sample_gaussian_reparam(mu, log_var, rng)
    return LatentSample(s_soft, z, tau, mu, log_var)


def map_latent(params: RecognitionParams) -> LatentSample:
    """Deterministic MAP point: hard argmax s, posterior mean z under it."""
    s_hard = C.constant(hard_assignment(params.s_logits.values))
    mu, log_var = params.conditioner(s_hard)
    return LatentSample(s_hard, mu, 0.0, mu, log_var)


def encode_factorized(
    nets: EncoderNets,
    table: HeterogeneousTable,
    mask: MissingMask,
    stats: NormalizationStats,
    rows,
) -> RecognitionParams:
    """Precision-weighted fusion of per-attribute Gaussians with the prior.

    precision = I + sum_observed precision_d, mean = cov * sum_observed
    (mu_d * precision_d); an empty observation set returns the N(0, I) prior.
    """
    if nets.mode != FACTORIZED:
        raise ConfigError("encoder was not built in factorized mode")
    rows = np.asarray(list(rows), dtype=np.intp)
    batch = encode_inputs(table, mask, stats, rows)
    x = C.constant(batch.values)
    B, K = rows.size, nets.dim_z

    precision_acc = C.constant(np.ones((B, K)))
    weighted_mu_acc = C.constant(np.zeros((B, K)))
    for d, (off, width) in enumerate(table.schema.slot_ranges()):
        obs = C.constant(mask.observed[rows, d].astype(np.float64)[:, None])
        out = C.forward_stack(nets.per_column[d], C.narrow(x, off, width))
        mu_d = C.narrow(out, 0, K)
        log_var_d = C.clip(C.narrow(out, K, K), -C.LOG_VAR_CLAMP, C.LOG_VAR_CLAMP)
        prec_d = C.exp(-log_var_d)
        precision_acc = precision_acc + prec_d * obs
        weighted_mu_acc = weighted_mu_acc + mu_d * prec_d * obs

    z_mu = weighted_mu_acc / precision_acc
    z_log_var = -C.log(precision_acc)
    logits = C.constant(np.zeros((B, 1)))

    def conditioner(_s_new: C.Tensor) -> tuple[C.Tensor, C.Tensor]:
        return z_mu, z_log_var

    return RecognitionParams(logits, conditioner)
