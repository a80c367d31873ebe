"""Posterior networks over the latent mixture assignment s and code z.

The default encoder feeds the zero-filled input vector through a dense stack
to get mixture logits, then conditions the Gaussian over z on the input
concatenated with (a sample of) s.  Because missing slots are exactly zero,
they contribute nothing to any pre-activation sum or to any weight gradient.

An alternative factorized encoder builds q(z | observed) as a precision-
weighted product of per-attribute Gaussians with the prior; it exists for
comparison runs and requires a single mixture component.  Like the decoder's
heads, its per-column nets are stacked per (kind, cardinality) group and run
as one op per group; each column's enc.col{d} tensors are live views of that
storage, and the model file stores them per column as before.  In either mode
the storage is itself a view of the net's one flat parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import compute as C
from .tabular import (
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    Schema,
    encode_inputs,
)

INPUT_DROPOUT = "input_dropout"
FACTORIZED = "factorized"


@dataclass
class EncoderNets:
    """Trainable encoder parameters for either encoder mode."""

    mode: str
    dim_z: int
    flat: C.Tensor  # every parameter below is a view of it
    s_layers: list | None = None  # x_tilde -> L logits
    z_layers: list | None = None  # concat(x_tilde, s) -> (K mu, K log_var)
    per_column: list | None = None  # factorized: column slots -> (K mu, K log_var), views
    group_layers: list | None = None  # factorized: per schema group, the views' stacked storage

    def named_parameters(self) -> dict[str, C.Tensor]:
        """enc.s / enc.z stacks, or one enc.col{d} stack per column (factorized)."""
        if self.mode == FACTORIZED:
            return C.named_stacks({f"enc.col{d}": stack for d, stack in enumerate(self.per_column)})
        return C.named_stacks({"enc.s": self.s_layers, "enc.z": self.z_layers})

    def parameters(self) -> list[C.Tensor]:
        return list(self.named_parameters().values())


def build_encoder(
    schema: Schema, dim_s: int, dim_z: int, layers: int, mode: str, rng
) -> EncoderNets:
    """Nets for a mode and dim_s that TrainConfig has already checked."""
    if mode == FACTORIZED:  # drawn column by column, stacked per group, packed, then viewed
        stacks = [C.init_stack(c.encoded_width, 2 * dim_z, layers, rng) for c in schema.columns]
        grouped = [C.stack_columns([stacks[d] for d in g.columns]) for g in schema.groups]
        flat = C.pack([t for stacked in grouped for ly in stacked for t in (ly.weights, ly.bias)])
        views = {d: C.column_views(stacked, j) for g, stacked in zip(schema.groups, grouped)
                 for j, d in enumerate(g.columns.tolist())}
        per_column = [views[d] for d in range(len(schema))]
        return EncoderNets(mode, dim_z, flat, per_column=per_column, group_layers=grouped)
    width = schema.encoded_width
    s_layers = C.init_stack(width, dim_s, layers, rng)
    z_layers = C.init_stack(width + dim_s, 2 * dim_z, layers, rng)
    flat = C.pack([t for ly in s_layers + z_layers for t in (ly.weights, ly.bias)])
    return EncoderNets(mode, dim_z, flat, s_layers, z_layers)


def _moments(out: C.Tensor, dim_z: int) -> tuple[C.Tensor, C.Tensor]:
    """The mean and the clamped log-variance halves of a (..., 2 * dim_z) net output."""
    mu = C.narrow(out, 0, dim_z, axis=-1)
    return mu, C.narrow_clip(out, dim_z, dim_z, -C.LOG_VAR_CLAMP, C.LOG_VAR_CLAMP)


def z_params(nets: EncoderNets, x_tilde: C.Tensor, s: C.Tensor) -> tuple[C.Tensor, C.Tensor]:
    """Gaussian posterior moments conditioned on s; log-variance clamped."""
    return _moments(C.forward_stack(nets.z_layers, C.concat([x_tilde, s])), nets.dim_z)


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


def encode(nets: EncoderNets, encoded: np.ndarray) -> RecognitionParams:
    """Run the input-dropout encoder on encoded rows (an encode_inputs array).

    Only the mixture logits are computed here; the z-net runs when a caller
    conditions on a chosen s (sample_latent, map_latent).
    """
    x_tilde = C.constant(encoded)
    logits = C.forward_stack(nets.s_layers, x_tilde)

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
    x = encode_inputs(table, mask, stats, rows)
    B, groups = x.shape[0], table.schema.groups
    blocks = [x[:, g.slots].reshape(B, g.columns.size, -1) for g in groups]  # (B, G, width)
    outs = [C.forward_group_stack(stacked, C.constant(block), None)
            for stacked, block in zip(nets.group_layers, blocks)]
    mu, log_var = _moments(C.concat(outs, axis=1), nets.dim_z)  # (B, D, K), group order
    order = np.concatenate([g.columns for g in groups])
    weight = C.exp(-log_var) * mask.observed[rows][:, order, None].astype(np.float64)
    precision = C.tsum(weight, axis=1) + 1.0  # the prior expert's unit precision
    z_mu = C.tsum(mu * weight, axis=1) / precision
    z_log_var = -C.log(precision)
    return RecognitionParams(C.constant(np.zeros((B, 1))), lambda _s_new: (z_mu, z_log_var))
