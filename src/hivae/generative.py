"""Mixture prior, shared representation, and per-column likelihood heads.

The latent code z maps through one shared dense stack to a homogeneous
representation split into one slice per column; each column's head reads its
slice and the mixture assignment s, and the column's class in ``hivae.kinds``
turns the head outputs into likelihood parameters for that column's kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compute as C
from .kinds import (  # noqa: F401  (the parameter variants and VAR_FLOOR are re-exported)
    VAR_FLOOR,
    CategoricalParams,
    LikelihoodParams,
    LogNormalParams,
    NormalParams,
    OrdinalParams,
    PoissonParams,
)
from .recognition import LatentSample
from .tabular import NormalizationStats, Schema


@dataclass
class ColumnHead:
    """Per-column decoder head; scale_layers is None when the kind has no scale."""

    kind: type[LikelihoodParams]  # the column's class in hivae.kinds
    loc_layers: list  # concat(y_d, s) -> location-like outputs
    scale_layers: list | None  # s -> scale/threshold outputs


@dataclass
class GenerativeNets:
    dim_z: int
    dim_y: int
    prior_mu_table: C.Tensor  # (L, K) component means of the mixture prior
    g_layers: list  # z -> D * dim_y shared representation
    heads: list[ColumnHead]

    def named_parameters(self) -> dict[str, C.Tensor]:
        """gen.prior_mu, the gen.g stack, then each column's loc (and scale) head."""
        stacks = {"gen.g": self.g_layers}
        for d, head in enumerate(self.heads):
            stacks[f"gen.head{d}.loc"] = head.loc_layers
            if head.scale_layers:
                stacks[f"gen.head{d}.scale"] = head.scale_layers
        return {"gen.prior_mu": self.prior_mu_table, **C.named_stacks(stacks)}

    def parameters(self) -> list[C.Tensor]:
        return list(self.named_parameters().values())


def build_generative(
    schema: Schema, dim_s: int, dim_z: int, dim_y: int, layers: int, rng
) -> GenerativeNets:
    heads = []
    for col in schema.columns:
        loc_w, scale_w = col.kind_class.head_widths(col.cardinality)
        heads.append(
            ColumnHead(
                kind=col.kind_class,
                loc_layers=C.init_stack(dim_y + dim_s, loc_w, layers, rng),
                scale_layers=C.init_stack(dim_s, scale_w, layers, rng) if scale_w else None,
            )
        )
    return GenerativeNets(
        dim_z=dim_z,
        dim_y=dim_y,
        prior_mu_table=C.parameter(rng.uniform(-0.05, 0.05, size=(dim_s, dim_z))),
        g_layers=C.init_stack(dim_z, len(schema) * dim_y, layers, rng),
        heads=heads,
    )


def decode(
    nets: GenerativeNets, latent: LatentSample, stats: NormalizationStats
) -> list[LikelihoodParams]:
    """Likelihood parameters of every column at the given latent point."""
    s, z = latent.s_soft, latent.z
    Y = C.forward_stack(nets.g_layers, z)
    out: list[LikelihoodParams] = []
    for d, head in enumerate(nets.heads):
        y_d = C.narrow(Y, d * nets.dim_y, nets.dim_y)
        loc = C.forward_stack(head.loc_layers, C.concat([y_d, s]))
        raw_scale = C.forward_stack(head.scale_layers, s) if head.scale_layers else None
        out.append(head.kind.from_head(loc, raw_scale, stats.shift[d], stats.scale[d]))
    return out


def log_likelihood(params: LikelihoodParams, x) -> C.Tensor:
    """Exact log density/mass of each cell value, as a (B, 1) tensor.

    Includes the log-Normal 1/x Jacobian and the Poisson -log(x!) term, so
    densities integrate (masses sum) to one over the support.
    """
    return params.log_prob(x)


def mode(params: LikelihoodParams) -> np.ndarray:
    """Most probable value per row (ties on discrete kinds -> lowest index)."""
    return params.mode()


def params_summary(params: LikelihoodParams, rows: np.ndarray) -> list[dict]:
    """JSON-friendly snapshot of each given row's distribution parameters."""
    return params.summary(rows)
