"""Mixture prior, shared representation, and per-column likelihood heads.

The latent code z maps through one shared dense stack to a homogeneous
representation with one dim_y slice per column; each column's head reads its
slice and the mixture assignment s, and the column's class in ``hivae.kinds``
turns the head outputs into likelihood parameters for that column's kind.

Columns of one (kind, cardinality) group have heads of one shape, so each
group's heads are stored stacked, (G, n_in, n_out) per layer, and evaluated
together; the group's likelihoods are one block of its kind's class.  The
per-column parameter names stay: each is a live view of its slice of the
stacked storage, which is itself a view of the net's one flat parameter.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import compute as C
from .kinds import LikelihoodParams
from .recognition import LatentSample
from .tabular import ColumnGroup, NormalizationStats, Schema


@dataclass
class GroupHead:
    """The decoder heads of one column group, stacked over its G columns;
    scale_layers is None when the kind has no scale."""

    group: ColumnGroup
    loc_layers: list  # concat(y_d, s) -> location-like outputs; weights (G, dim_y + dim_s, n_out)
    scale_layers: list | None  # s -> scale/threshold outputs; weights (G, dim_s, n_out)


@dataclass
class GenerativeNets:
    dim_y: int
    prior_mu_table: C.Tensor  # (L, K) component means of the mixture prior
    g_layers: list  # z -> D * dim_y shared representation
    heads: list[GroupHead]
    flat: C.Tensor = field(init=False, repr=False)  # every parameter above is a view of it
    _named: dict = field(init=False, repr=False)

    def __post_init__(self):
        """Pack the storage into flat, then name each column's slice of its
        group's stacked heads once, so every call gives the same views."""
        layers = self.g_layers + [
            layer for head in self.heads for layer in head.loc_layers + (head.scale_layers or [])
        ]
        tensors = [t for layer in layers for t in (layer.weights, layer.bias)]
        self.flat = C.pack([self.prior_mu_table] + tensors)
        columns = {}
        for head in self.heads:
            for j, d in enumerate(head.group.columns.tolist()):
                stacks = {f"gen.head{d}.loc": C.column_views(head.loc_layers, j)}
                if head.scale_layers:
                    stacks[f"gen.head{d}.scale"] = C.column_views(head.scale_layers, j)
                columns[d] = C.named_stacks(stacks)
        self._named = {
            "gen.prior_mu": self.prior_mu_table,
            **C.named_stacks({"gen.g": self.g_layers}),
            **{name: t for d in sorted(columns) for name, t in columns[d].items()},
        }

    def named_parameters(self) -> dict[str, C.Tensor]:
        """gen.prior_mu, the gen.g stack, then each column's loc (and scale) head."""
        return dict(self._named)

    def parameters(self) -> list[C.Tensor]:
        return list(self._named.values())


def build_generative(
    schema: Schema, dim_s: int, dim_z: int, dim_y: int, layers: int, rng
) -> GenerativeNets:
    """Initial values are drawn column by column, loc then scale, in schema
    order, and then stacked per group."""
    per_column = []
    for col in schema.columns:
        loc_w, scale_w = col.kind_class.head_widths(col.cardinality)
        loc = C.init_stack(dim_y + dim_s, loc_w, layers, rng)
        per_column.append((loc, C.init_stack(dim_s, scale_w, layers, rng) if scale_w else None))

    heads = []
    for group in schema.groups:
        loc, scale = zip(*(per_column[d] for d in group.columns))
        heads.append(GroupHead(group, C.stack_columns(loc), scale[0] and C.stack_columns(scale)))
    return GenerativeNets(
        dim_y=dim_y,
        prior_mu_table=C.parameter(rng.uniform(-0.05, 0.05, size=(dim_s, dim_z))),
        g_layers=C.init_stack(dim_z, len(schema) * dim_y, layers, rng),
        heads=heads,
    )


class Decoded(Sequence):
    """The likelihood blocks of one decode, one per column group.

    Indexing or iterating gives each column's own LikelihoodParams in schema
    order, built on demand from its group's block.
    """

    def __init__(self, groups: tuple[ColumnGroup, ...], blocks: tuple[LikelihoodParams, ...]):
        self.groups = groups
        self.blocks = blocks

    @cached_property
    def columns(self) -> list[tuple[LikelihoodParams, int]]:
        """(block, j) of each column in schema order, built on first use:
        a training step walks the blocks and never needs it."""
        where = {d: (block, j) for group, block in zip(self.groups, self.blocks)
                 for j, d in enumerate(group.columns.tolist())}
        return [where[d] for d in range(len(where))]

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, d: int) -> LikelihoodParams:
        block, j = self.columns[d]  # IndexError past the last column ends iteration
        return block.column(j)


def decode(nets: GenerativeNets, latent: LatentSample, stats: NormalizationStats) -> Decoded:
    """Likelihood parameters of every column at the given latent point."""
    s, z = latent.s_soft, latent.z
    Y = C.forward_stack(nets.g_layers, z)
    Y = C.reshape(Y, (Y.values.shape[0], -1, nets.dim_y))  # (B, D, dim_y)
    blocks = []
    for head in nets.heads:
        kind, idx = head.group.kind_class, head.group.columns
        loc_scalar, scale_scalar = kind.scalar_heads
        loc = C.forward_group_stack(head.loc_layers, C.take(Y, idx), s, loc_scalar)
        raw_scale = None
        if head.scale_layers:
            raw_scale = C.forward_group_stack(head.scale_layers, None, s, scale_scalar)
        blocks.append(kind.from_head(loc, raw_scale, stats.shift[idx], stats.scale[idx]))
    return Decoded(tuple(head.group for head in nets.heads), tuple(blocks))


def log_likelihood(params: LikelihoodParams, x) -> C.Tensor:
    """Exact log density/mass of each cell value, a (B, G) tensor for a block
    and (B, 1) for one column's params.

    Includes the log-Normal 1/x Jacobian and the Poisson -log(x!) term, so
    densities integrate (masses sum) to one over the support.
    """
    return params.log_prob(x)


def mode(params: LikelihoodParams) -> np.ndarray:
    """Most probable value per row and column (ties on discrete kinds -> lowest index)."""
    return params.mode()


def params_summary(params: LikelihoodParams, j: int, rows) -> list[str]:
    """Block column j's distribution parameters as JSON object texts, one per
    row of rows."""
    return params.summary(j, rows)
