"""One class per column kind: the column's rules and its decoded distribution.

    real     NormalParams       Normal(mu, var), fitted on x
    pos      LogNormalParams    log-Normal: Normal moments of ln(x)
    count    PoissonParams      Poisson(rate), fitted on ln(1 + x), rate on the raw scale
    cat      CategoricalParams  softmax over R logits, logit 0 pinned to zero
    ordinal  OrdinalParams      cumulative logit, thresholds strictly increasing

Class attributes and classmethods are the column rules: nominal or not, encoder
width and block (standardized slot, one-hot or thermometer), transform and its
domain, support, CSV cell format, decoder head widths (location, scale), which
heads are read as (B, G) blocks, the step from head outputs to parameters,
missing-cell stand-in, mean/mode baseline, metric and sidecar fields.
``encode`` and ``from_head`` take the columns' normalization shifts and
scales, which the nominal kinds ignore.

An instance is a block: the decoded distributions of the G columns of one
(kind, cardinality) group for every batch row, with scalar parameters of shape
(B, G) and vector parameters of shape (B, G, R).  ``log_prob`` and ``mode``
work on the whole block, ``sample`` and ``summary`` on one of its columns.
The discrete kinds' ``probs`` are built from the decoded logits or cumulative
logits on first read, so the ELBO, which reads only ``log_prob``, never
builds them.  ``column(j)`` gives column j's own parameters, (B, 1) scalars
and (B, R) vectors, which the same methods accept as a one-column block.
Column views exist for the ``generative.Decoded[d]`` entry point; the package
itself works on blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import compute as C

VAR_FLOOR = 1e-6
RATE_FLOOR = 1e-6
GAP_FLOOR = 1e-6
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def log_factorial(x: np.ndarray) -> np.ndarray:
    """log x! of integer-valued floats >= 0, one math.lgamma per distinct value."""
    values = np.unique(x)
    return np.array([math.lgamma(v + 1.0) for v in values.tolist()])[np.searchsorted(values, x)]


def json_floats(values: np.ndarray) -> list[str]:
    """Each value's JSON text in C order, as json.dumps writes a float."""
    texts = list(map(float.__repr__, values.ravel().tolist()))
    return texts if np.isfinite(values).all() else [_JSON_NONFINITE.get(t, t) for t in texts]


def _block(x) -> np.ndarray:
    """Cell values as a (B, G) float64 block; a 1-D array is one column."""
    x = np.asarray(x, dtype=np.float64)
    return x if x.ndim == 2 else x.reshape(-1, 1)


def _grouped(values: np.ndarray) -> np.ndarray:
    """Vector parameters as (B, G, R); one column's own (B, R) is G = 1."""
    return values[:, None] if values.ndim == 2 else values


def _grouped_tensor(t: C.Tensor) -> C.Tensor:
    """_grouped for a tensor, differentiable back into one column's (B, R)."""
    return C.reshape(t, (-1, 1, t.values.shape[1])) if t.values.ndim == 2 else t


def _column_of(t: C.Tensor, j: int) -> C.Tensor:
    part = C.narrow(t, j, 1, axis=1)
    if t.values.ndim == 2:
        return part
    return C.reshape(part, (t.values.shape[0], t.values.shape[2]))


class _Kind:
    """Column rules shared by the kinds; the defaults are the numeric kinds'."""

    nominal = False
    support = "a finite value"  # formatted with last = cardinality - 1
    safe_value = 0.0  # in-support stand-in for a missing cell; its term is masked out
    scalar_heads = (True, True)  # (loc, scale) head outputs read as (B, G) blocks
    metric = "nrmse"
    format_cell = staticmethod(lambda value: repr(float(value)))
    unsupported = staticmethod(lambda x, cardinality: False)  # x: a float or an array

    @classmethod
    def encoded_width(cls, cardinality: int) -> int:
        return cardinality if cls.nominal else 1

    @classmethod
    def encode(cls, values: np.ndarray, shift, scale, cardinality: int) -> np.ndarray:
        """(B, G, width) encoder blocks of (B, G) values: the standardized transform."""
        return ((cls.transform(values) - shift) / scale)[..., None]

    @classmethod
    def _checked(cls, x: np.ndarray, cardinality: int = 0) -> np.ndarray:
        if np.any(cls.unsupported(x, cardinality)):
            requirement = cls.support.format(last=cardinality - 1)
            raise ValueError(f"{cls.kind} likelihood requires {requirement}")
        return x

    @classmethod
    def baseline(cls, values: np.ndarray, cardinality: int) -> tuple[float, str]:
        """Mean/mode baseline fill from the observed values, and its statistic."""
        return float(np.mean(values)), "mean"

    def summary(self, j: int, rows) -> list[str]:
        """Column j's parameters at each of rows as JSON object texts, keys sorted."""
        columns, body = [], ""
        for key, attr in self.summary_fields:
            vector = attr in ("probs", "thresholds")  # (B, G, R); the others are (B, G)
            values = getattr(self, attr).values
            values = _grouped(values)[rows, j] if vector else values[rows, j, None]
            texts, width = json_floats(values), values.shape[1]
            columns += [texts[r::width] for r in range(width)]
            body += f', "{key}": ' + ("[%s]" if vector else "%s") % ", ".join(["%s"] * width)
        template = f'{{"kind": "{self.kind}"{body}}}'
        return [template % texts for texts in zip(*columns)]

    def column(self, j: int):
        """Column j's own parameters, differentiable back into the block."""
        return type(self)(
            **{f.name: _column_of(getattr(self, f.name), j)
               for f in fields(self) if getattr(self, f.name) is not None}
        )


@dataclass(frozen=True)
class NormalParams(_Kind):
    mu: C.Tensor  # (B, G)
    var: C.Tensor  # (B, G)

    kind = "real"
    domain = "raw"
    transform = staticmethod(np.positive)  # identity
    head_widths = staticmethod(lambda cardinality: (1, 1))
    summary_fields = (("mean", "mu"), ("var", "var"))

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale: C.Tensor, shift, scale):
        raw_var = C.clip(C.softplus(raw_scale), lo=VAR_FLOOR)
        squares = np.array([s**2 for s in scale])  # scalar pow: an array square rounds some apart
        return cls(loc * scale + shift, raw_var * squares)

    def log_prob(self, x) -> C.Tensor:
        return C.normal_log_density(_block(x), self.mu, self.var)

    def mode(self) -> np.ndarray:
        return self.mu.values.copy()

    def sample(self, rng, j: int = 0) -> np.ndarray:
        mu, var = self.mu.values[:, j], self.var.values[:, j]
        return mu + np.sqrt(var) * rng.standard_normal(mu.shape)


@dataclass(frozen=True)
class LogNormalParams(NormalParams):
    kind = "pos"
    domain = "log"
    transform = staticmethod(np.log)
    support = "values > 0"
    safe_value = 1.0
    unsupported = staticmethod(lambda x, cardinality: x <= 0)
    summary_fields = (("log_mean", "mu"), ("log_var", "var"))

    def log_prob(self, x) -> C.Tensor:
        lx = np.log(self._checked(_block(x)))
        return super().log_prob(lx) - lx  # 1/x Jacobian

    def mode(self) -> np.ndarray:
        # degenerate (unnormalized) models may overflow to inf; keep that visible
        with np.errstate(over="ignore"):
            return np.exp(self.mu.values - self.var.values)

    def sample(self, rng, j: int = 0) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(super().sample(rng, j))


@dataclass(frozen=True)
class PoissonParams(_Kind):
    rate: C.Tensor  # (B, G)

    kind = "count"
    domain = "log1p"
    transform = staticmethod(np.log1p)
    support = "integer values >= 0"
    unsupported = staticmethod(lambda x, cardinality: (x < 0) | (x % 1 != 0))
    format_cell = staticmethod(lambda value: str(int(value)))
    head_widths = staticmethod(lambda cardinality: (1, 0))
    summary_fields = (("rate", "rate"),)

    @classmethod
    def baseline(cls, values: np.ndarray, cardinality: int) -> tuple[float, str]:
        return float(np.floor(float(np.mean(values)) + 0.5)), "mean"  # rounded half-up

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale, shift, scale):
        return cls(C.clip(C.softplus(loc), lo=RATE_FLOOR))

    def log_prob(self, x) -> C.Tensor:
        xv = self._checked(_block(x))
        return C.constant(xv) * C.log(self.rate) - self.rate - C.constant(log_factorial(xv))

    def mode(self) -> np.ndarray:
        return np.floor(self.rate.values)

    def sample(self, rng, j: int = 0) -> np.ndarray:
        return rng.poisson(self.rate.values[:, j]).astype(np.float64)


@dataclass(frozen=True)
class CategoricalParams(_Kind):
    logits: C.Tensor | None = field(default=None, kw_only=True)  # (B, G, R); ordinals have none

    kind = "cat"
    nominal = True
    support = "integer class indices in 0..{last}"
    metric = "accuracy"
    unsupported = staticmethod(lambda x, cardinality: (x % 1 != 0) | (x < 0) | (x >= cardinality))
    format_cell = staticmethod(lambda value: str(int(value)))
    head_widths = staticmethod(lambda cardinality: (cardinality - 1, 0))
    scalar_heads = (False, False)
    summary_fields = (("probs", "probs"),)
    block_rule = staticmethod(np.equal)  # slot j of class r is set where rule(j, r): one-hot

    @classmethod
    def encode(cls, values: np.ndarray, shift, scale, cardinality: int) -> np.ndarray:
        slots, classes = np.arange(cardinality), values.astype(np.intp)[..., None]
        return cls.block_rule(slots, classes).astype(np.float64)

    @classmethod
    def baseline(cls, values: np.ndarray, cardinality: int) -> tuple[float, str]:
        counts = np.bincount(values.astype(np.intp), minlength=cardinality)
        return float(np.argmax(counts)), "mode"  # ties to the lowest index

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale, shift, scale):
        zeros = C.constant(np.zeros(loc.values.shape[:2] + (1,)))
        return cls(logits=C.concat([zeros, loc], axis=2))

    @cached_property
    def probs(self) -> C.Tensor:
        """(B, G, R) rows on the simplex, built on first read."""
        return C.softmax(self.logits, axis=-1)

    def log_prob(self, x) -> C.Tensor:
        R = self.logits.values.shape[-1]
        classes = self._checked(_block(x), R).astype(np.intp)
        return C.log_softmax_gather(_grouped_tensor(self.logits), classes)

    def mode(self) -> np.ndarray:
        return np.argmax(_grouped(self.probs.values), axis=2).astype(np.float64)

    def sample(self, rng, j: int = 0) -> np.ndarray:
        probs = _grouped(self.probs.values)[:, j]
        cdf = np.cumsum(probs, axis=1)
        u = rng.random(probs.shape[0])
        idx = (u[:, None] > cdf).sum(axis=1)
        return np.minimum(idx, probs.shape[1] - 1).astype(np.float64)


@dataclass(frozen=True)
class OrdinalParams(CategoricalParams):
    thresholds: C.Tensor  # (B, G, R-1) strictly increasing
    location: C.Tensor  # (B, G)

    kind = "ordinal"
    metric = "displacement"
    head_widths = staticmethod(lambda cardinality: (1, cardinality - 1))
    scalar_heads = (True, False)
    summary_fields = (("location", "location"), ("probs", "probs"), ("thresholds", "thresholds"))
    block_rule = staticmethod(np.less_equal)  # thermometer: class r sets slots 0..r

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale: C.Tensor, shift, scale):
        thresholds = C.cumsum(C.clip(C.softplus(raw_scale), lo=GAP_FLOOR), axis=2)
        return cls(thresholds, loc)

    @cached_property
    def probs(self) -> C.Tensor:
        """Adjacent differences of the cdf sigmoid(threshold - location), built on first read."""
        location = self.location
        if location.values.ndim < self.thresholds.values.ndim:  # a block's (B, G)
            location = C.reshape(location, location.values.shape + (1,))
        cdf = C.sigmoid(self.thresholds - location)
        ones = C.constant(np.ones(location.values.shape))
        zeros = C.constant(np.zeros(location.values.shape))
        return C.concat([cdf, ones], axis=-1) - C.concat([zeros, cdf], axis=-1)

    def log_prob(self, x) -> C.Tensor:
        R = self.thresholds.values.shape[-1] + 1
        classes = self._checked(_block(x), R).astype(np.intp)
        return C.cumulative_logit_log_prob(_grouped_tensor(self.thresholds), self.location, classes)


LikelihoodParams = NormalParams | PoissonParams | CategoricalParams  # and their subclasses

KINDS: dict[str, type[LikelihoodParams]] = {
    cls.kind: cls
    for cls in (NormalParams, LogNormalParams, PoissonParams, CategoricalParams, OrdinalParams)
}
