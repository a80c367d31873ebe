"""One class per column kind: the column's rules and its decoded distribution.

    real     NormalParams       Normal(mu, var), fitted on x
    pos      LogNormalParams    log-Normal: Normal moments of ln(x)
    count    PoissonParams      Poisson(rate), fitted on ln(1 + x), rate on the raw scale
    cat      CategoricalParams  softmax over R logits, logit 0 pinned to zero
    ordinal  OrdinalParams      cumulative logit, thresholds strictly increasing

Class attributes and classmethods are the column rules: nominal or not, encoder
width and block (standardized slot, one-hot or thermometer), transform and its
domain, support, CSV cell format, decoder head widths (location, scale) and the
step from head outputs to parameters, missing-cell stand-in, mean/mode baseline
and metric.  ``encode`` and ``from_head`` take the column's normalization shift
and scale, which the nominal kinds ignore.  An instance holds one decoded
distribution per batch row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import compute as C

VAR_FLOOR = 1e-6
RATE_FLOOR = 1e-6
GAP_FLOOR = 1e-6
PROB_FLOOR = 1e-30

LOG_2PI = math.log(2.0 * math.pi)


def _column(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(-1, 1)


class _Kind:
    """Column rules shared by the kinds; the defaults are the numeric kinds'."""

    nominal = False
    support = "a finite value"  # formatted with last = cardinality - 1
    safe_value = 0.0  # in-support stand-in for a missing cell; its term is masked out
    metric = "nrmse"
    format_cell = staticmethod(lambda value: repr(float(value)))
    unsupported = staticmethod(lambda x, cardinality: False)  # x: a float or an array

    @classmethod
    def encoded_width(cls, cardinality: int) -> int:
        return cardinality if cls.nominal else 1

    @classmethod
    def encode(cls, values: np.ndarray, shift, scale, cardinality: int) -> np.ndarray:
        """Encoder block of observed values: the standardized transform."""
        return ((cls.transform(values) - shift) / scale)[:, None]

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


@dataclass(frozen=True)
class NormalParams(_Kind):
    mu: C.Tensor  # (B, 1)
    var: C.Tensor  # (B, 1)

    kind = "real"
    domain = "raw"
    transform = staticmethod(np.positive)  # identity
    head_widths = staticmethod(lambda cardinality: (1, 1))
    summary_keys = ("mean", "var")

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale: C.Tensor, shift, scale):
        raw_var = C.clip(C.softplus(raw_scale), lo=VAR_FLOOR)
        return cls(loc * scale + shift, raw_var * (scale**2))

    def log_prob(self, x) -> C.Tensor:
        diff = C.constant(_column(x)) - self.mu
        return -0.5 * LOG_2PI - 0.5 * C.log(self.var) - diff * diff / (self.var * 2.0)

    def mode(self) -> np.ndarray:
        return self.mu.values[:, 0].copy()

    def sample(self, rng) -> np.ndarray:
        mu, var = self.mu.values[:, 0], self.var.values[:, 0]
        return mu + np.sqrt(var) * rng.standard_normal(mu.shape)

    def summary(self, rows: np.ndarray) -> list[dict]:
        mean_key, var_key = self.summary_keys
        mus, variances = self.mu.values[rows, 0].tolist(), self.var.values[rows, 0].tolist()
        return [{"kind": self.kind, mean_key: mu, var_key: var} for mu, var in zip(mus, variances)]


@dataclass(frozen=True)
class LogNormalParams(NormalParams):
    kind = "pos"
    domain = "log"
    transform = staticmethod(np.log)
    support = "values > 0"
    safe_value = 1.0
    unsupported = staticmethod(lambda x, cardinality: x <= 0)
    summary_keys = ("log_mean", "log_var")

    def log_prob(self, x) -> C.Tensor:
        lx = np.log(self._checked(_column(x)))
        return super().log_prob(lx) - C.constant(lx)  # 1/x Jacobian

    def mode(self) -> np.ndarray:
        # degenerate (unnormalized) models may overflow to inf; keep that visible
        with np.errstate(over="ignore"):
            return np.exp(self.mu.values[:, 0] - self.var.values[:, 0])

    def sample(self, rng) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(super().sample(rng))


@dataclass(frozen=True)
class PoissonParams(_Kind):
    rate: C.Tensor  # (B, 1)

    kind = "count"
    domain = "log1p"
    transform = staticmethod(np.log1p)
    support = "integer values >= 0"
    unsupported = staticmethod(lambda x, cardinality: (x < 0) | (x % 1 != 0))
    format_cell = staticmethod(lambda value: str(int(value)))
    head_widths = staticmethod(lambda cardinality: (1, 0))

    @classmethod
    def baseline(cls, values: np.ndarray, cardinality: int) -> tuple[float, str]:
        return float(np.floor(float(np.mean(values)) + 0.5)), "mean"  # rounded half-up

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale, shift, scale):
        return cls(C.clip(C.softplus(loc), lo=RATE_FLOOR))

    def log_prob(self, x) -> C.Tensor:
        xv = self._checked(_column(x))
        return C.constant(xv) * C.log(self.rate) - self.rate - C.constant(gammaln(xv + 1.0))

    def mode(self) -> np.ndarray:
        return np.floor(self.rate.values[:, 0])

    def sample(self, rng) -> np.ndarray:
        return rng.poisson(self.rate.values[:, 0]).astype(np.float64)

    def summary(self, rows: np.ndarray) -> list[dict]:
        return [{"kind": self.kind, "rate": rate} for rate in self.rate.values[rows, 0].tolist()]


@dataclass(frozen=True)
class CategoricalParams(_Kind):
    probs: C.Tensor  # (B, R) rows on the simplex

    kind = "cat"
    nominal = True
    support = "integer class indices in 0..{last}"
    metric = "accuracy"
    unsupported = staticmethod(lambda x, cardinality: (x % 1 != 0) | (x < 0) | (x >= cardinality))
    format_cell = staticmethod(lambda value: str(int(value)))
    head_widths = staticmethod(lambda cardinality: (cardinality - 1, 0))
    block_rule = staticmethod(np.equal)  # slot j of class r is set where rule(j, r): one-hot

    @classmethod
    def encode(cls, values: np.ndarray, shift, scale, cardinality: int) -> np.ndarray:
        slots, classes = np.arange(cardinality)[None, :], values.astype(np.intp)[:, None]
        return cls.block_rule(slots, classes).astype(np.float64)

    @classmethod
    def baseline(cls, values: np.ndarray, cardinality: int) -> tuple[float, str]:
        counts = np.bincount(values.astype(np.intp), minlength=cardinality)
        return float(np.argmax(counts)), "mode"  # ties to the lowest index

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale, shift, scale):
        zeros = C.constant(np.zeros((loc.values.shape[0], 1)))
        return cls(C.softmax(C.concat([zeros, loc]), axis=1))

    def log_prob(self, x) -> C.Tensor:
        R = self.probs.values.shape[1]
        classes = self._checked(np.asarray(x, dtype=np.intp), R)
        one_hot = CategoricalParams.encode(classes, 0.0, 1.0, R)  # one-hot for ordinals too
        picked = C.log(C.clip(self.probs, lo=PROB_FLOOR)) * C.constant(one_hot)
        return C.tsum(picked, axis=1, keepdims=True)

    def mode(self) -> np.ndarray:
        return np.argmax(self.probs.values, axis=1).astype(np.float64)

    def sample(self, rng) -> np.ndarray:
        probs = self.probs.values
        cdf = np.cumsum(probs, axis=1)
        u = rng.random(probs.shape[0])
        idx = (u[:, None] > cdf).sum(axis=1)
        return np.minimum(idx, probs.shape[1] - 1).astype(np.float64)

    def summary(self, rows: np.ndarray) -> list[dict]:
        return [{"kind": self.kind, "probs": probs} for probs in self.probs.values[rows].tolist()]


@dataclass(frozen=True)
class OrdinalParams(CategoricalParams):
    thresholds: C.Tensor  # (B, R-1) strictly increasing
    location: C.Tensor  # (B, 1)

    kind = "ordinal"
    metric = "displacement"
    head_widths = staticmethod(lambda cardinality: (1, cardinality - 1))
    block_rule = staticmethod(np.less_equal)  # thermometer: class r sets slots 0..r

    @classmethod
    def from_head(cls, loc: C.Tensor, raw_scale: C.Tensor, shift, scale):
        thresholds = C.cumsum(C.clip(C.softplus(raw_scale), lo=GAP_FLOOR), axis=1)
        cdf = C.sigmoid(thresholds - loc)
        B = loc.values.shape[0]
        ones = C.constant(np.ones((B, 1)))
        zeros = C.constant(np.zeros((B, 1)))
        probs = C.concat([cdf, ones]) - C.concat([zeros, cdf])
        return cls(probs, thresholds, loc)

    def summary(self, rows: np.ndarray) -> list[dict]:
        out = super().summary(rows)
        locations = self.location.values[rows, 0].tolist()
        for rec, t, loc in zip(out, self.thresholds.values[rows].tolist(), locations):
            rec.update(thresholds=t, location=loc)
        return out


LikelihoodParams = NormalParams | PoissonParams | CategoricalParams  # and their subclasses

KINDS: dict[str, type[LikelihoodParams]] = {
    cls.kind: cls
    for cls in (NormalParams, LogNormalParams, PoissonParams, CategoricalParams, OrdinalParams)
}
