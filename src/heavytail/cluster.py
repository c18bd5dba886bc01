"""Cluster-index machinery: the summed and sup functionals of the spectral
tail process, closed-form model evaluations, truncated (telescoping)
differences, and the half-space limit measure they determine."""
from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math

import numpy as np

from .errors import OutOfRegimeError, ParameterError
from . import models, randkit
from .randkit import RngStream
from .tailstats import Direction, lookup_direction

ROUTE_TAIL_PROCESS = "tail_process"
ROUTE_CLOSED_FORM = "closed_form"
ROUTE_TELESCOPING = "telescoping"
_ROUTES = (ROUTE_TAIL_PROCESS, ROUTE_CLOSED_FORM, ROUTE_TELESCOPING)

_CHUNK = 8192  # tail-process replicas per chunk, whatever the thread count


@dataclass
class ClusterIndexEstimate:
    """Point estimate of a cluster-index functional with Monte Carlo error
    and provenance.

    ``std_error`` is the unbiased (ddof=1) standard error of the mean,
    which coincides with the delete-one jackknife for a sample mean;
    ``plug_in_se`` is the ddof=0 variant. A non-finite value or standard
    error (a tail index too large for double precision) is out of
    regime.
    """

    value: float
    std_error: float
    route: str
    horizon: int
    replicas: int
    plug_in_se: float = 0.0

    def __post_init__(self):
        if self.route not in _ROUTES:
            raise ParameterError(f"unknown route {self.route!r}")
        if self.std_error < 0 or self.plug_in_se < 0:
            raise ParameterError("standard errors must be nonnegative")
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise OutOfRegimeError(
                f"{self.route} cluster index is not finite (value "
                f"{self.value}, standard error {self.std_error})")


@dataclass
class LimitMeasureEvaluator:
    """Half-space values of the limit measure: nu(t {x: theta'x > 1}) =
    t^(-alpha) b(theta).

    For integer alpha with an asymmetric pair (b(theta) != b(-theta)) the
    half-space family does not pin down a unique measure extension; such
    directions are listed in ``flagged_directions`` rather than resolved.
    """

    alpha: float
    b_values: dict
    flagged_directions: list = field(default_factory=list)

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError("alpha must be positive")
        store = {}
        for direction, value in self.b_values.items():
            if not isinstance(direction, Direction):
                direction = Direction(direction)
            if value < 0:
                raise ParameterError("b values must be nonnegative")
            store[direction] = float(value)
        self.b_values = store
        self.flagged_directions = list(self.flagged_directions)
        if float(self.alpha).is_integer():
            for direction, value in store.items():
                opposite = store.get(direction.negated())
                if opposite is not None and not math.isclose(
                        value, opposite, rel_tol=1e-6, abs_tol=1e-9):
                    if direction not in self.flagged_directions:
                        self.flagged_directions.append(direction)

    def b_at(self, theta: Direction) -> float:
        return lookup_direction(self.b_values, theta, "b(theta)")


def nu_alpha(evaluator: LimitMeasureEvaluator, theta: Direction,
             t: float) -> float:
    """Half-space mass nu(t {x: theta'x > 1}) = t^(-alpha) b(theta)."""
    if not t > 0:
        raise ParameterError("t must be positive")
    return t ** (-evaluator.alpha) * evaluator.b_at(theta)


# ---------------------------------------------------------------------------
# chunked evaluation


def _moments(vals: np.ndarray):
    """(n, mean, M2) of one chunk, M2 the sum of squared deviations."""
    mean = float(np.mean(vals))
    dev = vals - mean
    return vals.size, mean, float(np.dot(dev, dev))


def _merge_moments(parts):
    """Fold per-chunk (n, mean, M2) in index order by the pairwise update
    of Chan, Golub & LeVeque (1983), which keeps the digits that
    sum(x^2) - n mean^2 cancels away when the mean is large."""
    n, mean, m2 = parts[0]
    for nb, mb, m2b in parts[1:]:
        total = n + nb
        delta = mb - mean
        mean += delta * nb / total
        m2 += m2b + delta * delta * n * nb / total
        n = total
    return n, mean, m2


# ---------------------------------------------------------------------------
# Monte Carlo routes over tail-process draws


def _mc_functional(spec, functionals, alpha: float, horizon: int,
                   replicas: int, stream: RngStream, threads: int,
                   horizon_name: str = "horizon",
                   least_horizon: int = 0) -> list:
    """Shared argument checks of the Monte Carlo routes, then per-path
    functionals of one batch of the spec's tail-process draws.
    ``functionals`` lists (theta, reduce_paths, route). Each fixed-size
    chunk is drawn and reduced block by block in ``models``: a block's
    projection on theta goes straight to reduce_paths, and the chunk's
    per-path values to (n, mean, M2), merged in chunk order. The tail
    process does not depend on theta, so every functional reads the same
    draws, and each estimate has the bits it would have alone on the same
    stream. One estimate per functional, in order."""
    if horizon < least_horizon:
        raise ParameterError(
            f"{horizon_name} must be at least {least_horizon}")
    if replicas < 100:
        raise ParameterError("replicas must be at least 100")
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    spec_alpha = models.tail_index(spec)
    reducers = [(theta.vector, functools.partial(reduce_paths, alpha=alpha))
                for theta, reduce_paths, _ in functionals]

    def one(i):
        take = min(_CHUNK, replicas - i * _CHUNK)
        vals = models.sample_tail_process_batch(
            spec, horizon, take, stream.substream(i), spec_alpha, reducers)
        return [_moments(v) for v in vals]

    n_chunks = -(-replicas // _CHUNK)
    chunks = randkit._map_chunks(one, n_chunks, threads)
    out = []
    for j, (_, _, route) in enumerate(functionals):
        _, mean, m2 = _merge_moments([parts[j] for parts in chunks])
        se_plug = math.sqrt(m2) / replicas
        se = math.sqrt(m2 / (replicas - 1) / replicas)
        out.append(ClusterIndexEstimate(value=mean, std_error=se,
                                        route=route, horizon=horizon,
                                        replicas=replicas,
                                        plug_in_se=se_plug))
    return out


def _sum_difference(proj: np.ndarray, alpha: float) -> np.ndarray:
    """((sum_{t>=0})_+)^alpha - ((sum_{t>=1})_+)^alpha per path."""
    s_all = proj.sum(axis=1)
    s_tail = s_all - proj[:, 0]
    return np.maximum(s_all, 0.0) ** alpha \
        - np.maximum(s_tail, 0.0) ** alpha


def _sup_difference(proj: np.ndarray, alpha: float) -> np.ndarray:
    """((sup_{t>=0})_+)^alpha - ((sup_{t>=1})_+)^alpha per path."""
    m_all = proj.max(axis=1)
    if proj.shape[1] > 1:
        m_tail = proj[:, 1:].max(axis=1)
    else:
        m_tail = np.zeros(proj.shape[0])
    return np.maximum(m_all, 0.0) ** alpha \
        - np.maximum(m_tail, 0.0) ** alpha


def _check_signs(signs):
    if not signs or any(s not in (1, -1) for s in signs):
        raise ParameterError(f"signs must be a nonempty list of +1 and -1 "
                             f"(got {signs!r})")


def cluster_index_tail_process(spec, theta: Direction, alpha: float,
                               horizon: int, replicas: int,
                               stream: RngStream, threads: int = 1,
                               signs=None):
    """Monte Carlo cluster index: mean over tail-process draws of
    ((theta' sum_{t<=T})_+)^alpha - ((theta' sum_{1<=t<=T})_+)^alpha.

    With ``signs`` (a list of +1 and -1) it returns a list: the estimate
    at s * theta for each s, all reduced from one batch of draws. The tail
    process does not depend on the direction, so each has the bits of the
    call at s * theta alone on the same stream."""
    if signs is None:
        thetas = [theta]
    else:
        _check_signs(signs)
        thetas = [theta if s == 1 else theta.negated() for s in signs]
    ests = _mc_functional(
        spec, [(th, _sum_difference, ROUTE_TAIL_PROCESS) for th in thetas],
        alpha, horizon, replicas, stream, threads)
    return ests[0] if signs is None else ests


def telescoping_difference(spec, theta: Direction, alpha: float, k: int,
                           replicas: int, stream: RngStream,
                           threads: int = 1) -> ClusterIndexEstimate:
    """The k-truncated difference (horizon k in the summed functional);
    converges to the cluster index as k grows."""
    return _mc_functional(spec, [(theta, _sum_difference, ROUTE_TELESCOPING)],
                          alpha, k, replicas, stream, threads,
                          horizon_name="k", least_horizon=1)[0]


def extremal_index(spec, theta: Direction, alpha: float, horizon: int,
                   replicas: int, stream: RngStream,
                   threads: int = 1) -> ClusterIndexEstimate:
    """Sup-version of the cluster functional (the extremal-index
    analogue)."""
    return _mc_functional(spec, [(theta, _sup_difference, ROUTE_TAIL_PROCESS)],
                          alpha, horizon, replicas, stream, threads)[0]


# ---------------------------------------------------------------------------
# closed forms


def closed_form_cluster_index(spec, theta: Direction, replicas: int,
                              stream: RngStream, threads: int = 1,
                              signs=None):
    """Model-specific closed form, Monte Carlo only over Theta_0 (and the
    recurrence's multipliers).

    Linear model: E[(theta'(I-A)^{-1} Theta_0)_+^alpha
                    - (theta'A(I-A)^{-1} Theta_0)_+^alpha].
    Scalar recurrence: E[(theta (W+1) Theta_0)_+^alpha
                         - (theta W Theta_0)_+^alpha] with W the
    stationary solution of W_k = (W_{k-1} + 1) A_k, run for the spec's
    ``aux_horizon`` steps. Other models raise UnsupportedCaseError.

    With ``signs`` (a list of +1 and -1) it returns a list: the estimate
    at s * theta for each s, from one ``closed_form_terms`` call. Its
    projections u and w are linear in theta and negation is exact, so
    (s u, s w) are the bits of the terms at s * theta.
    """
    if replicas < 1:
        raise ParameterError("replicas must be at least 1")
    if signs is not None:
        _check_signs(signs)
    u, w, horizon = spec.closed_form_terms(theta.vector, replicas, stream,
                                           threads)
    if signs is None:
        return _closed_form_estimate(spec, u, w, horizon)
    return [_closed_form_estimate(spec, s * u, s * w, horizon)
            for s in signs]


def _closed_form_estimate(spec, u: np.ndarray, w: np.ndarray,
                          horizon: int) -> ClusterIndexEstimate:
    """Mean and standard errors of u_+^alpha - w_+^alpha over the
    replicas of ``spec.closed_form_terms``."""
    alpha = models.tail_index(spec)
    vals = np.maximum(u, 0.0) ** alpha - np.maximum(w, 0.0) ** alpha
    mean = float(np.mean(vals))
    if vals.size > 1:
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        se_plug = float(np.std(vals, ddof=0) / math.sqrt(vals.size))
    else:
        se = se_plug = 0.0
    return ClusterIndexEstimate(value=mean, std_error=se,
                                route=ROUTE_CLOSED_FORM, horizon=horizon,
                                replicas=vals.size, plug_in_se=se_plug)
