"""Cluster-index machinery: the summed and sup functionals of the spectral
tail process, closed-form model evaluations, truncated (telescoping)
differences, and the half-space limit measure they determine."""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import OutOfRegimeError, ParameterError, UnsupportedCaseError
from . import models, randkit
from .randkit import RngStream
from .tailstats import Direction, lookup_direction

ROUTE_TAIL_PROCESS = "tail_process"
ROUTE_CLOSED_FORM = "closed_form"
ROUTE_TELESCOPING = "telescoping"
ROUTE_FIRST_STEP = "first_step"
_ROUTES = (ROUTE_TAIL_PROCESS, ROUTE_CLOSED_FORM, ROUTE_TELESCOPING,
           ROUTE_FIRST_STEP)

_CHUNK = 8192  # tail-process replicas per chunk, whatever the thread count


@dataclass
class ClusterIndexEstimate:
    """Point estimate of a cluster-index functional with Monte Carlo error
    and provenance.

    For a plain sample mean, ``std_error`` is the unbiased (ddof=1)
    standard error, which coincides with the delete-one jackknife for a
    sample mean. For a control-variate estimate (the summed tail-process
    routes of a family that knows its tail moments) it is the regression's
    residual standard error, sqrt(M2_res / (n-2) / n); the jackknife
    identity holds for the plain mean only. ``plug_in_se`` is the ddof=0
    variant of either. An estimate that takes no draws (an exact closed
    form) has 0 replicas, horizon 0 and its error bound in both. A
    non-finite value or standard error (a tail index too large for double
    precision) is out of regime.
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


def _moments(vals: np.ndarray, ctrl: np.ndarray = None):
    """(n, mean, M2) of one chunk, M2 the sum of squared deviations; with
    a control's values ``ctrl``, followed by (mean_c, M2_c, C_fc), C_fc
    the sum of products of the two deviations."""
    mean = float(np.mean(vals))
    dev = vals - mean
    out = (vals.size, mean, float(np.dot(dev, dev)))
    if ctrl is None:
        return out
    mean_c = float(np.mean(ctrl))
    dev_c = ctrl - mean_c
    return out + (mean_c, float(np.dot(dev_c, dev_c)),
                  float(np.dot(dev, dev_c)))


def _merge_moments(parts):
    """Fold per-chunk moments (``_moments``) in index order by the
    pairwise update of Chan, Golub & LeVeque (1983), which keeps the
    digits that sum(x^2) - n mean^2 cancels away when the mean is large.
    The co-moment C_fc takes the same update with the product of the two
    mean shifts."""
    n, mean, m2, *co = parts[0]
    for nb, mb, m2b, *cob in parts[1:]:
        total = n + nb
        delta = mb - mean
        mean += delta * nb / total
        m2 += m2b + delta * delta * n * nb / total
        if co:
            (mc, m2c, cfc), (mcb, m2cb, cfcb) = co, cob
            dc = mcb - mc
            co = [mc + dc * nb / total,
                  m2c + (m2cb + dc * dc * n * nb / total),
                  cfc + (cfcb + delta * dc * n * nb / total)]
        n = total
    return (n, mean, m2, *co)


# ---------------------------------------------------------------------------
# Monte Carlo routes over tail-process draws


def _control_power(alpha: float) -> float:
    """Exponent s of the control sum_{t>=1} (theta'Theta_t)_+^s. For
    1 < alpha < 2 the summed functional is about alpha W^(alpha-1), and
    s = alpha - 1 gives the control a finite variance exactly where the
    route has one; alpha/4 otherwise."""
    return alpha - 1.0 if 1.0 < alpha < 2.0 else alpha / 4.0


def _control(proj: np.ndarray, s: float) -> np.ndarray:
    """sum_{t>=1} (theta'Theta_t)_+^s per path."""
    c = np.maximum(proj[:, 1:], 0.0)
    c **= s
    return c.sum(axis=1)


def _mc_functional(spec, theta: Direction, functionals, replicas: int,
                   stream: RngStream, threads: int) -> list:
    """Shared argument checks of the Monte Carlo routes, then one estimate
    per (reduce_paths, route, lag) of ``functionals``, in order, with its
    lag as horizon, from one batch of tail-process draws at the largest
    lag: each reduces the first lag + 1 columns of every block's
    projection on ``theta``, its chunk moments merged in chunk order, and
    at the largest lag has the bits it would have alone on the stream.
    All read the spec's own tail index.

    When the functional is the summed one (``_sum_difference``) and the
    spec knows E c for the control c = sum_{t=1}^{lag} (theta'Theta_t)_+^s
    (``tail_moments``), c is one more reducer on the same blocks and the
    estimate is the regression estimator
    mean_f - beta (mean_c - E c), beta = C_fc / M2_c, with the residual
    sum of squares M2_f - C_fc^2 / M2_c over n - 2 in its standard error
    (Glasserman 2004, section 4.1). Otherwise, or when the control has
    no spread, it is the plain mean (the sup functional gains too little
    from c to pay for it)."""
    horizon = max(lag for *_, lag in functionals)
    if min(lag for *_, lag in functionals) < 0:
        raise ParameterError("horizon must be at least 0")
    if replicas < 100:
        raise ParameterError("replicas must be at least 100")
    alpha = models.tail_index(spec)
    s = _control_power(alpha)
    tv = theta.vector
    reducers, controls = [], []
    for f, _, lag in functionals:  # each reads its lag's prefix
        reducers.append(lambda p, f=f, n=lag + 1: f(p[:, :n], alpha))
        ec = spec.tail_moments(tv, s, lag) if f is _sum_difference else None
        if ec is not None and math.isfinite(ec):
            reducers.append(lambda p, n=lag + 1: _control(p[:, :n], s))
        else:
            ec = None
        controls.append(ec)

    def one(take, sub):
        vals = iter(models.sample_tail_process_batch(
            spec, horizon, take, sub, alpha, tv, reducers))
        return [_moments(next(vals), None if ec is None else next(vals))
                for ec in controls]

    chunks = randkit.map_chunks(one, replicas, _CHUNK, stream, threads)
    return [_estimate(parts, ec, route, lag, replicas)
            for parts, (_, route, lag), ec in zip(zip(*chunks), functionals,
                                                   controls)]


def _estimate(parts, ec, route: str, horizon: int,
              replicas: int) -> ClusterIndexEstimate:
    """The estimate from one functional's chunk moments, merged in chunk
    order: ``_mc_functional``'s regression estimator when they carry a
    control (of mean ``ec``) that spreads, else the plain mean."""
    _, mean, m2, *co = _merge_moments(parts)
    ddof = 1
    if co and 0.0 < co[1] < math.inf:
        mean_c, m2_c, c_fc = co
        mean -= c_fc / m2_c * (mean_c - ec)
        m2 = max(m2 - c_fc * c_fc / m2_c, 0.0)
        ddof = 2
    return ClusterIndexEstimate(
        value=mean, std_error=math.sqrt(m2 / (replicas - ddof) / replicas),
        route=route, horizon=horizon, replicas=replicas,
        plug_in_se=math.sqrt(m2) / replicas)


def _sum_difference(proj: np.ndarray, alpha: float) -> np.ndarray:
    """((sum_{t>=0})_+)^alpha - ((sum_{t>=1})_+)^alpha per path."""
    s_all = proj.sum(axis=1)
    s_tail = s_all - proj[:, 0]
    return np.maximum(s_all, 0.0) ** alpha \
        - np.maximum(s_tail, 0.0) ** alpha


def _sup_difference(proj: np.ndarray, alpha: float) -> np.ndarray:
    """((sup_{t>=0})_+)^alpha - ((sup_{t>=1})_+)^alpha per path."""
    if proj.shape[1] > 1:
        m_tail = proj[:, 1:].max(axis=1)
        m_all = np.maximum(proj[:, 0], m_tail)
    else:
        m_all, m_tail = proj.max(axis=1), np.zeros(proj.shape[0])
    return np.maximum(m_all, 0.0) ** alpha \
        - np.maximum(m_tail, 0.0) ** alpha


def cluster_index_tail_process(spec, theta: Direction, horizon: int,
                               replicas: int,
                               stream: RngStream) -> ClusterIndexEstimate:
    """Monte Carlo cluster index: mean over tail-process draws of
    ((theta' sum_{t<=T})_+)^alpha - ((theta' sum_{1<=t<=T})_+)^alpha, on
    one thread (``tail_process_routes`` is the threaded batch)."""
    return _mc_functional(spec, theta,
                          [(_sum_difference, ROUTE_TAIL_PROCESS, horizon)],
                          replicas, stream, 1)[0]


def first_step_cluster_index(spec, horizon: int, replicas: int,
                             stream: RngStream,
                             threads: int) -> ClusterIndexEstimate:
    """b(1) = b(-1) of a scalar observable from the spec's first-step
    identity: the mean of ``spec.first_step_values`` over ``replicas``
    draws of the rest of the path to ``horizon``, in ``_CHUNK``-replica
    chunks."""
    if horizon < 1:
        raise ParameterError("horizon must be at least 1")
    if replicas < 100:
        raise ParameterError("replicas must be at least 100")
    alpha = models.tail_index(spec)
    if alpha >= 2.0:  # f(U) ~ |U|^(alpha-1) has an infinite variance
        raise OutOfRegimeError(f"the first-step b needs alpha < 2, not "
                               f"alpha = {alpha:.4g}")
    chunks = randkit.map_chunks(
        lambda take, sub: _moments(spec.first_step_values(horizon, take, sub,
                                                          alpha)),
        replicas, _CHUNK, stream, threads)
    return _estimate(chunks, None, ROUTE_FIRST_STEP, horizon, replicas)


def telescoping_difference(spec, theta: Direction, k: int, replicas: int,
                           stream: RngStream) -> ClusterIndexEstimate:
    """The k-truncated difference (horizon k in the summed functional),
    on one thread; converges to the cluster index as k grows."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    return _mc_functional(spec, theta,
                          [(_sum_difference, ROUTE_TELESCOPING, k)],
                          replicas, stream, 1)[0]


def _exact(pair):
    """A draw-free (value, error bound) as a closed-form estimate (0
    replicas, horizon 0, the bound as both standard errors), or None."""
    return None if pair is None else ClusterIndexEstimate(
        *pair, ROUTE_CLOSED_FORM, 0, 0, pair[1])


def extremal_index(spec, theta: Direction, horizon: int, replicas: int,
                   stream: RngStream) -> ClusterIndexEstimate:
    """Sup-version of the cluster functional (the extremal-index analogue):
    a closed form when ``exact_extremal_index`` answers, else Monte Carlo
    on one thread."""
    return _exact(spec.exact_extremal_index(theta.vector)) or _mc_functional(
        spec, theta, [(_sup_difference, ROUTE_TAIL_PROCESS, horizon)],
        replicas, stream, 1)[0]


def tail_process_routes(spec, theta: Direction, horizon: int, k_trunc: int,
                        replicas: int, stream: RngStream, threads: int):
    """[summed route at ``horizon``, telescoping at ``k_trunc``, extremal
    index] from one tail-process batch at the larger lag, each reading
    its prefix of every path (so at k_trunc <= horizon the summed route
    has the bits of ``cluster_index_tail_process``); the extremal index
    is exact when ``exact_extremal_index`` answers, else the sup."""
    if k_trunc < 1:
        raise ParameterError("k must be at least 1")
    exact = _exact(spec.exact_extremal_index(theta.vector))
    functionals = [(_sum_difference, ROUTE_TAIL_PROCESS, horizon),
                   (_sum_difference, ROUTE_TELESCOPING, k_trunc),
                   (_sup_difference, ROUTE_TAIL_PROCESS, horizon)]
    ests = _mc_functional(spec, theta, functionals[:2 if exact else 3],
                          replicas, stream, threads)
    return ests + [exact] if exact else ests


# ---------------------------------------------------------------------------
# closed forms


def closed_form_cluster_index(spec, theta: Direction,
                              replicas: int) -> ClusterIndexEstimate:
    """The spec's ``exact_cluster_index`` at ``theta``: no draws, its
    error bound as standard error, and 0 replicas and horizon 0
    (UnsupportedCaseError for a family whose hook answers None). No
    branch reads ``replicas``: the benchmark tracer counts it as the
    route's budget."""
    est = _exact(spec.exact_cluster_index(theta.vector))
    if est is None:
        raise UnsupportedCaseError(
            f"no closed-form cluster index for {type(spec).__name__}")
    return est
