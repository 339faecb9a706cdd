"""Fuzzy rule extraction and rule firing.

Rules are Gaussian antecedents over the input space. Centers come from fuzzy
c-means on the training inputs; widths are membership-weighted standard
deviations per dimension, floored to keep the exponentials well conditioned.
Fire strengths are normalized in log space so that products of many Gaussian
memberships cannot underflow to an all-zero rule vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateDataError

# Width floor: 1e-3 of the dimension's training range, 1e-6 absolute if the
# range is zero. Keeps (u - c) / sigma bounded for coincident points.
WIDTH_RANGE_FLOOR = 1e-3
WIDTH_ABS_FLOOR = 1e-6


@dataclass(frozen=True)
class FcmConfig:
    """Fuzzy c-means settings: fuzziness exponent, iteration cap, tolerance."""

    m: float = 2.0
    max_iter: int = 300
    tol: float = 1e-5

    def __post_init__(self):
        if not self.m > 1:
            raise ConfigError("fuzziness exponent m must be > 1")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")


@dataclass(frozen=True)
class FuzzyRuleBank:
    """Q Gaussian rules: centers and strictly positive widths, both Q x K.

    _centers and _widths are the same arrays as Q x K x 1, broadcast once
    against K x n inputs. Inputs with max|u| < unguarded_limit cannot
    overflow the strengths, which unguarded_strengths then computes unguarded.
    """

    centers: np.ndarray
    widths: np.ndarray
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _widths: np.ndarray = field(init=False, repr=False, compare=False)
    unguarded_limit: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        widths = np.atleast_2d(np.asarray(self.widths, dtype=float))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        if centers.shape != widths.shape:
            raise ValueError("centers and widths must have the same shape")
        if centers.shape[0] < 1:
            raise ValueError("need at least one rule")
        if not (widths > 0).all():
            raise ValueError("all widths must be strictly positive")
        object.__setattr__(self, "_centers", centers[:, :, None])
        object.__setattr__(self, "_widths", widths[:, :, None])
        # Below this max|u|, every |z| = |u - c| / w < 1e150, so z^2 cannot
        # overflow; the cap at 1e300 keeps u - c finite for rules wider than 1e150.
        object.__setattr__(self, "unguarded_limit", min(1e150 * float(widths.min()), 1e300)
                           - float(np.abs(centers).max()))

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.centers.shape[1]

    def strengths(self, pts: np.ndarray) -> np.ndarray:
        """fire_strength_matrix of a K x n float array, without conversion."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = (pts - self._centers) / self._widths
            # Both sums run strictly left to right (last partial sum of accumulate):
            # ndarray.sum adds a contiguous run of 8 or more terms pairwise, so a
            # K x 1 input would round differently from one column of a K x n input.
            log_psi = -np.add.accumulate(z**2, axis=1)[:, -1]
            top = log_psi.max(axis=0)
            # one column (a session step) needs no reduction; fmin skips the NaN
            # of a NaN input
            if (top[0] if top.shape[0] == 1 else np.fmin.reduce(top)) == -np.inf:
                # rank the distances with z scaled into [-1, 1]; inf / inf counts as 1
                far = top == -np.inf
                a = np.abs(z[:, :, far])
                a = np.fmin(a / a.max(axis=(0, 1)), 1.0)
                d = np.add.accumulate(a**2, axis=1)[:, -1]
                log_psi[:, far] = np.where(d == d.min(axis=0), 0.0, -np.inf)
                top[far] = 0.0
        stable = np.exp(log_psi - top)
        return stable / np.add.accumulate(stable, axis=0)[-1]

    def unguarded_strengths(self, u: np.ndarray) -> np.ndarray:
        """strengths of one K x 1 column with max|u| < unguarded_limit, bit for
        bit: the same operations in the same order, with no overflow guard."""
        z = u.T - self.centers
        z /= self.widths
        z *= z
        d = np.add.accumulate(z, axis=1)[:, -1:]
        # strengths' (-d) - max(-d) is min(d) - d exactly
        stable = np.exp(np.subtract(d.min(axis=0), d))
        return stable / np.add.accumulate(stable, axis=0)[-1]


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """d2[i, j] = squared distance of point j (K x n) to center i (Q x K)."""
    return ((points[None, :, :] - centers[:, :, None]) ** 2).sum(axis=1)


def _memberships(d2: np.ndarray, m: float) -> np.ndarray:
    """FCM membership matrix, Q x n, from the squared distances d2 (Q x n).

    mu_ij is proportional to (1 / d_ij^2)^(1/(m-1)), normalized over clusters.
    A point at zero distance from one or more centers gets its membership
    split over the coincident centers (1 when unique).
    """
    mu = np.zeros_like(d2)
    zero = d2 <= 0.0
    coincident = zero.any(axis=0)
    reg = np.where(d2 > 0, d2, 1.0) ** (-1.0 / (m - 1.0))
    cols = ~coincident
    mu[:, cols] = reg[:, cols] / reg[:, cols].sum(axis=0, keepdims=True)
    if coincident.any():
        hits = zero[:, coincident]
        mu[:, coincident] = hits / hits.sum(axis=0, keepdims=True)
    return mu


def fcm_objective(points: np.ndarray, centers: np.ndarray, mu: np.ndarray, m: float) -> float:
    """The FCM cost sum_ij mu_ij^m * ||x_j - c_i||^2."""
    return float(((mu**m) * _sq_distances(points, centers)).sum())


def run_fcm(inputs: np.ndarray, q: int, cfg: FcmConfig, seed: int = 0):
    """Low-level FCM: returns (centers, memberships, objective trace).

    Alternates the membership and center updates until the largest center
    displacement drops below cfg.tol or the iteration cap is hit. Centers are
    initialized from q distinct random training points under seed. The trace
    holds fcm_objective at each iteration, the returned pair's last.
    """
    points = np.atleast_2d(np.asarray(inputs, dtype=float))  # K x n
    n = points.shape[1]
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > n:
        raise ValueError(f"cannot extract {q} rules from {n} samples")
    distinct = np.unique(points, axis=1)
    if distinct.shape[1] < q:
        raise DegenerateDataError(
            f"only {distinct.shape[1]} distinct input points; cannot form {q} clusters"
        )

    rng = np.random.default_rng(seed)
    # seed centers from q distinct sample points
    order = rng.permutation(distinct.shape[1])[:q]
    centers = distinct[:, order].T.copy()  # q x K

    trace = []
    converged = False
    while True:
        d2 = _sq_distances(points, centers)
        mu = _memberships(d2, cfg.m)
        w = mu**cfg.m
        trace.append(float((w * d2).sum()))
        if converged or len(trace) > cfg.max_iter:
            return centers, mu, trace
        denom = w.sum(axis=1)
        new_centers = np.where(
            denom[:, None] > 0, (w @ points.T) / np.where(denom > 0, denom, 1.0)[:, None], centers
        )
        converged = np.abs(new_centers - centers).max() < cfg.tol
        centers = new_centers


def fit_fcm(inputs: np.ndarray, q: int, cfg: FcmConfig | None = None,
            seed: int = 0) -> FuzzyRuleBank:
    """Cluster training inputs into q fuzzy rules with data-driven widths;
    the initial centers are drawn under seed."""
    cfg = cfg or FcmConfig()
    points = np.atleast_2d(np.asarray(inputs, dtype=float))
    centers, mu, _ = run_fcm(points, q, cfg, seed)

    dim_range = points.max(axis=1) - points.min(axis=1)
    floor = np.where(dim_range > 0, WIDTH_RANGE_FLOOR * dim_range, WIDTH_ABS_FLOOR)
    widths = np.empty_like(centers)
    for i in range(q):
        w = mu[i]
        total = w.sum()
        if total <= 0:
            widths[i] = floor
            continue
        var = (w * (points - centers[i][:, None]) ** 2).sum(axis=1) / total
        widths[i] = np.maximum(np.sqrt(var), floor)
    return FuzzyRuleBank(centers=centers, widths=widths)


def fire_strengths(bank: FuzzyRuleBank, u: np.ndarray) -> np.ndarray:
    """Normalized fire strengths for one input vector: the one column of
    fire_strength_matrix on it."""
    return bank.strengths(np.asarray(u, dtype=float).reshape(-1, 1))[:, 0]


def fire_strength_matrix(bank: FuzzyRuleBank, inputs: np.ndarray) -> np.ndarray:
    """Normalized fire strengths for a K x n input matrix; returns Q x n.

    Computed in log space: subtract each column's max log strength before
    exponentiating, so even inputs thousands of widths from every center
    yield a finite column that sums to 1. Where every rule's squared distance
    overflows, the nearest rules share the column equally.
    """
    return bank.strengths(np.atleast_2d(np.asarray(inputs, dtype=float)))
