"""Node-by-node growth of one sub-reservoir under the supervisory test.

Each growth step draws a batch of random candidate nodes, keeps those whose
correlation with the current residual passes the xi inequality, and commits
the best one. The readout is refit globally after every accepted node, so the
residual trace is non-increasing.

Echo-state control: instead of rescaling the whole feedback matrix after
every acceptance (which would perturb already-accepted nodes' states and can
push the refit residual back up), each candidate's feedback row is capped
before screening so that the grown matrix keeps its largest singular value
at or below alpha. Accepted nodes therefore behave exactly as screened,
earlier state rows never change, and the trace is monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .dataset import TimeSeriesDataset
from .reservoir import ACTIVATIONS, SubReservoir, max_singular_value

# Residual comparisons tolerate a relative slack of a few ulps so that the
# monotonicity guard is not tripped by benign rounding in the refit.
_GUARD_RTOL = 1e-12
# Bound on random relaxation rounds after the r schedule is exhausted.
_MAX_TAU_RELAX = 50
# How many top-ranked candidates to try before declaring the batch failed.
_MAX_ACCEPT_TRIES = 3
# Candidate pools rolled out together in one recurrence loop. The loop's cost
# is per-step dispatch, not width, so a batch costs little more than one pool;
# pools after an accepted one are wasted, and each pool adds g_max * n_steps
# floats to the workspace.
_SCREEN_POOLS = 3


@dataclass(frozen=True)
class ScConfig:
    """Supervisory-growth settings.

    lambda_grid is the ascending weight-scale sequence candidates are drawn
    from; r_schedule the ascending contraction levels tried when no candidate
    passes; sparsity_range the connection-density interval for masking
    candidate rows; alpha the spectral scaling factor; epsilon the residual
    F-norm tolerance.
    """

    n_max: int = 100
    g_max: int = 100
    epsilon: float = 1e-6
    lambda_grid: tuple = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)
    r_schedule: tuple = (0.9, 0.99, 0.999, 0.9999)
    sparsity_range: tuple = (0.01, 0.05)
    alpha: float = 0.9
    ridge: float = 0.0
    initial_size: int = 5
    activation: str = "tanh"

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.g_max < 1:
            raise ValueError("g_max must be >= 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid or any(v <= 0 for v in grid) or list(grid) != sorted(grid):
            raise ValueError("lambda_grid must be nonempty, positive, ascending")
        sched = tuple(float(v) for v in self.r_schedule)
        if not sched or any(not 0 < v < 1 for v in sched) or list(sched) != sorted(sched):
            raise ValueError("r_schedule must be ascending values in (0, 1)")
        lo, hi = self.sparsity_range
        if not (0 < lo <= hi < 1):
            raise ValueError("sparsity_range must satisfy 0 < lo <= hi < 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "r_schedule", sched)
        object.__setattr__(self, "sparsity_range", (float(lo), float(hi)))


@dataclass
class TrainReport:
    """Evidence from one sub-reservoir's growth.

    residual_trace[0] is the residual F-norm after the initial readout fit;
    each later entry follows one accepted node. The trace is non-increasing.
    counters["pools_screened"] counts the candidate pools whose xi was
    evaluated; counters["pools_rolled_out"] also counts the pools rolled out
    ahead of an acceptance and discarded unjudged.
    """

    residual_trace: list = field(default_factory=list)
    accepted_lambda: list = field(default_factory=list)
    accepted_xi: list = field(default_factory=list)
    accepted_r: list = field(default_factory=list)
    stop_reason: str = ""
    n_nodes: int = 0
    final_nrmse: float = float("nan")
    ridge_fallbacks: list = field(default_factory=list)
    guard_rejections: int = 0
    counters: dict = field(default_factory=dict)

    def is_monotone(self, slack: float = 1e-10) -> bool:
        t = self.residual_trace
        return all(t[i + 1] <= t[i] + slack for i in range(len(t) - 1))

    def to_dict(self) -> dict:
        return {
            "residual_trace": [float(v) for v in self.residual_trace],
            "accepted_lambda": [float(v) for v in self.accepted_lambda],
            "accepted_xi": [float(v) for v in self.accepted_xi],
            "accepted_r": [float(v) for v in self.accepted_r],
            "stop_reason": self.stop_reason,
            "n_nodes": self.n_nodes,
            "final_nrmse": float(self.final_nrmse),
            "ridge_fallbacks": list(self.ridge_fallbacks),
            "guard_rejections": self.guard_rejections,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainReport":
        return cls(**d)


def evaluate_xi(residual: np.ndarray, candidate_states: np.ndarray, r: float, mu: float):
    """Supervisory scores of candidates against the current residual.

    residual is L x n' and candidate_states G x n' (a 1-D state is one
    candidate), both restricted to post-washout samples. Per candidate g and
    output dimension q:

        xi_q = <e_q, g>^2 / <g, g> - (1 - mu - r) <e_q, e_q>

    Returns (sums over q, shape G; per-dimension scores, G x L). A zero
    candidate state fails the constraint by convention (xi = -inf) rather
    than raising.
    """
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if not 0 <= mu <= 1 - r:
        raise ValueError("mu must satisfy 0 <= mu <= 1 - r")
    e = np.atleast_2d(np.asarray(residual, dtype=float))
    s = np.atleast_2d(np.asarray(candidate_states, dtype=float))
    gg = (s * s).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (s @ e.T) ** 2 / gg[:, None] - (1.0 - mu - r) * (e * e).sum(axis=1)
    xi[gg <= 0.0] = -np.inf
    return xi.sum(axis=1), xi


def fit_readout(
    states: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    ridge: float = 0.0,
    washout: int = 0,
):
    """Least-squares readout over [states; inputs], post-washout columns only.

    Solved by SVD-backed lstsq. A rank-deficient system at ridge zero is
    retried with ridge 1e-8; returns (w_out, fallback_used).
    """
    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    design = np.vstack([states, u])[:, washout:]
    rhs = t[:, washout:]
    n_feat = design.shape[0]

    def solve(reg: float):
        if reg > 0:
            a = np.vstack([design.T, np.sqrt(reg) * np.eye(n_feat)])
            b = np.vstack([rhs.T, np.zeros((n_feat, rhs.shape[0]))])
        else:
            a = design.T
            b = rhs.T
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        return sol.T, rank

    w_out, rank = solve(ridge)
    fallback = False
    if ridge == 0.0 and rank < n_feat:
        w_out, _ = solve(1e-8)
        fallback = True
    return w_out, fallback


def _residual(w_out, states, inputs, targets, washout):
    design = np.vstack([states, np.atleast_2d(inputs)])[:, washout:]
    e = np.atleast_2d(targets)[:, washout:] - w_out @ design
    return e, float(np.linalg.norm(e))


def _masked_uniform(rng, lam, shape, density):
    """Uniform [-lam, lam] draw with entries zeroed at probability 1 - density."""
    vals = rng.uniform(-lam, lam, shape)
    keep = rng.random(shape) < density
    return vals * keep


def _draw_pool(rng, cfg, lam, n_nodes, k, budget):
    """One pool of g_max candidate nodes at weight scale lam: (w_in_c, w_r_c, b_c).

    Each feedback row is norm-capped to budget, so whichever candidate is
    accepted keeps the grown matrix's sigma_max at or below alpha.
    """
    dens = rng.uniform(*cfg.sparsity_range, cfg.g_max)
    w_in_c = rng.uniform(-lam, lam, (cfg.g_max, k))
    w_r_c = _masked_uniform(rng, lam, (cfg.g_max, n_nodes + 1), dens[:, None])
    w_r_c[:, n_nodes] = rng.uniform(-lam, lam, cfg.g_max)
    b_c = rng.uniform(-lam, lam, cfg.g_max)
    norms = np.linalg.norm(w_r_c, axis=1)
    over = norms > budget
    if over.any():
        w_r_c[over] *= (budget / np.where(norms > 0, norms, 1.0))[over, None]
    return w_in_c, w_r_c, b_c


def _candidate_states(res, pools, inputs, state_cache, work, scratch):
    """States of every candidate of every pool: one G x n view per pool.

    All pools advance together in one loop over time, writing into the
    time-major workspace work (n x at least len(pools) * G), so the views
    are valid until the next call; scratch (G x n) holds one pool's
    pre-activations at a time. Exact under triangularity: a new node reads
    only the cached states of accepted nodes plus its own previous state, so
    no full re-rollout is needed during screening.
    """
    g = ACTIVATIONS[res.activation]
    n = res.n_nodes
    n_cand = pools[0][0].shape[0]
    out = work[:, :len(pools) * n_cand]
    cols = [slice(j * n_cand, (j + 1) * n_cand) for j in range(len(pools))]
    for (w_in_c, w_r_c, b_c), col in zip(pools, cols):
        # One product per pool: a single gemm over all pools runs other BLAS
        # kernels and does not reproduce a pool screened alone bit for bit.
        pre = np.matmul(w_in_c, inputs, out=scratch)
        pre += b_c[:, None]
        # feedback reads the accepted nodes' states one step back; x(0) = 0
        pre[:, 1:] += w_r_c[:, :n] @ state_cache[:, :-1]
        out[:, col] = pre.T
    self_w = np.concatenate([w_r_c[:, n] for _, w_r_c, _ in pools])
    x = np.zeros(out.shape[1])
    buf = np.empty(out.shape[1])
    # each step overwrites its pre-activation row with the states it produces
    for row in out:
        np.multiply(self_w, x, out=buf)
        buf += row
        x = g(buf, out=row)
    return [out[:, col].T for col in cols]


def _relaxation_values(r_schedule, rng):
    """Yield r values: the schedule, then random steps toward 1 under the rng."""
    for r in r_schedule:
        yield r
    r = r_schedule[-1]
    for _ in range(_MAX_TAU_RELAX):
        if 1.0 - r <= 1e-9:
            return
        r = r + rng.uniform(0.0, 1.0 - r)
        if r >= 1.0:
            return
        yield r


def _pool_attempts(rng, cfg, n_nodes, k, budget):
    """Yield (lam, r, pool, rng state after the draw) for one node's attempts.

    Weight scales escalate only after the whole relaxation schedule fails at
    the current scale: when the candidate pool at this lambda is empty, r is
    relaxed and a fresh pool is drawn at the same scale. The r values of each
    scale are drawn only when reached, so the rng interleaves them with the
    pool draws. Restoring an attempt's state resumes the rng as if no later
    attempt had been drawn.
    """
    for lam in cfg.lambda_grid:
        for r in _relaxation_values(cfg.r_schedule, rng):
            pool = _draw_pool(rng, cfg, lam, n_nodes, k, budget)
            yield lam, r, pool, rng.bit_generator.state


def train_sub_reservoir(
    train: TimeSeriesDataset,
    cfg: ScConfig,
    seed: int = 0,
    accept_hook=None,
) -> tuple[SubReservoir, TrainReport]:
    """Grow one sub-reservoir on the full target until tolerance or size cap.

    Starts from ``cfg.initial_size`` randomly assigned nodes at the smallest
    weight scale. Each further node walks the (lambda, r) attempts: every
    attempt draws a pool of g_max candidates and scores it with xi; of the
    candidates passing the screen, up to _MAX_ACCEPT_TRIES are tried in xi
    order, and the first whose global readout refit does not raise the
    residual is accepted. Growth stops at tolerance, at n_max, or when every
    attempt fails ("no-candidate"). Candidate feedback rows are norm-capped
    up front so the grown matrix never exceeds the alpha singular-value
    budget; the screened states are therefore exactly the committed states
    and no re-rollout is needed.

    Pools are rolled out _SCREEN_POOLS at a time and judged in attempt order;
    on an acceptance the rng is reset to just after the accepted pool's
    draws, so the result is identical to screening one pool at a time.
    ``accept_hook(prev_residual, candidate_state, r, mu)`` is invoked just
    before each commit, for instrumentation.

    Deterministic: identical (train, cfg, seed) give identical results.
    """
    rng = np.random.default_rng(seed)
    u = train.inputs
    t = train.targets
    washout = train.washout
    k = train.n_inputs

    lam0 = cfg.lambda_grid[0]
    n0 = cfg.initial_size
    density = rng.uniform(*cfg.sparsity_range)
    w_in = rng.uniform(-lam0, lam0, (n0, k))
    w_r = np.tril(_masked_uniform(rng, lam0, (n0, n0), density))
    b = rng.uniform(-lam0, lam0, n0)
    smax = max_singular_value(w_r)
    if smax >= cfg.alpha:
        w_r = w_r * (cfg.alpha / smax)
        smax = cfg.alpha
    res = SubReservoir(w_in=w_in, w_r=w_r, b=b, activation=cfg.activation, alpha=cfg.alpha)

    states = res.rollout(u)
    report = TrainReport()
    w_out, fallback = fit_readout(states, u, t, cfg.ridge, washout)
    if fallback:
        report.ridge_fallbacks.append(res.n_nodes)
    res = replace(res, w_out=w_out)
    resid_mat, resid = _residual(w_out, states, u, t, washout)
    report.residual_trace.append(resid)

    # Buffers reused by every node: the states of one batch of pools, and a
    # G x n scratch for one pool's pre-activations, then for the pool judged.
    work = np.empty((u.shape[1], _SCREEN_POOLS * cfg.g_max))
    scratch = np.empty((cfg.g_max, u.shape[1]))
    counters = report.counters = {"pools_screened": 0, "pools_rolled_out": 0}
    while resid > cfg.epsilon and res.n_nodes < cfg.n_max:
        # Feedback-row budget keeping sigma_max of the grown matrix <= alpha:
        # ||G x||^2 <= (sigma_max^2 + ||row||^2) ||x||^2 for an appended row.
        # The alpha/2 term stops any single node from hoarding the budget.
        budget = min(cfg.alpha / 2.0, np.sqrt(max(cfg.alpha**2 - smax**2, 0.0)))
        attempts = _pool_attempts(rng, cfg, res.n_nodes, k, budget)
        accepted = False
        while not accepted and (batch := list(islice(attempts, _SCREEN_POOLS))):
            counters["pools_rolled_out"] += len(batch)
            cands = _candidate_states(res, [pool for _, _, pool, _ in batch], u, states, work, scratch)
            for (lam, r, (w_in_c, w_r_c, b_c), rng_state), cand in zip(batch, cands):
                counters["pools_screened"] += 1
                # Score the memory layout of a pool rolled out alone: on a
                # strided view of a narrow pool, BLAS can sum <e, g> in another
                # order and move xi in the last bits.
                alone = scratch.reshape(cand.shape[::-1])
                alone[...] = cand.T
                cand = alone.T
                mu = (1.0 - r) / (res.n_nodes + 1)
                xi_total, xi_q = evaluate_xi(resid_mat, cand[:, washout:], r, mu)
                passing = np.isfinite(xi_total) & (xi_q.min(axis=1) >= 0.0)
                ranked = [i for i in np.argsort(xi_total)[::-1] if passing[i]][:_MAX_ACCEPT_TRIES]
                for idx in ranked:
                    grown = res.grow(w_in_c[idx], w_r_c[idx], b_c[idx])
                    new_states = np.vstack([states, cand[idx]])
                    w_out, fallback = fit_readout(new_states, u, t, cfg.ridge, washout)
                    new_resid_mat, new_resid = _residual(w_out, new_states, u, t, washout)
                    if new_resid <= resid * (1.0 + _GUARD_RTOL):
                        break
                    report.guard_rejections += 1
                else:
                    continue  # no candidate passed both the screen and the guard
                # drop the draws of the pools after this one, unjudged
                rng.bit_generator.state = rng_state
                if accept_hook is not None:
                    accept_hook(resid_mat.copy(), cand[idx, washout:].copy(), r, mu)
                if fallback:
                    report.ridge_fallbacks.append(grown.n_nodes)
                res = replace(grown, w_out=w_out)
                smax = max_singular_value(res.w_r)
                states = new_states
                resid_mat, resid = new_resid_mat, new_resid
                report.residual_trace.append(resid)
                report.accepted_lambda.append(lam)
                report.accepted_xi.append(float(xi_total[idx]))
                report.accepted_r.append(r)
                accepted = True
                break
        if not accepted:
            report.stop_reason = "no-candidate"
            break

    if not report.stop_reason:
        report.stop_reason = "tolerance" if resid <= cfg.epsilon else "size-cap"
    report.n_nodes = res.n_nodes

    from .evaluation import nrmse  # deferred: evaluation depends on model
    from .errors import UndefinedMetricError

    t_post = t[:, washout:]
    try:
        report.final_nrmse = nrmse(t_post - resid_mat, t_post, washout=0)
    except UndefinedMetricError:
        report.final_nrmse = float("nan")  # constant target: metric undefined
    return res, report
