"""Node-by-node growth of one sub-reservoir under the supervisory test.

Each growth step screens a fixed number of random candidate pools at one
weight scale, ranks every candidate by its xi score, and commits the best one
that passes the xi inequality at some contraction level r of a fixed ladder
(the best-of-pools rule of SC-III, Wang & Li 2017). The readout is refit
globally after every accepted node, so the residual trace is non-increasing.

Echo-state control: instead of rescaling the whole feedback matrix after
every acceptance (which would perturb already-accepted nodes' states and can
push the refit residual back up), each candidate's feedback row is capped
before screening so that the grown matrix keeps its largest singular value
at or below alpha. Accepted nodes therefore behave exactly as screened,
earlier state rows never change, and the trace is monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import TimeSeriesDataset
from .reservoir import ACTIVATIONS, SubReservoir, max_singular_value

# Residual comparisons tolerate a relative slack of a few ulps so that the
# monotonicity guard is not tripped by benign rounding in the refit.
_GUARD_RTOL = 1e-12
# Candidate pools screened at a weight scale before the best candidate of all
# of them is judged; the smallest count that passes tools/accuracy_gate.py.
# They are rolled out together in one recurrence loop, whose cost is per-step
# dispatch more than width; each pool adds g_max * n_steps floats to the
# workspace.
_POOLS_PER_SCALE = 5
# Top-ranked passing candidates kept per weight scale and tried, in xi order,
# against the residual guard before the scale is raised.
_MAX_ACCEPT_TRIES = 3


@dataclass(frozen=True)
class ScConfig:
    """Supervisory-growth settings.

    g_max is the number of candidates per pool; lambda_grid the ascending
    weight scales candidates are drawn at; r_schedule the first rungs of the
    ladder of reported r values (_r_ladder); sparsity_range the connection
    density interval for candidate rows; alpha the spectral scaling factor;
    epsilon the residual F-norm tolerance.
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
    counters["pools_screened"] counts the candidate pools rolled out and
    scored: _POOLS_PER_SCALE per weight scale tried.
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
    xi = _projections(e, candidate_states) - (1.0 - mu - r) * (e * e).sum(axis=1)
    return xi.sum(axis=1), xi


def _projections(e: np.ndarray, candidate_states) -> np.ndarray:
    """<e_q, g>^2 / <g, g> per candidate (rows) and output (columns); -inf for g = 0."""
    s = np.atleast_2d(np.asarray(candidate_states, dtype=float))
    gg = (s * s).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = (s @ e.T) ** 2 / gg[:, None]
    proj[gg <= 0.0] = -np.inf
    return proj


def _r_ladder(r_schedule: tuple) -> tuple:
    """The r values a node can be accepted at: r_schedule, then each 1 - 10**-k
    (k = 5..9) above its last value."""
    return r_schedule + tuple(r for r in (1.0 - 10.0**-k for k in range(5, 10)) if r > r_schedule[-1])


def _ladder_rungs(e: np.ndarray, proj: np.ndarray, ladder: tuple, n_nodes: int) -> np.ndarray:
    """Per candidate, the index of the smallest ladder r at which it passes the
    xi test with mu = (1 - r)/(n_nodes + 1); len(ladder) where it passes at none.

    Closed form: candidate g passes at r iff (1 - r) N/(N + 1) <= min_q
    <e_q, g>^2 / (<g, g> <e_q, e_q>), where an output with a zero residual
    always passes. proj is _projections(e, candidates).
    """
    energy = (e * e).sum(axis=1)
    live = energy > 0
    cos2 = (proj[:, live] / energy[live]).min(axis=1, initial=np.inf)
    cos2[np.isneginf(proj).any(axis=1)] = -np.inf  # a zero candidate never passes
    thresholds = (1.0 - np.asarray(ladder)) * (n_nodes / (n_nodes + 1))
    # thresholds fall along the ladder: count the rungs still above cos2
    return (thresholds[None, :] > cos2[:, None]).sum(axis=1)


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
    # each step overwrites its pre-activation row with the states it produces;
    # sigmoid's exp(-x) overflows to a 0 state
    with np.errstate(over="ignore"):
        for row in out:
            np.multiply(self_w, x, out=buf)
            buf += row
            x = g(buf, out=row)
    return [out[:, col].T for col in cols]


def train_sub_reservoir(
    train: TimeSeriesDataset,
    cfg: ScConfig,
    seed: int = 0,
    accept_hook=None,
) -> tuple[SubReservoir, TrainReport]:
    """Grow one sub-reservoir on the full target until tolerance or size cap.

    Starts from ``cfg.initial_size`` randomly assigned nodes at the smallest
    weight scale. Each further node tries the weight scales in order. At a
    scale, _POOLS_PER_SCALE pools of g_max candidates are rolled out and
    ranked by their xi sums, whose order does not depend on r. The top
    _MAX_ACCEPT_TRIES candidates that pass the xi test at some rung of the
    r ladder (_r_ladder) are tried in xi order, each at the smallest rung it
    passes; the first whose global readout refit does not raise the residual
    is accepted. The next scale is tried only when no candidate passes or
    every try fails that guard. Growth stops at tolerance, at n_max, or when
    every scale fails ("no-candidate"). Candidate feedback rows are
    norm-capped up front so the grown matrix never exceeds the alpha
    singular-value budget; the screened states are therefore exactly the
    committed states and no re-rollout is needed.

    The pools of a scale are rolled out together in one recurrence loop.
    ``accept_hook(prev_residual, candidate_state, r, mu)`` is invoked just
    before each commit, with the r and mu the candidate was accepted at, for
    instrumentation.

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

    # Buffers reused by every node: the states of one scale's pools, and a
    # G x n scratch for one pool's pre-activations, then for the pool scored.
    work = np.empty((u.shape[1], _POOLS_PER_SCALE * cfg.g_max))
    scratch = np.empty((cfg.g_max, u.shape[1]))
    ladder = _r_ladder(cfg.r_schedule)
    counters = report.counters = {"pools_screened": 0}
    while resid > cfg.epsilon and res.n_nodes < cfg.n_max:
        n = res.n_nodes
        # Feedback-row budget keeping sigma_max of the grown matrix <= alpha:
        # ||G x||^2 <= (sigma_max^2 + ||row||^2) ||x||^2 for an appended row.
        # The alpha/2 term stops any single node from hoarding the budget.
        budget = min(cfg.alpha / 2.0, np.sqrt(max(cfg.alpha**2 - smax**2, 0.0)))
        for lam in cfg.lambda_grid:
            pools = [_draw_pool(rng, cfg, lam, n, k, budget) for _ in range(_POOLS_PER_SCALE)]
            counters["pools_screened"] += len(pools)
            cands = _candidate_states(res, pools, u, states, work, scratch)
            keys, rungs = [], []
            for cand in cands:
                # Score the memory layout of a pool rolled out alone: on a
                # strided view of a narrow pool, BLAS can sum <e, g> in
                # another order and move xi in the last bits.
                alone = scratch.reshape(cand.shape[::-1])
                alone[...] = cand.T
                proj = _projections(resid_mat, alone.T[:, washout:])
                keys.append(proj.sum(axis=1))
                rungs.append(_ladder_rungs(resid_mat, proj, ladder, n))
            keys, rungs = np.concatenate(keys), np.concatenate(rungs)
            passing = np.flatnonzero(rungs < len(ladder))
            # a stable sort: of equal keys, the earlier draw stays first
            for idx in passing[np.argsort(-keys[passing], kind="stable")[:_MAX_ACCEPT_TRIES]]:
                pool, i = divmod(idx, cfg.g_max)
                w_in_c, w_r_c, b_c = pools[pool]
                state = cands[pool][i].copy()
                # confirm the closed form's rung; rounding at a rung's edge may lift it
                for r in ladder[rungs[idx]:]:
                    mu = (1.0 - r) / (n + 1)
                    xi, xi_q = evaluate_xi(resid_mat, state[washout:], r, mu)
                    if xi_q.min() >= 0.0:
                        break
                else:
                    continue
                grown = res.grow(w_in_c[i], w_r_c[i], b_c[i])
                new_states = np.vstack([states, state])
                w_out, fallback = fit_readout(new_states, u, t, cfg.ridge, washout)
                new_resid_mat, new_resid = _residual(w_out, new_states, u, t, washout)
                if new_resid <= resid * (1.0 + _GUARD_RTOL):
                    break
                report.guard_rejections += 1
            else:
                continue  # no candidate at this scale passed both the screen and the guard
            break
        else:
            report.stop_reason = "no-candidate"
            break
        if accept_hook is not None:
            accept_hook(resid_mat.copy(), state[washout:].copy(), r, mu)
        if fallback:
            report.ridge_fallbacks.append(grown.n_nodes)
        res = replace(grown, w_out=w_out)
        smax = max_singular_value(res.w_r)
        states = new_states
        resid_mat, resid = new_resid_mat, new_resid
        report.residual_trace.append(resid)
        report.accepted_lambda.append(lam)
        report.accepted_xi.append(float(xi[0]))
        report.accepted_r.append(r)

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
