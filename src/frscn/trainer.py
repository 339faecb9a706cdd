"""Node-by-node growth of one sub-reservoir under the supervisory test.

Each growth step screens a fixed number of random candidate pools at one
weight scale as one stacked batch, ranks every candidate by its xi score, and
commits the best one that passes the xi inequality at some contraction level
r of a fixed ladder (the best-of-pools rule of SC-III, Wang & Li 2017). One
table of evaluate_xi's scores, every candidate at every rung, decides which
candidates pass and at which r. A tanh batch is screened in float32; each
candidate tried is rolled out again in float64, and that rollout, scored by
the same table, is the one committed, with the r, mu and xi it reports. The
global least-squares readout grows with the nodes: each tried node appends
one column to an orthonormal basis of the design (classical Gram-Schmidt,
reorthogonalized once), so the residual trace is non-increasing. The basis
also makes the initial fit, and the readout is solved once, at the end.

Echo-state control: instead of rescaling the whole feedback matrix after
every acceptance (which would perturb already-accepted nodes' states and can
push the refit residual back up), each candidate's feedback row is capped
before screening so that the grown matrix keeps its largest singular value
at or below alpha. Accepted nodes therefore keep the states they were
committed with, earlier state rows never change, and the trace is monotone
by construction.
A rule's states live only in its time-major design [u(t), 1, x(t-1)], its
weights only in one store of rows in that column order: one product of the
design with a batch of such rows screens a weight scale's candidates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import TimeSeriesDataset
from .reservoir import ACTIVATIONS, SubReservoir, max_singular_value

# Residual comparisons tolerate a relative slack of a few ulps so that the
# monotonicity guard is not tripped by benign rounding in the residual update.
_GUARD_RTOL = 1e-12
# Candidate pools drawn at a weight scale, in order, and stacked into one batch
# whose best candidate is judged; the smallest count that passes
# tools/accuracy_gate.py. The batch gets its pre-activations from one product
# with the rule's design and is rolled out in one recurrence loop, whose cost
# is per-step dispatch more than width; each pool adds g_max * n_steps floats
# to the workspace.
_POOLS_PER_SCALE = 5
# Top-ranked passing candidates kept per weight scale and tried, in xi order,
# against the residual guard before the scale is raised.
_MAX_ACCEPT_TRIES = 3
# fit_readout's retry ridge for a rank-deficient design at ridge zero
_FALLBACK_RIDGE = 1e-8
# Activations screened in float32, each with the scalar function that rolls a
# tried candidate out again in float64. A sigmoid state falls below float32's
# range (about 1e-38) wherever its pre-activation is under about -87, where xi,
# blind to scale, still ranks the candidate in float64. So sigmoid screens in
# float64, and its screened states are the committed ones.
_FLOAT32_SCREENS = {"tanh": math.tanh}


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
        if self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        check_reservoir_settings(self)
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "r_schedule", sched)
        object.__setattr__(self, "sparsity_range", tuple(float(v) for v in self.sparsity_range))


def check_reservoir_settings(cfg):
    """Check the settings that ScConfig and model.EsnConfig share."""
    lo, hi = cfg.sparsity_range
    if not (0 < lo <= hi < 1):
        raise ValueError("sparsity_range must satisfy 0 < lo <= hi < 1")
    if not 0 < cfg.alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if cfg.ridge < 0:
        raise ValueError("ridge must be >= 0")
    if cfg.activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {cfg.activation!r}")


@dataclass
class TrainReport:
    """Evidence from one sub-reservoir's growth.

    residual_trace[0] is the residual F-norm after the initial readout fit;
    each later entry follows one accepted node. The trace is non-increasing.
    counters["pools_screened"] counts the candidate pools rolled out and
    scored: _POOLS_PER_SCALE per weight scale tried. tanh pools are screened
    in float32, so a screened candidate's states are not the committed bits:
    each candidate tried is rolled out again in float64, and the rung, r, mu
    and xi reported are those of the committed states (sigmoid screens in
    float64 and commits its screened states). counters["screen_rung_moves"] counts
    the tries whose float64 rung differs from the screened one; a try that
    passes no rung in float64 is skipped. Near the edge of its rung, xi's two
    terms cancel, so accepted_xi keeps few digits: 2-3 for sigmoid rules, and a
    rounding-level change in the residual has moved tanh values by up to 2.4e-5.
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

    def to_dict(self) -> dict:
        return asdict(self)


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
    e = np.atleast_2d(np.asarray(residual, dtype=float))
    xi = _xi(_projections(e, candidate_states), (e * e).sum(axis=1), r, mu)
    return xi.sum(axis=1), xi


def _xi(proj: np.ndarray, energy: np.ndarray, r: float, mu: float) -> np.ndarray:
    """evaluate_xi's per-output scores from _projections and each output's <e_q, e_q>."""
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if not 0 <= mu <= 1 - r:
        raise ValueError("mu must satisfy 0 <= mu <= 1 - r")
    return proj - (1.0 - mu - r) * energy


def _projections(e: np.ndarray, candidate_states) -> np.ndarray:
    """<e_q, g>^2 / <g, g> per candidate (rows) and output (columns); -inf for g = 0.

    The products <e_q, g> run in the states' precision, float32 states in
    float32, against e divided by the power of two that brings its largest
    entry into [0.5, 1): exact, and safe from float32's range whatever e's
    scale. They are squared and scaled back in float64.
    """
    s = np.atleast_2d(np.asarray(candidate_states))
    s = s.astype(np.result_type(s.dtype, np.float32), copy=False)
    scale = np.ldexp(1.0, np.frexp(np.abs(e).max(initial=0.0))[1])
    gg = np.einsum("ij,ij->i", s, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = (s @ (e / scale).T.astype(s.dtype)).astype(float) ** 2 * scale**2 / gg[:, None]
    proj[gg <= 0.0] = -np.inf
    return proj


def _r_ladder(r_schedule: tuple) -> tuple:
    """The r values a node can be accepted at: r_schedule, then each 1 - 10**-k
    (k = 5..9) above its last value."""
    return r_schedule + tuple(r for r in (1.0 - 10.0**-k for k in range(5, 10)) if r > r_schedule[-1])


def _xi_table(e: np.ndarray, proj: np.ndarray, ladder: tuple, n_nodes: int):
    """evaluate_xi at every rung r of the ladder, with mu = (1 - r)/(n_nodes + 1).

    proj is _projections(e, candidates). Returns (xi sums, len(ladder) x G;
    per candidate, the index of the smallest rung at which every output's xi
    is >= 0, len(ladder) where there is none).
    """
    energy = (e * e).sum(axis=1)
    xi_q = np.stack([_xi(proj, energy, r, (1.0 - r) / (n_nodes + 1)) for r in ladder])
    passes = xi_q.min(axis=2) >= 0.0
    rungs = np.where(passes.any(axis=0), passes.argmax(axis=0), len(ladder))
    return xi_q.sum(axis=2), rungs


def fit_readout(
    states: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    ridge: float = 0.0,
    washout: int = 0,
):
    """Least-squares readout over [states; inputs], post-washout columns only.

    Solved by SVD-backed lstsq. A rank-deficient system at ridge zero is
    retried with ridge _FALLBACK_RIDGE; returns (w_out, fallback_used).
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
        w_out, _ = solve(_FALLBACK_RIDGE)
        fallback = True
    return w_out, fallback


def _masked_uniform(rng, lam, shape, density):
    """Uniform [-lam, lam] draw with entries zeroed at probability 1 - density."""
    vals = rng.uniform(-lam, lam, shape)
    keep = rng.random(shape) < density
    return vals * keep


def _draw_pool(rng, cfg, lam, k, budget, out):
    """Draw one pool of g_max candidate nodes at weight scale lam into out.

    out is the pool's g_max rows of a scale's batch, K + 2 + n wide: row i
    holds candidate i's [w_in (K), b, feedback to the n accepted nodes, own
    weight], the design's column order with the own weight last. Each
    feedback row is norm-capped to budget, so whichever candidate is
    accepted keeps the grown matrix's sigma_max at or below alpha.
    """
    dens = rng.uniform(*cfg.sparsity_range, cfg.g_max)
    out[:, :k] = rng.uniform(-lam, lam, (cfg.g_max, k))
    w_r = out[:, k + 1 :]
    w_r[:] = _masked_uniform(rng, lam, w_r.shape, dens[:, None])
    w_r[:, -1] = rng.uniform(-lam, lam, cfg.g_max)
    out[:, k] = rng.uniform(-lam, lam, cfg.g_max)
    norms = np.linalg.norm(w_r, axis=1)
    over = norms > budget  # budget >= 0, so these norms are positive
    w_r[over] *= budget / norms[over, None]


def _candidate_states(cands, activation, design, work):
    """States of every candidate of a batch: a T x G view of work, in its dtype.

    Row i of cands (G x K + 2 + n) holds candidate i's weights in the
    design's column order, its own feedback weight last. design is the
    rule's time-major [u(t), 1, x(t-1)] (T x at least K + 1 + n), so one
    product of its first K + 1 + n columns with all but the batch's last
    column gives every candidate's pre-activations; the candidates then
    advance together in one loop over time. The product and the loop run in
    work's dtype, to which both operands are cast. Exact under triangularity:
    a new node reads only the accepted nodes' states plus its own previous
    state, so no full re-rollout is needed during screening. The view is
    valid until the next call.
    """
    g = ACTIVATIONS[activation]
    weights = cands[:, :-1].astype(work.dtype)
    out = np.matmul(design[:, :weights.shape[1]].astype(work.dtype), weights.T,
                    out=work[:, :weights.shape[0]])
    self_w = cands[:, -1].astype(work.dtype)  # contiguous: read at every step
    x = np.zeros(out.shape[1], work.dtype)
    buf = np.empty(out.shape[1], work.dtype)
    # each step overwrites its pre-activation row with the states it produces;
    # sigmoid's exp(-x) overflows to a 0 state
    with np.errstate(over="ignore"):
        for row in out:
            np.multiply(self_w, x, out=buf)
            buf += row
            x = g(buf, out=row)
    return out


def _candidate_rollout(cand, g, design, out) -> None:
    """One candidate's states in float64 under the scalar activation g, into out (length T).

    cand and design are as in _candidate_states: one product of the design
    with the candidate's row, then its scalar recurrence, stepped in Python
    floats (a width-1 numpy loop costs about 15 times as much).
    """
    w = float(cand[-1])
    x = 0.0
    states = []
    for p in (design[:, :len(cand) - 1] @ cand[:-1]).tolist():
        x = g(w * x + p)
        states.append(x)
    out[:] = states


class _QrReadout:
    """A rule's least-squares readout residual, grown by appending design columns to a QR basis.

    Row j of basis is the j-th orthonormal vector of the post-washout design
    [states, inputs] over sqrt(ridge) I (design column j has sqrt(ridge) in
    row t_len + j), zero-padded to t_len + capacity entries. resid is the
    targets' residual against their span over the same rows (L x those
    rows); its first t_len columns are the readout's error on the series.
    """

    def __init__(self, features, targets, ridge, capacity):
        """The fit of targets (L x T') on features (T' x m) at ridge; at ridge zero,
        features that lstsq's rank rule finds deficient take _FALLBACK_RIDGE."""
        t_len, m = features.shape
        self.target = np.zeros((len(targets), t_len + capacity))
        self.target[:, :t_len] = targets
        self.basis = np.zeros((capacity, t_len + capacity))
        if ridge == 0.0 and np.linalg.matrix_rank(features) < m:
            ridge = _FALLBACK_RIDGE
        self.basis[:m], self.resid = self._fit(features, ridge)
        self.t_len, self.m, self.ridge = t_len, m, ridge
        self.design_sq = float(np.sum(features**2))  # squared F-norm, >= sigma_max^2

    def _fit(self, features, ridge):
        """(basis rows, resid) at ridge, from scratch: a Householder QR of features
        (T' x m) over sqrt(ridge) I, zero-padded, and the targets' projection on it."""
        t_len, m = features.shape
        a = np.zeros((self.basis.shape[1], m))
        a[:t_len] = features
        a[t_len : t_len + m] = math.sqrt(ridge) * np.eye(m)
        rows = np.linalg.qr(a)[0].T
        return rows, self.target - (self.target @ rows.T) @ rows

    def append(self, column, features):
        """Try column (length T') as design column m: returns the data residual's
        F-norm with it and a function that keeps it.

        The column is orthogonalized by classical Gram-Schmidt, reorthogonalized
        once, and the residual e loses its projection (e q) q on the new vector.
        At ridge zero, a column left below lstsq's rank threshold (confirmed by
        lstsq's own rule, on features(), the design with the column) takes
        fit_readout's fallback: the basis is rebuilt at _FALLBACK_RIDGE, and a
        kept column leaves the rule there.
        """
        t_len, m, basis = self.t_len, self.m, self.basis[: self.m]
        col = np.zeros(basis.shape[1])
        col[:t_len] = column
        col[t_len + m] = math.sqrt(self.ridge)
        col_sq = column @ column
        for _ in range(2):
            col -= (basis @ col) @ basis
        norm = np.linalg.norm(col)
        # lstsq's threshold, at the Frobenius bound on sigma_max
        threshold = np.finfo(float).eps * max(t_len, m + 1) * math.sqrt(self.design_sq + col_sq)
        if self.ridge == 0.0 and norm <= threshold and np.linalg.matrix_rank(features()) < m + 1:
            ridge, first = _FALLBACK_RIDGE, 0
            rows, resid = self._fit(features(), ridge)
        else:
            ridge, first = self.ridge, m
            rows = col / norm
            resid = self.resid - np.outer(self.resid @ rows, rows)

        def keep():
            self.basis[first : m + 1] = rows
            self.resid, self.m, self.ridge = resid, m + 1, ridge
            self.design_sq += col_sq

        return float(np.linalg.norm(resid[:, :t_len])), keep


def train_sub_reservoir(
    train: TimeSeriesDataset,
    cfg: ScConfig,
    seed: int = 0,
    accept_hook=None,
) -> tuple[SubReservoir, TrainReport]:
    """Grow one sub-reservoir on the full target until tolerance or size cap.

    Starts from min(initial_size, n_max) randomly assigned nodes at the
    smallest weight scale. Each further node tries the weight scales in
    order. At a scale, _POOLS_PER_SCALE pools of g_max candidates are drawn,
    stacked into one batch, rolled out (in float32 for tanh) and ranked by
    their xi sums, whose order does not depend on r. One table holds
    evaluate_xi's scores of the batch at every rung of the r ladder
    (_r_ladder). The top _MAX_ACCEPT_TRIES candidates that pass at some rung
    are tried in xi order. A float32-screened try is rolled out again in
    float64. The same table, on a try's float64 states, gives its smallest
    passing rung; a try that passes none is skipped. The first try whose
    readout does not raise the residual is accepted, with the r, mu and xi
    of its float64 rung. The next scale is tried only when no
    candidate passes or every try fails. Growth stops at tolerance, at
    n_max, or when every scale fails ("no-candidate"). Candidate feedback
    rows are norm-capped up front so the grown matrix never exceeds the
    alpha singular-value budget: no accepted node is rolled out again.

    The rule's states live only in its design (T + 1 x K + 1 + n_max). Its
    first T rows give a scale's batch its pre-activations in one product;
    each try writes its float64 states into the next state column. Its
    weights live in one store whose row i is node i's [w_in, b, w_r row];
    an accepted candidate's batch row becomes the next row. _QrReadout fits
    the initial nodes and keeps the readout's residual as tries append their
    columns; w_out is solved by fit_readout once, at the end.
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

    # node i's [w_in, b, w_r row] in row i; entries past the accepted nodes stay zero
    weights = np.zeros((cfg.n_max, k + 1 + cfg.n_max))
    w_in, b, w_r = weights[:, :k], weights[:, k], weights[:, k + 1 :]

    def reservoir(n, w_out=None):
        return SubReservoir(w_in=w_in[:n], w_r=w_r[:n, :n], b=b[:n], w_out=w_out,
                            activation=cfg.activation, alpha=cfg.alpha)

    lam0 = cfg.lambda_grid[0]
    n = min(cfg.initial_size, cfg.n_max)
    density = rng.uniform(*cfg.sparsity_range)
    w_in[:n] = rng.uniform(-lam0, lam0, (n, k))
    w_r[:n, :n] = np.tril(_masked_uniform(rng, lam0, (n, n), density))
    b[:n] = rng.uniform(-lam0, lam0, n)
    smax = max_singular_value(w_r[:n, :n])
    if smax >= cfg.alpha:
        w_r[:n, :n] *= cfg.alpha / smax
        smax = cfg.alpha

    # Buffers reused by every node: the design [u(t), 1, x(t-1)] with x(-1) = 0,
    # one row past the series so that nodes[t] = x(t), and the screening workspace.
    design = np.zeros((u.shape[1] + 1, k + 1 + cfg.n_max))
    design[:-1, :k] = u.T
    design[:-1, k] = 1.0
    nodes = design[1:, k + 1 :]
    nodes[:, :n] = reservoir(n).rollout(u).T
    work = np.empty((u.shape[1], _POOLS_PER_SCALE * cfg.g_max),
                    np.float32 if cfg.activation in _FLOAT32_SCREENS else np.float64)

    def features(n_nodes):  # the post-washout design [states, inputs], T' x n_nodes + K
        return np.hstack([nodes[washout:, :n_nodes], u[:, washout:].T])

    report = TrainReport()
    readout = _QrReadout(features(n), t[:, washout:], cfg.ridge, k + cfg.n_max)
    if readout.ridge != cfg.ridge:
        report.ridge_fallbacks.append(n)
    resid_mat = readout.resid[:, : readout.t_len]
    resid = float(np.linalg.norm(resid_mat))
    report.residual_trace.append(resid)
    ladder = _r_ladder(cfg.r_schedule)
    counters = report.counters = {"pools_screened": 0, "screen_rung_moves": 0}
    while resid > cfg.epsilon and n < cfg.n_max:
        # Feedback-row budget keeping sigma_max of the grown matrix <= alpha:
        # ||G x||^2 <= (sigma_max^2 + ||row||^2) ||x||^2 for an appended row.
        # The alpha/2 term stops any single node from hoarding the budget.
        budget = min(cfg.alpha / 2.0, np.sqrt(max(cfg.alpha**2 - smax**2, 0.0)))
        batch = np.empty((_POOLS_PER_SCALE * cfg.g_max, k + 2 + n))
        for lam in cfg.lambda_grid:
            for pool in np.split(batch, _POOLS_PER_SCALE):
                _draw_pool(rng, cfg, lam, k, budget, pool)
            counters["pools_screened"] += _POOLS_PER_SCALE
            cands = _candidate_states(batch, cfg.activation, design[:-1], work)
            proj = _projections(resid_mat, cands[washout:].T)
            keys = proj.sum(axis=1)
            rungs = _xi_table(resid_mat, proj, ladder, n)[1]
            passing = np.flatnonzero(rungs < len(ladder))
            # a stable sort: of equal keys, the earlier draw stays first
            for idx in passing[np.argsort(-keys[passing], kind="stable")[:_MAX_ACCEPT_TRIES]]:
                # a skipped or rejected try's column is overwritten or unread
                if work.dtype == np.float64:
                    nodes[:, n] = cands[:, idx]
                else:
                    _candidate_rollout(batch[idx], _FLOAT32_SCREENS[cfg.activation], design[:-1],
                                       nodes[:, n])
                proj_try = _projections(resid_mat, nodes[washout:, n])
                xi_sums, (rung,) = _xi_table(resid_mat, proj_try, ladder, n)
                counters["screen_rung_moves"] += int(rung != rungs[idx])
                if rung == len(ladder):
                    continue
                new_resid, keep = readout.append(nodes[washout:, n], lambda: features(n + 1))
                if new_resid <= resid * (1.0 + _GUARD_RTOL):
                    break
                report.guard_rejections += 1
            else:
                continue  # no candidate at this scale passed the screen, the check and the guard
            break
        else:
            report.stop_reason = "no-candidate"
            break
        r = ladder[rung]
        mu = (1.0 - r) / (n + 1)
        if accept_hook is not None:
            accept_hook(resid_mat.copy(), nodes[washout:, n].copy(), r, mu)
        keep()
        if readout.ridge != cfg.ridge:
            report.ridge_fallbacks.append(n + 1)
        weights[n, : k + 2 + n] = batch[idx]
        n += 1
        smax = max_singular_value(w_r[:n, :n])
        resid = new_resid
        resid_mat = readout.resid[:, : readout.t_len]
        report.residual_trace.append(resid)
        report.accepted_lambda.append(lam)
        report.accepted_xi.append(float(xi_sums[rung, 0]))
        report.accepted_r.append(r)

    if not report.stop_reason:
        report.stop_reason = "tolerance" if resid <= cfg.epsilon else "size-cap"
    report.n_nodes = n
    w_out, _ = fit_readout(nodes[:, :n].T, u, t, cfg.ridge, washout)

    from .evaluation import nrmse  # deferred: evaluation depends on model
    from .errors import UndefinedMetricError

    t_post = t[:, washout:]
    try:
        report.final_nrmse = nrmse(t_post - resid_mat, t_post, washout=0)
    except UndefinedMetricError:
        report.final_nrmse = float("nan")  # constant target: metric undefined
    return reservoir(n, w_out), report
