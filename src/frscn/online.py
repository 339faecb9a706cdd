"""Online adaptation of the stacked readout by a recursive projection update.

Theta is updated from streaming samples through the gain matrix H, the
inverse of the accumulated feature outer products plus the c-scaled identity
it is initialized from. A block of samples is absorbed at once through the
matrix-inversion lemma, factored by one small Cholesky decomposition; it gives
the same Theta, H and prior errors as one rank-one update per sample, and no
D x D matrix is ever inverted. Only the readout adapts; rules and reservoir
weights stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import TimeSeriesDataset
from .model import FrscnModel, feature_chunks, replace_readout, stacked_features, stacked_readout

# samples per online_step call in run_online; 32-128 cost within 15% at D = 260
_ONLINE_BLOCK = 64


@dataclass
class OnlineState:
    """Mutable readout-adaptation state; steps are strictly sequential.

    theta: current stacked readout, L x D.
    h: D x D gain matrix (inverse information matrix), symmetric positive
       definite; initialized to (1/c) I.
    a: gain factor in (0, 1]; c: positive initialization constant.
    skipped: samples run_online left out for non-finite features or targets.
    """

    theta: np.ndarray
    h: np.ndarray
    a: float = 1.0
    c: float = 1e-2
    skipped: int = 0
    # D x D buffer the next H is written into; swapped with h on success
    _h_next: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def init_online(model: FrscnModel, a: float = OnlineState.a,
                c: float = OnlineState.c) -> OnlineState:
    """Assemble Theta from the model's readouts and set H to (1/c) I."""
    if not 0 < a <= 1:
        raise ValueError("a must be in (0, 1]")
    if not c > 0:
        raise ValueError("c must be positive")
    theta = stacked_readout(model)
    return OnlineState(theta=theta, h=np.eye(theta.shape[1]) / c, a=a, c=c)


def online_step(st: OnlineState, g_n: np.ndarray, t_n: np.ndarray):
    """Projection update over b samples; returns (state, prior errors e_s).

    g_n is D x b and t_n is L x b, one column per sample in stream order; a
    D vector and an L vector are one sample, and e_s is then an L vector.
    Per sample this is e_s(n) = t(n) - Theta(n-1) G(n),
    H(n) = H(n-1) - H(n-1) G(n) G(n)^T H(n-1) / (1 + G(n)^T H(n-1) G(n)) and
    Theta^T(n) = Theta^T(n-1) + a H(n) G(n) e_s^T(n). For the block,
    I + G^T H G = L_c L_c^T, d = diag(L_c) and L_u = L_c / d:
    (I + a (L_u - I)) E_s^T = (T - Theta G)^T gives the priors,
    Y = L_u^-1 (H G)^T and K^T = Y / d^2 (row n is (H(n) G(n))^T), then
    Theta += a E_s K^T and H -= K Y.
    Non-finite inputs, or an update that would leave Theta or H non-finite,
    are rejected: the state is unchanged and e_s is None.
    """
    g = np.asarray(g_n, dtype=float)
    t = np.asarray(t_n, dtype=float)
    one = g.ndim == 1
    if one:
        g, t = g[:, None], t.reshape(-1, 1)
    if g.shape[0] != st.theta.shape[1]:
        raise ValueError(f"feature vector has {g.shape[0]} entries, expected {st.theta.shape[1]}")
    if t.shape != (st.theta.shape[0], g.shape[1]):
        raise ValueError(f"targets have shape {t.shape}, expected {(st.theta.shape[0], g.shape[1])}")
    if not (np.isfinite(g).all() and np.isfinite(t).all()):
        return st, None

    if st._h_next is None or st._h_next.shape != st.h.shape:
        st._h_next = np.empty_like(st.h)
    h_next = st._h_next
    # an overflowing block is rejected by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        hg = st.h @ g
        m = g.T @ hg
        m.flat[:: m.shape[0] + 1] += 1.0
        try:
            l_c = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return st, None
        d = np.diagonal(l_c)
        l_u = l_c / d
        prior_lhs = st.a * l_u
        prior_lhs.flat[:: m.shape[0] + 1] += 1.0 - st.a
        e_s = np.linalg.solve(prior_lhs, (t - st.theta @ g).T).T
        y = np.linalg.solve(l_u, hg.T)
        k_t = y / (d * d)[:, None]
        theta = st.theta + st.a * (e_s @ k_t)
        # K Y as a gemm of two distinct arrays (X^T X would run as a slower syrk)
        np.matmul(k_t.T, y, out=h_next)
        np.subtract(st.h, h_next, out=h_next)
    if not (np.isfinite(theta).all() and np.isfinite(h_next).all()):
        return st, None
    st.theta, st.h, st._h_next = theta, h_next, st.h
    return st, (e_s[:, 0] if one else e_s)


def run_online(model: FrscnModel, st: OnlineState, ds: TimeSeriesDataset):
    """Stream a dataset through the projection update.

    Sub-reservoir states evolve over every sample, but updates (and the error
    trace) start after the washout. Only Theta adapts, so G is formed from
    predict's chunked rollout. Samples with non-finite features or targets are
    skipped and counted in st.skipped; the rest are fed to online_step
    _ONLINE_BLOCK at a time. A rejected block is replayed one sample at a
    time, and the first sample whose update is rejected raises ValueError
    naming it. On completion the adapted Theta blocks are written back into a
    copy of the model's per-rule readouts. Returns (updated model, error trace
    L x n_updates, the 1-based post-washout sample number of each update), so
    a skipped sample shows as a gap in the sample numbers.
    """
    if ds.n_inputs != model.n_inputs or ds.n_outputs != model.n_outputs:
        raise ValueError(f"model is {model.n_inputs} in / {model.n_outputs} out, "
                         f"data is {ds.n_inputs} in / {ds.n_outputs} out")
    targets = model.normalization.apply_targets(ds.targets)
    trace = np.empty((model.n_outputs, ds.n_samples - ds.washout))
    steps = np.empty(trace.shape[1], dtype=int)
    filled = 0
    for chunk, phi, blocks in feature_chunks(model, ds.inputs):
        start = max(chunk.start, ds.washout)
        g = stacked_features(phi, blocks)[:, start - chunk.start :]
        t = targets[:, start : start + g.shape[1]]
        keep = np.isfinite(g).all(axis=0) & np.isfinite(t).all(axis=0)
        cols = np.flatnonzero(keep)
        if cols.size < keep.size:
            st.skipped += keep.size - cols.size
            g, t = g[:, cols], t[:, cols]
        for j in range(0, cols.size, _ONLINE_BLOCK):
            blk = slice(j, j + _ONLINE_BLOCK)
            _, e_s = online_step(st, g[:, blk], t[:, blk])
            if e_s is None:
                e_s = _replay(st, g[:, blk], t[:, blk], start + cols[blk])
            trace[:, filled : filled + e_s.shape[1]] = e_s
            steps[filled : filled + e_s.shape[1]] = start + cols[blk] - ds.washout + 1
            filled += e_s.shape[1]

    updated = replace_readout(model, st.theta)
    return updated, trace[:, :filled], steps[:filled]


def _replay(st: OnlineState, g: np.ndarray, t: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Feed a rejected block one sample at a time; returns its priors L x b.

    Raises ValueError naming the first sample (1-based) whose update is
    rejected; the state then holds the updates before it.
    """
    e_s = np.empty(t.shape)
    for j in range(g.shape[1]):
        _, e_j = online_step(st, g[:, j], t[:, j])
        if e_j is None:
            raise ValueError(f"online readout diverged at sample {samples[j] + 1} (c={st.c:g})")
        e_s[:, j] = e_j
    return e_s


def contraction_diagnostic(theta_history, theta_ref: np.ndarray) -> np.ndarray:
    """Deviation norms ||Theta(n) - Theta_ref|| over a history of snapshots.

    Pass the true readout as the reference in tests, or the final adapted
    readout in field use, to obtain the convergence curve.
    """
    ref = np.asarray(theta_ref, dtype=float)
    return np.array([float(np.linalg.norm(th - ref)) for th in theta_history])
