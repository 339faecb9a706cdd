"""Online adaptation of the stacked readout by a recursive projection update.

Theta is updated from streaming samples through the gain matrix H, the
inverse of the accumulated feature outer products plus the c-scaled identity
it is initialized from. Each step applies the rank-one inverse-update
identity, so no matrix is ever inverted explicitly. Only the readout adapts;
rules and reservoir weights stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TimeSeriesDataset
from .model import FrscnModel, feature_chunks, replace_readout, stacked_features, stacked_readout


@dataclass
class OnlineState:
    """Mutable readout-adaptation state; steps are strictly sequential.

    theta: current stacked readout, L x D.
    h: D x D gain matrix (inverse information matrix), symmetric positive
       definite; initialized to (1/c) I.
    a: gain factor in (0, 1]; c: positive initialization constant.
    """

    theta: np.ndarray
    h: np.ndarray
    a: float = 1.0
    c: float = 1e-2
    step_count: int = 0

    def assert_spd(self):
        """Cholesky-feasibility probe of the gain matrix."""
        np.linalg.cholesky(self.h)


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
    """One projection update; returns (state, prior error e_s(n)).

    e_s(n) = t(n) - Theta(n-1) G(n). H absorbs G(n) G(n)^T through the
    rank-one inverse-update identity, then
    Theta^T(n) = Theta^T(n-1) + a H(n) G(n) e_s^T(n).
    Non-finite inputs are rejected with the state unchanged.
    """
    g = np.asarray(g_n, dtype=float).ravel()
    t = np.asarray(t_n, dtype=float).ravel()
    if g.shape[0] != st.theta.shape[1]:
        raise ValueError(f"feature vector has {g.shape[0]} entries, expected {st.theta.shape[1]}")
    if t.shape[0] != st.theta.shape[0]:
        raise ValueError(f"target has {t.shape[0]} entries, expected {st.theta.shape[0]}")
    if not (np.isfinite(g).all() and np.isfinite(t).all()):
        return st, None

    e_s = t - st.theta @ g
    hg = st.h @ g
    st.h -= np.outer(hg, hg) / (1.0 + g @ hg)
    st.theta += st.a * np.outer(e_s, st.h @ g)
    st.step_count += 1
    return st, e_s


def run_online(model: FrscnModel, st: OnlineState, ds: TimeSeriesDataset):
    """Stream a dataset through the projection update.

    Sub-reservoir states evolve over every sample, but updates (and the error
    trace) start after the washout. Only Theta adapts, so G is formed from
    predict's chunked rollout. Samples with non-finite features are skipped;
    a Theta that stops being finite raises ValueError naming the sample. On
    completion the adapted Theta blocks are written back into a copy of the
    model's per-rule readouts. Returns (updated model, error trace L x n_updates).
    """
    if ds.n_inputs != model.n_inputs or ds.n_outputs != model.n_outputs:
        raise ValueError("dataset dimensions do not match the model")
    targets = model.normalization.apply_targets(ds.targets)
    errors = []
    for chunk, phi, blocks in feature_chunks(model, ds.inputs):
        g = stacked_features(phi, blocks)
        for n in range(max(chunk.start, ds.washout), chunk.start + g.shape[1]):
            _, e_s = online_step(st, g[:, n - chunk.start], targets[:, n])
            if e_s is None:
                continue
            if not np.isfinite(st.theta).all():
                raise ValueError(f"online readout diverged at sample {n + 1} (c={st.c:g})")
            errors.append(e_s)

    updated = replace_readout(model, st.theta)
    trace = np.array(errors).T if errors else np.zeros((model.n_outputs, 0))
    return updated, trace


def contraction_diagnostic(theta_history, theta_ref: np.ndarray) -> np.ndarray:
    """Deviation norms ||Theta(n) - Theta_ref|| over a history of snapshots.

    Pass the true readout as the reference in tests, or the final adapted
    readout in field use, to obtain the convergence curve.
    """
    ref = np.asarray(theta_ref, dtype=float)
    return np.array([float(np.linalg.norm(th - ref)) for th in theta_history])
