"""Test-only helpers on the library's data types."""

import numpy as np

from frscn import SubReservoir


def empty_reservoir(n_inputs: int) -> SubReservoir:
    """A reservoir with no nodes yet, to grow from."""
    return SubReservoir(w_in=np.zeros((0, n_inputs)), w_r=np.zeros((0, 0)), b=np.zeros(0))


def readout(res: SubReservoir, states: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """y(n) = W_out [x(n); u(n)] columnwise."""
    if res.w_out is None:
        raise ValueError("readout weights not fitted")
    design = np.vstack([states, np.atleast_2d(np.asarray(inputs, dtype=float))])
    if res.w_out.shape[1] != design.shape[0]:
        raise ValueError(f"readout expects {res.w_out.shape[1]} features, design has {design.shape[0]}")
    return res.w_out @ design


def is_monotone(report, slack: float = 1e-10) -> bool:
    """Whether a TrainReport's residual trace never rises by more than slack."""
    t = report.residual_trace
    return all(t[i + 1] <= t[i] + slack for i in range(len(t) - 1))


def echo_state_gap(res: SubReservoir, inputs: np.ndarray, x0_a: np.ndarray,
                   x0_b: np.ndarray) -> np.ndarray:
    """Per-step distance between two rollouts of res that differ only in x(0)."""
    return np.linalg.norm(res.rollout(inputs, x0=x0_a) - res.rollout(inputs, x0=x0_b), axis=0)


def chunked_predict(model, inputs: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Reference serial rollout: the stacked recurrence stepped one column at a
    time over chunk steps at a time, the states carried across chunks, then
    the blend per chunk."""
    from frscn.fuzzy import fire_strength_matrix
    from frscn.reservoir import ACTIVATIONS

    g = ACTIVATIONS[model.activation]
    u_all = model.normalization.apply_inputs(np.atleast_2d(np.asarray(inputs, dtype=float)))
    y = np.empty((model.n_outputs, u_all.shape[1]))
    x = np.zeros(model.b.shape + (1,))
    feedback = np.empty_like(x)
    for start in range(0, u_all.shape[1], chunk):
        u = u_all[:, start : start + chunk]
        states = model.w_in @ u
        states += model.b[..., None]
        with np.errstate(over="ignore"):
            for t in range(u.shape[1]):
                np.matmul(model.w_r, x, out=feedback)
                np.add(states[..., t : t + 1], feedback, out=x)
                states[..., t : t + 1] = g(x, out=x)
        design = np.concatenate([states, np.broadcast_to(u, (model.n_rules,) + u.shape)], axis=1)
        phi = fire_strength_matrix(model.rule_bank, u)
        blended = (phi[:, None, :] * (model.w_out @ design)).sum(axis=0)
        y[:, start : start + chunk] = model.normalization.invert_targets(blended)
    return y
