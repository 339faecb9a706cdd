"""Sub-reservoirs: triangular feedback recursion, growth, spectral rescaling.

The feedback matrix is lower triangular (strictly lower plus diagonal), so its
eigenvalues are exactly the diagonal entries and appending a node never
changes the states of earlier nodes. The echo state property is enforced by
rescaling so that the largest singular value stays below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def sigmoid(x, out=None):
    """Logistic function; like np.tanh, writes into out when it is given.

    Below x = -709, exp(-x) overflows to the right limit 0 with a warning.
    """
    return np.divide(1.0, 1.0 + np.exp(-x), out=out)


def quiet_sigmoid(x, out=None):
    """sigmoid without the overflow warning; time loops silence it once instead."""
    with np.errstate(over="ignore"):
        return sigmoid(x, out=out)


ACTIVATIONS = {"tanh": np.tanh, "sigmoid": sigmoid}
# Lipschitz constant of each activation: with it, a reservoir's state map
# contracts by at most Lip(g) sigma_max(W_r) per step.
LIPSCHITZ = {"tanh": 1.0, "sigmoid": 0.25}


def spectral_radius(w_r: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a lower-triangular matrix (max |diag|)."""
    if w_r.size == 0:
        return 0.0
    return float(np.abs(np.diag(w_r)).max())


def max_singular_value(m: np.ndarray) -> float:
    """Largest singular value (the spectral norm); 0 for an empty matrix."""
    m = np.atleast_2d(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def rescale_triangular(w_r: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Spectral reset: scale w_r so its spectral radius is alpha, clamped for
    the echo state property.

    Primary rule: w_r <- (alpha / rho) w_r with rho = max |diagonal|. If that
    would leave the largest singular value >= 1, or rho is numerically zero
    (sparse draws often zero the whole diagonal), scale by the largest
    singular value instead, which pins sigma_max to alpha < 1. An all-zero
    matrix is returned unchanged. Returns (scaled matrix, factor used).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if w_r.size == 0 or not w_r.any():
        return w_r.copy(), 1.0
    rho = spectral_radius(w_r)
    smax = max_singular_value(w_r)
    if rho < 1e-12:
        factor = alpha / smax
    else:
        factor = alpha / rho
        if factor * smax >= 1.0:
            factor = alpha / smax
    return w_r * factor, factor


def run_recurrence(w_r, activation: str, pre: np.ndarray, x0=None) -> np.ndarray:
    """States of x(n) = g(pre(n) + W_r x(n-1)), from pre(n) = W_in u(n) + b.

    pre is time-major: T x N x B holds B runs of one reservoir (w_r N x N)
    side by side on the trailing axis, and T x Q x N x B those of Q
    reservoirs stacked on a leading rule axis (w_r Q x N x N), advanced
    together by broadcasting matmul. A vector w_r (G) is the diagonal form:
    G one-node reservoirs side by side in a T x G pre, fed back by multiply.
    Each step's states overwrite its row of pre, which is returned in its
    dtype: a row is stepped whole, with no strided copies. x0 is the state
    before pre[0], shaped like a row; it defaults to zeros.
    """
    g = ACTIVATIONS[activation]
    feed = np.multiply if np.ndim(w_r) == 1 else np.matmul
    x = np.zeros_like(pre[0]) if x0 is None else x0
    feedback = np.empty_like(pre[0])
    with np.errstate(over="ignore"):  # sigmoid's exp(-x) overflows to a 0 state
        for row in pre:
            feed(w_r, x, out=feedback)
            row += feedback
            x = g(row, out=row)
    return pre


@dataclass(frozen=True)
class SubReservoir:
    """One rule's recurrent core.

    w_in: N x K input weights; w_r: N x N lower-triangular feedback;
    b: length-N bias; w_out: L x (N+K) readout over [state; input], or None
    until fitted; alpha: spectral scaling factor used at the last rescale.
    The reservoir holds its own copies of the arrays it is given.
    """

    w_in: np.ndarray
    w_r: np.ndarray
    b: np.ndarray
    w_out: np.ndarray | None = None
    activation: str = "tanh"
    alpha: float = 0.9

    def __post_init__(self):
        w_in = np.atleast_2d(np.array(self.w_in, dtype=float))
        w_r = np.array(self.w_r, dtype=float)
        w_r = w_r.reshape(w_in.shape[0], w_in.shape[0]) if w_r.size else w_r.reshape(0, 0)
        b = np.array(self.b, dtype=float).ravel()
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "w_r", w_r)
        object.__setattr__(self, "b", b)
        n = w_in.shape[0]
        if w_r.shape != (n, n) or b.shape != (n,):
            raise ValueError("inconsistent reservoir shapes")
        if n and np.any(np.triu(w_r, 1) != 0.0):
            raise ValueError("feedback matrix must be lower triangular")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for arr in (w_in, w_r, b):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError("non-finite reservoir weights")
        if self.w_out is not None:
            w_out = np.atleast_2d(np.array(self.w_out, dtype=float))
            object.__setattr__(self, "w_out", w_out)
            if w_out.shape[1] != n + w_in.shape[1]:
                raise ValueError("readout must have N+K columns")
            if not np.isfinite(w_out).all():
                raise ValueError("non-finite readout weights")

    @property
    def n_nodes(self) -> int:
        return self.w_in.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.w_in.shape[1]

    def grow(self, w_in_row: np.ndarray, w_r_row: np.ndarray, b_new: float) -> "SubReservoir":
        """Append one node; existing rows are copied bit for bit.

        The candidate feedback row has N+1 entries: connections to all prior
        nodes plus the self weight, placed as the new last row so the
        triangular structure is preserved. The stale readout is dropped.
        """
        w_in_row = np.asarray(w_in_row, dtype=float).ravel()
        w_r_row = np.asarray(w_r_row, dtype=float).ravel()
        n = self.n_nodes
        if w_in_row.shape != (self.n_inputs,):
            raise ValueError(f"input row must have {self.n_inputs} entries")
        if w_r_row.shape != (n + 1,):
            raise ValueError(f"feedback row must have {n + 1} entries, got {w_r_row.shape[0]}")
        w_r = np.zeros((n + 1, n + 1))
        w_r[:n, :n] = self.w_r
        w_r[n, :] = w_r_row
        return SubReservoir(
            w_in=np.vstack([self.w_in, w_in_row]),
            w_r=w_r,
            b=np.append(self.b, float(b_new)),
            w_out=None,
            activation=self.activation,
            alpha=self.alpha,
        )

    def rescale(self, alpha: float) -> "SubReservoir":
        """Spectral reset of the feedback matrix (see rescale_triangular)."""
        scaled, _ = rescale_triangular(self.w_r, alpha)
        return replace(self, w_r=scaled, alpha=alpha)

    def rollout(self, inputs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """State matrix N x n from x(n) = g(W_in u(n) + W_r x(n-1) + b), x(0) = 0."""
        pre = self.w_in @ np.atleast_2d(np.asarray(inputs, dtype=float))
        pre += self.b[:, None]
        x0 = None if x0 is None else np.array(x0, dtype=float).reshape(-1, 1)
        pre = np.ascontiguousarray(pre.T)[..., None]  # time-major, T x N x 1
        return np.ascontiguousarray(run_recurrence(self.w_r, self.activation, pre, x0)[..., 0].T)
