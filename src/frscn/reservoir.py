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


def run_recurrence(w_in, w_r, b, activation: str, inputs, x0=None) -> np.ndarray:
    """States of x(n) = g(W_in u(n) + W_r x(n-1) + b) over the columns of inputs.

    Either one reservoir (w_in N x K, w_r N x N, b N; states N x n) or Q of
    them stacked on a leading rule axis (Q x N x K, Q x N x N, Q x N; states
    Q x N x n), advanced together by broadcasting matmul. x0 has the shape of
    b and defaults to zeros. Each step's states overwrite its column of the
    pre-activations.
    """
    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    g = ACTIVATIONS[activation]
    states = w_in @ u
    states += b[..., None]
    shape = b.shape + (1,)
    # the states are stepped in one contiguous buffer: a column of states is
    # strided, and elementwise work on it costs twice as much
    x = np.zeros(shape) if x0 is None else np.array(x0, dtype=float).reshape(shape)
    feedback = np.empty(shape)
    with np.errstate(over="ignore"):  # sigmoid's exp(-x) overflows to a 0 state
        for t in range(u.shape[1]):
            column = states[..., t : t + 1]
            column[...] = recurrence_step(w_r, g, x, column, feedback, x)
    return states


def recurrence_step(w_r, g, x, pre, feedback, out) -> np.ndarray:
    """One step of run_recurrence: out = g(pre + W_r x), all N x 1 (or Q x N x 1).

    feedback is scratch for W_r x, written before out, so out may be pre or x.
    """
    np.matmul(w_r, x, out=feedback)
    np.add(pre, feedback, out=out)
    return g(out, out=out)


@dataclass(frozen=True)
class SubReservoir:
    """One rule's recurrent core.

    w_in: N x K input weights; w_r: N x N lower-triangular feedback;
    b: length-N bias; w_out: L x (N+K) readout over [state; input], or None
    until fitted; alpha: spectral scaling factor used at the last rescale.
    """

    w_in: np.ndarray
    w_r: np.ndarray
    b: np.ndarray
    w_out: np.ndarray | None = None
    activation: str = "tanh"
    alpha: float = 0.9

    def __post_init__(self):
        w_in = np.atleast_2d(np.asarray(self.w_in, dtype=float))
        w_r = np.asarray(self.w_r, dtype=float)
        w_r = w_r.reshape(w_in.shape[0], w_in.shape[0]) if w_r.size else w_r.reshape(0, 0)
        b = np.asarray(self.b, dtype=float).ravel()
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
            w_out = np.atleast_2d(np.asarray(self.w_out, dtype=float))
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

    @classmethod
    def empty(cls, n_inputs: int, activation: str = "tanh", alpha: float = 0.9) -> "SubReservoir":
        return cls(
            w_in=np.zeros((0, n_inputs)),
            w_r=np.zeros((0, 0)),
            b=np.zeros(0),
            activation=activation,
            alpha=alpha,
        )

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
        return run_recurrence(self.w_in, self.w_r, self.b, self.activation, inputs, x0)

    def readout(self, states: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """y(n) = W_out [x(n); u(n)] columnwise."""
        if self.w_out is None:
            raise ValueError("readout weights not fitted")
        u = np.atleast_2d(np.asarray(inputs, dtype=float))
        design = np.vstack([states, u])
        if self.w_out.shape[1] != design.shape[0]:
            raise ValueError(
                f"readout expects {self.w_out.shape[1]} features, design has {design.shape[0]}"
            )
        return self.w_out @ design

    def echo_state_gap(
        self, inputs: np.ndarray, x0_a: np.ndarray, x0_b: np.ndarray
    ) -> np.ndarray:
        """Per-step distance between two rollouts that differ only in x(0).

        Meaningful as a contraction probe only after rescaling (sigma_max < 1);
        callers may also use it as a negative control on unscaled reservoirs.
        """
        sa = self.rollout(inputs, x0=x0_a)
        sb = self.rollout(inputs, x0=x0_b)
        return np.linalg.norm(sa - sb, axis=0)
