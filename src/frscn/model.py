"""Model assembly: rule bank + sub-reservoirs + readouts, and baselines.

The deployable model pairs each fuzzy rule with one sub-reservoir. Its
prediction is the fire-strength-weighted sum of the per-rule readouts, which
is algebraically the stacked form Theta G(n). Models serialize to a versioned
JSON file that round-trips bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import NormalizationStats, TimeSeriesDataset, fit_normalization
from .errors import ConfigError, InputRangeError, ModelFormatError
# fire_strengths is not called here; the benchmark's tracer (perfbench/spans.py)
# wraps it in this module by name.
from .fuzzy import FcmConfig, FuzzyRuleBank, fire_strength_matrix, fire_strengths, fit_fcm  # noqa: F401
from .reservoir import (ACTIVATIONS, LIPSCHITZ, SubReservoir, max_singular_value, quiet_sigmoid,
                        run_recurrence)
# train_sub_reservoir runs in the rule workers (growth.py); the benchmark's
# tracer wraps it in this module by name.
from .trainer import ScConfig, check_reservoir_settings, fit_readout, train_sub_reservoir  # noqa: F401

MODEL_FORMAT_VERSION = "frscn-1"


@dataclass(frozen=True)
class EsnConfig:
    """Fixed-size baseline reservoir settings (no supervisory growth)."""

    n_nodes: int = 100
    alpha: float = 0.9
    sparsity_range: tuple = (0.01, 0.05)
    ridge: float = 1e-8
    activation: str = "tanh"
    weight_scale: float = 1.0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        check_reservoir_settings(self)
        if self.weight_scale <= 0:
            raise ConfigError("weight_scale must be positive")


@dataclass(frozen=True)
class FrscnModel:
    """Rule bank, Q sub-reservoirs, normalization stats, and run metadata.

    w_in (Q x N x K), w_r (Q x N x N), b (Q x N) and w_out (Q x L x (N+K))
    are the per-rule weights stacked for serving, read-only and zero-padded to
    the largest rule's N; padded nodes are read by no real node or readout.
    """

    rule_bank: FuzzyRuleBank
    sub_reservoirs: tuple
    normalization: NormalizationStats
    metadata: dict = field(default_factory=dict)
    w_in: np.ndarray = field(init=False, repr=False, compare=False)
    w_r: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)
    w_out: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sub_reservoirs", tuple(self.sub_reservoirs))
        if self.rule_bank.n_rules != len(self.sub_reservoirs):
            raise ValueError("rule count must equal sub-reservoir count")
        k = self.rule_bank.n_inputs
        l_dims = set()
        for res in self.sub_reservoirs:
            if res.n_inputs != k:
                raise ValueError("all sub-reservoirs must share the rule bank's input dim")
            if res.w_out is None:
                raise ValueError("sub-reservoirs must have fitted readouts")
            l_dims.add(res.w_out.shape[0])
        if len(l_dims) != 1:
            raise ValueError("all sub-reservoirs must share one output dim")
        if len({res.activation for res in self.sub_reservoirs}) != 1:
            raise ValueError("all sub-reservoirs must share one activation")
        q, n_max = self.n_rules, max(res.n_nodes for res in self.sub_reservoirs)
        w_in = np.zeros((q, n_max, k))
        w_r = np.zeros((q, n_max, n_max))
        b = np.zeros((q, n_max))
        w_out = np.zeros((q, self.n_outputs, n_max + k))
        for i, res in enumerate(self.sub_reservoirs):
            n = res.n_nodes
            w_in[i, :n] = res.w_in
            w_r[i, :n, :n] = res.w_r
            b[i, :n] = res.b
            w_out[i, :, :n] = res.w_out[:, :n]
            w_out[i, :, n_max:] = res.w_out[:, n:]
        for name, arr in (("w_in", w_in), ("w_r", w_r), ("b", b), ("w_out", w_out)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_rules(self) -> int:
        return self.rule_bank.n_rules

    @property
    def n_inputs(self) -> int:
        return self.rule_bank.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.sub_reservoirs[0].w_out.shape[0]

    @property
    def activation(self) -> str:
        return self.sub_reservoirs[0].activation

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return predict(self, inputs)

    def session(self) -> "PredictionSession":
        return PredictionSession(self)


class PredictionSession:
    """Stateful step-by-step prediction; states reset at session start.

    Within one session the sub-reservoir states carry across consecutive
    steps. Sessions are single-owner: do not share across threads. Each step
    normalizes u(n) and maps y(n) back in Python float arithmetic, with the
    normalization's operations in their order and so its bits. It writes
    u(n) into one rule-stacked design buffer [x^i; u] (Q x (N+K) x 1),
    advances the states in place by one product with it, and the readout
    reads it whole.
    """

    def __init__(self, model: FrscnModel):
        self.model = model
        q, n, k = model.w_in.shape
        self._n_inputs = k
        # the maps' constants as Python floats: [lo, safe or span, constant] per dim
        norm = model.normalization
        imap, tmap = norm.input_map, norm.target_map
        self._in = np.hstack([imap.lo, imap.safe, imap.constant]).tolist() if norm.enabled else None
        self._out = np.hstack([tmap.lo, tmap.span, tmap.constant]).tolist() if norm.enabled else None
        # an errstate per step would cost tanh about 2 us; sigmoid needs one
        self._g = quiet_sigmoid if model.activation == "sigmoid" else ACTIVATIONS[model.activation]
        # [W_r | W_in] [x(n-1); u(n)] is W_r x(n-1) + W_in u(n) in one product
        self._w_step = np.concatenate([model.w_r, model.w_in], axis=2)
        self._b = model.b[..., None]
        self._design = np.zeros((q, n + k, 1))
        self._x, self._u_rows = self._design[:, :n], self._design[:, n:]
        self._pre = np.empty((q, n, 1))
        # the per-rule readouts W_out^i [x^i; u], and the same buffer seen as L x Q
        self._rule_out = np.empty((q, model.n_outputs, 1))
        self._rule_out_lq = self._rule_out[..., 0].T

    def _advance(self, u_raw: np.ndarray):
        """Normalize one raw input, advance the states; return (u K x 1, phi Q x 1).

        InputRangeError if the normalized input is not finite; the states are
        then left as they were.
        """
        # _raw_inputs' check and AffineMap.forward on Python floats: numpy's
        # dispatch costs more than K values do, and an overflow gives inf quietly
        vals = np.asarray(u_raw, dtype=float).ravel().tolist()
        if len(vals) != self._n_inputs:
            raise ValueError(f"expected {self._n_inputs} input dims, got {len(vals)}")
        if self._in is not None:
            vals = [0.0 if c else 2.0 * (v - lo) / safe - 1.0
                    for v, (lo, safe, c) in zip(vals, self._in)]
        bank = self.model.rule_bank
        lim = bank.unguarded_limit
        # max|u| < lim tested in Python; NaN fails the test too
        unguarded = all(-lim < v < lim for v in vals)
        if not (unguarded or all(map(math.isfinite, vals))):
            raise InputRangeError("input is not finite after normalization: it is non-finite "
                                  "or far outside the training range")
        self._u_rows[..., 0] = vals
        u = self._u_rows[0]
        phi = bank.unguarded_strengths(u) if unguarded else bank.strengths(u)
        np.matmul(self._w_step, self._design, out=self._pre)
        self._pre += self._b
        self._g(self._pre, out=self._x)
        return u, phi

    def features(self, u_raw: np.ndarray):
        """Advance one step; return (phi, per-rule [state; input] blocks).

        The input is normalized with the model's stats before anything else,
        so callers always pass raw-scale inputs.
        """
        u, phi = self._advance(u_raw)
        return phi[:, 0], _rule_blocks(self.model, self._x[..., 0], u[:, 0])

    def step(self, u_raw: np.ndarray) -> np.ndarray:
        """One-step prediction in raw target scale."""
        _, phi = self._advance(u_raw)
        # sum_i phi_i W_out^i [x^i; u] as one product over the rules
        np.matmul(self.model.w_out, self._design, out=self._rule_out)
        y = (self._rule_out_lq @ phi)[:, 0]
        # AffineMap.backward on Python floats, as forward in _advance
        return y if self._out is None else np.array(
            [lo if c else (v + 1.0) * span / 2.0 + lo for v, (lo, span, c) in zip(y.tolist(), self._out)])


# Time steps per rollout chunk in predict and feature_chunks: bounds the states
# held at once. B > 1 segments advance PREDICT_CHUNK // 4B steps per chunk, a
# quarter of the samples: the smaller blocks were faster and kept peak memory
# below the serial rollout's.
PREDICT_CHUNK = 1024
# predict's segment plan: how close a warmed-up segment's states come to the
# true ones, and the most segments advanced side by side.
SEGMENT_TOL, MAX_SEGMENTS = 1e-17, 16


def segment_plan(model: FrscnModel, n_steps: int) -> tuple[int, int]:
    """(warm-up steps k, segment count B) for predict over n_steps samples.

    The states lie in the unit cube (norm at most sqrt(N)) and the state map
    contracts by rate = Lip(g) max_i sigma_max(W_r^i) per step, so a rollout
    started from zero state k steps early is within rate^k sqrt(N) <=
    SEGMENT_TOL of the true states: k = ceil(log(SEGMENT_TOL / sqrt(N)) /
    log(rate)). A segment spends at most a quarter of its steps warming up
    and holds at least one chunk: B = min(MAX_SEGMENTS, n_steps //
    max(4k, PREDICT_CHUNK)). The plan is (0, 1), the serial rollout, when
    rate >= 1 or B < 2. A series shorter than two chunks takes it without
    computing rate, so the 2000-sample training and 1000-sample test scores
    of the benchmark protocol keep the serial rollout's bits.
    """
    if n_steps < 2 * PREDICT_CHUNK:
        return 0, 1
    rate = LIPSCHITZ[model.activation] * max(map(max_singular_value, model.w_r))
    if rate >= 1.0:
        return 0, 1
    # k >= 1, as SEGMENT_TOL / sqrt(N) < 1; with W_r = 0 a state forgets in one step
    n = model.w_r.shape[1]
    k = math.ceil(math.log(SEGMENT_TOL / math.sqrt(n)) / math.log(rate)) if rate else 1
    segments = min(MAX_SEGMENTS, n_steps // max(4 * k, PREDICT_CHUNK))
    return (k, segments) if segments >= 2 else (0, 1)


def predict(model: FrscnModel, inputs: np.ndarray) -> np.ndarray:
    """Predict over a whole input sequence; one fresh session per call.

    Per sample: y(n) = sum_i phi_i(n) W_out^i [x^i(n); u(n)], with every
    sub-reservoir rolled forward from zero state at the sequence start.
    InputRangeError names the first sample whose normalized input is not
    finite, before anything is rolled out.

    The series is rolled out in the B segments of segment_plan, advanced side
    by side. The first starts from zero state at sample 0, as the definition
    does; every later one starts from zero state k samples before its first
    own sample, so its states are within SEGMENT_TOL of the true ones when
    its outputs begin, and the outputs within rounding (about 1e-14 of their
    scale) of the serial rollout's. With one segment (rate >= 1, or a series
    shorter than 2 max(4k, PREDICT_CHUNK) samples) the output is bitwise the
    serial rollout's.
    """
    u = model.normalization.apply_inputs(_raw_inputs(model, inputs))
    bad = ~np.isfinite(u).all(axis=0)
    if bad.any():
        raise InputRangeError(
            f"input sample {int(bad.argmax()) + 1} is not finite after normalization: "
            "it is non-finite or far outside the training range")
    q, n, n_in = model.w_in.shape
    y = np.empty((model.n_outputs, u.shape[1]))
    for times, states in _rollout(model, u, *segment_plan(model, u.shape[1])):
        u_t = u[:, times]
        # C order, as the serial rollout's: the readout product's bits depend on it
        design = np.empty((q, n + n_in, times.size))
        design[:, :n], design[:, n:] = states.transpose(1, 2, 0), u_t
        phi = fire_strength_matrix(model.rule_bank, u_t)
        y[:, times] = model.normalization.invert_targets(_blend(model, design, phi))
        del design  # not held through the next chunk's rollout: it would raise peak memory
    return y


def feature_chunks(model: FrscnModel, inputs: np.ndarray):
    """Batch analogue of PredictionSession.features over a whole sequence.

    Yields (slice, phi Q x n, per-rule [x^i; u] blocks (n_i+K) x n) for each
    PREDICT_CHUNK slice, in order, from one serial rollout: predict's
    one-segment plan. Non-finite normalized inputs pass through.
    """
    u = model.normalization.apply_inputs(_raw_inputs(model, inputs))
    for times, states in _rollout(model, u):
        chunk = slice(int(times[0]), int(times[-1]) + 1)
        yield chunk, fire_strength_matrix(model.rule_bank, u[:, chunk]), _rule_blocks(
            model, states.transpose(1, 2, 0), u[:, chunk])


def _rollout(model: FrscnModel, u: np.ndarray, warmup: int = 0, segments: int = 1):
    """Yield (sample indices n, states n x Q x N) over normalized inputs u (K x T).

    The series is cut into `segments` runs of `length` steps, advanced side by
    side as the trailing axis of one recurrence: run j covers samples
    j (length - warmup) onwards from zero state, and every run but the first
    drops its first `warmup` states. Inputs past the end repeat the last one
    and their states are dropped. Each chunk's pre-activations are one
    product, time-major, so every step's Q x N x B block is contiguous.
    """
    q, n, n_in = model.w_in.shape
    n_steps = u.shape[1]
    length = -(-(n_steps + (segments - 1) * warmup) // segments)
    starts = np.arange(segments) * (length - warmup)
    w_in = model.w_in.reshape(q * n, n_in).T
    x = None
    per_chunk = PREDICT_CHUNK // (4 * segments) if segments > 1 else PREDICT_CHUNK
    for first in range(0, length, per_chunk):
        local = np.arange(first, min(first + per_chunk, length))[:, None]
        times = (starts + local).ravel()
        kept = ((local >= warmup) | (starts == 0)).ravel() & (times < n_steps)
        pre = np.matmul(u[:, np.minimum(times, n_steps - 1)].T, w_in)
        pre = pre.reshape(local.size, segments, q, n)
        pre += model.b
        # (B, Q, N) memory seen as Q x N x B: one step's block, run j's states contiguous
        x = run_recurrence(model.w_r, model.activation, pre.transpose(0, 2, 3, 1), x)[-1]
        states = pre.reshape(-1, q, n)
        yield (times, states) if kept.all() else (times[kept], states[kept])


def _raw_inputs(model: FrscnModel, inputs) -> np.ndarray:
    """Raw inputs as a K x n float array; ValueError unless K is the model's."""
    u_raw = np.atleast_2d(np.asarray(inputs, dtype=float))
    if u_raw.shape[0] != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} input dims, got {u_raw.shape[0]}")
    return u_raw


def _rule_blocks(model: FrscnModel, states: np.ndarray, u: np.ndarray) -> list:
    """Per-rule [x^i; u] blocks: each rule's real nodes cut from the padded
    rule-stacked states (Q x N[ x n]) and stacked over the inputs (K[ x n])."""
    return [np.concatenate([x[: res.n_nodes], u]) for x, res in zip(states, model.sub_reservoirs)]


def _blend(model: FrscnModel, design: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Normalized outputs L x n, sum_i phi_i(n) W_out^i [x^i(n); u(n)], from the
    rule-stacked design [x^i; u] (Q x (N+K) x n) and fire strengths Q x n."""
    return (phi[:, None, :] * (model.w_out @ design)).sum(axis=0)


def stacked_readout(model: FrscnModel) -> np.ndarray:
    """Theta: the per-rule readouts concatenated along the feature axis."""
    return np.hstack([res.w_out for res in model.sub_reservoirs])


def replace_readout(model: FrscnModel, theta: np.ndarray) -> FrscnModel:
    """Copy of the model whose per-rule readouts are the blocks of Theta."""
    bounds = np.cumsum([res.n_nodes + model.n_inputs for res in model.sub_reservoirs])
    blocks = np.split(theta, bounds[:-1], axis=1)
    return replace(model, sub_reservoirs=tuple(
        replace(res, w_out=block) for res, block in zip(model.sub_reservoirs, blocks)))


def stacked_features(phi: np.ndarray, blocks: list) -> np.ndarray:
    """G(n): the fire-strength-weighted per-rule blocks stacked into one vector,
    or into the D x n matrix of columns G(n) for batch phi and blocks."""
    return np.concatenate([p * blk for p, blk in zip(phi, blocks)])


# The kinds train_model accepts, and so the CLI's --model-kind choices.
MODEL_KINDS = ("frscn", "rscn", "fesn", "esn")


def train_model(train: TimeSeriesDataset, kind: str = "frscn", sc_cfg: ScConfig | None = None,
                esn_cfg: EsnConfig | None = None, **kw) -> tuple[FrscnModel, list]:
    """Train a model of the named kind; returns (model, per-rule growth reports).

    kw (q, fcm_cfg, seed, normalize) goes to train_frscn or train_fesn and
    takes their defaults. "rscn" and "esn" are the q == 1 aliases of "frscn"
    and "fesn"; the fixed-size reservoirs of "fesn" and "esn" have no growth
    reports.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind in ("rscn", "esn"):
        kw["q"] = 1
    if kind in ("frscn", "rscn"):
        return train_frscn(train, sc_cfg=sc_cfg, **kw)
    return train_fesn(train, esn_cfg=esn_cfg, **kw), []


def _train_rules(train: TimeSeriesDataset, kind: str, q: int, fcm_cfg: FcmConfig | None,
                 seed: int, normalize: bool, cfg_key: str, cfg, train_rules):
    """The front end and assembly both trainers share; returns (model, reports).

    Checks q, fits and applies the normalization, derives q + 1 seeds from
    the master seed and fits the FCM rule bank under the first of them. Then
    train_rules(normalized dataset, the other q seeds) returns one
    (sub-reservoir, report) per seed, in seed order, and the model records the
    run's settings, with the reservoir settings cfg under cfg_key.
    """
    if q < 1:
        raise ConfigError("q must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    fcm_cfg = fcm_cfg or FcmConfig()
    stats = fit_normalization(train, enabled=normalize)
    ds = stats.apply(train)

    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(q + 1)]
    bank = fit_fcm(ds.inputs[:, ds.washout :], q, fcm_cfg, seeds[0])

    reservoirs, reports = zip(*train_rules(ds, seeds[1:]))
    model = FrscnModel(
        rule_bank=bank,
        sub_reservoirs=reservoirs,
        normalization=stats,
        metadata={
            "kind": kind,
            "q": q,
            "seed": seed,
            cfg_key: _cfg_dict(cfg),
            "fcm_cfg": _cfg_dict(fcm_cfg),
            "normalize": normalize,
        },
    )
    return model, list(reports)


def train_frscn(
    train: TimeSeriesDataset,
    q: int = 5,
    sc_cfg: ScConfig | None = None,
    fcm_cfg: FcmConfig | None = None,
    seed: int = 0,
    normalize: bool = True,
) -> tuple[FrscnModel, list]:
    """Full training: rule extraction, per-rule supervisory growth, assembly.

    Every sub-reservoir is trained against the full target independently;
    fire strengths enter only when predictions are combined. With q == 1 the
    fuzzy layer is the identity and the result is the plain recurrent
    stochastic configuration model. seed is the master seed: the FCM
    initialization and each rule's growth run under seeds derived from it.
    The rules grow in parallel in the process's pool of worker processes
    (growth.grow_rules), started by the first call and kept until the process
    exits, so the model does not depend on the core count.
    """
    # deferred: the package import that starts `python -m frscn.growth` must
    # not import growth itself, or the worker would run it a second time
    from .growth import grow_rules

    sc_cfg = sc_cfg or ScConfig()
    return _train_rules(train, "frscn", q, fcm_cfg, seed, normalize, "sc_cfg", sc_cfg,
                        lambda ds, seeds: grow_rules(ds, sc_cfg, seeds))


def train_fesn(
    train: TimeSeriesDataset,
    q: int = 5,
    fcm_cfg: FcmConfig | None = None,
    esn_cfg: EsnConfig | None = None,
    seed: int = 0,
    normalize: bool = True,
) -> FrscnModel:
    """Baseline: same architecture with fixed-size randomly assigned reservoirs.

    Each sub-reservoir's weights are drawn once from a uniform distribution,
    the feedback matrix is sparsified and spectrally rescaled, and only the
    readout is fitted. With q == 1 this is the plain echo-state baseline.
    Seeds are derived from the master seed as in train_frscn.
    """
    esn_cfg = esn_cfg or EsnConfig()
    scale = esn_cfg.weight_scale

    def fixed_reservoir(ds, rule_seed):
        rng = np.random.default_rng(rule_seed)
        n, k = esn_cfg.n_nodes, ds.n_inputs
        w_in = rng.uniform(-scale, scale, (n, k))
        density = rng.uniform(*esn_cfg.sparsity_range)
        w_r = rng.uniform(-scale, scale, (n, n))
        w_r *= rng.random((n, n)) < density
        w_r = np.tril(w_r, -1)
        # self-loops always present: the diagonal carries the state memory
        w_r[np.arange(n), np.arange(n)] = rng.uniform(-scale, scale, n)
        b = rng.uniform(-scale, scale, n)
        res = SubReservoir(
            w_in=w_in, w_r=w_r, b=b, activation=esn_cfg.activation, alpha=esn_cfg.alpha
        ).rescale(esn_cfg.alpha)
        states = res.rollout(ds.inputs)
        w_out, _ = fit_readout(states, ds.inputs, ds.targets, esn_cfg.ridge, ds.washout)
        return replace(res, w_out=w_out), None

    model, _ = _train_rules(train, "fesn", q, fcm_cfg, seed, normalize, "esn_cfg", esn_cfg,
                            lambda ds, seeds: [fixed_reservoir(ds, s) for s in seeds])
    return model


def _cfg_dict(cfg) -> dict:
    out = {}
    for name, value in vars(cfg).items():
        if isinstance(value, tuple):
            out[name] = list(value)
        else:
            out[name] = value
    return out


def save_model(model: FrscnModel, path) -> None:
    """Write the model as versioned JSON; floats keep full binary precision."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "metadata": model.metadata,
        "normalization": {
            "enabled": model.normalization.enabled,
            "input_min": model.normalization.input_min.tolist(),
            "input_max": model.normalization.input_max.tolist(),
            "target_min": model.normalization.target_min.tolist(),
            "target_max": model.normalization.target_max.tolist(),
        },
        "rule_bank": {
            "centers": model.rule_bank.centers.tolist(),
            "widths": model.rule_bank.widths.tolist(),
        },
        "sub_reservoirs": [
            {
                "w_in": res.w_in.tolist(),
                "w_r": res.w_r.tolist(),
                "b": res.b.tolist(),
                "w_out": res.w_out.tolist(),
                "activation": res.activation,
                "alpha": res.alpha,
            }
            for res in model.sub_reservoirs
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # one C-encoder call; json.dump streams through pure Python


def load_model(path) -> FrscnModel:
    """Load a model written by save_model; strict about version and shape."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(doc, dict) or "version" not in doc:
        raise ModelFormatError(f"{path}: missing version field")
    if doc["version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: expected version {MODEL_FORMAT_VERSION!r}, found {doc['version']!r}"
        )
    try:
        norm = doc["normalization"]
        stats = NormalizationStats(
            input_min=np.asarray(norm["input_min"], dtype=float),
            input_max=np.asarray(norm["input_max"], dtype=float),
            target_min=np.asarray(norm["target_min"], dtype=float),
            target_max=np.asarray(norm["target_max"], dtype=float),
            enabled=bool(norm["enabled"]),
        )
        # both constructors convert their arrays to float themselves
        bank = FuzzyRuleBank(centers=doc["rule_bank"]["centers"], widths=doc["rule_bank"]["widths"])
        reservoirs = tuple(
            SubReservoir(w_in=r["w_in"], w_r=r["w_r"], b=r["b"], w_out=r["w_out"],
                         activation=r["activation"], alpha=float(r["alpha"]))
            for r in doc["sub_reservoirs"]
        )
        return FrscnModel(
            rule_bank=bank,
            sub_reservoirs=reservoirs,
            normalization=stats,
            metadata=doc.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from None
