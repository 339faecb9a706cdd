"""Metrics, seeded multi-trial experiments, grid search, report artifacts."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import TimeSeriesDataset, write_series_csv
from .errors import ConfigError, UndefinedMetricError
from .fuzzy import fire_strength_matrix
from .model import EsnConfig, FrscnModel, predict, train_model
from .trainer import ScConfig


def nrmse(pred: np.ndarray, target: np.ndarray, washout: int = 0) -> float:
    """Root mean squared error normalized by the target's population variance.

    Per output dimension: sqrt(sum_n (y - t)^2 / (n' var(t))) over the n'
    post-washout samples. Population (divide-by-n) variance makes predicting
    the target mean score exactly 1. Multi-output results are averaged over
    dimensions with positive variance; if no dimension varies the metric is
    undefined.
    """
    p = np.atleast_2d(np.asarray(pred, dtype=float))[:, washout:]
    t = np.atleast_2d(np.asarray(target, dtype=float))[:, washout:]
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs target {t.shape}")
    if p.shape[1] < 1:
        raise ValueError("no samples left after washout")
    var = t.var(axis=1)
    live = var > 0
    if not live.any():
        raise UndefinedMetricError("target has zero variance in every dimension")
    n = p.shape[1]
    per_dim = np.sqrt(((p - t) ** 2).sum(axis=1)[live] / (n * var[live]))
    return float(per_dim.mean())


@dataclass
class TrialResult:
    seed: int
    train_nrmse: float
    val_nrmse: float
    test_nrmse: float
    node_counts: list = field(default_factory=list)
    wall_time: float = 0.0
    error: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrialSummary:
    mean_train: float
    mean_val: float
    mean_test: float
    std_train: float
    std_val: float
    std_test: float
    n_ok: int
    n_failed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _summarize(results: list) -> TrialSummary:
    ok = [r for r in results if not r.error]
    def agg(fn, key):
        vals = [getattr(r, key) for r in ok]
        return float(fn(vals)) if vals else float("nan")
    return TrialSummary(
        mean_train=agg(np.mean, "train_nrmse"),
        mean_val=agg(np.mean, "val_nrmse"),
        mean_test=agg(np.mean, "test_nrmse"),
        std_train=agg(np.std, "train_nrmse"),
        std_val=agg(np.std, "val_nrmse"),
        std_test=agg(np.std, "test_nrmse"),
        n_ok=len(ok),
        n_failed=len(results) - len(ok),
    )


def run_single_trial(
    train: TimeSeriesDataset,
    val: TimeSeriesDataset,
    test: TimeSeriesDataset | None = None,
    model_kind: str = "frscn",
    seed: int = 0,
    **train_kw,
):
    """Train one model and score it on the splits given; test_nrmse is NaN
    without a test split.

    Returns (model, reports, TrialResult). train_kw goes to train_model,
    where model_kind "rscn" and "esn" are the q == 1 aliases of "frscn" and
    "fesn".
    """
    started = time.perf_counter()
    model, reports = train_model(train, model_kind.lower(), seed=seed, **train_kw)
    elapsed = time.perf_counter() - started

    def score(ds):
        return nrmse(predict(model, ds.inputs), ds.targets, ds.washout)

    result = TrialResult(
        seed=seed,
        train_nrmse=score(train),
        val_nrmse=score(val),
        test_nrmse=float("nan") if test is None else score(test),
        node_counts=[res.n_nodes for res in model.sub_reservoirs],
        wall_time=elapsed,
    )
    return model, reports, result


def run_trials(
    train: TimeSeriesDataset,
    val: TimeSeriesDataset,
    test: TimeSeriesDataset | None = None,
    model_kind: str = "frscn",
    n_trials: int = 10,
    base_seed: int = 0,
    keep_reports: bool = False,
    **train_kw,
):
    """Seeded repetition: trial k runs at seed base_seed + k on fixed data.

    train_kw goes to train_model through run_single_trial, which scores no
    test split when test is None. Failures are
    recorded per trial and excluded from the summary. Returns (results,
    summary) or (results, summary, reports_per_trial).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")

    results, reports = [], []
    for k in range(n_trials):
        try:
            _, reps, result = run_single_trial(train, val, test, model_kind,
                                               seed=base_seed + k, **train_kw)
        except ConfigError:  # a setting, not the trial, is at fault
            raise
        except ValueError as exc:  # recorded, not raised: summary needs the rest
            reps, result = [], TrialResult(
                seed=base_seed + k,
                train_nrmse=float("nan"),
                val_nrmse=float("nan"),
                test_nrmse=float("nan"),
                error=f"{type(exc).__name__}: {exc}",
            )
        results.append(result)
        reports.append(reps)
    summary = _summarize(results)
    if keep_reports:
        return results, summary, reports
    return results, summary


@dataclass
class GridSearchResult:
    q_values: list
    n_values: list
    mean_val_nrmse: np.ndarray  # len(q_values) x len(n_values)
    best_q: int
    best_n: int

    def to_dict(self) -> dict:
        return {
            "q_values": list(self.q_values),
            "n_values": list(self.n_values),
            "mean_val_nrmse": self.mean_val_nrmse.tolist(),
            "best_q": self.best_q,
            "best_n": self.best_n,
        }


def grid_search(
    train: TimeSeriesDataset,
    val: TimeSeriesDataset,
    q_values=(1, 3, 5, 10, 15),
    n_values=(25, 50, 75, 100),
    model_kind: str = "frscn",
    sc_cfg: ScConfig | None = None,
    esn_cfg: EsnConfig | None = None,
    trials_per_cell: int = 3,
    base_seed: int = 0,
    **train_kw,
) -> GridSearchResult:
    """Mean validation NRMSE over a (Q, N) grid; pick the minimizing cell.

    Each cell sets q and the reservoir size, sc_cfg.n_max or esn_cfg.n_nodes;
    train_kw (fcm_cfg, normalize) goes to train_model through run_trials, with
    no test split, so a trial predicts val once. The q = 1 aliases "rscn"
    and "esn" raise ConfigError.

    Ties break toward the smaller reservoir size, then the smaller rule
    count. Cells whose trials all fail are marked NaN and never selected.
    """
    q_values = list(q_values)
    n_values = list(n_values)
    if not q_values or not n_values:
        raise ValueError("grid axes must be nonempty")
    if model_kind.lower() in ("rscn", "esn"):
        raise ConfigError(f"grid_search varies q, which model kind {model_kind!r} fixes at 1")
    sc_cfg = sc_cfg or ScConfig()
    esn_cfg = esn_cfg or EsnConfig()

    surface = np.full((len(q_values), len(n_values)), np.nan)
    for iq, qi in enumerate(q_values):
        for jn, ni in enumerate(n_values):
            _, summary = run_trials(
                train, val, None, model_kind, q=qi,
                sc_cfg=replace(sc_cfg, n_max=ni),
                esn_cfg=replace(esn_cfg, n_nodes=ni),
                n_trials=trials_per_cell, base_seed=base_seed, **train_kw,
            )
            surface[iq, jn] = summary.mean_val if summary.n_ok else np.nan

    finite = [
        (surface[iq, jn], ni, qi)
        for iq, qi in enumerate(q_values)
        for jn, ni in enumerate(n_values)
        if np.isfinite(surface[iq, jn])
    ]
    if not finite:
        raise ValueError("every grid cell failed")
    _, best_n, best_q = min(finite)  # ties: smaller N first, then smaller Q
    return GridSearchResult(
        q_values=q_values, n_values=n_values, mean_val_nrmse=surface,
        best_q=best_q, best_n=best_n,
    )


def emit_report(
    out_dir,
    trials: list | None = None,
    summary: TrialSummary | None = None,
    model: FrscnModel | None = None,
    dataset: TimeSeriesDataset | None = None,
    grid: GridSearchResult | None = None,
    fire_strength_stride: int = 1,
) -> list:
    """Write report artifacts; returns the paths written.

    summary.json always; predictions.csv and fire_strengths.csv when a model
    and dataset are given (post-washout rows only); grid.csv when a grid
    result is given. fire_strength_stride keeps every stride-th row of
    fire_strengths.csv and must be >= 1.
    """
    if fire_strength_stride < 1:
        raise ValueError(f"fire_strength_stride must be >= 1, got {fire_strength_stride}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    doc = {
        "trials": [t.to_dict() for t in (trials or [])],
        "summary": summary.to_dict() if summary else None,
        "grid": grid.to_dict() if grid else None,
    }
    path = out / "summary.json"
    path.write_text(json.dumps(doc, indent=2))
    written.append(path)

    if model is not None and dataset is not None:
        pred = predict(model, dataset.inputs)
        w = dataset.washout
        l_dims = dataset.n_outputs
        path = out / "predictions.csv"
        write_series_csv(
            path,
            ["n"]
            + [f"target_{q + 1}" for q in range(l_dims)]
            + [f"prediction_{q + 1}" for q in range(l_dims)],
            [range(w + 1, dataset.n_samples + 1)]
            + dataset.targets[:, w:].tolist()
            + pred[:, w:].tolist(),
        )
        written.append(path)

        u = model.normalization.apply_inputs(dataset.inputs)
        phi = fire_strength_matrix(model.rule_bank, u)
        stride = fire_strength_stride
        path = out / "fire_strengths.csv"
        write_series_csv(
            path,
            ["n"] + [f"phi_{i + 1}" for i in range(model.n_rules)],
            [range(w + 1, dataset.n_samples + 1, stride)] + phi[:, w::stride].tolist(),
        )
        written.append(path)

    if grid is not None:
        path = out / "grid.csv"
        cells = [(int(qv), int(nv)) for qv in grid.q_values for nv in grid.n_values]
        write_series_csv(path, ["q", "n", "mean_val_nrmse"],
                         [*zip(*cells), grid.mean_val_nrmse.ravel().tolist()])
        written.append(path)
    return written

