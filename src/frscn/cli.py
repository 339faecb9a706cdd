"""Command-line surface: data generation, training, prediction, evaluation,
online adaptation, and grid search.

Every run is deterministic under --seed. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error. Built-in defaults mirror the
benchmark protocol, so ``frscn train --data train.csv`` runs the reference
settings with zero extra flags; a JSON config file and per-key flags override
them one to one.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import evaluation as ev
from . import online as ol
from .fuzzy import FcmConfig
from .model import MODEL_KINDS, EsnConfig, load_model, predict, save_model, train_frscn, train_model
from .trainer import ScConfig


class ConfigError(ValueError):
    pass


def _floats(text):
    return tuple(float(v) for v in str(text).split(","))


def _bool(text):
    v = str(text).lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


_SC, _FCM, _ESN, _ONLINE = ({f.name: f.default for f in fields(cls)}
                             for cls in (ScConfig, FcmConfig, EsnConfig, ol.OnlineState))
_TRAIN, _GRID = ({name: p.default for name, p in inspect.signature(fn).parameters.items()}
                 for fn in (train_frscn, ev.grid_search))

# One row per configurable key: dotted name, parser, default, help.
CONFIG_SPEC = [
    ("q", int, _TRAIN["q"], "number of fuzzy rules"),
    ("seed", int, _TRAIN["seed"], "master random seed"),
    ("washout", int, 100, "leading samples excluded from fits and metrics"),
    ("normalize", _bool, _TRAIN["normalize"], "map inputs/targets onto [-1,1] from training stats"),
    ("sc.n_max", int, _SC["n_max"], "maximum sub-reservoir size"),
    ("sc.g_max", int, _SC["g_max"], "candidates per pool"),
    ("sc.epsilon", float, _SC["epsilon"], "residual F-norm tolerance"),
    ("sc.lambda_grid", _floats, _SC["lambda_grid"], "weight scale sequence"),
    ("sc.r_schedule", _floats, _SC["r_schedule"], "ladder of reported r values, then 1-1e-k"),
    ("sc.sparsity_range", _floats, _SC["sparsity_range"], "connection density range"),
    ("sc.alpha", float, _SC["alpha"], "spectral scaling factor"),
    ("sc.ridge", float, _SC["ridge"], "readout regularization"),
    ("sc.initial_size", int, _SC["initial_size"], "initial reservoir size, at most n_max"),
    ("sc.activation", str, _SC["activation"], "tanh or sigmoid"),
    ("fcm.m", float, _FCM["m"], "fuzziness exponent"),
    ("fcm.max_iter", int, _FCM["max_iter"], "clustering iteration cap"),
    ("fcm.tol", float, _FCM["tol"], "center movement tolerance"),
    ("esn.n_nodes", int, _ESN["n_nodes"], "baseline reservoir size"),
    ("esn.alpha", float, _ESN["alpha"], "baseline spectral scaling factor"),
    ("esn.sparsity_range", _floats, _ESN["sparsity_range"], "baseline density range"),
    ("esn.ridge", float, _ESN["ridge"], "baseline readout regularization"),
    ("esn.activation", str, _ESN["activation"], "baseline activation"),
    ("esn.weight_scale", float, _ESN["weight_scale"], "baseline uniform draw half-width"),
    ("online.a", float, _ONLINE["a"], "projection gain factor in (0,1]"),
    ("online.c", float, _ONLINE["c"], "gain matrix initialization constant"),
]


def default_config() -> dict:
    return {key: default for key, _, default, _ in CONFIG_SPEC}


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        else:
            flat[name] = value
    return flat


def load_config_file(path) -> dict:
    """Parse and validate a JSON config; unknown keys are rejected by name."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    flat = _flatten(doc)
    known = {key: parse for key, parse, _, _ in CONFIG_SPEC}
    cfg = {}
    for key, value in flat.items():
        if key not in known:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            cfg[key] = known[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None
    return cfg


def _add_config_flags(parser: argparse.ArgumentParser):
    for key, parse, default, help_text in CONFIG_SPEC:
        flag = "--" + key.replace(".", "-").replace("_", "-")
        parser.add_argument(flag, dest=f"cfg::{key}", type=parse, default=None,
                            metavar="V", help=f"{help_text} (default {default})")


def resolve_config(args) -> dict:
    cfg = default_config()
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key, _, _, _ in CONFIG_SPEC:
        override = getattr(args, f"cfg::{key}", None)
        if override is not None:
            cfg[key] = override
    return cfg


def _sub(cfg: dict, prefix: str) -> dict:
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def train_options(cfg: dict) -> dict:
    """The config's training options as keywords of train_model and grid_search."""
    try:
        return dict(sc_cfg=ScConfig(**_sub(cfg, "sc")), fcm_cfg=FcmConfig(**_sub(cfg, "fcm")),
                    esn_cfg=EsnConfig(**_sub(cfg, "esn")), normalize=cfg["normalize"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_gen_data(args, cfg) -> int:
    sizes = _counts(args.sizes, "--sizes", least=5)
    if len(sizes) != 3:
        raise ConfigError("--sizes must be three counts >= 5, e.g. 2000,1000,1000")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg["seed"]
    washout = cfg["washout"]
    modes = {}
    for name, size, mode, split_seed in (
        ("train", sizes[0], "train-random", seed),
        ("val", sizes[1], "train-random", seed + 1),
        # the deterministic benchmark input is defined only for 1000 steps
        ("test", sizes[2], "paper-test" if sizes[2] == 1000 else "train-random", seed + 2),
    ):
        ds = ds_mod.generate_plant_sequence(size, mode=mode, seed=split_seed,
                                            washout=min(washout, size - 1))
        modes[name] = mode
        ds_mod.write_series_csv(
            out / f"{name}.csv",
            ["y", "u", "y_next"],
            [ds.inputs[0].tolist(), ds.inputs[1].tolist(), ds.targets[0].tolist()],
        )
    meta = {
        "seed": seed,
        "washout": washout,
        "sizes": sizes,
        "modes": modes,
        "input_columns": ["y", "u"],
        "target_columns": ["y_next"],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    print(f"wrote {out}/train.csv val.csv test.csv meta.json")
    return 0


def _load_data(path, cfg, args):
    input_cols = [c for c in str(args.input_cols).split(",") if c]
    target_cols = [c for c in str(args.target_cols).split(",") if c]
    shifts = []
    for spec in args.shift or []:
        col, _, lag = spec.partition(":")
        try:
            lag = int(lag)
        except ValueError:
            lag = 0
        if lag < 1:
            raise ConfigError(f"--shift expects COLUMN:LAG with an integer LAG >= 1, got {spec!r}")
        shifts.append((col, lag))
    return ds_mod.load_csv(path, input_cols, target_cols,
                           washout=cfg["washout"], shifts=tuple(shifts))


def cmd_train(args, cfg) -> int:
    options = train_options(cfg)
    train = _load_data(args.data, cfg, args)
    kind = args.model_kind
    model, reports = train_model(train, kind, q=cfg["q"], seed=cfg["seed"], **options)
    save_model(model, args.out_model)
    report_doc = {
        "model_kind": kind,
        "q": model.n_rules,
        "seed": cfg["seed"],
        "train_nrmse": ev.nrmse(predict(model, train.inputs), train.targets, train.washout),
        "reports": [r.to_dict() for r in reports],
    }
    Path(args.out_report).write_text(json.dumps(report_doc, indent=2))
    print(f"trained {kind} (q={model.n_rules}); model -> {args.out_model}, "
          f"report -> {args.out_report}")
    print(f"train NRMSE: {report_doc['train_nrmse']:.6f}")
    return 0


def cmd_predict(args, cfg) -> int:
    model = load_model(args.model)
    # targets are not needed to predict: stand in the first input column so
    # unlabeled CSVs work
    args.target_cols = str(args.input_cols).split(",")[0]
    data = _load_data(args.data, cfg, args)
    pred = predict(model, data.inputs)
    header = ["n"] + [f"prediction_{q + 1}" for q in range(pred.shape[0])]
    ds_mod.write_series_csv(args.out, header, [range(1, pred.shape[1] + 1)] + pred.tolist())
    print(f"wrote {args.out} ({pred.shape[1]} rows)")
    return 0


def cmd_eval(args, cfg) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    model = load_model(args.model)
    data = _load_data(args.data, cfg, args)
    value = ev.nrmse(predict(model, data.inputs), data.targets, data.washout)
    if args.report_dir:
        ev.emit_report(args.report_dir, model=model, dataset=data,
                       fire_strength_stride=args.stride)
    if args.json:
        print(json.dumps({"nrmse": value, "n_samples": data.n_samples,
                          "washout": data.washout}))
    else:
        print(f"NRMSE: {value:.6f}")
    return 0


def cmd_online(args, cfg) -> int:
    model = load_model(args.model)
    data = _load_data(args.data, cfg, args)
    state = ol.init_online(model, a=cfg["online.a"], c=cfg["online.c"])
    st_theta0 = state.theta.copy()
    updated, trace, steps = ol.run_online(model, state, data)
    save_model(updated, args.out_model)
    header = ["step"] + [f"e_s_{q + 1}" for q in range(trace.shape[0])]
    ds_mod.write_series_csv(args.out_trace, header, [steps.tolist()] + trace.tolist())
    moved = float(np.linalg.norm(st_theta0 - state.theta))
    print(f"online pass over {trace.shape[1]} samples, {state.skipped} skipped as non-finite; "
          f"readout moved {moved:.6g}; smallest diag(H) {np.diagonal(state.h).min():.6g}")
    print(f"updated model -> {args.out_model}, trace -> {args.out_trace}")
    return 0


def _counts(text, flag, least=1):
    """A comma-separated list of integers >= least, or a ConfigError naming flag."""
    try:
        values = [int(v) for v in str(text).split(",")]
        if min(values) >= least:
            return values
    except ValueError:
        pass
    raise ConfigError(f"{flag} must be comma-separated integers >= {least}, got {text!r}")


def cmd_gridsearch(args, cfg) -> int:
    q_values = _counts(args.q_list, "--q-list")
    n_values = _counts(args.n_list, "--n-list")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    options = train_options(cfg)
    train = _load_data(args.train, cfg, args)
    val = _load_data(args.val, cfg, args)
    test = _load_data(args.test or args.val, cfg, args)
    result = ev.grid_search(
        train, val, test, q_values=q_values, n_values=n_values,
        model_kind=args.model_kind, trials_per_cell=args.trials, base_seed=cfg["seed"],
        **options,
    )
    ev.emit_report(args.out, grid=result)
    print(f"grid search over q={q_values} n={n_values}: "
          f"selected q={result.best_q}, n={result.best_n}")
    print(f"surface -> {Path(args.out) / 'grid.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frscn",
        description="Fuzzy recurrent stochastic configuration networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_config=True):
        p.add_argument("--input-cols", default="y,u", help="comma-separated input columns")
        p.add_argument("--target-cols", default="y_next", help="comma-separated target columns")
        p.add_argument("--shift", action="append", metavar="COLUMN:LAG",
                       help="append a lagged copy of a column as an extra input; repeatable")
        if with_config:
            p.add_argument("--config", help="JSON config file; flags override it")
            _add_config_flags(p)

    p = sub.add_parser("gen-data", help="write synthetic benchmark CSVs")
    p.add_argument("--out", default="data", help="output directory")
    p.add_argument("--sizes", default="2000,1000,1000", help="train,val,test sample counts")
    p.add_argument("--config", help="JSON config file; flags override it")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--model-kind", default="frscn", choices=MODEL_KINDS,
                   help="rscn/esn are the q=1 aliases of frscn/fesn")
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out-report", default="train_report.json")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predictions for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="predictions.csv")
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="print NRMSE of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--report-dir", default=None,
                   help="also write predictions.csv/fire_strengths.csv here")
    p.add_argument("--stride", type=int, default=1, help="fire-strength sampling stride")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("online", help="adapt readout weights over a stream")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", default="model_online.json")
    p.add_argument("--out-trace", default="online_trace.csv")
    add_common(p)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("gridsearch", help="select (Q, N) by validation NRMSE")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test", default=None, help="optional; defaults to the validation CSV")
    p.add_argument("--model-kind", default="frscn", choices=MODEL_KINDS)
    p.add_argument("--q-list", default=",".join(map(str, _GRID["q_values"])))
    p.add_argument("--n-list", default=",".join(map(str, _GRID["n_values"])))
    p.add_argument("--trials", type=int, default=_GRID["trials_per_cell"],
                   help="trials per grid cell")
    p.add_argument("--out", default="gridsearch", help="output directory")
    add_common(p)
    p.set_defaults(func=cmd_gridsearch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
