"""Command-line surface: data generation, training, prediction, evaluation,
online adaptation, and grid search.

gen-data, train and gridsearch are deterministic under --seed. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error. Built-in
defaults mirror the benchmark protocol, so ``frscn train --data train.csv``
runs the reference settings with zero extra flags. A JSON config file may hold
any key; a run reads its command's keys less those its --model-kind leaves
unread, takes flags only for those, and neither applies nor checks the file's
others. predict reads no key; gridsearch takes only the kinds that read q.
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
from .errors import ConfigError
from .fuzzy import FcmConfig
from .model import MODEL_KINDS, EsnConfig, load_model, predict, save_model, train_frscn, train_model
from .trainer import ScConfig


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
# The keys each command reads, and so the flags it takes; gridsearch sets q and
# the reservoir size from --q-list and --n-list.
COMMAND_KEYS = {"gen-data": ["seed"], "predict": [], "eval": ["washout"],
                "online": ["washout", "online.a", "online.c"],
                "train": [key for key, *_ in CONFIG_SPEC if not key.startswith("online.")]}
COMMAND_KEYS["gridsearch"] = [key for key in COMMAND_KEYS["train"]
                              if key not in ("q", "sc.n_max", "esn.n_nodes")]
# The key groups each model kind leaves unread; the single-rule aliases fix q at 1.
KIND_UNREAD = {"frscn": {"esn"}, "rscn": {"esn", "q"}, "fesn": {"sc"}, "esn": {"sc", "q"}}


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
            # the text its flag would carry, so 2.9 is not truncated to an int key's 2
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            cfg[key] = known[key](text)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None
    return cfg


def _add_config_flags(parser: argparse.ArgumentParser, command: str):
    parser.add_argument("--config", help="JSON config file of any keys; flags override it"
                        if COMMAND_KEYS[command] else
                        f"JSON config file of any keys, only checked: {command} reads none")
    for key, parse, default, help_text in CONFIG_SPEC:
        if key in COMMAND_KEYS[command]:
            flag = "--" + key.replace(".", "-").replace("_", "-")
            parser.add_argument(flag, dest=f"cfg::{key}", type=parse, default=None,
                                metavar="V", help=f"{help_text} (default {default})")


def resolve_config(args) -> dict:
    """Defaults, then the config file, then flags, for only the keys the run reads."""
    unread = KIND_UNREAD.get(getattr(args, "model_kind", None), ())
    flags = {key: getattr(args, f"cfg::{key}") for key in COMMAND_KEYS[args.command]
             if getattr(args, f"cfg::{key}") is not None}
    for key in flags:
        if key.split(".")[0] in unread:
            raise ConfigError(f"--model-kind {args.model_kind} does not read {key}")
    cfg = default_config() | (load_config_file(args.config) if args.config else {}) | flags
    return {key: cfg[key] for key in COMMAND_KEYS[args.command]
            if key.split(".")[0] not in unread}


def train_options(cfg: dict) -> dict:
    """The config's training keywords of train_model and grid_search, for the keys it holds."""
    options = {key: cfg[key] for key in ("q", "normalize") if key in cfg}
    for group, cls in (("sc", ScConfig), ("fcm", FcmConfig), ("esn", EsnConfig)):
        sub = {k[len(group) + 1:]: v for k, v in cfg.items() if k.startswith(group + ".")}
        if sub:
            options[f"{group}_cfg"] = cls(**sub)
    return options


def cmd_gen_data(args, cfg) -> int:
    sizes = _counts(args.sizes, "--sizes", least=5)
    if len(sizes) != 3:
        raise ConfigError("--sizes must be three counts >= 5, e.g. 2000,1000,1000")
    seed = cfg["seed"]
    # the deterministic benchmark input is defined only for 1000 steps
    modes = {"train": "train-random", "val": "train-random",
             "test": "paper-test" if sizes[2] == 1000 else "train-random"}
    splits = {name: ds_mod.generate_plant_sequence(size, mode=modes[name], seed=seed + k,
                                                   washout=0)
              for k, (name, size) in enumerate(zip(modes, sizes))}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in splits.items():
        ds_mod.write_series_csv(
            out / f"{name}.csv",
            ["y", "u", "y_next"],
            [ds.inputs[0].tolist(), ds.inputs[1].tolist(), ds.targets[0].tolist()],
        )
    meta = {
        "seed": seed,
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
    # predict takes no --target-cols: its first input column stands in for them
    targets = getattr(args, "target_cols", ",".join(input_cols[:1]))
    target_cols = [c for c in str(targets).split(",") if c]
    for flag, cols in (("--input-cols", input_cols), ("--target-cols", target_cols)):
        if not cols:
            raise ConfigError(f"{flag} must name at least one column")
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
                           washout=cfg.get("washout", 0), shifts=tuple(shifts))


def cmd_train(args, cfg) -> int:
    options = train_options(cfg)
    train = _load_data(args.data, cfg, args)
    kind = args.model_kind
    model, reports = train_model(train, kind, seed=cfg["seed"], **options)
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
    data = _load_data(args.data, cfg, args)
    model = load_model(args.model)
    pred = predict(model, data.inputs)
    header = ["n"] + [f"prediction_{q + 1}" for q in range(pred.shape[0])]
    ds_mod.write_series_csv(args.out, header, [range(1, pred.shape[1] + 1)] + pred.tolist())
    print(f"wrote {args.out} ({pred.shape[1]} rows)")
    return 0


def cmd_eval(args, cfg) -> int:
    stride = 1 if args.stride is None else args.stride
    if stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {stride}")
    if args.stride is not None and not args.report_dir:
        raise ConfigError("--stride samples fire_strengths.csv and needs --report-dir")
    data = _load_data(args.data, cfg, args)
    model = load_model(args.model)
    value = ev.nrmse(predict(model, data.inputs), data.targets, data.washout)
    if args.report_dir:
        ev.emit_report(args.report_dir, model=model, dataset=data, fire_strength_stride=stride)
    if args.json:
        print(json.dumps({"nrmse": value, "n_samples": data.n_samples,
                          "washout": data.washout}))
    else:
        print(f"NRMSE: {value:.6f}")
    return 0


def cmd_online(args, cfg) -> int:
    data = _load_data(args.data, cfg, args)
    model = load_model(args.model)
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
    result = ev.grid_search(
        train, val, q_values=q_values, n_values=n_values,
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
        prog="frscn", allow_abbrev=False,
        description="Fuzzy recurrent stochastic configuration networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, columns=True, targets=True):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        if columns:
            p.add_argument("--input-cols", default="y,u", help="comma-separated input columns")
            if targets:
                p.add_argument("--target-cols", default="y_next", help="comma-separated target columns")
            p.add_argument("--shift", action="append", metavar="COLUMN:LAG",
                           help="append a lagged copy of a column as an extra input; repeatable")
        return p

    p = command("gen-data", cmd_gen_data, "write synthetic benchmark CSVs", columns=False)
    p.add_argument("--out", default="data", help="output directory")
    p.add_argument("--sizes", default="2000,1000,1000", help="train,val,test sample counts")

    p = command("train", cmd_train, "train a model")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--model-kind", default="frscn", choices=MODEL_KINDS,
                   help="rscn/esn are the q=1 aliases of frscn/fesn")
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out-report", default="train_report.json")

    p = command("predict", cmd_predict, "write predictions for a dataset", targets=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="predictions.csv")

    p = command("eval", cmd_eval, "print NRMSE of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--report-dir", default=None,
                   help="also write predictions.csv/fire_strengths.csv here")
    p.add_argument("--stride", type=int, help="fire_strengths.csv row stride (default 1)")

    p = command("online", cmd_online, "adapt readout weights over a stream")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-model", default="model_online.json")
    p.add_argument("--out-trace", default="online_trace.csv")

    p = command("gridsearch", cmd_gridsearch, "select (Q, N) by validation NRMSE")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--model-kind", default="frscn", help="rscn/esn are frscn/fesn at --q-list 1",
                   choices=[kind for kind in MODEL_KINDS if "q" not in KIND_UNREAD[kind]])
    p.add_argument("--q-list", default=",".join(map(str, _GRID["q_values"])))
    p.add_argument("--n-list", default=",".join(map(str, _GRID["n_values"])))
    p.add_argument("--trials", type=int, default=_GRID["trials_per_cell"],
                   help="trials per grid cell")
    p.add_argument("--out", default="gridsearch", help="output directory")

    for name, p in sub.choices.items():
        _add_config_flags(p, name)
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
