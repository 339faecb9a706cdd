import json
import re

import numpy as np
import pytest

from frscn import (
    FuzzyRuleBank,
    NormalizationStats,
    OnlineState,
    SubReservoir,
    init_online,
    load_csv,
    load_model,
    online_step,
    save_model,
    stacked_features,
    stacked_readout,
)
from frscn.cli import build_parser, default_config, load_config_file, main
from frscn.model import FrscnModel, feature_chunks, train_model


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run(["gen-data", "--out", str(out), "--sizes", "400,200,200",
                "--seed", "3", "--washout", "40"])
    assert code == 0
    return out


FAST = ["--sc-n-max", "8", "--sc-g-max", "20", "--q", "2", "--washout", "40"]


class TestGenData:
    def test_writes_three_csvs_and_meta(self, data_dir):
        for name in ("train.csv", "val.csv", "test.csv"):
            lines = (data_dir / name).read_text().strip().splitlines()
            assert lines[0] == "y,u,y_next"
        assert len((data_dir / "train.csv").read_text().strip().splitlines()) == 401
        meta = json.loads((data_dir / "meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["sizes"] == [400, 200, 200]

    def test_default_sizes_match_protocol(self, tmp_path):
        out = tmp_path / "full"
        assert run(["gen-data", "--out", str(out)]) == 0
        for name, rows in (("train.csv", 2000), ("val.csv", 1000), ("test.csv", 1000)):
            assert len((out / name).read_text().strip().splitlines()) == rows + 1
        meta = json.loads((out / "meta.json").read_text())
        assert meta["modes"]["test"] == "paper-test"

    def test_byte_identical_under_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen-data", "--out", str(out), "--sizes", "100,50,50",
                        "--seed", "9"]) == 0
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_sizes_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        for sizes in ("10", "x,10,10", "10,4,10", "10,,10"):
            assert run(["gen-data", "--out", str(out), "--sizes", sizes]) == 2
            assert "config error: --sizes must be" in capsys.readouterr().err
            assert not out.exists()


class TestConfig:
    def test_defaults_cover_benchmark_settings(self):
        cfg = default_config()
        assert cfg["sc.lambda_grid"] == (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)
        assert cfg["sc.g_max"] == 100
        assert cfg["sc.epsilon"] == 1e-6
        assert cfg["washout"] == 100

    def test_defaults_are_the_config_dataclass_defaults(self):
        import inspect
        from dataclasses import fields

        from frscn import EsnConfig, FcmConfig, ScConfig, grid_search, train_frscn
        cfg = default_config()
        for prefix, cls in (("sc", ScConfig), ("fcm", FcmConfig), ("esn", EsnConfig)):
            for f in fields(cls):
                assert cfg[f"{prefix}.{f.name}"] == f.default, f"{prefix}.{f.name}"
        assert (cfg["online.a"], cfg["online.c"]) == (OnlineState.a, OnlineState.c)
        train = inspect.signature(train_frscn).parameters
        for key in ("q", "seed", "normalize"):
            assert cfg[key] == train[key].default, key
        grid = inspect.signature(grid_search).parameters
        args = build_parser().parse_args(["gridsearch", "--train", "t.csv", "--val", "v.csv"])
        assert [int(v) for v in args.q_list.split(",")] == list(grid["q_values"].default)
        assert [int(v) for v in args.n_list.split(",")] == list(grid["n_values"].default)
        assert args.trials == grid["trials_per_cell"].default

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sc": {"bogus_knob": 1}}))
        with pytest.raises(ValueError, match="bogus_knob"):
            load_config_file(path)

    def test_unknown_key_exits_2(self, tmp_path, data_dir):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": True}))
        code = run(["train", "--data", str(data_dir / "train.csv"),
                    "--config", str(path),
                    "--out-model", str(tmp_path / "m.json"),
                    "--out-report", str(tmp_path / "r.json")])
        assert code == 2

    def test_nested_file_values_parsed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sc": {"lambda_grid": [0.1, 0.5]}, "q": 3}))
        cfg = load_config_file(path)
        assert cfg["sc.lambda_grid"] == (0.1, 0.5)
        assert cfg["q"] == 3

    @pytest.mark.parametrize("doc", [{"q": 2.9}, {"sc": {"n_max": 7.5}}, {"sc": {"g_max": True}},
                                     {"q": 2.9, "sc": {"n_max": 7.5, "g_max": True}}])
    def test_file_value_parsed_as_its_flag_text_exits_2(self, tmp_path, data_dir, capsys, doc):
        # --q 2.9 is a usage error, so the same value in a file is one too, not a truncated 2
        path, model_path, report_path = (tmp_path / name for name in ("cfg.json", "m.json", "r.json"))
        path.write_text(json.dumps(doc))
        assert run(["train", "--data", str(data_dir / "train.csv"), "--config", str(path),
                    "--out-model", str(model_path), "--out-report", str(report_path)]) == 2
        assert "bad value for" in capsys.readouterr().err
        assert not model_path.exists() and not report_path.exists()

    def test_file_keys_the_model_kind_does_not_read_are_not_checked(self, tmp_path, data_dir):
        # esn.alpha = 2 is out of range, but an frscn model never reads it
        path, model_path = tmp_path / "cfg.json", tmp_path / "m.json"
        path.write_text(json.dumps({"esn": {"alpha": 2}}))
        assert run(["train", "--data", str(data_dir / "train.csv"), "--config", str(path),
                    "--out-model", str(model_path), "--out-report", str(tmp_path / "r.json"),
                    *FAST]) == 0
        assert model_path.exists()

    def test_missing_data_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train"])
        assert exc.value.code == 2


class TestTrainPredictEval:
    def test_full_pipeline(self, data_dir, tmp_path):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        code = run(["train", "--data", str(data_dir / "train.csv"),
                    "--model-kind", "frscn", "--seed", "1",
                    "--out-model", str(model_path),
                    "--out-report", str(report_path), *FAST])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["q"] == 2
        for rule in report["reports"]:
            trace = rule["residual_trace"]
            assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))

        pred_path = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model_path),
                    "--data", str(data_dir / "test.csv"),
                    "--out", str(pred_path)]) == 0
        lines = pred_path.read_text().strip().splitlines()
        assert lines[0] == "n,prediction_1"
        assert len(lines) == 201  # one row per time step

        out = run(["eval", "--model", str(model_path),
                   "--data", str(data_dir / "test.csv"), "--json",
                   "--washout", "40"])
        assert out == 0

    def test_n_max_below_initial_size_caps_every_rule(self, data_dir, tmp_path):
        model_path, report_path = tmp_path / "model.json", tmp_path / "report.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--q", "2",
                    "--sc-n-max", "3", "--sc-g-max", "20", "--washout", "40",
                    "--out-model", str(model_path), "--out-report", str(report_path)]) == 0
        rules = json.loads(report_path.read_text())["reports"]
        assert [(r["n_nodes"], r["stop_reason"]) for r in rules] == [(3, "size-cap")] * 2
        assert [res.n_nodes for res in load_model(model_path).sub_reservoirs] == [3, 3]

    def test_deterministic_model_files(self, data_dir, tmp_path):
        paths = []
        for tag in ("a", "b"):
            mp = tmp_path / f"m_{tag}.json"
            assert run(["train", "--data", str(data_dir / "train.csv"),
                        "--seed", "7", "--out-model", str(mp),
                        "--out-report", str(tmp_path / f"r_{tag}.json"), *FAST]) == 0
            paths.append(mp)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("kind", ["frscn", "fesn"])
    def test_cli_writes_the_library_model_file(self, data_dir, tmp_path, kind):
        from frscn import EsnConfig, ScConfig
        cli_path, lib_path = tmp_path / "cli.json", tmp_path / "lib.json"
        flags = FAST if kind == "frscn" else ["--esn-n-nodes", "6", "--q", "2", "--washout", "40"]
        assert run(["train", "--data", str(data_dir / "train.csv"), "--model-kind", kind,
                    "--seed", "5", "--out-model", str(cli_path),
                    "--out-report", str(tmp_path / "r.json"), *flags]) == 0
        train = load_csv(data_dir / "train.csv", ["y", "u"], ["y_next"], washout=40)
        model, _ = train_model(train, kind, q=2, sc_cfg=ScConfig(n_max=8, g_max=20),
                               esn_cfg=EsnConfig(n_nodes=6), seed=5)
        save_model(model, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    def test_eval_perfect_model_reports_zero(self, tmp_path):
        # selector model reproduces the target column exactly
        res = SubReservoir(w_in=np.zeros((1, 2)), w_r=np.zeros((1, 1)), b=np.zeros(1),
                           w_out=np.array([[0.0, 1.0, 0.0]]))  # picks input y
        model = FrscnModel(
            rule_bank=FuzzyRuleBank(centers=np.zeros((1, 2)), widths=np.ones((1, 2))),
            sub_reservoirs=(res,),
            normalization=NormalizationStats(
                input_min=np.zeros(2), input_max=np.zeros(2),
                target_min=np.zeros(1), target_max=np.zeros(1), enabled=False,
            ),
        )
        model_path = tmp_path / "selector.json"
        save_model(model, model_path)
        data_path = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{rng.random()!r},{rng.random()!r}" for _ in range(50))
        data_path.write_text("y,u\n" + rows + "\n")
        code = run(["eval", "--model", str(model_path), "--data", str(data_path),
                    "--input-cols", "y,u", "--target-cols", "y",
                    "--washout", "5", "--json"])
        assert code == 0

    @pytest.mark.parametrize("shift", ["y:x", "y:0", "y:-2", "y"])
    def test_bad_shift_exits_2_without_writing(self, data_dir, tmp_path, capsys, shift):
        model_path, report_path = tmp_path / "model.json", tmp_path / "rep.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--shift", shift,
                    "--out-model", str(model_path), "--out-report", str(report_path), *FAST]) == 2
        assert (f"config error: --shift expects COLUMN:LAG with an integer LAG >= 1, got {shift!r}"
                in capsys.readouterr().err)
        assert not model_path.exists() and not report_path.exists()

    @pytest.mark.parametrize("flag", ["--input-cols", "--target-cols"])
    @pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
    def test_empty_columns_exit_2_without_writing(self, data_dir, tmp_path, capsys, flag, value):
        model_path, report_path = tmp_path / "model.json", tmp_path / "rep.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), flag, value,
                    "--out-model", str(model_path), "--out-report", str(report_path), *FAST]) == 2
        assert f"config error: {flag} must name at least one column" in capsys.readouterr().err
        assert not model_path.exists() and not report_path.exists()

    # predict reads no target columns
    @pytest.mark.parametrize("command, flag", [
        ("eval", "--input-cols"), ("eval", "--target-cols"), ("online", "--input-cols"),
        ("online", "--target-cols"), ("predict", "--input-cols")])
    def test_empty_columns_exit_2_before_reading_the_model(self, data_dir, tmp_path, capsys,
                                                           command, flag):
        # the model file does not exist: the usage error comes before any read
        outputs = {"eval": ["--report-dir", str(tmp_path / "report")],
                   "online": ["--out-model", str(tmp_path / "m.json"),
                              "--out-trace", str(tmp_path / "t.csv")],
                   "predict": ["--out", str(tmp_path / "p.csv")]}[command]
        assert run([command, "--model", str(tmp_path / "absent.json"),
                    "--data", str(data_dir / "test.csv"), flag, ",", *outputs]) == 2
        assert f"config error: {flag} must name at least one column" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_dimension_mismatch_exits_1(self, data_dir, tmp_path):
        res = SubReservoir(w_in=np.zeros((1, 3)), w_r=np.zeros((1, 1)), b=np.zeros(1),
                           w_out=np.zeros((1, 4)))
        model = FrscnModel(
            rule_bank=FuzzyRuleBank(centers=np.zeros((1, 3)), widths=np.ones((1, 3))),
            sub_reservoirs=(res,),
            normalization=NormalizationStats(
                input_min=np.zeros(3), input_max=np.zeros(3),
                target_min=np.zeros(1), target_max=np.zeros(1), enabled=False,
            ),
        )
        mp = tmp_path / "m3.json"
        save_model(model, mp)
        assert run(["predict", "--model", str(mp),
                    "--data", str(data_dir / "test.csv"),
                    "--out", str(tmp_path / "p.csv")]) == 1
        assert run(["eval", "--model", str(mp), "--data", str(data_dir / "test.csv")]) == 1
        out_model = tmp_path / "m3_online.json"
        assert run(["online", "--model", str(mp), "--data", str(data_dir / "test.csv"),
                    "--out-model", str(out_model),
                    "--out-trace", str(tmp_path / "t.csv")]) == 1
        assert not out_model.exists()


def first_rejected_sample(model, path, c):
    """1-based index of the first sample whose single-sample online_step is
    rejected, over the CLI's view of the CSV at washout 40; None if none is."""
    data = load_csv(path, ["y", "u"], ["y_next"], washout=40)
    st = init_online(model, c=c)
    targets = model.normalization.apply_targets(data.targets)
    for chunk, phi, blocks in feature_chunks(model, data.inputs):
        g = stacked_features(phi, blocks)
        for n in range(max(chunk.start, data.washout), chunk.start + g.shape[1]):
            if online_step(st, g[:, n - chunk.start], targets[:, n])[1] is None:
                return n + 1
    return None


class TestOnlineCommand:
    def test_online_on_own_predictions_stays_put(self, data_dir, tmp_path):
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "2",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "rep.json"), *FAST]) == 0

        # planted fixture: targets are the model's own predictions
        pred_path = tmp_path / "self.csv"
        assert run(["predict", "--model", str(model_path),
                    "--data", str(data_dir / "train.csv"),
                    "--out", str(pred_path)]) == 0
        preds = [float(l.split(",")[1]) for l in
                 pred_path.read_text().strip().splitlines()[1:]]
        train_lines = (data_dir / "train.csv").read_text().strip().splitlines()
        merged = tmp_path / "planted.csv"
        with open(merged, "w") as fh:
            fh.write("y,u,y_next\n")
            for line, p in zip(train_lines[1:], preds):
                y, u, _ = line.split(",")
                fh.write(f"{y},{u},{p!r}\n")

        out_model = tmp_path / "adapted.json"
        out_trace = tmp_path / "trace.csv"
        assert run(["online", "--model", str(model_path), "--data", str(merged),
                    "--out-model", str(out_model), "--out-trace", str(out_trace),
                    "--washout", "40"]) == 0
        lines = out_trace.read_text().strip().splitlines()
        assert lines[0] == "step,e_s_1"
        # planted fixture: the readout is already optimal, so it barely moves
        movement = np.abs(stacked_readout(load_model(out_model))
                          - stacked_readout(load_model(model_path))).max()
        assert movement < 1e-3

    def test_non_finite_feature_sample_is_skipped_and_counted(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "2",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "rep.json"), *FAST]) == 0
        # planted fixture: one post-washout input overflows the normalization,
        # so that sample's G(n) column is not finite
        lines = (data_dir / "val.csv").read_text().strip().splitlines()
        y, _, target = lines[1 + 100].split(",")
        lines[1 + 100] = f"{y},1e308,{target}"
        planted = tmp_path / "planted.csv"
        planted.write_text("\n".join(lines) + "\n")
        capsys.readouterr()

        out_trace = tmp_path / "trace.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["online", "--model", str(model_path), "--data", str(planted),
                        "--out-model", str(tmp_path / "adapted.json"),
                        "--out-trace", str(out_trace), "--washout", "40"]) == 0
        summary = capsys.readouterr().out
        assert ", 1 skipped as non-finite;" in summary
        assert "smallest diag(H) " in summary
        rows = out_trace.read_text().strip().splitlines()[1:]
        assert len(rows) == (len(lines) - 1) - 40 - 1
        assert all(np.isfinite(float(v)) for row in rows for v in row.split(","))
        # step is the post-washout sample number: the planted sample 101 (post-washout
        # sample 61) has no row, so the steps jump from 60 to 62
        steps = [int(row.split(",")[0]) for row in rows]
        assert steps == [n for n in range(1, (len(lines) - 1) - 40 + 1) if n != 61]

    @pytest.mark.filterwarnings("error")
    def test_diverging_readout_exits_1_without_writing(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "2",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "rep.json"), *FAST]) == 0
        # a gain matrix of 1e300 I drives Theta and H out of range within a few updates
        out_model = tmp_path / "adapted.json"
        assert run(["online", "--model", str(model_path),
                    "--data", str(data_dir / "val.csv"), "--online-c", "1e-300",
                    "--out-model", str(out_model),
                    "--out-trace", str(tmp_path / "trace.csv"), "--washout", "40"]) == 1
        assert not out_model.exists()
        # the block update names the sample a one-sample-at-a-time pass fails at
        first = first_rejected_sample(load_model(model_path), data_dir / "val.csv", c=1e-300)
        assert first is not None
        assert f"sample {first} " in capsys.readouterr().err


class TestFarOutInput:
    @pytest.mark.filterwarnings("error")
    def test_predict_and_eval_exit_1_naming_the_sample(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "2",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "rep.json"), *FAST]) == 0
        # planted fixture: one finite input far outside the training range
        lines = (data_dir / "val.csv").read_text().strip().splitlines()
        y, _, target = lines[1 + 100].split(",")
        lines[1 + 100] = f"{y},1e308,{target}"
        planted = tmp_path / "planted.csv"
        planted.write_text("\n".join(lines) + "\n")
        capsys.readouterr()

        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model_path), "--data", str(planted),
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert run(["eval", "--model", str(model_path), "--data", str(planted),
                    "--washout", "40", "--report-dir", str(tmp_path / "report")]) == 1
        err = capsys.readouterr().err
        assert err.count("error: input sample 101 is not finite after normalization") == 2


class TestPredictUnlabeled:
    def test_predict_without_target_column(self, data_dir, tmp_path):
        model_path = tmp_path / "m.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "1",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "r.json"), *FAST]) == 0
        lines = (data_dir / "test.csv").read_text().strip().splitlines()
        unlabeled = tmp_path / "unlabeled.csv"
        with open(unlabeled, "w") as fh:
            fh.write("y,u\n")
            for line in lines[1:]:
                y, u, _ = line.split(",")
                fh.write(f"{y},{u}\n")
        out = tmp_path / "p.csv"
        assert run(["predict", "--model", str(model_path), "--data", str(unlabeled),
                    "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 201

    def test_predict_reads_no_washout(self, small_model, data_dir, tmp_path):
        # 30 rows are fewer than the default washout of 100, which predict never used
        short = tmp_path / "short.csv"
        short.write_text("\n".join((data_dir / "test.csv").read_text().splitlines()[:31]) + "\n")
        out = tmp_path / "p.csv"
        assert run(["predict", "--model", str(small_model), "--data", str(short),
                    "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 31


class TestHelpSurface:
    def test_every_config_key_has_a_flag(self, capsys):
        # each command takes --config and a flag for exactly the keys it reads, 49 in all
        from frscn.cli import CONFIG_SPEC
        flag = {key: "--" + key.replace(".", "-").replace("_", "-") for key, *_ in CONFIG_SPEC}
        fit = {key for key in flag if not key.startswith("online.")}
        expected = {"gen-data": {"seed", "washout"}, "train": fit, "predict": set(),
                    "eval": {"washout"}, "online": {"washout", "online.a", "online.c"},
                    "gridsearch": fit - {"q", "sc.n_max", "esn.n_nodes"}}
        config_flags = set(flag.values()) | {"--config"}
        for command, keys in expected.items():
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
            assert shown & config_flags == {flag[key] for key in keys} | {"--config"}, command
        assert sum(map(len, expected.values())) == 49
        assert set().union(*expected.values()) == set(flag)

    def test_config_help_says_a_command_without_keys_only_checks_the_file(self, capsys):
        for command, only_checked in (("predict", True), ("eval", False), ("train", False)):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert ("only checked: predict reads none" in text) == only_checked, command

    @pytest.mark.parametrize("command, flags", [
        ("predict", ["--sc-n-max", "5"]),
        ("eval", ["--seed", "3"]),
        ("train", ["--online-a", "0.5"]),
        ("gen-data", ["--q", "2"]),
        ("gridsearch", ["--q", "3"]),  # not read as an abbreviation of --q-list
        ("gridsearch", ["--sc-n-max", "5"]),
        ("gridsearch", ["--test", "VAL"]),
        ("predict", ["--washout", "40"]),  # predict reads no washout and no targets
        ("predict", ["--target-cols", "y_next"]),
    ])
    def test_flag_the_command_does_not_read_exits_2_without_writing(self, data_dir, tmp_path,
                                                                    capsys, command, flags):
        train, val = str(data_dir / "train.csv"), str(data_dir / "val.csv")
        out = tmp_path / "out"
        argv = {
            "gen-data": ["--out", out],
            "train": ["--data", train, "--out-model", out, "--out-report", tmp_path / "r.json"],
            "predict": ["--model", tmp_path / "m.json", "--data", val, "--out", out],
            "eval": ["--model", tmp_path / "m.json", "--data", val, "--report-dir", out],
            "gridsearch": ["--train", train, "--val", val, "--q-list", "1", "--n-list", "6",
                           "--trials", "1", "--washout", "40", "--out", out],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *map(str, argv), *(val if f == "VAL" else f for f in flags)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, kind, flags, key", [
        ("train", "fesn", ["--sc-n-max", "5"], "sc.n_max"),
        ("train", "rscn", ["--q", "5"], "q"),
        ("train", "frscn", ["--esn-alpha", "0.5"], "esn.alpha"),
        ("gridsearch", "fesn", ["--sc-g-max", "20"], "sc.g_max"),
    ])
    def test_flag_the_model_kind_does_not_read_exits_2_before_any_file(
            self, tmp_path, capsys, command, kind, flags, key):
        # neither the config file nor the data exists: the refusal comes first
        absent = str(tmp_path / "absent")
        argv = {"train": ["--data", absent, "--out-model", absent, "--out-report", absent],
                "gridsearch": ["--train", absent, "--val", absent, "--out", absent]}[command]
        assert run([command, *argv, "--model-kind", kind, "--config", absent, *flags]) == 2
        assert f"config error: --model-kind {kind} does not read {key}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["rscn", "esn"])
    def test_gridsearch_refuses_the_single_rule_aliases(self, data_dir, tmp_path, capsys, kind):
        # an alias fixes q at 1, so its --q-list rows would all be q = 1 models
        out = tmp_path / "grid"
        with pytest.raises(SystemExit) as exc:
            run(["gridsearch", "--train", str(data_dir / "train.csv"), "--val",
                 str(data_dir / "val.csv"), "--model-kind", kind, "--q-list", "1,2,3",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert f"invalid choice: '{kind}'" in capsys.readouterr().err
        assert not out.exists()

    def test_one_config_file_serves_every_command(self, tmp_path):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({
            "q": 2, "seed": 4, "washout": 40, "normalize": True,
            "sc": {"n_max": 8, "g_max": 20, "initial_size": 3, "activation": "tanh"},
            "fcm": {"m": 2.0, "max_iter": 100, "tol": 1e-5},
            "esn": {"n_nodes": 6, "ridge": 1e-8},
            "online": {"a": 1.0, "c": 0.01},
        }))
        d, c = tmp_path / "data", ["--config", str(cfg)]
        model = str(tmp_path / "model.json")
        for argv in (
            ["gen-data", "--out", d, "--sizes", "300,150,150"],
            ["train", "--data", d / "train.csv", "--out-model", model,
             "--out-report", tmp_path / "report.json"],
            ["predict", "--model", model, "--data", d / "test.csv", "--out", tmp_path / "p.csv"],
            ["eval", "--model", model, "--data", d / "test.csv", "--json"],
            ["online", "--model", model, "--data", d / "val.csv",
             "--out-model", tmp_path / "online.json", "--out-trace", tmp_path / "trace.csv"],
            ["gridsearch", "--train", d / "train.csv", "--val", d / "val.csv", "--q-list", "1",
             "--n-list", "6", "--trials", "1", "--out", tmp_path / "grid"],
        ):
            assert run([*map(str, argv), *c]) == 0, argv[0]
        assert json.loads((d / "meta.json").read_text())["washout"] == 40
        assert json.loads((tmp_path / "report.json").read_text())["q"] == 2


@pytest.fixture(scope="module")
def small_model(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert run(["train", "--data", str(data_dir / "train.csv"), "--out-model", str(path),
                "--out-report", str(path.with_name("report.json")), *FAST]) == 0
    return path


class TestSettingRanges:
    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--q", "0"], "q must be >= 1"),
        ("train", ["--seed", "-1"], "seed must be >= 0"),
        ("train", ["--washout", "-5"], "washout -5 out of range for 400 samples"),
        ("train", ["--sc-sparsity-range", "0.1"], "sparsity_range must satisfy"),
        ("gen-data", ["--seed", "-1"], "seed must be >= 0"),
        ("online", ["--online-a", "2"], "a must be in (0, 1]"),
        ("online", ["--online-c", "0"], "c must be positive"),
    ])
    def test_out_of_range_setting_exits_2_without_writing(self, data_dir, small_model, tmp_path,
                                                          capsys, command, flags, message):
        out = tmp_path / "out"
        argv = {
            "gen-data": ["--out", out],
            "train": ["--data", data_dir / "train.csv", "--out-model", out,
                      "--out-report", tmp_path / "r.json"],
            "online": ["--model", small_model, "--data", data_dir / "val.csv",
                       "--out-model", out, "--out-trace", tmp_path / "t.csv"],
        }[command]
        assert run([command, *map(str, argv), *flags]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_grid_seed_exits_2_without_writing(self, data_dir, tmp_path, capsys):
        out = tmp_path / "grid"
        assert run(["gridsearch", "--train", str(data_dir / "train.csv"),
                    "--val", str(data_dir / "val.csv"), "--q-list", "1", "--n-list", "6",
                    "--trials", "1", "--washout", "40", "--seed", "-1", "--out", str(out)]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestEvalReportDir:
    def test_artifacts_written(self, data_dir, tmp_path):
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "4",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "rep.json"), *FAST]) == 0
        report_dir = tmp_path / "report"
        assert run(["eval", "--model", str(model_path),
                    "--data", str(data_dir / "test.csv"), "--washout", "40",
                    "--report-dir", str(report_dir), "--stride", "10"]) == 0
        assert (report_dir / "predictions.csv").exists()
        fs = (report_dir / "fire_strengths.csv").read_text().strip().splitlines()
        assert fs[0] == "n,phi_1,phi_2"
        assert len(fs) - 1 == (200 - 40 + 9) // 10

    def test_stride_without_report_dir_exits_2(self, small_model, data_dir, capsys):
        assert run(["eval", "--model", str(small_model), "--data", str(data_dir / "test.csv"),
                    "--washout", "40", "--stride", "50"]) == 2
        assert "config error: --stride samples fire_strengths.csv and needs --report-dir" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("stride", ["0", "-5"])
    def test_stride_below_one_exits_2_without_writing(self, data_dir, tmp_path, capsys, stride):
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(data_dir / "train.csv"), "--seed", "4",
                    "--out-model", str(model_path),
                    "--out-report", str(tmp_path / "rep.json"), *FAST]) == 0
        report_dir = tmp_path / "report"
        assert run(["eval", "--model", str(model_path),
                    "--data", str(data_dir / "test.csv"), "--washout", "40",
                    "--report-dir", str(report_dir), "--stride", stride]) == 2
        assert f"config error: --stride must be >= 1, got {stride}" in capsys.readouterr().err
        assert not report_dir.exists()


class TestGridSearchCommand:
    def test_single_cell_grid(self, data_dir, tmp_path):
        out = tmp_path / "grid"
        code = run(["gridsearch", "--train", str(data_dir / "train.csv"),
                    "--val", str(data_dir / "val.csv"),
                    "--q-list", "1", "--n-list", "6", "--trials", "1",
                    "--out", str(out), "--sc-g-max", "20", "--washout", "40"])
        assert code == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        doc = json.loads((out / "summary.json").read_text())
        assert doc["grid"]["best_q"] == 1
        assert doc["grid"]["best_n"] == 6

    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--q-list", "x"], "--q-list must be comma-separated integers >= 1, got 'x'"),
        (["--q-list", "1,0"], "--q-list must be comma-separated integers >= 1, got '1,0'"),
        (["--n-list", "-3"], "--n-list must be comma-separated integers >= 1, got '-3'"),
        (["--n-list", "6,"], "--n-list must be comma-separated integers >= 1, got '6,'"),
    ])
    def test_bad_grid_flags_exit_2_without_writing(self, data_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "grid"
        code = run(["gridsearch", "--train", str(data_dir / "train.csv"),
                    "--val", str(data_dir / "val.csv"), "--q-list", "1", "--n-list", "6",
                    "--out", str(out), "--washout", "40", *flags])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_cell_failing_exits_1(self, tmp_path, capsys):
        # constant columns: two rules cannot be clustered, so every trial fails
        data = tmp_path / "constant.csv"
        data.write_text("y,u,y_next\n" + "0.5,0.25,0.5\n" * 200)
        code = run(["gridsearch", "--train", str(data), "--val", str(data),
                    "--q-list", "2", "--n-list", "6", "--trials", "1",
                    "--washout", "20", "--out", str(tmp_path / "grid")])
        assert code == 1
        assert "error: every grid cell failed" in capsys.readouterr().err
