"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The benchmark reproduction (criteria 1-3) trains 10 seeded models
at Q=5 and is the slow part of the suite.
"""

import numpy as np
import pytest

from frscn import (
    EsnConfig,
    ScConfig,
    SubReservoir,
    fit_readout,
    generate_plant_sequence,
    nrmse,
    predict,
    stacked_features,
    stacked_readout,
    train_sub_reservoir,
)
from frscn.cli import main
from frscn.evaluation import run_trials
from frscn.fuzzy import FuzzyRuleBank, fire_strength_matrix
from frscn.online import OnlineState, online_step
from frscn.dataset import plant_response
from support import echo_state_gap

N_TRIALS = 10
N_MAX = 50  # criterion 1 allows any reservoir size up to 100


def _random_model(rng, q=3, k=2, l_dims=1, n=4):
    from frscn import FrscnModel, NormalizationStats

    reservoirs = []
    for _ in range(q):
        reservoirs.append(SubReservoir(
            w_in=rng.uniform(-1, 1, (n, k)),
            w_r=np.tril(rng.uniform(-0.4, 0.4, (n, n))),
            b=rng.uniform(-0.5, 0.5, n),
            w_out=rng.normal(size=(l_dims, n + k)),
        ))
    bank = FuzzyRuleBank(centers=rng.normal(size=(q, k)), widths=rng.uniform(0.5, 2, (q, k)))
    stats = NormalizationStats(
        input_min=np.zeros(k), input_max=np.zeros(k),
        target_min=np.zeros(l_dims), target_max=np.zeros(l_dims), enabled=False,
    )
    return FrscnModel(rule_bank=bank, sub_reservoirs=tuple(reservoirs), normalization=stats)


@pytest.fixture(scope="module")
def benchmark_data():
    train = generate_plant_sequence(2000, "train-random", seed=1, washout=100)
    val = generate_plant_sequence(1000, "train-random", seed=2, washout=100)
    test = generate_plant_sequence(1000, "paper-test", seed=0, washout=100)
    return train, val, test


@pytest.fixture(scope="module")
def frscn_runs(benchmark_data):
    train, val, test = benchmark_data
    results, summary, reports = run_trials(
        train, val, test, "frscn", q=5, sc_cfg=ScConfig(n_max=N_MAX),
        n_trials=N_TRIALS, base_seed=0, keep_reports=True,
    )
    return results, summary, reports


@pytest.fixture(scope="module")
def fesn_runs(benchmark_data):
    train, val, test = benchmark_data
    results, summary = run_trials(
        train, val, test, "fesn", q=5, esn_cfg=EsnConfig(n_nodes=N_MAX),
        n_trials=N_TRIALS, base_seed=0,
    )
    return results, summary


def test_criterion_01_benchmark_reproduction(frscn_runs):
    results, _, _ = frscn_runs
    assert all(not r.error for r in results)
    med_train = float(np.median([r.train_nrmse for r in results]))
    med_test = float(np.median([r.test_nrmse for r in results]))
    print(f"\nACCEPTANCE 1 {'PASS' if med_train <= 0.02 and med_test <= 0.06 else 'FAIL'}: "
          f"median train NRMSE {med_train:.4f} (<= 0.02), "
          f"median test NRMSE {med_test:.4f} (<= 0.06), "
          f"Q=5, N<={N_MAX}, {N_TRIALS} trials")
    assert med_train <= 0.02
    assert med_test <= 0.06


def test_criterion_02_model_ordering(frscn_runs, fesn_runs):
    f_results, _, _ = frscn_runs
    e_results, _ = fesn_runs
    med_f = float(np.median([r.test_nrmse for r in f_results]))
    med_e = float(np.median([r.test_nrmse for r in e_results]))
    print(f"\nACCEPTANCE 2 {'PASS' if med_f <= med_e else 'FAIL'}: "
          f"median test NRMSE {med_f:.4f} (grown) <= {med_e:.4f} (fixed random), "
          f"paired seeds, Q=5, N={N_MAX}")
    assert med_f <= med_e


def test_criterion_03_residual_monotonicity(frscn_runs):
    _, _, reports_per_trial = frscn_runs
    violations = 0
    checked = 0
    for reports in reports_per_trial:
        for rep in reports:
            checked += 1
            trace = rep.residual_trace
            violations += sum(
                1 for a, b in zip(trace, trace[1:]) if b > a + 1e-10
            )
    print(f"\nACCEPTANCE 3 {'PASS' if violations == 0 else 'FAIL'}: "
          f"{violations} violations beyond 1e-10 over {checked} residual traces")
    assert violations == 0


def test_criterion_04_supervisory_one_step_bound():
    train = generate_plant_sequence(800, "train-random", seed=4, washout=80)
    records = []

    def hook(e_prev, g, r, mu):
        records.append((e_prev, g, r, mu))

    train_sub_reservoir(train, ScConfig(n_max=105), seed=17, accept_hook=hook)
    steps = records[:100]
    assert len(steps) == 100
    worst = -np.inf
    for e_prev, g, r, mu in steps:
        gg = g @ g
        for q in range(e_prev.shape[0]):
            w_star = (e_prev[q] @ g) / gg
            e_new = e_prev[q] - w_star * g
            slack = (e_new @ e_new) - (r + mu) * (e_prev[q] @ e_prev[q])
            worst = max(worst, slack)
    print(f"\nACCEPTANCE 4 {'PASS' if worst <= 1e-8 else 'FAIL'}: "
          f"worst one-step bound slack {worst:.3e} (<= 1e-8) over 100 steps")
    assert worst <= 1e-8


def test_criterion_05_echo_state_contraction():
    rng = np.random.default_rng(5)
    worst_sigma = 0.0
    worst_ratio = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 25))
        w_r = np.tril(rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.5))
        if not w_r.any():
            w_r[1, 0] = rng.uniform(0.2, 1.0)
        alpha = rng.uniform(0.5, 0.99)
        res = SubReservoir(
            w_in=rng.uniform(-0.5, 0.5, (n, 1)),
            w_r=w_r,
            b=rng.uniform(-0.5, 0.5, n),
        ).rescale(alpha)
        sigma = np.linalg.svd(res.w_r, compute_uv=False)[0]  # independent oracle
        worst_sigma = max(worst_sigma, sigma)
        u = rng.uniform(-1, 1, (1, 200))
        x0_a = rng.normal(size=n)
        x0_b = rng.normal(size=n)
        gap = echo_state_gap(res, u, x0_a, x0_b)
        worst_ratio = max(worst_ratio, gap[-1] / np.linalg.norm(x0_a - x0_b))
    ok = worst_sigma < 1.0 and worst_ratio < 1e-6
    print(f"\nACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: "
          f"max sigma_max {worst_sigma:.4f} (< 1), "
          f"max gap ratio at step 200: {worst_ratio:.2e} (< 1e-6), 100 reservoirs")
    assert worst_sigma < 1.0
    assert worst_ratio < 1e-6


def test_criterion_06_online_convergence():
    dim, l_dims, steps = 8, 2, 500
    worst_increase = -np.inf
    worst_final = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        theta_star = rng.normal(size=(l_dims, dim))
        st = OnlineState(theta=np.zeros((l_dims, dim)), h=np.eye(dim) / 1e-2,
                         a=1.0, c=1e-2)
        dev = np.linalg.norm(st.theta - theta_star)
        for _ in range(steps):
            g = np.zeros(dim)
            g[rng.integers(dim)] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            online_step(st, g, theta_star @ g)
            new_dev = np.linalg.norm(st.theta - theta_star)
            worst_increase = max(worst_increase, new_dev - dev)
            dev = new_dev
        worst_final = max(worst_final, dev)
    ok = worst_increase <= 1e-10 and worst_final < 1e-3
    print(f"\nACCEPTANCE 6 {'PASS' if ok else 'FAIL'}: "
          f"worst per-step deviation increase {worst_increase:.2e} (<= 1e-10), "
          f"worst final deviation {worst_final:.2e} (< 1e-3), 20 seeds, a=1, c=1e-2")
    assert worst_increase <= 1e-10
    assert worst_final < 1e-3


def test_criterion_07_q1_reduction_bit_identical(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--out", str(data_dir), "--sizes", "300,100,100",
                 "--seed", "1"]) == 0
    fast = ["--sc-n-max", "12", "--sc-g-max", "30", "--washout", "50", "--seed", "5"]
    pred_files = []
    for kind, q_flags in (("frscn", ["--q", "1"]), ("rscn", [])):
        model = tmp_path / f"{kind}.json"
        assert main(["train", "--data", str(data_dir / "train.csv"),
                     "--model-kind", kind, *q_flags,
                     "--out-model", str(model),
                     "--out-report", str(tmp_path / f"{kind}_rep.json"), *fast]) == 0
        pred = tmp_path / f"{kind}_pred.csv"
        assert main(["predict", "--model", str(model),
                     "--data", str(data_dir / "test.csv"),
                     "--out", str(pred)]) == 0
        pred_files.append(pred.read_bytes())
    identical = pred_files[0] == pred_files[1]
    print(f"\nACCEPTANCE 7 {'PASS' if identical else 'FAIL'}: "
          f"Q=1 model and single-rule alias produce byte-identical prediction files")
    assert identical


def test_criterion_08_oracle_equivalences():
    # (a) least-squares readout vs normal-equations brute force, 20x200
    rng = np.random.default_rng(8)
    states = rng.normal(size=(15, 200))
    inputs = rng.normal(size=(5, 200))
    targets = rng.normal(size=(2, 200))
    w, _ = fit_readout(states, inputs, targets, ridge=0.0)
    d = np.vstack([states, inputs])
    w_ref = (np.linalg.inv(d @ d.T) @ d @ targets.T).T
    ls_err = float(np.abs(w - w_ref).max())

    # (b) weighted-sum prediction vs stacked-readout form
    stack_err = 0.0
    for k in range(5):
        model = _random_model(np.random.default_rng(80 + k), q=int(rng.integers(1, 5)))
        u = rng.uniform(-2, 2, (2, 40))
        out = predict(model, u)
        theta = stacked_readout(model)
        session = model.session()
        for t in range(40):
            phi, blocks = session.features(u[:, t])
            stack_err = max(stack_err, float(np.abs(theta @ stacked_features(phi, blocks) - out[:, t]).max()))

    # (c) plant target regeneration from stored inputs is exact
    ds = generate_plant_sequence(1500, "train-random", seed=3, washout=100)
    regen = plant_response(ds.inputs[1])
    regen_exact = np.array_equal(regen[1:1501], ds.targets[0])

    ok = ls_err < 1e-6 and stack_err < 1e-12 and regen_exact
    print(f"\nACCEPTANCE 8 {'PASS' if ok else 'FAIL'}: "
          f"readout vs normal equations {ls_err:.2e} (< 1e-6); "
          f"weighted-sum vs stacked {stack_err:.2e} (< 1e-12); "
          f"plant regeneration exact: {regen_exact}")
    assert ls_err < 1e-6
    assert stack_err < 1e-12
    assert regen_exact


def test_criterion_09_fire_strength_normalization():
    rng = np.random.default_rng(9)
    n_banks, n_inputs_per_bank = 1000, 1000
    worst_sum_err = 0.0
    any_negative = False
    for _ in range(n_banks):
        q = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        bank = FuzzyRuleBank(
            centers=rng.normal(size=(q, k)) * 3,
            widths=rng.uniform(0.05, 2.0, (q, k)),
        )
        u = rng.normal(size=(k, n_inputs_per_bank)) * 5
        # an outlier block 1e4 widths away from every center
        u[:, -50:] = 1e4 * bank.widths.max() * np.sign(rng.normal(size=(k, 50)))
        phi = fire_strength_matrix(bank, u)
        worst_sum_err = max(worst_sum_err, float(np.abs(phi.sum(axis=0) - 1.0).max()))
        any_negative = any_negative or bool((phi < 0).any())
    ok = worst_sum_err <= 1e-9 and not any_negative
    print(f"\nACCEPTANCE 9 {'PASS' if ok else 'FAIL'}: "
          f"{n_banks * n_inputs_per_bank} pairs incl. 1e4-width outliers, "
          f"worst |sum(phi) - 1| = {worst_sum_err:.2e} (<= 1e-9), "
          f"negatives: {any_negative}")
    assert worst_sum_err <= 1e-9
    assert not any_negative


def test_criterion_10_nrmse_identities():
    rng = np.random.default_rng(10)
    t = rng.normal(size=(1, 500))
    perfect = nrmse(t, t)
    constant = nrmse(np.full_like(t, t.mean()), t)
    ok = perfect == 0.0 and abs(constant - 1.0) <= 1e-12
    print(f"\nACCEPTANCE 10 {'PASS' if ok else 'FAIL'}: "
          f"perfect prediction -> {perfect}; constant-mean prediction -> {constant:.15f}")
    assert perfect == 0.0
    assert abs(constant - 1.0) <= 1e-12
