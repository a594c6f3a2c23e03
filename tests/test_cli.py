"""Tests for the command-line layer: config, sweep records, subcommands."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from corrlift.cli import (
    CSV_FIELDS,
    ExperimentConfig,
    TrialRecord,
    _parse_complex,
    _parse_signal,
    _sigma_for,
    cmd_ambiguities,
    cmd_certify,
    cmd_zeros,
    gen_signal,
    main,
    run_sweep,
    write_records,
)
from corrlift.poly import convolve
from corrlift.sensing import measure
from corrlift.solver import SolverOptions


def _config(**overrides):
    base = dict(
        l1=2,
        l2=2,
        snr_db_list=(math.inf,),
        trials=1,
        seed=0,
        solver=SolverOptions(max_iters=3000, rel_tol=1e-10),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_experiment_config_validation():
    cfg = _config(snr_db_list=[10, math.inf])
    assert cfg.snr_db_list == (10.0, math.inf)
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(l1=0)
    with pytest.raises(ValueError):
        _config(seed=-1)
    with pytest.raises(ValueError):
        _config(snr_db_list=(math.nan,))
    with pytest.raises(ValueError):
        _config(snr_db_list=(-math.inf,))
    with pytest.raises(ValueError):
        _config(snr_db_list=())


def test_trial_record_validation():
    with pytest.raises(ValueError):
        TrialRecord(
            trial=0,
            l1=2,
            l2=2,
            rsnr_db=10.0,
            sigma=0.1,
            mse=-1e-3,
            mse_per_dim_db=0.0,
            iters=5,
            residual=0.0,
            rank1_gap=0.0,
            seed=0,
        )
    failed = TrialRecord(
        trial=0,
        l1=2,
        l2=2,
        rsnr_db=10.0,
        sigma=0.1,
        mse=math.nan,
        mse_per_dim_db=math.nan,
        iters=0,
        residual=math.nan,
        rank1_gap=math.nan,
        seed=0,
        failed=True,
    )
    assert failed.as_row()["failed"] == "true"


def test_gen_signal_edges_and_determinism():
    rng = np.random.default_rng(11)
    for length in (1, 2, 5):
        x = gen_signal(length, rng)
        assert x.shape == (length,)
        assert abs(x[0]) >= 0.1 and abs(x[-1]) >= 0.1
    a = gen_signal(4, np.random.default_rng(3))
    b = gen_signal(4, np.random.default_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        gen_signal(0, rng)


def test_gen_signal_component_variance():
    rng = np.random.default_rng(0)
    draws = np.stack([gen_signal(2, rng) for _ in range(20000)])
    power = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.all(power >= 0.95) and np.all(power <= 1.05)


def test_run_sweep_ordering_and_noiseless_rows():
    cfg = _config(snr_db_list=(math.inf, 30.0), trials=2, seed=9)
    records = run_sweep(cfg)
    assert [(r.rsnr_db, r.trial) for r in records] == [
        (math.inf, 0),
        (math.inf, 1),
        (30.0, 0),
        (30.0, 1),
    ]
    for r in records[:2]:
        assert r.sigma == 0.0
        assert r.mse <= 1e-5
        assert not r.failed
    for r in records[2:]:
        assert r.sigma > 0.0
    again = run_sweep(cfg)
    assert [r.as_row() for r in again] == [r.as_row() for r in records]


def test_run_sweep_trial_streams_are_independent():
    # Reproducing trial (i, j) must not require replaying earlier trials:
    # a one-trial sweep at the second SNR point alone is impossible to slice
    # out, but trial 0 of a one-point sweep must match trial 0 of the same
    # point inside a longer grid.
    long = run_sweep(_config(snr_db_list=(math.inf, 30.0), trials=3, seed=4))
    short = run_sweep(_config(snr_db_list=(math.inf,), trials=1, seed=4))
    assert short[0].as_row() == long[0].as_row()


def test_run_sweep_records_failures(monkeypatch):
    def boom(l1, l2, b, opts):
        raise RuntimeError("diverged")

    monkeypatch.setattr("corrlift.cli.recover", boom)
    records = run_sweep(_config(trials=2))
    assert len(records) == 2
    for r in records:
        assert r.failed
        assert math.isnan(r.mse)
        assert r.iters == 0
        assert (r.stop_reason, r.restarts) == ("diverged", 0)


def test_write_records_header_and_rows():
    records = run_sweep(_config(snr_db_list=(math.inf, 30.0), trials=1))
    buf = io.StringIO()
    write_records(records, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert (
        lines[0]
        == "trial,l1,l2,rsnr_db,sigma,mse,mse_per_dim_db,iters,stop_reason,"
        "restarts,residual,rank1_gap,seed,failed"
    )
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 2
    for row, record in zip(parsed, records):
        assert row["failed"] == "false"
        assert float(row["mse"]) == record.mse
    # the noiseless solve is exact, and an exact recovery reads -inf dB
    assert records[0].mse == 0.0
    assert float(parsed[0]["mse_per_dim_db"]) == -math.inf
    # mse_per_dim_db = 10 log10(mse / n) with n = l1 + l2
    assert records[1].mse > 0.0
    expect = 10.0 * math.log10(records[1].mse / 4)
    assert abs(float(parsed[1]["mse_per_dim_db"]) - expect) <= 1e-12


def test_cmd_zeros_rows():
    rows = cmd_zeros([1, -1], [1, 0, -4])
    by_which = {}
    for row in rows:
        key = (row["which"], float(row["re"]), float(row["im"]))
        by_which[key] = row["multiplicity"]
    assert by_which[("x1", 1.0, 0.0)] == 1
    assert by_which[("x2", 2.0, 0.0)] == 1
    assert by_which[("x2", -2.0, 0.0)] == 1
    assert by_which[("product", 1.0, 0.0)] == 1
    assert len(rows) == 6


def test_cmd_zeros_multiplicity():
    # The product of two copies of (1 - z^{-1}) has a double zero at 1; the
    # clustered table reports it as one row of multiplicity 2.
    rows = [
        r
        for r in cmd_zeros([1, -1], [1, -1])
        if r["which"] == "product"
    ]
    assert len(rows) == 1
    assert rows[0]["multiplicity"] == 2
    assert float(rows[0]["re"]) == pytest.approx(1.0, abs=1e-6)


def test_cmd_certify_parses_back():
    x1 = np.array([1.0, 2.0j])
    x2 = np.array([1.0, -1.0, 3.0])
    lines = cmd_certify(x1, x2)
    kv = dict(line.split("=", 1) for line in lines)
    assert int(kv["n"]) == 5
    assert float(kv["null_residual"]) <= 1e-10
    assert int(kv["rank"]) == 4
    assert kv["in_range"] == "true"
    assert int(kv["tangent_rank"]) == 9
    assert kv["injective"] == "true"
    lam = [complex(tok) for tok in kv["lambda"].split(",")]
    assert len(lam) == 16
    # Rendering must be lossless: re-parsing reproduces the exact floats.
    from corrlift.sylvester import certificate_report

    report = certificate_report(x1, x2)
    assert float(kv["null_residual"]) == report.null_residual
    assert float(kv["min_eig"]) == report.min_eig
    assert lam == [complex(v) for v in report.lam]


def test_cmd_certify_common_factor():
    common = np.array([1.0, -2.0])
    x1 = convolve(common, [1.0, 1.5])
    x2 = convolve(common, [1.0, 0.5, 1.0])
    kv = dict(line.split("=", 1) for line in cmd_certify(x1, x2))
    # The rank deficit is what flags the shared factor; the multiplier
    # identity is algebraic and holds regardless, as does W x = 0.
    assert int(kv["rank"]) < int(kv["n"]) - 1
    assert int(kv["tangent_rank"]) == 2 * int(kv["n"]) - 1
    assert kv["in_range"] == "true"


def test_cmd_ambiguities_lines():
    x1 = np.array([1.0, -3.0, 2.0])
    x2 = np.array([1.0, -2.0])
    lines = cmd_ambiguities(x1, x2)
    kv = dict(line.split("=", 1) for line in lines)
    assert int(kv["lower_bound"]) == 2
    assert int(kv["upper_bound"]) == 8
    count = int(kv["classes"])
    assert count == 2
    product = convolve(x1, x2)
    for index in range(count):
        rep1 = np.array([complex(t) for t in kv[f"class{index}_x1"].split(",")])
        rep2 = np.array([complex(t) for t in kv[f"class{index}_x2"].split(",")])
        err = np.linalg.norm(convolve(rep1, rep2) - product)
        assert err <= 1e-7 * np.linalg.norm(product)


def test_main_ambiguities_stdout_is_pinned(capsys):
    # the digits of the per-class np.convolve loop, which the batched
    # construction reproduces on this real pair
    assert main(["ambiguities", "--signal", "1,-3,2", "--signal", "1,-2"]) == 0
    assert capsys.readouterr().out == (
        "lower_bound=2\n"
        "upper_bound=8\n"
        "classes=2\n"
        "class0_x1=(1+0j),(-3+0j),(1.9999999999999996+0j)\n"
        "class0_x2=(1+0j),(-2+0j)\n"
        "class1_x1=(1+0j),(-4+0j),(4+0j)\n"
        "class1_x2=(1+0j),(-0.9999999999999998+0j)\n"
    )


def test_main_zeros_and_ambiguities_stdout_pinned_on_a_complex_pair(capsys):
    # complex coefficients carry every last bit of the Aberth iterates and
    # of the batched expansion into the printed digits
    pair = ["--signal", "1+2j,-0.5j,0.3-1j", "--signal", "2-1j,1j"]
    assert main(["zeros", *pair]) == 0
    assert capsys.readouterr().out == (
        "which,re,im,multiplicity\n"
        "x1,-0.5429325914024077,-0.2066365466713874,1\n"
        "x1,0.7429325914024076,0.3066365466713874,1\n"
        "x2,0.2,-0.4,1\n"
        "product,-0.5429325914024076,-0.20663654667138734,1\n"
        "product,0.20000000000000007,-0.4,1\n"
        "product,0.7429325914024076,0.3066365466713874,1\n"
    )
    assert main(["ambiguities", *pair]) == 0
    assert capsys.readouterr().out == (
        "lower_bound=2\n"
        "upper_bound=8\n"
        "classes=3\n"
        "class0_x1=(4+3j),(-0.4481792744045314+3.4553439608927725j),"
        "(-1.292501729476203+0.1296594980596329j)\n"
        "class0_x2=(1+0j),(-0.7429325914024076-0.3066365466713874j)\n"
        "class1_x1=(4+3j),(-0.4999999999999998-1j),(-0.4000000000000002-2.3000000000000003j)\n"
        "class1_x2=(1+0j),(-0.2+0.4j)\n"
        "class2_x1=(4+3j),(-4.051820725595468-2.4553439608927725j),"
        "(1.7925017294762027-0.12965949805963284j)\n"
        "class2_x2=(1+0j),(0.5429325914024077+0.2066365466713874j)\n"
    )


def test_parse_complex():
    assert _parse_complex("1+2i") == 1 + 2j
    assert _parse_complex(" -0.5i ") == -0.5j
    assert _parse_complex("3") == 3 + 0j
    assert _parse_complex("1.5e-3+2j") == 1.5e-3 + 2j
    with pytest.raises(ValueError):
        _parse_complex("two")


def test_parse_signal():
    sig = _parse_signal("1+0i,-1+0i")
    assert sig.dtype == np.complex128
    assert np.array_equal(sig, np.array([1.0, -1.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        _parse_signal(" , ")


def test_main_sweep_byte_identical(tmp_path):
    args = [
        "sweep",
        "--l1",
        "2",
        "--l2",
        "2",
        "--snr-db",
        "inf",
        "--trials",
        "2",
        "--seed",
        "3",
        "--max-iters",
        "3000",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    data = path_a.read_bytes()
    assert data == path_b.read_bytes()
    assert data.startswith(b"trial,l1,l2,rsnr_db,sigma,")


def test_main_config_error_exit_code(capsys):
    assert main(["sweep", "--trials", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "--snr-db", "nan"]) == 2
    assert main(["recover", "--snr-db", "10,20"]) == 2
    assert main(["certify", "--signal", "1,2"]) == 2  # needs two signals
    assert main(["zeros", "--signal", "1,2", "--signal", "0,1"]) == 2  # C00


def test_parse_signal_rejects_non_finite(capsys):
    for text in ("1,nan", "nan+1j,2", "1,1e400"):
        with pytest.raises(ValueError, match="finite"):
            _parse_signal(text)
    assert main(["recover", "--signal", "1,nan", "--signal", "1,2"]) == 2
    assert "finite" in capsys.readouterr().err


def test_main_rejects_snr_outside_float_range(capsys):
    for command in ("recover", "sweep"):
        for snr in ("1e6", "-1e6"):
            assert main([command, "--l1", "1", "--l2", "1", f"--snr-db={snr}"]) == 2
            assert "outside the floating-point range" in capsys.readouterr().err
    with pytest.raises(ValueError):
        _config(snr_db_list=(30.0, 1e6))


def test_sigma_for_matches_closed_form():
    # noisy sweeps are drawn with this sigma: it must not move by a bit
    for snr in (-300.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 123.4, 3000.0):
        expect = math.sqrt(7.5 / (12 * 10.0 ** (snr / 10.0)))
        assert _sigma_for(snr, 7.5, 12) == expect
    assert _sigma_for(math.inf, 7.5, 12) == 0.0
    # the SNR it realizes is ||clean||^2 / (M sigma^2) over the stacked entries
    clean = measure([1.0, 2.0, -1.0], [0.5, 1.5, 1.0]).stacked
    power = float(np.linalg.norm(clean) ** 2)
    for snr in (-300.0, -10.0, 0.0, 30.0, 3000.0):
        sigma = _sigma_for(snr, power, clean.size)
        ratio = power / (clean.size * sigma**2)
        assert ratio == pytest.approx(10.0 ** (snr / 10.0), rel=1e-12)


def test_cmd_zeros_rejects_unresolvable_zeros(capsys):
    # 1e-300 is a nonzero end coefficient, but negligible next to 1, so the
    # root finder trims it and x1's zero is lost
    with pytest.raises(ValueError, match="x1 has 0 resolvable zeros instead of 1"):
        cmd_zeros([1, 1e-300], [1, 2])
    assert main(["zeros", "--signal", "1,1e-300", "--signal", "1,2"]) == 2
    assert "resolvable zeros" in capsys.readouterr().err


def test_main_ambiguities_rejects_unresolvable_zeros(capsys):
    # x1's zero is lost to trimming, which used to surface as a NumPy
    # broadcasting error between the product and the split factors
    with pytest.raises(ValueError, match="x1 has 0 resolvable zeros instead of 1"):
        cmd_ambiguities([1, 1e-12], [1, 1])
    assert main(["ambiguities", "--signal", "1,1e-12", "--signal", "1,1"]) == 2
    assert "resolvable zeros" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_main_certify_rejects_overflowing_certificate(capsys):
    # W = S^H S holds 1e400-sized entries, which used to end in overflow
    # warnings and "Eigenvalues did not converge"
    with pytest.raises(ValueError, match="overflows"):
        cmd_certify([1e200, 1], [1, 1])
    assert main(["certify", "--signal", "1e200,1", "--signal", "1,1"]) == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_main_certify_huge_coprime_pair(capsys):
    # W holds entries near 1e300: W x and the squared singular values used
    # to overflow, printing rank=0 for a coprime pair
    args = ["certify", "--signal", "1e150,2e150", "--signal", "1e150,-1e150,5e149"]
    assert main(args) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().split("\n"))
    assert kv["rank"] == "4"
    assert kv["injective"] == "true"
    assert float(kv["null_residual"]) <= 1e-15


def test_main_recover_prints_stop_reason_and_restarts(capsys):
    # noiseless data stop on the residual, noisy data on the stalled objective
    for extra, reason in (([], "converged"), (["--snr-db", "20"], "stalled")):
        assert main(["recover", "--l1", "3", "--l2", "3", "--seed", "5", *extra]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        keys = [line.split("=", 1)[0] for line in lines]
        at = keys.index("iters")
        assert keys[at + 1 : at + 3] == ["stop_reason", "restarts"]
        kv = dict(line.split("=", 1) for line in lines)
        assert kv["stop_reason"] == reason
        assert int(kv["iters"]) < 2000
        assert int(kv["restarts"]) >= 0


def test_main_recover_prints_margin_last(capsys):
    assert main(["recover", "--l1", "2", "--l2", "3", "--seed", "7"]) == 0
    last = capsys.readouterr().out.strip().split("\n")[-1]
    key, value = last.split("=", 1)
    assert key == "margin"
    assert 0.0 < float(value) <= 1.0


def test_main_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


def test_main_zeros_to_csv(tmp_path):
    out = tmp_path / "zeros.csv"
    code = main(
        [
            "zeros",
            "--signal",
            "1,-1",
            "--signal",
            "1,0,-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["which"] == "x1"
    assert {"which", "re", "im", "multiplicity"} == set(rows[0])
    assert len(rows) == 6


def test_main_recover_noiseless(capsys):
    code = main(["recover", "--l1", "2", "--l2", "3", "--seed", "7"])
    assert code == 0
    kv = dict(
        line.split("=", 1)
        for line in capsys.readouterr().out.strip().split("\n")
    )
    assert kv["failed"] == "false"
    assert float(kv["mse"]) <= 1e-5
    assert kv["sigma"] == "0.0"
    est1 = [complex(t) for t in kv["x1_est"].split(",")]
    assert len(est1) == 2


def test_main_recover_given_signals_reduced(capsys):
    code = main(
        [
            "recover",
            "--signal",
            "1,2i",
            "--signal",
            "1,-1,3",
            "--reduced",
        ]
    )
    assert code == 0
    kv = dict(
        line.split("=", 1)
        for line in capsys.readouterr().out.strip().split("\n")
    )
    assert kv["failed"] == "false"
    assert float(kv["mse"]) <= 1e-5


def test_main_recover_solver_failure_exits_zero(monkeypatch, capsys):
    def boom(l1, l2, b, opts):
        raise RuntimeError("diverged")

    monkeypatch.setattr("corrlift.cli.recover", boom)
    code = main(["recover", "--l1", "2", "--l2", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "failed=true" in out
    assert "reason=diverged" in out


def test_main_certify_stdout(capsys):
    code = main(["certify", "--signal", "1,2i", "--signal", "1,-1,3"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    kv = dict(line.split("=", 1) for line in out)
    assert kv["injective"] == "true"


def test_main_certify_rank_is_sylvester_rank(capsys):
    # a coprime pair whose certificate W = S^H S spans eight decades
    assert main(["certify", "--signal", "10000,1", "--signal", "1,1"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().split("\n"))
    assert kv["rank"] == "3"


@pytest.mark.parametrize(
    "target", ["missing/x.csv", "."], ids=["missing-dir", "directory"]
)
def test_main_unwritable_out_exits_2(tmp_path, monkeypatch, capsys, target):
    # a missing directory or a directory as the path: no traceback, and the
    # sweep fails before its first trial
    def no_trials(cfg):
        raise AssertionError("run_sweep called before the output was opened")

    monkeypatch.setattr("corrlift.cli.run_sweep", no_trials)
    out = str(tmp_path / target)
    assert main(["sweep", "--trials", "1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["zeros", "--signal", "1,-1", "--signal", "1,2", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
