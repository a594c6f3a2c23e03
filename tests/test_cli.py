"""Tests for the command-line layer: config, sweep records, subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrlift.cli
from corrlift.cli import (
    CSV_FIELDS,
    ExperimentConfig,
    TrialRecord,
    _mse_per_dim_db,
    _parse_complex,
    _parse_signal,
    _sigma_for,
    build_parser,
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
from corrlift.solver import GAP_RTOL, SolverOptions
from test_solver import _doubling_psd_project


def _config(**overrides):
    base = dict(
        l1=2,
        l2=2,
        snr_db_list=(math.inf,),
        trials=1,
        seed=0,
        solver=SolverOptions(max_iters=3000),
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
    sentinel = r"^snr values must be finite or \+inf \(the noiseless sentinel\)$"
    with pytest.raises(ValueError, match=sentinel):
        _config(snr_db_list=(math.nan,))
    with pytest.raises(ValueError, match=sentinel):
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
            stop_reason="converged",
            restarts=0,
            residual=0.0,
            rank1_gap=0.0,
            seed=0,
            failed=False,
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
        stop_reason="diverged",
        restarts=0,
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
    monkeypatch.setattr("corrlift.solver.psd_project", _doubling_psd_project)
    records = run_sweep(_config(trials=2))
    assert len(records) == 2
    for r in records:
        assert r.failed
        assert r.as_row()["failed"] == "true"
        assert (r.stop_reason, r.iters) == ("diverged", 10)
        # the row carries the diverged iterate's diagnostics
        assert math.isfinite(r.mse) and r.mse > 0.0
        assert math.isfinite(r.residual) and math.isfinite(r.rank1_gap)


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
    # the noiseless solve is exact to rounding, and an exact recovery reads
    # -inf dB
    assert records[0].mse <= 1e-15
    exact = dataclasses.replace(records[0], mse=0.0, mse_per_dim_db=_mse_per_dim_db(0.0, 4))
    buf = io.StringIO()
    write_records([exact], buf)
    (row,) = csv.DictReader(io.StringIO(buf.getvalue()))
    assert float(row["mse_per_dim_db"]) == -math.inf
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


def _assert_product_rows_are_the_factor_rows(rows):
    # Every product row is one of x1's and x2's rows, to the bit, or, for a
    # zero both hold, the centroid of their rows with the multiplicities
    # added; the product rows come sorted by (re, im).
    def zeros(*which):
        return [
            (complex(float(r["re"]), float(r["im"])), int(r["multiplicity"]))
            for r in rows
            if r["which"] in which
        ]

    factors, product = zeros("x1", "x2"), zeros("product")
    assert product == sorted(product, key=lambda t: (t[0].real, t[0].imag))
    scale = max(abs(z) for z, _ in factors)
    matched = []
    for z, m in product:
        near = [(w, n) for w, n in factors if abs(w - z) <= 1e-12 * scale]
        assert sum(n for _, n in near) == m
        if len(near) == 1:
            assert near[0][0] == z
        matched += near
    assert sorted(matched, key=repr) == sorted(factors, key=repr)


def test_cmd_zeros_product_rows_are_the_factor_rows(monkeypatch):
    # README's pairs, one with the shared zero 2, and the certify-ambiguity
    # pairs of the byte-identity check, with 0, 1 and 2 shared zeros
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from byte_identity import CERTIFY_PAIRS, README_PAIRS

    shared = []
    for x1, x2 in README_PAIRS + CERTIFY_PAIRS:
        rows = cmd_zeros(_parse_signal(x1), _parse_signal(x2))
        _assert_product_rows_are_the_factor_rows(rows)
        shared.append(sum(r["multiplicity"] - 1 for r in rows if r["which"] == "product"))
    assert shared == [0, 0, 1, 0, 1, 2]


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
        "classes=2\n"
        "class0_x1=(1+0j),(-3+0j),(1.9999999999999996+0j)\n"
        "class0_x2=(1+0j),(-2+0j)\n"
        "class1_x1=(1+0j),(-4+0j),(4+0j)\n"
        "class1_x2=(1+0j),(-0.9999999999999998+0j)\n"
    )


def test_main_ambiguities_stdout_on_a_double_zero(capsys):
    # both factors hold the zero 1, so the one split gives each a copy: one
    # class, and no count line above it that says otherwise
    assert main(["ambiguities", "--signal", "1,-1", "--signal", "1,-1"]) == 0
    assert capsys.readouterr().out == (
        "classes=1\n"
        "class0_x1=(1+0j),(-1+0j)\n"
        "class0_x2=(1+0j),(-1+0j)\n"
    )


def test_main_zeros_and_ambiguities_stdout_pinned_on_a_complex_pair(capsys):
    # complex coefficients carry every last bit of the Aberth iterates and
    # of the batched expansion into the printed digits (each zero below
    # lies within 1e-16 of the exact one)
    pair = ["--signal", "1+2j,-0.5j,0.3-1j", "--signal", "2-1j,1j"]
    assert main(["zeros", *pair]) == 0
    assert capsys.readouterr().out == (
        "which,re,im,multiplicity\n"
        "x1,-0.5429325914024077,-0.2066365466713874,1\n"
        "x1,0.7429325914024076,0.30663654667138734,1\n"
        "x2,0.2,-0.4,1\n"
        "product,-0.5429325914024077,-0.2066365466713874,1\n"
        "product,0.2,-0.4,1\n"
        "product,0.7429325914024076,0.30663654667138734,1\n"
    )
    assert main(["ambiguities", *pair]) == 0
    assert capsys.readouterr().out == (
        "classes=3\n"
        "class0_x1=(4+3j),(-0.4481792744045314+3.4553439608927725j),"
        "(-1.292501729476203+0.1296594980596329j)\n"
        "class0_x2=(1+0j),(-0.7429325914024076-0.30663654667138734j)\n"
        "class1_x1=(4+3j),(-0.4999999999999998-1j),(-0.4000000000000003-2.3000000000000003j)\n"
        "class1_x2=(1+0j),(-0.2+0.4j)\n"
        "class2_x1=(4+3j),(-4.051820725595468-2.4553439608927725j),"
        "(1.7925017294762027-0.12965949805963295j)\n"
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
            assert main([command, "--l1", "1", "--l2", "1", "--snr-db", snr]) == 2
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
    # the noiseless sentinel is no special case: sqrt(power / (M inf)) is 0
    assert _sigma_for(math.inf, power, clean.size) == 0.0


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


def test_main_zeros_prints_the_factors_zeros_where_the_products_polish_overflows(capsys):
    # Rooting x1 * x2 itself overflows in the polish ("a residual is not
    # finite"); its zeros are x1's and x2's, each rooted on its own.
    x1 = "1,0.3,-0.2,0.5,0.1,0.7,-0.4,0.2,0.9,-0.3,0.6,0.1,-0.8,0.4,0.3,"
    x1 += "-0.2,0.5,0.1,0.7,-0.4,0.2,0.9,-0.3,0.6,0.1,-0.8,0.4,0.3,-0.5,2e-12"
    assert main(["zeros", "--signal", x1, "--signal", "1,1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [r["which"] for r in rows] == ["x1"] * 29 + ["x2"] + ["product"] * 30
    assert all(math.isfinite(float(r[k])) for r in rows for k in ("re", "im"))
    _assert_product_rows_are_the_factor_rows(rows)


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
    # noiseless data stop on the residual, noisy data on the duality gap,
    # and at 80 dB the stall rule fires first; the gap follows the residual
    for extra, reason in (
        ([], "converged"), (["--snr-db", "20"], "gap"), (["--snr-db", "80"], "stalled")
    ):
        assert main(["recover", "--l1", "3", "--l2", "3", "--seed", "5", *extra]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        keys = [line.split("=", 1)[0] for line in lines]
        at = keys.index("iters")
        assert keys[at + 1 : at + 3] == ["stop_reason", "restarts"]
        assert keys[keys.index("residual") + 1] == "gap"
        kv = dict(line.split("=", 1) for line in lines)
        assert kv["stop_reason"] == reason
        assert int(kv["iters"]) < 2000
        assert int(kv["restarts"]) >= 0
        gap = float(kv["gap"])
        if reason == "converged":
            assert math.isnan(gap)
        elif reason == "gap":
            assert 0.0 <= gap <= GAP_RTOL
        else:
            assert gap > GAP_RTOL


def test_main_recover_prints_margin_last(capsys):
    assert main(["recover", "--l1", "2", "--l2", "3", "--seed", "7"]) == 0
    last = capsys.readouterr().out.strip().split("\n")[-1]
    key, value = last.split("=", 1)
    assert key == "margin"
    assert 0.0 < float(value) <= 1.0


def test_cli_flags_are_pinned(capsys):
    # every option of every subcommand: a flag added or removed changes this
    # table, and a removed one is an unrecognized argument (exit 2)
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert flags == {
        "sweep": sorted(
            ["--l1", "--l2", "--snr-db", "--trials", "--seed", "--max-iters", "--reduced", "--out"]
        ),
        "zeros": ["--out", "--signal"],
        "certify": ["--signal"],
        "ambiguities": ["--signal"],
        "recover": sorted(
            ["--l1", "--l2", "--snr-db", "--seed", "--max-iters", "--reduced", "--signal"]
        ),
    }
    with pytest.raises(SystemExit) as excinfo:
        main(["recover", "--tol", "1e-8"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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


RECOVER_KEYS = [
    "l1", "l2", "sigma", "failed", "mse", "iters", "stop_reason", "restarts",
    "residual", "gap", "rank1_gap", "non_unique", "x1_est", "x2_est", "margin",
]


def test_main_recover_key_sequence(capsys):
    # test_main_recover_solver_failure_exits_zero pins the failure output
    assert main(["recover", "--l1", "3", "--l2", "4", "--snr-db", "30", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines.pop() == ""
    assert [line.split("=", 1)[0] for line in lines] == RECOVER_KEYS


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--signal", "0", "--signal", "0"], "reference signal must be nonzero"),
        (["--signal", "1e200,1", "--signal", "1,1"], "measurements must be finite"),
        (["--signal", "1e200,1", "--signal", "1,1", "--snr-db", "20"], "measurements must be finite"),
        (["--max-iters", "0"], "max_iters must be positive"),
    ],
    ids=["zero-pair", "overflow", "overflow-noisy", "max-iters"],
)
def test_main_recover_config_error_prints_nothing(capsys, argv, message):
    # the whole trial runs before the first line is printed
    assert main(["recover", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("pair", [("1e150,1", "1,1"), ("1e154,1", "1,1"), ("3e100,1,2", "2e100,-1")])
def test_main_recover_solves_finite_data_whose_energy_overflows(capsys, pair):
    # ||b||^2 overflows in the data's own scale, but not in the solve's frame
    assert main(["recover", "--signal", pair[0], "--signal", pair[1]]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    kv = dict(line.split("=", 1) for line in captured.out.strip().split("\n"))
    assert kv["stop_reason"] == "converged"
    assert float(kv["mse"]) <= 4.4e-16


def test_main_recover_sets_sigma_on_data_whose_energy_overflows(capsys):
    # sigma scales like b, so the frame maps it back by 4^q, not 2^q
    x1, x2 = np.array([1e150, 1.0]), np.array([1.0, 1.0])
    assert main(["recover", "--signal", "1e150,1", "--signal", "1,1", "--snr-db", "20"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().split("\n"))
    stacked = measure(x1, x2).stacked
    power = float(np.linalg.norm(stacked * 2.0**-600) ** 2)
    want = _sigma_for(20.0, power, stacked.size) * 2.0**600
    assert math.isclose(float(kv["sigma"]), want, rel_tol=1e-15)
    assert kv["stop_reason"] == "gap"


def test_main_recover_tiny_pair_scores_its_zero_estimate(capsys):
    # The correlations underflow to 0, so the estimate is the zero pair; its
    # error is 1 although ||x||^2 itself underflows.
    assert main(["recover", "--signal", "1e-170", "--signal", "1e-170"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    kv = dict(line.split("=", 1) for line in captured.out.strip().split("\n"))
    assert (kv["mse"], kv["stop_reason"], kv["x1_est"]) == ("1.0", "converged", "0j")


def test_main_recover_rejects_a_negative_seed(capsys):
    assert main(["recover", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be nonnegative\n")


def test_main_recover_solver_failure_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr("corrlift.solver.psd_project", _doubling_psd_project)
    code = main(["recover", "--l1", "2", "--l2", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.strip().split("\n")
    assert lines[:4] == ["l1=2", "l2=2", "sigma=0.0", "failed=true"]
    kv = dict(line.split("=", 1) for line in lines)
    assert (kv["stop_reason"], kv["iters"]) == ("diverged", "10")
    assert math.isfinite(float(kv["mse"]))


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


@pytest.mark.parametrize("command", ["zeros", "certify", "ambiguities", "recover"])
def test_main_signal_with_a_leading_minus_is_the_flags_value(capsys, command):
    # "-1,2" after --signal is x1, not an unknown option: the same output as
    # the --signal=-1,2 spelling, which argparse always read as a value
    assert main([command, "--signal=-1,2", "--signal=1,1"]) == 0
    bound = capsys.readouterr()
    assert main([command, "--signal", "-1,2", "--signal", "1,1"]) == 0
    assert capsys.readouterr() == bound
    assert bound.out and not bound.err


def test_main_signal_without_a_value_still_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", "--signal", "--signal", "1,1"])
    assert excinfo.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_main_snr_db_with_a_leading_minus_is_the_flags_value(tmp_path, capsys):
    # "-10,0" after --snr-db is the SNR grid, not an unknown option
    path = tmp_path / "neg.csv"
    assert main(["sweep", "--snr-db", "-10,0", "--trials", "1", "--out", str(path)]) == 0
    with path.open(newline="") as fh:
        assert [row["rsnr_db"] for row in csv.DictReader(fh)] == ["-10.0", "0.0"]
    capsys.readouterr()
    # the same output as the --snr-db=-2.5e1 spelling
    assert main(["recover", "--l1", "2", "--l2", "2", "--snr-db=-2.5e1"]) == 0
    bound = capsys.readouterr()
    assert main(["recover", "--l1", "2", "--l2", "2", "--snr-db", "-2.5e1"]) == 0
    assert capsys.readouterr() == bound
    assert "sigma=" in bound.out and not bound.err


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


def test_import_of_the_cli_loads_neither_csv_nor_numpy_polynomial():
    # Only the functions that write CSV or divide polynomials import them, so
    # every subcommand's start-up skips both.  NumPy 1's own `import numpy`
    # loads numpy.polynomial, so that half only holds from NumPy 2 on.
    src = Path(corrlift.cli.__file__).parents[1]
    probe = (
        "import sys, corrlift.cli; "
        "print('csv' in sys.modules, 'numpy.polynomial' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert out[0] == "False"
    if int(np.__version__.split(".")[0]) >= 2:
        assert out[1] == "False"
