import hashlib
import json
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from gwi import limitlaw, process, tailproc
from gwi.cli import EXPERIMENTS, main, parse_config, run, write_csv
from gwi.limitlaw import LimitParams, truncation_bounds


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestConfig:
    def test_defaults(self):
        cfg = parse_config(None)
        assert cfg["alpha"] == 1.5 and cfg["n"] == 1000

    def test_file_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# heavy-tail run\nalpha = 1.3\nn=50  # short\n\n")
        cfg = parse_config(str(p))
        assert cfg["alpha"] == 1.3
        assert cfg["n"] == 50
        assert cfg["c"] == 0.3  # untouched default

    def test_bad_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("alpha 1.3\n")
        with pytest.raises(Exception):
            parse_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        # 'm' was a default that nothing read
        for key in ("mua", "m"):
            p = tmp_path / "typo.cfg"
            p.write_text(f"{key} = 0.9\n")
            with pytest.raises(click.UsageError, match=repr(key)):
                parse_config(str(p))

    def test_compensate_parsed_strictly(self, tmp_path):
        p = tmp_path / "comp.cfg"
        for word, want in (("true", True), ("YES", True), ("1", True),
                           ("False", False), ("no", False), ("0", False)):
            p.write_text(f"compensate = {word}\n")
            assert parse_config(str(p))["compensate"] is want
        assert parse_config(None)["compensate"] is False
        for word in ("ture", "on", ""):
            p.write_text(f"compensate = {word}\n")
            with pytest.raises(click.UsageError, match="'compensate'"):
                parse_config(str(p))

    @pytest.mark.parametrize("key,value", [
        ("alpha", "1"), ("alpha", "2"), ("alpha", "nan"), ("mu_A", "0"),
        ("mu_A", "1"), ("c", "0"), ("c", "1.5"), ("eps", "0"),
        ("eps", "-0.01"), ("tol", "0"), ("tol", "1"), ("quantile", "0"),
        ("quantile", "1"), ("n", "0"), ("reps", "0"), ("x_points", "0"),
        ("chains", "-3"), ("offspring", "poison"), ("s_values", "0.5,abc"),
        ("t_values", "0.5,abc"), ("x", "-5"), ("x", "0"), ("beta", "inf"),
        ("beta", "nan"), ("x_min", "-inf"), ("x_max", "inf"),
        ("x_max", "nan"), ("s_values", "nan"), ("t_values", "inf,1"),
        ("s_values", ","),
    ])
    def test_out_of_range_rejected(self, tmp_path, key, value):
        p = tmp_path / "range.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(click.UsageError, match=repr(key)):
            parse_config(str(p))

    def test_bad_offspring_writes_nothing(self, runner, tmp_path):
        p = tmp_path / "off.cfg"
        p.write_text("offspring = poison\n")
        result = runner.invoke(main, ["simulate", "--config", str(p),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 2
        assert "'offspring'" in result.output
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("args,env", [
        (["--workers", "-2"], {}), (["--workers", "0"], {}),
        ([], {"GWI_WORKERS": "abc"}), ([], {"GWI_WORKERS": "0"}),
        ([], {"GWI_WORKERS": "-1"}),
    ])
    def test_bad_workers_rejected(self, runner, tmp_path, args, env):
        out = tmp_path / "est"
        result = runner.invoke(main, ["estimate", "--out", str(out), *args],
                               env=env)
        assert result.exit_code == 2
        assert ("--workers" if args else "GWI_WORKERS") in result.output
        assert not out.exists()

    def test_range_edges_accepted(self, tmp_path):
        # the benchmark's range probes, and a family name in any case
        p = tmp_path / "edge.cfg"
        for line in ("alpha = 1.01", "alpha = 1.99", "mu_A = 0.99",
                     "x_min = 100\nx_max = 100\nx_points = 1",
                     "offspring = Geometric"):
            p.write_text(line + "\n")
            parse_config(str(p))

    def test_bad_value_names_key(self, tmp_path):
        for line in ("n = 1e5", "alpha = heavy"):
            p = tmp_path / "typed.cfg"
            p.write_text(line + "\n")
            with pytest.raises(click.UsageError, match=repr(line.split()[0])):
                parse_config(str(p))

    def test_negative_seed_rejected(self, runner, tmp_path):
        p = tmp_path / "seed.cfg"
        p.write_text("seed = -1\n")
        with pytest.raises(click.UsageError, match="'seed'"):
            parse_config(str(p))
        result = runner.invoke(main, ["karamata", "--seed", "-1",
                                      "--out", str(tmp_path / "k")])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not (tmp_path / "k").exists()

    def test_write_csv_format(self, tmp_path):
        p = tmp_path / "t.csv"
        assert write_csv(p, ["a", "b"], [(1, 0.5), (2, 1 / 3)]) == p
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert float(lines[2].split(",")[1]) == pytest.approx(1 / 3, abs=1e-16)


# Tiny configs that run every experiment in a few seconds in all.
_TINY = {
    "simulate": "n = 200\n",
    "estimate": "n = 50\nreps = 20\n",
    "limit-sample": "eps = 0.05\nreps = 100\n",
    "cdf-table": "x_min = -1\nx_max = 1\nx_points = 3\n",
    "cf-table": "s_values = 1\nt_values = 1\n",
    "tail-validate": "n = 200000\nchains = 100\nquantile = 0.99\n",
    "laplace-validate": "n = 2000\nreps = 50\neps = 1.0\n",
    "karamata": "",
}


class TestRegistry:
    def test_commands_are_the_experiments(self):
        assert set(_TINY) == set(EXPERIMENTS)
        assert set(main.commands) == set(EXPERIMENTS) | {"compare"}

    @pytest.mark.parametrize("name", list(_TINY))
    def test_every_experiment_runs(self, runner, tmp_path, name):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(_TINY[name])
        out = tmp_path / "out"
        res = _run(runner, name, "--config", str(cfg), "--seed", "3",
                   "--out", str(out))
        summary = json.loads(res.output)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == name
        assert manifest["outputs"]
        assert sorted(summary["outputs"]) == sorted(
            str(out / f) for f in manifest["outputs"])
        for f, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / f).read_bytes()).hexdigest() == digest

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(click.UsageError, match="'estimat'"):
            run(parse_config(None), "estimat", tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_laplace_honours_tol(self, runner, tmp_path, monkeypatch):
        seen = []

        def spy(params, tol, size, rng):
            seen.append(tol)
            return process.stationary_init_many(params, tol, size, rng)

        monkeypatch.setattr(tailproc, "stationary_init_many", spy)
        cfg = tmp_path / "lap.cfg"
        cfg.write_text(_TINY["laplace-validate"] + "tol = 1e-3\n")
        _run(runner, "laplace-validate", "--config", str(cfg),
             "--out", str(tmp_path / "lap"))
        assert seen == [1e-3]


class TestSimulate:
    def test_trajectory_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "sim"
        _run(runner, "simulate", "--seed", "5", "--out", str(out))
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "i,x,m"
        assert len(rows) == 1002  # header + X_0..X_1000
        meta = json.loads((out / "trajectory_meta.json").read_text())
        mu_A, mu_B = meta["mu_A"], meta["mu_B"]
        # the residual column must reconstruct exactly from the x column
        xs = [int(r.split(",")[1]) for r in rows[1:]]
        for i, row in enumerate(rows[2:], start=1):
            m = float(row.split(",")[2])
            assert m == pytest.approx(xs[i] - mu_A * xs[i - 1] - mu_B,
                                      abs=1e-12)
        assert xs[0] == meta["init"]

    def test_manifest_checksums(self, runner, tmp_path):
        out = tmp_path / "sim"
        _run(runner, "simulate", "--seed", "5", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "simulate"
        assert manifest["seed_table"] == [5]
        assert manifest["versions"]["numpy"] == np.__version__
        assert "health" not in manifest
        for name, digest in manifest["outputs"].items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest


class TestEstimate:
    def test_rerun_byte_identical(self, runner, tmp_path):
        cfg = tmp_path / "est.cfg"
        cfg.write_text("n=100\nreps=40\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            _run(runner, "estimate", "--config", str(cfg),
                 "--seed", "11", "--out", str(out))
            outs.append((out / "replications.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_invariant_output(self, runner, tmp_path):
        cfg = tmp_path / "est.cfg"
        cfg.write_text("n=60\nreps=600\n")  # 600 reps span three seed blocks
        outs = []
        for name, workers in (("w1", "1"), ("w3", "3")):
            out = tmp_path / name
            _run(runner, "estimate", "--config", str(cfg), "--seed", "2",
                 "--out", str(out), "--workers", workers)
            outs.append((out / "replications.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_columns(self, runner, tmp_path):
        out = tmp_path / "est"
        cfg = tmp_path / "est.cfg"
        cfg.write_text("n=100\nreps=25\n")
        _run(runner, "estimate", "--config", str(cfg), "--out", str(out))
        rows = (out / "replications.csv").read_text().splitlines()
        assert rows[0] == "rep,n,a_n,mu_hat,defined,v1,v2,scaled_error"
        assert len(rows) == 26

    def test_manifest_health(self, runner, tmp_path):
        # the defined fraction is health, not a column
        out = tmp_path / "est"
        cfg = tmp_path / "est.cfg"
        cfg.write_text("n=8\nreps=400\n")  # short paths: some undefined
        _run(runner, "estimate", "--config", str(cfg), "--out", str(out))
        defined = [r.split(",")[4] for r in
                   (out / "replications.csv").read_text().splitlines()[1:]]
        frac = defined.count("1") / len(defined)
        assert 0 < frac < 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["health"] == {"defined_fraction": frac}


def _check_rule_health(out, tol):
    health = json.loads((out / "manifest.json").read_text())["health"]
    rule = limitlaw.cf_rule_health(LimitParams(1.5, 0.5, 0.5))  # the defaults
    assert health == {"tol": tol, **rule}
    assert set(rule) == {"cf_nodes", "cf_rule_error"}
    assert 0 < health["cf_rule_error"] <= limitlaw.CF_RULE_TOL


class TestTables:
    def test_cdf_table_monotone(self, runner, tmp_path):
        out = tmp_path / "cdf"
        cfg = tmp_path / "cdf.cfg"
        cfg.write_text("x_min=-1\nx_max=1\nx_points=9\n")
        _run(runner, "cdf-table", "--config", str(cfg), "--out", str(out))
        rows = (out / "cdf.csv").read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert len(vals) == 9
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
        assert vals[4] == pytest.approx(0.5, abs=1e-3)  # x = 0
        _check_rule_health(out, limitlaw.CDF_TOL)

    def test_cf_table(self, runner, tmp_path):
        out = tmp_path / "cf"
        cfg = tmp_path / "cf.cfg"
        cfg.write_text("s_values=0,1\nt_values=0\n")
        _run(runner, "cf-table", "--config", str(cfg), "--out", str(out))
        rows = (out / "cf.csv").read_text().splitlines()
        assert rows[0] == "s,t,re,im"
        table = {tuple(map(float, r.split(",")[:2])):
                 tuple(map(float, r.split(",")[2:])) for r in rows[1:]}
        assert table[(0.0, 0.0)] == pytest.approx((1.0, 0.0), abs=1e-9)
        re, im = table[(1.0, 0.0)]
        assert re**2 + im**2 < 1.0
        _check_rule_health(out, limitlaw.CF_RULE_TOL)

    def test_karamata(self, runner, tmp_path):
        out = tmp_path / "kar"
        _run(runner, "karamata", "--out", str(out))
        rec = json.loads((out / "karamata.json").read_text())
        assert rec["empirical"] == pytest.approx(rec["analytic"], rel=0.01)


class TestLimitSample:
    def test_output_and_manifest(self, runner, tmp_path):
        out = tmp_path / "lim"
        cfg = tmp_path / "lim.cfg"
        cfg.write_text("eps=0.05\nreps=300\ncompensate=true\n")
        _run(runner, "limit-sample", "--config", str(cfg), "--seed", "4",
             "--out", str(out))
        rows = (out / "limit_samples.csv").read_text().splitlines()
        assert rows[0] == "v1,v2,terms_used"
        assert len(rows) == 301
        v1 = np.array([float(r.split(",")[0]) for r in rows[1:]])
        assert np.all(v1 > 0)
        terms = np.array([int(r.split(",")[2]) for r in rows[1:]])
        health = json.loads((out / "manifest.json").read_text())["health"]
        v1_mean, v2_sd = truncation_bounds(LimitParams(1.5, 0.5, 0.5), 0.05)
        assert health == {
            "eps": 0.05, "compensate": True,
            "trunc_v1_mean_bound": pytest.approx(v1_mean, rel=1e-15),
            "trunc_v2_sd_bound": pytest.approx(v2_sd, rel=1e-15),
            "mean_terms_used": pytest.approx(terms.mean(), rel=1e-12),
            "min_terms_used": int(terms.min())}


class TestCompare:
    def test_identical_samples(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=800)
        p = tmp_path / "a.csv"
        np.savetxt(p, data, fmt="%.10g")
        res = _run(runner, "compare", str(p), str(p))
        rec = json.loads(res.output)
        assert rec["distance"] == 0.0
        assert rec["n_a"] == 800

    def test_disjoint_samples(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        np.savetxt(a, np.arange(600, dtype=float), fmt="%.10g")
        np.savetxt(b, np.arange(600, dtype=float) + 10**6, fmt="%.10g")
        rec = json.loads(_run(runner, "compare", str(a), str(b)).output)
        assert rec["distance"] == pytest.approx(1.0)
        assert rec["p_value"] < 1e-10

    def test_short_sample_rejected(self, runner, tmp_path):
        p = tmp_path / "short.csv"
        np.savetxt(p, np.arange(10, dtype=float), fmt="%.10g")
        result = runner.invoke(main, ["compare", str(p), str(p)])
        assert result.exit_code != 0

    def test_header_skipped(self, runner, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("v1\n" + "\n".join(str(float(i)) for i in range(600))
                     + "\n")
        rec = json.loads(_run(runner, "compare", str(p), str(p)).output)
        assert rec["n_a"] == 600
