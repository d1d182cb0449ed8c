import hashlib
import json
import re
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

import gwi
from gwi import cli, limitlaw, process, tailproc
from gwi import distributions as dist
from gwi.cli import (
    _SHARED,
    EXPERIMENTS,
    _write_trajectory,
    main,
    parse_config,
    run,
    write_csv,
)
from gwi.estimator import REPLICATION_FIELDS
from gwi.limitlaw import LimitParams, truncation_bounds


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def started(monkeypatch):
    """The calls a test makes to ``process.stationary_init_many``, which
    is replaced by a spy that starts no chain."""
    seen = []
    monkeypatch.setattr(process, "stationary_init_many",
                        lambda *args: seen.append(args))
    return seen


def _run(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


# The keys every command accepts, and each command's own keys, with
# their defaults.
_SHARED_DEFAULTS = {"alpha": 1.5, "mu_A": 0.5, "c": 0.3,
                    "offspring": "poisson", "seed": 0}
_OWN_DEFAULTS = {
    "simulate": {"n": 1000},
    "estimate": {"n": 1000, "reps": 100},
    "limit-sample": {"reps": 100, "eps": 0.01, "compensate": False},
    "cdf-table": {"x_min": -5.0, "x_max": 5.0, "x_points": 101},
    "cf-table": {"s_values": "0.5,1,2", "t_values": "0.5,1,2"},
    "tail-validate": {"n": 2_000_000, "chains": 100, "quantile": 0.999},
    "laplace-validate": {"n": 1000, "reps": 100, "eps": 1.0,
                         "s_values": "0.5,1,2"},
}


class TestConfig:
    def test_defaults(self):
        # no file sets no key; each command runs at its own defaults
        assert parse_config(None) == {}
        assert _SHARED == _SHARED_DEFAULTS
        assert set(_OWN_DEFAULTS) == set(EXPERIMENTS)
        for name, (_, own) in EXPERIMENTS.items():
            assert own == _OWN_DEFAULTS[name]
            assert [type(v) for v in own.values()] == \
                [type(v) for v in _OWN_DEFAULTS[name].values()]
            assert not own.keys() & _SHARED.keys()
        assert sum(len(_SHARED) + len(own)
                   for _, own in EXPERIMENTS.values()) == 53

    def test_key_table_matches_commands(self, tmp_path):
        # one rule per key a command reads, and every default written in
        # a config file reads back as itself, of its own type
        assert set(cli._KEYS) == set(_SHARED).union(
            *(own for _, own in EXPERIMENTS.values()))
        p = tmp_path / "default.cfg"
        for _, own in EXPERIMENTS.values():
            for key, value in {**_SHARED, **own}.items():
                p.write_text(f"{key} = {value}\n")
                parsed = parse_config(str(p))[key]
                assert parsed == value and type(parsed) is type(value), key

    def test_file_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# heavy-tail run\nalpha = 1.3\nn=50  # short\n\n")
        cfg = parse_config(str(p))
        assert cfg == {"alpha": 1.3, "n": 50}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("alpha 1.3\n")
        with pytest.raises(click.UsageError, match="not key=value"):
            parse_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        # 'm' was a default that nothing read; 'tol' had one value in use;
        # 'beta' and 'x' went with the command that printed closed forms
        for key, value in (("mua", "0.9"), ("m", "0.9"), ("tol", "1e-6"),
                           ("beta", "3"), ("x", "1000")):
            p = tmp_path / "typo.cfg"
            p.write_text(f"{key} = {value}\n")
            with pytest.raises(click.UsageError, match=repr(key)):
                parse_config(str(p))

    def test_duplicate_key_rejected(self, runner, tmp_path):
        # the last value used to win silently
        p = tmp_path / "dup.cfg"
        p.write_text("n = 10\nalpha = 1.4\nn = 20\n")
        with pytest.raises(click.UsageError, match="'n' is set twice"):
            parse_config(str(p))
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "--config", str(p),
                                      "--out", str(out)])
        assert result.exit_code == 2 and "'n'" in result.output
        assert not out.exists()

    def test_compensate_parsed_strictly(self, tmp_path):
        p = tmp_path / "comp.cfg"
        for word, want in (("true", True), ("YES", True), ("1", True),
                           ("False", False), ("no", False), ("0", False)):
            p.write_text(f"compensate = {word}\n")
            assert parse_config(str(p)) == {"compensate": want}
            assert parse_config(str(p))["compensate"] is want
        assert EXPERIMENTS["limit-sample"][1]["compensate"] is False
        for word in ("ture", "on", ""):
            p.write_text(f"compensate = {word}\n")
            with pytest.raises(click.UsageError, match="'compensate'"):
                parse_config(str(p))

    @pytest.mark.parametrize("key,value", [
        ("alpha", "1"), ("alpha", "2"), ("alpha", "nan"), ("mu_A", "0"),
        ("mu_A", "1"), ("c", "0"), ("c", "1.5"), ("eps", "0"),
        ("eps", "-0.01"), ("quantile", "0"),
        ("quantile", "1"), ("n", "0"), ("reps", "0"), ("x_points", "0"),
        ("chains", "-3"), ("offspring", "poison"), ("s_values", "0.5,abc"),
        ("t_values", "0.5,abc"), ("x_min", "-inf"), ("x_max", "inf"),
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

    @pytest.mark.parametrize("workers", ["-2", "0"])
    def test_bad_workers_rejected(self, runner, tmp_path, workers):
        out = tmp_path / "est"
        result = runner.invoke(main, ["estimate", "--out", str(out),
                                      "--workers", workers])
        assert result.exit_code == 2
        assert "--workers" in result.output
        assert not out.exists()

    def test_range_edges_accepted(self, tmp_path):
        # the benchmark's range probes, and a family name in any case
        p = tmp_path / "edge.cfg"
        for line in ("alpha = 1.01", "alpha = 1.99", "mu_A = 0.99",
                     "x_min = 100\nx_max = 100\nx_points = 1",
                     "offspring = Geometric"):
            p.write_text(line + "\n")
            parse_config(str(p))

    @pytest.mark.parametrize("key,value", [
        *(("alpha", v) for v in ("1", "1.0000000000000002",
                                 "1.9999999999999998", "2", "nan", "inf")),
        *((key, v) for key in ("mu_A", "c")
          for v in ("0", "5e-324", "0.9999999999999999", "1", "nan")),
        *(("offspring", v) for v in ("Geometric", "BERNOULLI", "poison", "")),
    ])
    def test_accepted_exactly_where_model_builds(self, tmp_path, key, value):
        # the CLI's rule for a model key agrees with the model's own check
        p = tmp_path / "model.cfg"
        p.write_text(f"{key} = {value}\n")
        try:
            parse_config(str(p))
            accepted = True
        except click.UsageError:
            accepted = False
        cfg = {**_SHARED, key: value if key == "offspring" else float(value)}
        try:
            cli._model(cfg)
            cli._limit_params(cfg)
            builds = True
        except ValueError:
            builds = False
        assert accepted == builds

    def test_readme_key_table(self, tmp_path):
        # README's shared keys and its table of each command's own keys,
        # read through parse_config, are the registry's defaults
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        p = tmp_path / "readme.cfg"

        def parsed(text):
            p.write_text("".join(
                f"{cell}\n" for cell in re.findall(r"`(\w+ = [^`]*)`", text)))
            return parse_config(str(p))

        shared = re.search(r"Every command accepts (.*?) plus its own keys",
                           readme, re.S).group(1)
        assert parsed(shared) == _SHARED
        rows = dict(re.findall(r"^\| `([a-z-]+)` +\|(.*)\|$", readme, re.M))
        assert set(rows) == set(EXPERIMENTS)
        for name, (_, own) in EXPERIMENTS.items():
            assert parsed(rows[name]) == own, name

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
        result = runner.invoke(main, ["cf-table", "--seed", "-1",
                                      "--out", str(tmp_path / "k")])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not (tmp_path / "k").exists()

    def test_write_csv_format(self, tmp_path):
        p = tmp_path / "t.csv"
        assert write_csv(p, ["a", "b"],
                         [np.array([1, 2]), np.array([0.5, 1 / 3])]) == p
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
}

# The health keys each experiment records.
_HEALTH_KEYS = {
    "simulate": {"init"},
    "estimate": {"defined_fraction"},
    "limit-sample": {"trunc_v1_mean_bound", "trunc_v2_sd_bound",
                     "mean_terms_used", "min_terms_used", "points"},
    "cdf-table": {"tol", "cf_nodes", "cf_rule_error"},
    "cf-table": {"tol", "cf_nodes", "cf_rule_error"},
    "tail-validate": {"threshold", "n_events"},
    "laplace-validate": {"level", "min_ess"},
}


class TestRegistry:
    def test_commands_are_the_experiments(self):
        assert set(_TINY) == set(EXPERIMENTS) == set(_HEALTH_KEYS)
        assert set(main.commands) == set(EXPERIMENTS) | {"compare"}

    @pytest.mark.parametrize("name", list(_TINY))
    def test_every_experiment_runs(self, runner, tmp_path, name):
        # one run record: the printed summary is the manifest's health
        # plus paths, and the seed table holds the RNG keys [seed, b]
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(_TINY[name])
        out = tmp_path / "out"
        res = _run(runner, name, "--config", str(cfg), "--seed", "3",
                   "--out", str(out))
        summary = json.loads(res.output)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == name
        assert manifest["config"] == {
            **_SHARED_DEFAULTS, **_OWN_DEFAULTS[name],
            **parse_config(str(cfg)), "seed": 3}
        assert manifest["build"] == f"gwi {gwi.__version__}"
        assert manifest["versions"]["numpy"] == np.__version__
        assert set(manifest["health"]) == _HEALTH_KEYS[name]
        outputs = summary.pop("outputs")
        assert summary == {**manifest["health"],
                           "manifest": str(out / "manifest.json")}
        assert manifest["outputs"]
        assert sorted(outputs) == sorted(
            str(out / f) for f in manifest["outputs"])
        for f, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / f).read_bytes()).hexdigest() == digest
        keys = manifest["seed_table"]
        assert keys == [[3, b] for b in range(len(keys))]
        assert (keys == []) == (name in ("cdf-table", "cf-table"))

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(click.UsageError, match="'estimat'"):
            run(parse_config(None), "estimat", tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", list(_TINY))
    def test_default_config_runs(self, runner, tmp_path, name):
        # every command runs at its own defaults, and records just them
        out = tmp_path / "out"
        _run(runner, name, "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**_SHARED_DEFAULTS,
                                      **_OWN_DEFAULTS[name]}

    def test_limit_commands_build_no_offspring_table(self, tmp_path):
        # the limit-law commands read only sigma_A2 of the offspring law;
        # its draw table is a cache that only a draw fills
        for name in ("cdf-table", "cf-table", "limit-sample"):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(_TINY[name])
            dist._offspring_tables.cache_clear()
            run(parse_config(str(cfg)), name, tmp_path / name)
            assert dist._offspring_tables.cache_info().currsize == 0, name

    @pytest.mark.parametrize("name,line", [
        ("estimate", "compensate = yes"), ("cdf-table", "n = 100"),
        ("simulate", "quantile = 0.5")])
    def test_foreign_key_rejected(self, runner, tmp_path, monkeypatch,
                                  started, name, line):
        # a key only other commands read is rejected before anything runs
        monkeypatch.setattr(limitlaw, "cdf_ratio",
                            lambda *args: started.append(args))
        cfg = tmp_path / "foreign.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "runs" / "x"
        result = runner.invoke(main, [name, "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        key = line.split()[0]
        assert f"config key {key!r} is not read by {name}" in result.output
        assert started == [] and not (tmp_path / "runs").exists()
        with pytest.raises(click.UsageError, match=repr(key)):
            run(parse_config(str(cfg)), name, out)
        assert started == [] and not (tmp_path / "runs").exists()

    def test_workers_only_where_used(self, runner, tmp_path):
        # --workers is offered by the three commands that map chain
        # blocks over processes; run rejects workers > 1 for the others
        parallel = {"estimate", "tail-validate", "laplace-validate"}
        for name in EXPERIMENTS:
            text = _run(runner, name, "--help").output
            assert ("--workers" in text) == (name in parallel), name
            if name in parallel:
                continue
            out = tmp_path / "runs" / name
            result = runner.invoke(main, [name, "--workers", "2",
                                          "--out", str(out)])
            assert result.exit_code == 2 and "--workers" in result.output
            with pytest.raises(click.UsageError, match=f"^{name} runs in"):
                run({}, name, out, workers=2)
            assert not (tmp_path / "runs").exists()

    def test_help_lists_keys(self, runner):
        # exactly the keys the command accepts, each with its default
        for name, own in _OWN_DEFAULTS.items():
            text = _run(runner, name, "--help").output
            listed = text.split("Config keys, with their defaults:\n")[1]
            assert listed.split("\n")[:-1] == [
                f"    {key} = {value}"
                for key, value in {**_SHARED_DEFAULTS, **own}.items()]

    def test_tail_validate_too_few_values_rejected(self, runner, tmp_path,
                                                   started):
        # n = 1000 over 100 chains leaves at most 2.1 of 1100 values
        # above the 0.999-quantile, short of tailproc.MIN_EVENTS
        cfg = tmp_path / "tail.cfg"
        cfg.write_text("n = 1000\n")
        out = tmp_path / "tail"
        result = runner.invoke(main, ["tail-validate", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        for key in ("'n'", "'chains'", "'quantile'", "2.1"):
            assert key in result.output
        assert started == [] and not out.exists()

    def test_tail_validate_needs_a_step_per_chain(self, runner, tmp_path,
                                                  started):
        cfg = tmp_path / "tail.cfg"
        cfg.write_text("n = 99\nchains = 100\n")
        out = tmp_path / "tail"
        result = runner.invoke(main, ["tail-validate", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "'n'" in result.output and "'chains'" in result.output
        assert started == [] and not out.exists()

    def test_tail_validate_tie_shortfall_is_usage_error(self, runner,
                                                          tmp_path):
        # the pre-check allows 1001.5 values above the 0.995-quantile, but
        # path values tie at the threshold 22: only 977 lie above it
        cfg = tmp_path / "tail.cfg"
        cfg.write_text("n = 200000\nchains = 100\nquantile = 0.995\n")
        out = tmp_path / "runs" / "tail"
        result = runner.invoke(main, ["tail-validate", "--config", str(cfg),
                                      "--seed", "0", "--out", str(out)])
        assert result.exit_code == 2, result.output
        for word in ("'n'", "'chains'", "'quantile'", "977", "threshold 22",
                     f"{tailproc.MIN_EVENTS}"):
            assert word in result.output
        assert not (tmp_path / "runs").exists()

    def test_laplace_rejects_one_rep(self, runner, tmp_path, started):
        # the gap's stderr uses ddof = 1, so one chain would write NaN
        cfg = tmp_path / "lap.cfg"
        cfg.write_text("n = 2000\nreps = 1\neps = 1\n")
        out = tmp_path / "lap"
        result = runner.invoke(main, ["laplace-validate", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "'reps'" in result.output
        assert started == [] and not out.exists()

    def test_laplace_rejects_negative_s(self, runner, tmp_path, started):
        # the functional is defined for f = s*1{x > eps} >= 0 only
        cfg = tmp_path / "lap.cfg"
        cfg.write_text(_TINY["laplace-validate"] + "s_values = 0.5,-1\n")
        result = runner.invoke(main, ["laplace-validate", "--config", str(cfg),
                                      "--out", str(tmp_path / "lap")])
        assert result.exit_code == 2
        assert "'s_values'" in result.output
        assert started == []

    def test_laplace_validate_level_below_one_rejected(self, runner, tmp_path,
                                                       started):
        # n = 1000, eps = 0.01 put a_n*eps at 0.5994: every nonzero step
        # would be an exceedance
        cfg = tmp_path / "lap.cfg"
        cfg.write_text("n = 1000\neps = 0.01\n")
        out = tmp_path / "lap"
        result = runner.invoke(main, ["laplace-validate", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        for key in ("'eps'", "'n'", "0.5994"):
            assert key in result.output
        assert started == [] and not out.exists()

    def test_rejected_config_leaves_no_directory(self, runner, tmp_path):
        cfg = tmp_path / "lap.cfg"
        cfg.write_text(_TINY["laplace-validate"] + "s_values = -1\n")
        out = tmp_path / "new" / "lap"
        result = runner.invoke(main, ["laplace-validate", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert not (tmp_path / "new").exists()
        # a directory that existed before the run is kept
        out.mkdir(parents=True)
        result = runner.invoke(main, ["laplace-validate", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2 and out.is_dir()

    def test_out_file_rejected(self, runner, tmp_path, started):
        # the output directory is made at the first write, so a file in
        # its place is rejected before any chain starts
        out = tmp_path / "taken"
        out.write_text("")
        result = runner.invoke(main, ["simulate", "--out", str(out)])
        assert result.exit_code == 2 and "is a file" in result.output
        assert started == []


def _fmt(v) -> str:
    """One cell as the per-row writers formatted it."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _per_row_csv(path, header, rows):
    """The row-tuple writer the column-wise ``write_csv`` replaced: one
    formatted write per row, kept as the byte oracle."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _per_row_trajectory(path, x, m):
    """The trajectory.csv writer ``_write_trajectory`` replaced: one
    formatted write per row, kept as the byte oracle."""
    with open(path, "w", newline="\n") as fh:
        fh.write("i,x,m\n")
        fh.write(f"0,{x[0]},\n")
        for i in range(1, len(x)):
            fh.write(f"{i},{x[i]},{_fmt(m[i - 1])}\n")


# Signed zeros, non-finite values, subnormals and values that need all
# 17 digits.
_EDGE_FLOATS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                         -2.5e-310, 2.2250738585072014e-308, 1 / 3, 0.1,
                         -1e300, 2.0**53 + 2, 1e16, 123456789.0])


def _table(kind, rng):
    """(header, rows, columns) of one CSV kind the harness writes, with
    the edge floats in every float column."""
    edge = np.resize(_EDGE_FLOATS, 40)
    if kind in ("replications", "limit_samples"):
        if kind == "replications":
            table = np.zeros(40, dtype=REPLICATION_FIELDS)
            table["rep"] = np.arange(40)
            table["n"] = 2**62 - np.arange(40)
            table["defined"] = np.arange(40) % 3 > 0
        else:
            table = limitlaw.sample_limit_pairs(
                LimitParams(1.5, 0.5, 0.5), 0.05, 40, rng)
        for name in table.dtype.names:
            if table.dtype[name].kind == "f":
                table[name] = rng.permutation(edge)
        return (table.dtype.names, table.tolist(),
                [table[k] for k in table.dtype.names])
    width = {"cdf": 2, "cf": 4}[kind]
    columns = [rng.permutation(edge) for _ in range(width)]
    header = ["x", "cdf"] if kind == "cdf" else ["s", "t", "re", "im"]
    return header, zip(*columns), columns


class TestWriters:
    @pytest.mark.parametrize("kind",
                             ["replications", "limit_samples", "cdf", "cf"])
    def test_csv_matches_per_row_writer(self, tmp_path, kind):
        header, rows, columns = _table(kind, np.random.default_rng(4))
        write_csv(tmp_path / "new.csv", header, columns)
        _per_row_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()


class TestSimulate:
    def test_trajectory_matches_per_row_writer(self, ref_model, tmp_path):
        rng = np.random.default_rng(8)
        sim = process.simulate(ref_model, 3000, 4, rng)
        wide = np.array([0, 2**62, 1, 2**62 - 1, 10**15 + 1, 0, 7, 7, 3])
        for x in (sim, wide, sim[:2]):
            for m in (process.residuals(ref_model, x),
                      rng.standard_normal(len(x) - 1) * 1e10,
                      np.resize(_EDGE_FLOATS, len(x) - 1)):
                _write_trajectory(tmp_path / "new.csv", x, m)
                _per_row_trajectory(tmp_path / "old.csv", x, m)
                assert (tmp_path / "new.csv").read_bytes() == \
                    (tmp_path / "old.csv").read_bytes()

    def test_trajectory_chunks(self, ref_model, tmp_path, monkeypatch):
        # rows split over several formatting chunks, the last one short
        monkeypatch.setattr("gwi.cli._CSV_CHUNK", 7)
        x = process.simulate(ref_model, 30, 2, np.random.default_rng(9))
        m = process.residuals(ref_model, x)
        _write_trajectory(tmp_path / "new.csv", x, m)
        _per_row_trajectory(tmp_path / "old.csv", x, m)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()
        header, rows, columns = _table("replications",
                                       np.random.default_rng(9))
        write_csv(tmp_path / "new.csv", header, columns)
        _per_row_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_trajectory_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "sim"
        _run(runner, "simulate", "--seed", "5", "--out", str(out))
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "i,x,m"
        assert len(rows) == 1002  # header + X_0..X_1000
        meta = json.loads((out / "trajectory_meta.json").read_text())
        # the model's keys are recorded once, in the manifest's config
        assert set(meta) == {"mu_B", "init", "init_mode"}
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        mu_A, mu_B = cfg["mu_A"], meta["mu_B"]
        # the residual column must reconstruct exactly from the x column
        xs = [int(r.split(",")[1]) for r in rows[1:]]
        for i, row in enumerate(rows[2:], start=1):
            m = float(row.split(",")[2])
            assert m == pytest.approx(xs[i] - mu_A * xs[i - 1] - mu_B,
                                      abs=1e-12)
        assert xs[0] == meta["init"]

    def test_seed_key_reproduces_path(self, ref_model, runner, tmp_path):
        out = tmp_path / "sim"
        _run(runner, "simulate", "--seed", "5", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        meta = json.loads((out / "trajectory_meta.json").read_text())
        [key] = manifest["seed_table"]
        assert key == [5, 0]
        rng = np.random.default_rng(key)
        init = process.stationary_init_many(ref_model, 1, rng)[0]
        assert init == meta["init"] == manifest["health"]["init"]
        x = process.simulate(ref_model, manifest["config"]["n"], init, rng)
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[1]) for r in rows] == x.tolist()

    def test_manifest_checksums(self, runner, tmp_path):
        out = tmp_path / "sim"
        _run(runner, "simulate", "--seed", "5", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "simulate"
        assert manifest["seed_table"] == [[5, 0]]
        assert manifest["versions"]["numpy"] == np.__version__
        assert set(manifest["health"]) == {"init"}
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

    def test_pair_ratio_is_scaled_error(self, runner, tmp_path):
        # v2/v1 equals the scaled error after the %.17g round trip
        out = tmp_path / "est"
        cfg = tmp_path / "est.cfg"
        cfg.write_text("n=200\nreps=60\n")
        _run(runner, "estimate", "--config", str(cfg), "--out", str(out))
        rows = np.loadtxt(out / "replications.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        v1, v2, err = rows[:, 5:].T
        d = rows[:, 4] == 1
        assert d.any()
        assert np.allclose(v2[d] / v1[d], err[d], rtol=0, atol=1e-12)

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

def _outputs_by_workers(runner, tmp_path, name, cfg_text, filename):
    """``filename`` as written at --workers 1 and 3, and the seed table."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        _run(runner, name, "--config", str(cfg), "--seed", "4",
             "--out", str(out), "--workers", workers)
        outs.append((out / filename).read_bytes())
    keys = json.loads((out / "manifest.json").read_text())["seed_table"]
    return outs, keys


class TestTailValidate:
    def test_worker_invariant_output(self, runner, tmp_path):
        # 300 chains span two farm blocks
        outs, keys = _outputs_by_workers(
            runner, tmp_path, "tail-validate",
            "n = 300000\nchains = 300\nquantile = 0.99\n", "tail_report.json")
        assert outs[0] == outs[1]
        assert keys == [[4, 0], [4, 1]]

    def test_health_from_report(self, runner, tmp_path):
        cfg = tmp_path / "tail.cfg"
        cfg.write_text(_TINY["tail-validate"])
        out = tmp_path / "tail"
        _run(runner, "tail-validate", "--config", str(cfg), "--out", str(out))
        report = json.loads((out / "tail_report.json").read_text())
        health = json.loads((out / "manifest.json").read_text())["health"]
        assert health == {"threshold": report["threshold"],
                          "n_events": report["n_events"]}


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
        manifest = json.loads((out / "manifest.json").read_text())
        # eps and compensate are recorded once, in the config
        assert manifest["config"]["eps"] == 0.05
        assert manifest["config"]["compensate"] is True
        v1_mean, v2_sd = truncation_bounds(LimitParams(1.5, 0.5, 0.5), 0.05)
        assert manifest["health"] == {
            "trunc_v1_mean_bound": pytest.approx(v1_mean, rel=1e-15),
            "trunc_v2_sd_bound": pytest.approx(v2_sd, rel=1e-15),
            "mean_terms_used": pytest.approx(terms.mean(), rel=1e-12),
            "min_terms_used": int(terms.min()),
            "points": int(terms.sum())}


class TestLaplaceValidate:
    def test_worker_invariant_output(self, runner, tmp_path):
        # 300 reps span two farm blocks
        outs, keys = _outputs_by_workers(
            runner, tmp_path, "laplace-validate",
            "n = 2000\nreps = 300\neps = 1.0\n", "laplace_report.json")
        assert outs[0] == outs[1]
        assert keys == [[4, 0], [4, 1]]

    def test_report_and_health(self, runner, tmp_path):
        cfg = tmp_path / "lap.cfg"
        cfg.write_text(_TINY["laplace-validate"])
        out = tmp_path / "lap"
        _run(runner, "laplace-validate", "--config", str(cfg), "--out", str(out))
        report = json.loads((out / "laplace_report.json").read_text())
        assert set(report) == {"statistic", "eps", "n", "a_n", "reps", "per_s"}
        health = json.loads((out / "manifest.json").read_text())["health"]
        assert health == {
            "level": report["a_n"] * report["eps"],
            "min_ess": min(rec["ess"] for rec in report["per_s"].values())}


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
        assert result.exit_code == 2
        assert "at least 500 rows" in result.output

    def test_matches_scipy(self, runner, tmp_path):
        rng = np.random.default_rng(16)
        a = rng.normal(size=3000)
        b = rng.normal(0.05, size=3000)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(pa, a, fmt="%.17g")
        np.savetxt(pb, b, fmt="%.17g")
        rec = json.loads(_run(runner, "compare", str(pa), str(pb)).output)
        res = stats.ks_2samp(a, b, method="asymp")
        assert rec["distance"] == res.statistic
        assert rec["p_value"] == res.pvalue
        assert 0 < rec["p_value"] < 1

    def test_empty_file_rejected(self, runner, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        result = runner.invoke(main, ["compare", str(p), str(p)])
        assert result.exit_code == 2
        assert "empty.csv: file holds no rows" in result.output

    def test_non_numeric_row_rejected(self, runner, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("v1\n" + "\n".join(["1.5", "2.5", "oops", "3.5"]) + "\n")
        result = runner.invoke(main, ["compare", str(p), str(p)])
        assert result.exit_code == 2
        assert "bad.csv, line 4: 'oops' is not a finite number" in result.output

    def test_nan_rejected(self, runner, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("\n".join(["1.5", "nan", "2.5"]) + "\n")
        result = runner.invoke(main, ["compare", str(p), str(p)])
        assert result.exit_code == 2
        assert "nan.csv, line 2: 'nan' is not a finite number" in result.output

    def test_header_skipped(self, runner, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("v1\n" + "\n".join(str(float(i)) for i in range(600))
                     + "\n")
        rec = json.loads(_run(runner, "compare", str(p), str(p)).output)
        assert rec["n_a"] == 600
