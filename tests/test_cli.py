import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.stats import gamma as gamma_dist
from scipy.stats import poisson

import ocfield.analytic as analytic_module
import ocfield.cli as cli_module
from ocfield import SystemParams, contention_optimum, delta_const, outage_cdf
from ocfield.analytic import _count_law_root
from ocfield.cli import (
    _COMMANDS,
    ANALYTIC_HEADER,
    OPTIMIZE_HEADER,
    SIMULATE_HEADER,
    ConfigError,
    ScenarioConfig,
    build_parser,
    db_to_linear,
    default_lambda_grid,
    derive_row_seed,
    main,
    run_analytic,
)


EPS = sys.float_info.epsilon


def run_main(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def run_cli(args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ocfield", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage error
        return exc.code


class TestDbConversion:
    def test_three_db(self):
        assert db_to_linear(3.0) == approx(10.0**0.3, rel=1e-15, abs=0.0)

    def test_minus_fifty_db(self):
        assert db_to_linear(-50.0) == approx(1e-5, rel=1e-12, abs=0.0)

    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    @pytest.mark.parametrize(
        "flag, value",
        [("--beta-db", "4000"), ("--sigma2-db", "-4000"), ("--beta-db", "-3200")],
        ids=["overflow", "underflow-to-zero", "subnormal"],
    )
    def test_outside_normal_doubles_is_a_config_error(self, flag, value, capsys):
        with pytest.raises(ConfigError):
            db_to_linear(float(value))
        assert main(["optimize", "--L", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and flag in captured.err
        assert captured.out == ""


class TestConfig:
    def test_defaults_follow_reference_scenario(self):
        config = ScenarioConfig()
        assert config.alpha == 3.5
        assert config.beta == approx(10.0**0.3)
        assert config.d_r == 10.0
        assert config.expected_count == 100

    def test_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 4.0, "n_trials": 7, "L": [2, 3]}))
        args = build_parser().parse_args(
            ["analytic", "--config", str(cfg), "--alpha", "3.4", "--lambda-grid", "1e-3"]
        )
        from ocfield.cli import build_config

        config = build_config(args)
        assert config.alpha == 3.4  # flag wins
        assert config.n_trials == 7  # file wins over default
        assert config.antennas == (2, 3)

    def test_sigma2_db_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma2_db": -57.0, "lambda_grid": [1e-3]}))
        args = build_parser().parse_args(["analytic", "--config", str(cfg)])
        from ocfield.cli import build_config

        assert build_config(args).sigma2 == approx(10.0**-5.7, rel=1e-12, abs=0.0)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambdas": [1e-3]}))
        args = build_parser().parse_args(["analytic", "--config", str(cfg)])
        from ocfield.cli import build_config

        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config(args)

    def test_validation_messages_name_the_field(self):
        with pytest.raises(ConfigError, match="alpha"):
            ScenarioConfig(alpha=1.0)
        with pytest.raises(ConfigError, match="receivers"):
            ScenarioConfig(receivers=("dfe",))
        with pytest.raises(ConfigError, match="n_trials"):
            ScenarioConfig(n_trials=0)

    @pytest.mark.parametrize("points", [1, True, 2.5])
    def test_lambda_points_error_reads_like_every_domain_error(self, points):
        expected = rf"^lambda_points: lambda_points must be an integer >= 2, got {points!r}$"
        with pytest.raises(ConfigError, match=expected):
            ScenarioConfig(lambda_points=points)

    @pytest.mark.parametrize(
        "file_data, argv, field, expected",
        [
            ({"beta": 2.0}, ["--beta-db", "10"], "beta", 10.0),
            ({"beta_db": 10.0, "beta": 2.0}, [], "beta", 2.0),
            (
                {"lambda_grid": [5e-3]},
                ["--lambda-min", "1e-4", "--lambda-max", "1e-2", "--lambda-points", "3"],
                "lambda_grid",
                (1e-4, 1e-3, 1e-2),
            ),
            (
                {},
                ["--lambda-grid", "5e-3", "--lambda-min", "1e-4", "--lambda-max", "1e-2"],
                "lambda_grid",
                (5e-3,),
            ),
        ],
        ids=["flag-db-beats-file-linear", "linear-beats-db", "flag-range-beats-file-grid",
             "grid-beats-range"],
    )
    def test_layer_precedence(self, tmp_path, file_data, argv, field, expected):
        from ocfield.cli import build_config

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_data))
        args = build_parser().parse_args(["analytic", "--config", str(cfg), *argv])
        assert getattr(build_config(args), field) == approx(expected, rel=1e-12, abs=0.0)

    def test_row_seed_derivation_is_stable(self):
        seeds = {derive_row_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_row_seed(1, 0) == derive_row_seed(1, 0)
        assert derive_row_seed(1, 0) != derive_row_seed(2, 0)


class TestDefaultGrid:
    @pytest.mark.parametrize("sigma2", [0.0, 1e-7, 1e-5])
    @pytest.mark.parametrize(
        "antennas",
        [(1, 2, 3, 4), (1, 8, 16, 32), (4, 64, 128), (2, 256, 512), (1000,)],
        ids=lambda antennas: "L" + ",".join(map(str, antennas)),
    )
    def test_spans_target_outages(self, antennas, sigma2):
        config = ScenarioConfig(sigma2=sigma2, antennas=antennas)
        grid = default_lambda_grid(config)
        assert len(grid) == 10
        high = outage_cdf(config.params_for(grid[-1], min(antennas)))
        assert high == approx(0.99, rel=1e-12, abs=0.0)
        # P(Poisson(x) >= L) is the Gamma(L, 1) cdf at x; the low end falls back
        # to three decades under the top unless noise < x_low < x_high
        x_low, x_high = gamma_dist.ppf(0.01, max(antennas)), gamma_dist.ppf(0.99, min(antennas))
        if sigma2 * config.gamma < x_low < x_high:
            low = outage_cdf(config.params_for(grid[0], max(antennas)))
            assert low == approx(0.01, rel=1e-12, abs=0.0)
        else:
            assert grid[0] == grid[-1] / 1000.0

    def test_log_spacing(self):
        grid = default_lambda_grid(ScenarioConfig(sigma2=db_to_linear(-50.0)))
        ratios = [grid[i + 1] / grid[i] for i in range(len(grid) - 1)]
        assert max(ratios) == approx(min(ratios), rel=1e-9)


# the (L, target) pairs of the benchmark's default grids: the low target at
# the largest L of each antenna set, the high target at the smallest
BENCHMARK_ENDS = [(1, 0.99), (2, 0.99), (4, 0.01), (4, 0.99), (32, 0.01), (128, 0.01), (512, 0.01)]


class TestGridEndpoints:
    """Each end of the default grid is the Halley root of the count law, found
    in 4 of `_poisson_split`'s walks."""

    @pytest.mark.parametrize("target", [0.01, 0.99])
    def test_root_against_mpmath(self, target):
        # P(Poisson(x) >= L) is the regularized lower incomplete gamma P(L, x).
        # The half of the law that is small at the root is checked, within
        # 1e-12 of its own size: mpmath's series for P(L, x) near 1 does not
        # converge at L = 10**6.
        for L in [*range(1, 1201), 1500, 2000, 5000, 10**4, 10**5, 10**6]:
            x = mpmath.mpf(_count_law_root(L, target))
            with mpmath.workdps(30):
                if target < 0.5:
                    half, goal = mpmath.gammainc(L, 0, x, regularized=True), target
                else:
                    half, goal = mpmath.gammainc(L, x, mpmath.inf, regularized=True), 1 - target
            assert float(abs(half - goal) / goal) <= 1e-12, L

    @pytest.mark.parametrize("L, target", BENCHMARK_ENDS)
    def test_evaluations_per_end(self, L, target, monkeypatch):
        split = analytic_module._poisson_split
        points = []

        def counted(x, count):
            points.append(x)
            return split(x, count)

        monkeypatch.setattr(analytic_module, "_poisson_split", counted)
        _count_law_root(L, target)
        assert len(points) <= 4

    def test_unconverged_newton_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(analytic_module, "_MAX_STEPS", 2)
        assert main(["analytic", "--L", "128"]) == 3
        assert "no count-law root in 2 steps" in capsys.readouterr().err


class TestOneCheckPerRun:
    """A scenario is checked once, when it is built: one config per command
    run, on a default grid as on an explicit one, and at most two for a
    figure (its preset, then the run's settings)."""

    @pytest.mark.parametrize(
        "argv, most",
        [
            (["analytic", "--L", "1,8,64"], 1),
            (["analytic", "--L", "1,8,64", "--lambda-grid", "1e-3,2e-3"], 1),
            (["analytic", "--L", "1,3", "--lambda-min", "1e-4", "--lambda-max", "1e-2"], 1),
            (["simulate", "--L", "2", "--lambda-points", "2", "--n-trials", "64"], 1),
            (["simulate", "--L", "2", "--lambda-grid", "1e-3", "--n-trials", "64"], 1),
            (["optimize", "--L", "1,8"], 1),
            (["optimize", "--L", "1,8", "--lambda-grid", "1e-3"], 1),
            (["figure", "1", "--n-trials", "64"], 2),
            (["figure", "2", "--n-trials", "64", "--lambda-grid", "1e-3"], 2),
            (["figure", "3"], 2),
            (["figure", "4"], 2),
        ],
        ids=["analytic-default", "analytic-grid", "analytic-range", "simulate-default",
             "simulate-grid", "optimize", "optimize-grid", "figure-1", "figure-2", "figure-3",
             "figure-4"],
    )
    def test_configs_built_per_run(self, argv, most, monkeypatch):
        built = []
        check = ScenarioConfig._check

        def counted(config):
            check(config)
            built.append(config)

        monkeypatch.setattr(ScenarioConfig, "_check", counted)
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert 1 <= len(built) <= most


class TestCountLawTermsPerRun:
    """The count law's terms are derived in one place, once per call: once
    for the default grid's ends, once for all the rows of an `analytic`,
    `simulate` or `optimize` call, whatever their number, and once for all
    the optima of figure 3's preset.  Counted at `analytic.delta_const`,
    which `_count_law_terms` calls for the first term."""

    GRID = ",".join(f"{k}e-4" for k in range(1, 21))

    @pytest.mark.parametrize(
        "argv, derivations",
        [
            (["analytic", "--L", "1,8,64", "--lambda-grid", GRID], 1),
            (["analytic", "--L", "1,8,64"], 2),
            (["simulate", "--L", "2", "--lambda-points", "3", "--n-trials", "64"], 2),
            (["optimize", "--L", "1,2,3"], 1),
            (["figure", "4"], 1),
            # one for the preset's optima, one for its rows
            (["figure", "3"], 2),
        ],
        ids=[
            "analytic-grid", "analytic-default", "simulate-default", "optimize", "figure-4",
            "figure-3",
        ],
    )
    def test_terms_derived_per_call(self, argv, derivations, monkeypatch):
        calls = []
        delta_const_ = analytic_module.delta_const

        def counted(alpha):
            calls.append(alpha)
            return delta_const_(alpha)

        monkeypatch.setattr(analytic_module, "delta_const", counted)
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(calls) == derivations


class TestDefaultGridErrors:
    """The default grid is resolved when rows are computed, after --out is
    open: a grid it cannot place exits 2, prints nothing, creates no file and
    leaves an existing one as it was."""

    # the grid's upper density overflows: gamma is near the least normal double
    OVERFLOW = ["--alpha", "2.0001", "--beta", "2.3e-308", "--d-r", "1", "--sigma2", "0",
                "--L", "1000000"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analytic", *OVERFLOW], "lambda_grid: lam must be finite and > 0, got inf"),
            (["simulate", *OVERFLOW], "lambda_grid: lam must be finite and > 0, got inf"),
            (["analytic", "--sigma2", "1", "--L", "1"], "cannot place the lambda grid"),
        ],
        ids=["overflow-analytic", "overflow-simulate", "noise-saturated"],
    )
    def test_exits_two_and_writes_nothing(self, tmp_path, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert captured.out == ""
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"old bytes\n")
        assert main([*argv, "--out", str(existing)]) == 2
        assert existing.read_bytes() == b"old bytes\n"
        assert main([*argv, "--out", str(tmp_path / "new.csv")]) == 2
        assert not (tmp_path / "new.csv").exists()


class TestAnalyticCommand:
    def test_rows_match_library_exactly(self, tmp_path):
        header, rows = run_main(
            tmp_path, "analytic", "--lambda-grid", "1e-4,5e-4,2e-3", "--L", "1,3"
        )
        assert header == ANALYTIC_HEADER
        assert len(rows) == 6
        for lam_s, L_s, outage_s, tput_s in rows:
            params = SystemParams(
                lam=float(lam_s), alpha=3.5, sigma2=1e-5, d_r=10.0, L=int(L_s), beta=10.0**0.3
            )
            outage = outage_cdf(params)
            assert float(outage_s) == outage
            # lam * P(N < L), within rounding of lam * (1 - outage) and to 1e-12 of scipy
            assert abs(float(tput_s) - params.lam * (1.0 - outage)) <= 2 * EPS * params.lam
            x = params.lam * delta_const(3.5) * params.gamma ** (2.0 / 3.5) + 1e-5 * params.gamma
            reference = params.lam * poisson.cdf(params.L - 1, x)
            assert abs(float(tput_s) / reference - 1.0) <= 1e-12

    def test_overflowing_mean_is_a_sure_outage(self, capsys):
        # sigma2 * gamma overflows to an infinite Poisson mean
        argv = ["analytic", "--L", "2", "--sigma2", "1e300", "--d-r", "1e5",
                "--lambda-grid", "1e-3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"{ANALYTIC_HEADER}\n0.001,2,1,0\n"

    def test_stdout_default(self, capsys):
        assert main(["analytic", "--lambda-grid", "1e-3", "--L", "2"]) == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[0] == ANALYTIC_HEADER
        assert len(captured) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(2.05, 20.0),
        beta=st.floats(1e-3, 1e3),
        d_r=st.floats(0.1, 100.0),
        sigma2=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
        lambda_grid=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=3),
        antennas=st.lists(st.integers(1, 2000), min_size=1, max_size=3),
    )
    def test_rows_are_outage_cdf_bit_for_bit(self, alpha, beta, d_r, sigma2, lambda_grid, antennas):
        try:
            config = ScenarioConfig(alpha=alpha, beta=beta, d_r=d_r, sigma2=sigma2,
                                    antennas=tuple(antennas), lambda_grid=tuple(lambda_grid))
        except ConfigError:  # gamma outside the normal doubles
            return
        rows = run_analytic(config)
        expected = [(lam, L, outage_cdf(config.params_for(lam, L)))
                    for lam in lambda_grid for L in antennas]
        assert [row[:3] for row in rows] == expected
        # lam * P(N < L): the complement of the outage to within rounding
        for (lam, _, outage), (_, _, _, throughput) in zip(expected, rows):
            assert abs(throughput - lam * (1.0 - outage)) <= 2 * EPS * lam
            assert 0.0 <= throughput <= lam

    @pytest.mark.parametrize(
        "field, value, named",
        [("alpha", 2.0, "alpha"), ("lambda_grid", (-1e-3,), "lam"), ("antennas", (0,), "L"),
         ("lambda_grid", (0.0,), "lam")],
    )
    def test_unvalidated_config_is_refused(self, field, value, named):
        # construction refuses, so no config reaches the rows unchecked
        with pytest.raises(ConfigError, match=rf"\b{named} must be "):
            ScenarioConfig(**{"lambda_grid": (1e-3,), field: value})
        config = ScenarioConfig(lambda_grid=(1e-3,))
        with pytest.raises(AttributeError):
            setattr(config, field, value)


class TestOutputFile:
    """--out rewrites a file in place and cuts it to the new text; other
    targets are written and never truncated."""

    ARGV = ["analytic", "--lambda-grid", "1e-4,1e-3", "--L", "1,2"]

    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"x" * 100_000)
        assert main([*self.ARGV, "--out", str(out)]) == 0
        assert main(self.ARGV) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_dev_null_is_written(self):
        assert main([*self.ARGV, "--out", os.devnull]) == 0

    def test_dev_stdout_prints_the_csv(self):
        result = run_cli([*self.ARGV, "--out", "/dev/stdout"])
        assert result.returncode == 0, result.stderr
        assert result.stdout == run_cli(self.ARGV).stdout
        assert result.stdout.startswith(ANALYTIC_HEADER + "\n")

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        previous = os.umask(0o027)
        try:
            assert main([*self.ARGV, "--out", str(tmp_path / "new.csv")]) == 0
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            os.umask(previous)
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode

    @pytest.mark.parametrize("target", ["missing/a.csv", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_two_before_any_row(self, tmp_path, target, monkeypatch, capsys):
        def no_rows(config):
            raise AssertionError("rows computed for an unwritable --out")

        monkeypatch.setitem(_COMMANDS, "analytic", (*_COMMANDS["analytic"][:2], no_rows))
        assert main([*self.ARGV, "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --out: ")
        assert captured.out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_exits_two(self, capsys):
        assert main([*self.ARGV, "--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert captured.err == f"config error: --out: {full}\n"
        assert captured.out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_exits_two(self):
        with open("/dev/full", "w") as device:
            result = subprocess.run([sys.executable, "-m", "ocfield", *self.ARGV], stdout=device,
                                    stderr=subprocess.PIPE, text=True)
        assert result.returncode == 2
        full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert result.stderr == f"config error: --out: {full}\n"

    def test_stdout_pipe_closed_before_reading_exits_two(self):
        # figure 3 prints about 15 kB, more than stdout buffers, into a pipe
        # whose reader has gone
        child = subprocess.Popen([sys.executable, "-m", "ocfield", "figure", "3"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()
        with child.stderr:
            err = child.stderr.read()
        assert child.wait() == 2
        assert err == f"config error: --out: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"

    def test_failed_write_leaves_no_new_file(self, tmp_path, monkeypatch, capsys):
        def part_then_full(out, *args):
            out.write(b"lambda,L")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli_module, "write_csv", part_then_full)
        assert main([*self.ARGV, "--out", str(tmp_path / "new.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: ")
        assert not (tmp_path / "new.csv").exists()

    def test_failed_run_keeps_an_existing_file_and_leaves_no_new_one(self, tmp_path):
        # sigma2 * gamma overflows: refused by the contention solver, after --out is open
        argv = ["optimize", "--alpha", "8", "--beta", "1", "--d-r", "16", "--sigma2", "1e300"]
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"old bytes\n")
        assert main([*argv, "--out", str(existing)]) == 2
        assert existing.read_bytes() == b"old bytes\n"
        assert main([*argv, "--out", str(tmp_path / "new.csv")]) == 2
        assert not (tmp_path / "new.csv").exists()


def _format_value(value) -> str:
    """The per-value formatter the row templates replaced: the reference."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


class TestRowTemplates:
    """Each command's row template prints every value of its columns' types
    as the per-value formatter did, special values included."""

    REALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.min,
             1.7976931348623157e308, 0.1 + 0.2, 1e-3, 1.0, 2.0**53 + 2.0]
    COUNTS = [1, 8, 10**6, 2**64 - 1]
    # CSV column -> values of its type
    COLUMNS = {
        "lambda": REALS, "analytic_outage": REALS, "throughput_density": REALS,
        "mc_outage": REALS, "stderr": REALS, "g": REALS, "lambda_max": REALS, "t_max": REALS,
        "L": COUNTS, "n_trials": COUNTS, "seed": [0, 7134611160154358618, 2**64 - 1],
        "receiver": ["oc", "mrc", "zf", "pzf0", "pzf1", "pzf4", "pzf999999"],
        "mode": ["closed-form", "root"],
    }

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_template_matches_the_per_value_formatter(self, command):
        header, template, _ = _COMMANDS[command]
        columns = [self.COLUMNS[name] for name in header.split(",")]
        # every value of every column appears in some row
        for k in range(max(map(len, columns))):
            row = tuple(values[k % len(values)] for values in columns)
            assert template % row == ",".join(map(_format_value, row)) + "\n", row


class TestSimulateCommand:
    def test_header_and_row_shape(self, tmp_path):
        header, rows = run_main(
            tmp_path,
            "simulate",
            "--lambda-grid",
            "1e-3",
            "--L",
            "2",
            "--receivers",
            "oc,mrc",
            "--n-trials",
            "300",
            "--seed",
            "5",
        )
        assert header == SIMULATE_HEADER
        assert len(rows) == 2
        oc_row, mrc_row = rows
        assert oc_row[2] == "oc" and mrc_row[2] == "mrc"
        assert float(oc_row[3]) == outage_cdf(
            SystemParams(lam=1e-3, alpha=3.5, sigma2=1e-5, d_r=10.0, L=2, beta=10.0**0.3)
        )
        assert mrc_row[3] == "nan"
        assert int(oc_row[6]) == 300
        assert int(oc_row[7]) == derive_row_seed(5, 0)
        assert int(mrc_row[7]) == derive_row_seed(5, 0)  # paired trials share the seed
        assert float(mrc_row[4]) >= float(oc_row[4])  # paired dominance

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outputs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"w{threads}.csv"
            result = run_cli(
                [
                    "simulate",
                    "--lambda-grid",
                    "8e-4,2e-3",
                    "--L",
                    "1,3",
                    "--n-trials",
                    "400",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ],
                env={"OC_FIELD_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "grid", [[], ["--lambda-grid", "8e-4,2e-3,5e-3"]], ids=["default-grid", "explicit-grid"]
    )
    def test_oc_cells_are_the_analytic_rows(self, tmp_path, grid):
        # (lambda, L, analytic_outage) of each OC row is an analytic row, byte for byte
        scenario = ["--alpha", "3.2", "--sigma2-db", "-50", "--L", "1,3", *grid]
        _, analytic = run_main(tmp_path, "analytic", *scenario)
        _, simulated = run_main(
            tmp_path, "simulate", *scenario, "--receivers", "mrc,oc", "--n-trials", "50"
        )
        oc_cells = [[lam, L, outage] for lam, L, receiver, outage, *_ in simulated if receiver == "oc"]
        assert oc_cells == [row[:3] for row in analytic]
        assert len(oc_cells) == (10 if not grid else 3) * 2

    @pytest.mark.parametrize(
        "argv, labels",
        [
            (["--L", "3", "--receivers", "oc,pzf"], ["oc", "pzf2"]),
            (["--L", "3", "--receivers", "oc,pzf", "--pzf-k", "1"], ["oc", "pzf1"]),
            # a PZF count is ignored, not checked against L, without PZF
            (["--L", "2", "--receivers", "oc", "--pzf-k", "5"], ["oc"]),
            (["--L", "1", "--receivers", "pzf"], ["pzf0"]),
        ],
        ids=["default-pzf", "explicit-pzf", "oc-ignores-pzf-k", "pzf-at-one-antenna"],
    )
    def test_row_labels(self, tmp_path, argv, labels):
        _, rows = run_main(tmp_path, "simulate", *argv, "--lambda-grid", "1e-3",
                           "--n-trials", "64")
        assert [row[2] for row in rows] == labels

    def test_round_trip_precision(self, tmp_path):
        header, rows = run_main(
            tmp_path, "simulate", "--lambda-grid", "1.2345678901234567e-3",
            "--L", "1", "--n-trials", "50", "--seed", "1",
        )
        assert float(rows[0][0]) == 1.2345678901234567e-3


ITEM_6 = "ROADMAP item 6: a near node's power overflows at beta = 1e-300"
ITEM_1 = "ROADMAP item 1: the pseudo-inverse branch's residual test carries the matrix's units"


def _moves(alpha, receiver, reason):
    return pytest.param(alpha, receiver, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


class TestScaleInvariance:
    """At sigma2 = 0 the SINR is homogeneous of degree 0 in the powers, and
    the default grid scales lambda by gamma**(-2/alpha): scaling beta (at
    d_r = 1) scales every power of every trial by 1/gamma, so no failure
    count may move."""

    @pytest.mark.parametrize("alpha, receiver", [
        ("3.5", "oc"),
        _moves("3.5", "mrc", ITEM_6),
        ("3.5", "zf"),
        _moves("12", "oc", f"{ITEM_6}; {ITEM_1} at beta = 1e300"),
        _moves("12", "mrc", ITEM_6),
        _moves("12", "zf", ITEM_6),
        _moves("40", "oc", f"{ITEM_6}; {ITEM_1} at beta = 1e300"),
        _moves("40", "mrc", ITEM_6),
        _moves("40", "zf", ITEM_6),
    ])
    def test_failure_counts_do_not_depend_on_beta(self, tmp_path, alpha, receiver):
        # equal, not close: the scaled grids differ in their last bits, yet at
        # alpha = 3.5 beta = 1e-290 to 1e300 flip no trial of any receiver
        betas = ("1e-300", "1", "1e300")
        counts = [self.failures(tmp_path, alpha, receiver, beta) for beta in betas]
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("alpha, receiver", [
        _moves("3.5", receiver, "ROADMAP item 6: powers overflow at beta = 1e-307, alpha = 3.5")
        for receiver in ("oc", "mrc", "zf")
    ])
    def test_failure_counts_hold_at_beta_1e_307(self, tmp_path, alpha, receiver):
        # at the paper's own exponent every cell of all three receivers moves,
        # exit 0, and MRC reads below OC in some cells on the same draws
        counts = [self.failures(tmp_path, alpha, receiver, beta) for beta in ("1", "1e-307")]
        assert counts[0] == counts[1]

    @staticmethod
    def failures(tmp_path, alpha, receiver, beta, n_trials=1280):
        _, rows = run_main(
            tmp_path, "simulate", "--alpha", alpha, "--beta", beta, "--d-r", "1",
            "--sigma2", "0", "--L", "2,4", "--lambda-points", "3", "--receivers", receiver,
            "--n-trials", str(n_trials), "--seed", "12",
        )
        return [round(float(row[4]) * n_trials) for row in rows]


class TestOptimizeCommand:
    def test_closed_form_rows(self, tmp_path):
        header, rows = run_main(tmp_path, "optimize", "--sigma2", "0", "--L", "1,2,3")
        assert header == OPTIMIZE_HEADER
        assert [row[4] for row in rows] == ["closed-form"] * 3
        gamma = 10.0**0.3 * 10.0**3.5
        for row, L in zip(rows, (1, 2, 3)):
            opt = contention_optimum(L, 3.5, gamma)
            assert float(row[1]) == opt.g
            assert float(row[3]) == approx(opt.t_max, rel=1e-15, abs=0.0)

    def test_grid_search_mode_labeled(self, tmp_path):
        header, rows = run_main(tmp_path, "optimize", "--sigma2-db", "-57", "--L", "2")
        assert rows[0][4] == "root"
        gamma = 10.0**0.3 * 10.0**3.5
        area = delta_const(3.5) * gamma ** (2.0 / 3.5)
        assert float(rows[0][1]) == approx(float(rows[0][2]) * area, rel=1e-15, abs=0.0)
        assert float(rows[0][2]) > 0.0


    def test_large_l_noisy_optimum(self, tmp_path):
        # exp(-x) underflows at this L; the optimum is still found
        header, rows = run_main(tmp_path, "optimize", "--L", "1000")
        lam, t = float(rows[0][2]), float(rows[0][3])
        assert lam == approx(1.0836, abs=1e-4)
        assert 0.0 < t <= lam
        assert rows[0][4] == "root"


class TestLargeL:
    def test_analytic_outage_past_exp_underflow(self, tmp_path):
        header, rows = run_main(tmp_path, "analytic", "--L", "1000", "--lambda-grid", "0.93,1.05")
        gamma = 10.0**0.3 * 10.0**3.5
        area = delta_const(3.5) * gamma ** (2.0 / 3.5)
        outages = []
        for row in rows:
            x = float(row[0]) * area + 1e-5 * gamma
            reference = poisson.sf(999, x)
            value = float(row[2])
            # the benchmark's tolerance on analytic rows
            assert abs(value - reference) <= 1e-9 * reference + 5e-14 * 1001
            outages.append(value)
        assert outages[0] == approx(3.7e-12, rel=0.05, abs=0.0)
        assert outages[1] == approx(6.5e-4, rel=0.05)


class TestFigurePresets:
    def test_figure_one_shape_and_values(self, tmp_path):
        header, rows = run_main(tmp_path, "figure", "1", "--n-trials", "200", "--seed", "3")
        assert header == SIMULATE_HEADER
        assert len(rows) == 40  # 10 densities x 4 antenna counts
        assert {row[2] for row in rows} == {"oc"}
        for row in rows:
            params = SystemParams(
                lam=float(row[0]), alpha=3.5, sigma2=1e-5, d_r=10.0, L=int(row[1]), beta=10.0**0.3
            )
            assert float(row[3]) == outage_cdf(params)

    def test_figure_two_receiver_ordering(self, tmp_path):
        header, rows = run_main(tmp_path, "figure", "2", "--n-trials", "400", "--seed", "3")
        assert {row[2] for row in rows} == {"oc", "mrc", "zf", "pzf2"}
        by_lam = {}
        for row in rows:
            by_lam.setdefault(row[0], {})[row[2]] = float(row[4])
        for cell in by_lam.values():
            for other in ("mrc", "zf", "pzf2"):
                assert cell["oc"] <= cell[other]  # paired trials: exact dominance

    def test_figure_three_argmax_increases_with_antennas(self, tmp_path):
        header, rows = run_main(tmp_path, "figure", "3")
        assert header == ANALYTIC_HEADER
        best = {}
        for lam_s, L_s, _, tput_s in rows:
            L, tput = int(L_s), float(tput_s)
            if L not in best or tput > best[L][1]:
                best[L] = (float(lam_s), tput)
        argmax = [best[L][0] for L in sorted(best)]
        peaks = [best[L][1] for L in sorted(best)]
        assert argmax == sorted(argmax)
        assert len(set(argmax)) == len(argmax)
        assert peaks == sorted(peaks)

    def test_figure_four_linear_scaling(self, tmp_path):
        header, rows = run_main(tmp_path, "figure", "4")
        assert header == OPTIMIZE_HEADER
        assert [int(r[0]) for r in rows] == list(range(1, 9))
        base = float(rows[0][2])
        for row in rows:
            L = int(row[0])
            g = contention_optimum(L, 3.5, 1.0).g
            assert float(row[2]) / base == approx(g, rel=1e-12)
            # normalized geometry: lambda_max equals g(L) outright
            assert float(row[2]) == approx(g, rel=1e-12)

    def test_bad_figure_number(self):
        assert main(["figure", "9"]) == 2


class TestErrorPaths:
    def test_config_error_exit_code(self, tmp_path):
        result = run_cli(["analytic", "--alpha", "1.5", "--lambda-grid", "1e-3"])
        assert result.returncode == 2
        assert "config error" in result.stderr
        assert "alpha" in result.stderr

    def test_bad_receiver_rejected(self):
        assert main(["simulate", "--receivers", "dfe", "--lambda-grid", "1e-3"]) == 2

    def test_negative_density_rejected(self):
        assert main(["analytic", "--lambda-grid=-1e-3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--sigma2", "inf", "--L", "2"],
            ["analytic", "--alpha", "inf", "--L", "2", "--lambda-grid", "1e-3"],
            ["analytic", "--beta", "inf", "--L", "2", "--lambda-grid", "1e-3"],
            ["analytic", "--d-r", "inf", "--L", "2", "--lambda-grid", "1e-3"],
            ["analytic", "--lambda-grid", "inf", "--L", "2"],
            ["analytic", "--lambda-min", "1e-4", "--lambda-max", "inf", "--L", "2"],
        ],
        ids=["sigma2", "alpha", "beta", "d_r", "lambda_grid", "lambda_max"],
    )
    def test_non_finite_value_rejected(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_antenna_count_above_the_cap_exits_fast(self, capsys):
        # a Poisson mean near 1e14 under an L above it: one outage once walked
        # its Poisson window for over 20 s
        config = ScenarioConfig()
        lam = 1e14 / (delta_const(config.alpha) * config.gamma ** (2.0 / config.alpha))
        start = time.perf_counter()
        assert main(["analytic", "--L", str(2 * 10**14), "--lambda-grid", repr(lam)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "L must be an integer in [1, 1000000]" in capsys.readouterr().err
        # at or below the cap the same mean is legal and fast: a sure outage
        assert main(["analytic", "--L", f"1,{10**6}", "--lambda-grid", repr(lam)]) == 0
        assert time.perf_counter() - start < 1.0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(row[2]) for row in rows] == [1.0, 1.0]

    def test_bad_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["analytic", "--config", str(cfg)]) == 2

    def test_lambda_range_flags(self, tmp_path):
        header, rows = run_main(
            tmp_path, "analytic", "--lambda-min", "1e-4", "--lambda-max", "1e-3",
            "--lambda-points", "5", "--L", "1",
        )
        lams = [float(r[0]) for r in rows]
        assert len(lams) == 5
        assert lams[0] == approx(1e-4) and lams[-1] == approx(1e-3)

    def test_internal_invariant_maps_to_exit_three(self, monkeypatch):
        import ocfield.contention as contention_module
        from ocfield.contention import BracketViolation

        def boom(*args, **kwargs):
            raise BracketViolation("forced")

        monkeypatch.setattr(contention_module, "_optimum", boom)
        assert main(["optimize", "--sigma2", "0", "--L", "2"]) == 3

    def test_solver_failure_exits_three(self, monkeypatch, capsys):
        import ocfield.contention as contention_module

        monkeypatch.setattr(contention_module, "_log_ratio", lambda L, x: math.nan)
        assert main(["optimize", "--L", "2"]) == 3
        assert "internal invariant violated" in capsys.readouterr().err

    def test_default_pzf_at_one_antenna_is_mrc(self, tmp_path):
        # the default cancels min(ceil(L/2), L-1) nodes: none at L = 1
        _, rows = run_main(tmp_path, "simulate", "--L", "1", "--receivers", "pzf,mrc",
                           "--lambda-grid", "1e-3", "--n-trials", "200")
        assert [row[2] for row in rows] == ["pzf0", "mrc"]
        assert rows[0][4:] == rows[1][4:]
        assert 0.0 < float(rows[0][4]) < 1.0

    @pytest.mark.parametrize("threads", ["abc", "0", "-1", "2.5", "", "257"])
    def test_bad_thread_count_is_a_config_error(self, threads, monkeypatch, capsys):
        monkeypatch.setenv("OC_FIELD_THREADS", threads)
        argv = ["simulate", "--L", "2", "--lambda-grid", "1e-3", "--n-trials", "100"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: OC_FIELD_THREADS: workers must be")
        assert captured.out == ""

    def test_pzf_cancelling_every_antenna_rejected(self, capsys):
        argv = ["simulate", "--L", "2,4", "--receivers", "oc,zf,pzf", "--sigma2", "0",
                "--lambda-grid", "1e-4", "--n-trials", "300"]
        assert main([*argv, "--pzf-k", "2"]) == 2
        captured = capsys.readouterr()
        assert "pzf_k" in captured.err and captured.out == ""
        assert main([*argv, "--pzf-k", "1"]) == 0

    def test_simulate_runs_where_only_d_r_to_the_minus_alpha_overflows(self, capsys):
        # gamma = 1e10 * 1e-310 = 1e-300 is a normal double, and the Monte
        # Carlo compares Z = SINR * d_r**alpha with it, as the closed form does
        argv = ["--alpha", "31", "--beta", "1e10", "--d-r", "1e-10", "--L", "2",
                "--lambda-grid", "1e-3"]
        assert main(["simulate", *argv, "--n-trials", "640"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [row] = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert row[2:5] == ["oc", "9.7621958290765392e-45", "0"]
        assert main(["analytic", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == row[3]

    @pytest.mark.parametrize(
        "file_data, argv, named",
        [
            (None, ["figure", "4", "--alpha", "4.0"], "--alpha"),
            (None, ["figure", "4", "--config", "missing.json"], "--config"),
            ({"L": [2.7]}, ["simulate", "--lambda-grid", "1e-3", "--n-trials", "10"], "L:"),
            ({"n_trials": 2.9}, ["simulate", "--lambda-grid", "1e-3", "--L", "2"], "n_trials"),
            (None, ["analytic", "--lambda-min", "1e-4", "--L", "1"], "--lambda-min"),
            (
                None,
                ["analytic", "--lambda-min", "1e-4", "--lambda-max", "1e-3",
                 "--lambda-points", "1", "--L", "1"],
                "lambda_points",
            ),
            ({"L": 3.0}, ["optimize"], "L:"),
            ({"alpha": "abc"}, ["optimize"], "alpha"),
            ({"receivers": 5}, ["simulate", "--lambda-grid", "1e-3", "--n-trials", "10"],
             "receivers"),
            ({"alpha": None}, ["optimize"], "alpha"),
            (None, ["analytic", "--d-r", "1e10", "--alpha", "40", "--lambda-grid", "1e-3",
                    "--L", "1"], "gamma"),
            (None, ["optimize", "--d-r", "1e10", "--alpha", "40", "--lambda-grid", "1e-3",
                    "--L", "1"], "gamma"),
            (None, ["analytic", "--beta", "1e-300", "--d-r", "1e-10", "--alpha", "3", "--L", "1"],
             "gamma"),
            # above the antenna cap, which also bounds the default grid's count-law sums
            (None, ["analytic", "--L", "1,2000000000"], "antennas: L must be an integer in"),
            # above the simulator's antenna cap, which bounds a block's memory
            (None, ["simulate", "--L", "257", "--n-trials", "1", "--lambda-grid", "1e-3"],
             "antennas: L must be an integer in [1, 256], got 257"),
            # above the simulated disk's cap, expected_count * L <= 2**18, which
            # bounds a block's channel rows
            (None, ["simulate", "--expected-count", "300000", "--L", "1", "--n-trials", "1",
                    "--lambda-grid", "1e-3"],
             "expected_count: expected_count must be <= 262144 at L = 1, got 300000"),
            (None, ["analytic", "--L", ",", "--lambda-grid", "1e-3"], "L must list at least one"),
            (None, ["simulate", "--receivers", ",", "--lambda-grid", "1e-3", "--n-trials", "10"],
             "receivers must not be empty"),
            (None, ["analytic", "--lambda-min", "1e-2", "--lambda-max", "1e-3", "--L", "1"],
             "need lambda-min < lambda-max"),
            # an empty grid is not the default grid, nor does it leave a given range
            (None, ["analytic", "--lambda-grid", ",", "--L", "1"],
             "--lambda-grid: must list at least one density"),
            (None, ["analytic", "--lambda-grid=", "--L", "1"],
             "--lambda-grid: must list at least one density"),
            ({"lambda_grid": []}, ["analytic", "--L", "1"],
             "lambda_grid: must list at least one density"),
            (None, ["analytic", "--L", "1", "--lambda-min", "1e-4", "--lambda-max", "1e-3",
                    "--lambda-grid", ","], "--lambda-grid: must list at least one density"),
            (None, ["analytic", "--config", os.curdir], f"cannot read config file {os.curdir}:"),
            ([1, 2], ["analytic", "--lambda-grid", "1e-3"], "must hold a flat JSON object"),
            # a UTF-16 byte-order mark, which is not UTF-8
            (b"\xff\xfe{}", ["analytic"], "cfg.json is not valid JSON: 'utf-8' codec"),
        ],
        ids=["figure-alpha", "figure-config", "L-fraction", "n_trials-fraction",
             "lambda-min-alone", "lambda-points-one", "L-float", "alpha-text",
             "receivers-number", "alpha-null", "gamma-overflow-analytic",
             "gamma-overflow-optimize", "gamma-underflow", "L-beyond-default-grid",
             "L-beyond-the-simulator", "disk-beyond-the-simulator", "L-empty", "receivers-empty",
             "lambda-range-reversed", "grid-empty", "grid-blank", "config-grid-empty",
             "grid-empty-with-range", "config-directory", "config-list", "config-not-utf8"],
    )
    def test_bad_input_exits_two_and_names_it(self, tmp_path, file_data, argv, named, capsys):
        if file_data is not None:
            cfg = tmp_path / "cfg.json"
            if not isinstance(file_data, bytes):
                file_data = json.dumps(file_data).encode()
            cfg.write_bytes(file_data)
            argv = [*argv, "--config", str(cfg)]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""


# log2 of the normal doubles, less the top binade, so that 2**x never overflows
LOG2_NORMAL = (math.log2(sys.float_info.min), math.log2(sys.float_info.max) - 1.0)


@st.composite
def links(draw):
    """(alpha, beta, d_r) whose threshold gamma = beta * d_r**alpha is
    log-spread over the normal doubles; d_r is drawn so that beta, derived
    from gamma and d_r, is a normal double too."""
    alpha = draw(st.floats(2.0 + 1e-9, 1e3))
    lo, hi = LOG2_NORMAL
    log_gamma = draw(st.floats(lo, hi))
    log_d_r = draw(st.floats(max(lo, (log_gamma - hi) / alpha), min(hi, (log_gamma - lo) / alpha)))
    return alpha, 2.0 ** (log_gamma - alpha * log_d_r), 2.0 ** log_d_r


def _run_scenario(command, scenario, from_file):
    """(exit code, stdout, stderr) of `command` in process, its scenario
    given as flags or as a config file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if from_file:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as handle:
                json.dump(scenario, handle)
            argv = [command, "--config", cfg]
        else:
            argv = [command]
            for key, value in scenario.items():
                text = ",".join(map(str, value)) if isinstance(value, list) else repr(value)
                argv += ["--" + key.replace("_", "-"), text]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDomainSweep:
    """Across the whole parameter domain, `analytic`, `optimize` and a small
    `simulate`, from flags or from a config file, exit 0 with finite rows, or
    exit 2; never a traceback, exit 3 or a nan.  `simulate` accepts exactly
    the scenarios that `analytic` accepts at the same antenna counts."""

    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["analytic", "optimize", "simulate"]),
        from_file=st.booleans(),
        link=links(),
        antennas=st.lists(st.integers(1, 10_000), min_size=1, max_size=3),
        sigma2=st.floats(0.0, 1e300),
        receivers=st.lists(st.sampled_from(["oc", "mrc", "zf", "pzf"]), min_size=1, max_size=4,
                           unique=True),
        n_trials=st.integers(1, 64),
    )
    # sigma2 * gamma overflows: once an OverflowError out of the contention solver
    @example(command="optimize", from_file=False, link=(8.0, 1.0, 16.0), antennas=[1],
             sigma2=1e300, receivers=["oc"], n_trials=1)
    # d_r**-alpha overflows while gamma stays normal: once an OverflowError in
    # the simulator, then a refusal of what `analytic` accepts
    @example(command="simulate", from_file=True, link=(31.0, 1e10, 1e-10), antennas=[2],
             sigma2=0.0, receivers=["oc", "zf"], n_trials=64)
    def test_finite_rows_or_config_error(
        self, command, from_file, link, antennas, sigma2, receivers, n_trials
    ):
        alpha, beta, d_r = link
        scenario = dict(alpha=alpha, beta=beta, d_r=d_r, sigma2=sigma2, L=antennas,
                        lambda_points=3)
        if command == "simulate":
            antennas = [L % 8 + 1 for L in antennas]  # keep each trial's algebra small
            scenario.update(L=antennas)
            analytic_code, _, analytic_err = _run_scenario("analytic", scenario, from_file)
            scenario.update(receivers=receivers, n_trials=n_trials)
        else:
            receivers = [None]
        code, out, err = _run_scenario(command, scenario, from_file)
        assert code in (0, 2), err
        if command == "simulate":
            assert code == analytic_code, (err, analytic_err)
        if code == 2:
            assert err.startswith("config error: ") and out == ""
            return
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert len(rows) == len(antennas) * len(receivers) * (1 if command == "optimize" else 3)
        for row in rows:
            if command == "simulate":
                _, _, label, analytic, mc, *_ = row
                # only the optimum combiner has a closed form; the others carry nan
                assert (analytic == "nan") == (not label.startswith("oc")), row
                row = [v for v in row if v not in (label, "nan")]
                assert 0.0 <= float(mc) <= 1.0, row
            values = [float(v) for v in row if v not in ("closed-form", "root")]
            assert all(math.isfinite(v) for v in values), row
            if command != "optimize":
                assert 0.0 <= values[2] <= 1.0, row
