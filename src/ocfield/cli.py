"""Command-line front end: analytic tables, Monte Carlo campaigns, contention
optimization, and figure-style presets, all emitted as CSV.

Thresholds and noise levels cross this boundary in dB and are converted to
linear once, at the parser.  Exit codes: 0 success, 2 configuration error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
from collections import namedtuple

from .analytic import (
    BracketViolation, SystemParams, _count_law_root, _count_law_terms, _poisson_split, delta_const,
    gamma_from_beta,
)
from .domains import (
    _MASK64, RECEIVERS, _check_disk, _check_domain, _check_each, _pzf_count, _Record,
    _resolve_workers,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "db_to_linear",
    "derive_row_seed",
    "figure_preset",
    "main",
    "run_analytic",
    "run_optimize",
    "run_simulation",
]

ANALYTIC_HEADER = "lambda,L,analytic_outage,throughput_density"
SIMULATE_HEADER = "lambda,L,receiver,analytic_outage,mc_outage,stderr,n_trials,seed"
OPTIMIZE_HEADER = "L,g,lambda_max,t_max,mode"


class ConfigError(ValueError):
    """Bad configuration; reported with the offending field and exit code 2."""


def _in_field(field: str, check, *args, **kwargs) -> None:
    """Run `check`, reporting its ValueError as a ConfigError on `field`."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def db_to_linear(value_db: float) -> float:
    """10**(dB/10); a ConfigError unless that is a finite, normal, positive double."""
    try:
        linear = 10.0 ** (value_db / 10.0)
    except OverflowError:
        linear = math.inf
    _in_field(f"{value_db} dB", _check_domain, linear=linear)
    return linear


_DEFAULTS = {
    "alpha": 3.5,
    "beta": db_to_linear(3.0),
    "d_r": 10.0,
    "sigma2": 1e-5,
    "antennas": (1, 2, 3, 4),
    "receivers": ("oc",),
    "pzf_k": None,
    "lambda_grid": (),
    "lambda_points": 10,
    "n_trials": 100_000,
    "master_seed": 1,
    "expected_count": 100,
    "output": "-",
}


class ScenarioConfig(_Record, namedtuple("ScenarioConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    """One CLI scenario, checked when built, so every config that exists is
    valid.  `beta` and `sigma2` are stored linear; an empty `lambda_grid`
    stands for the default grid, which the row functions resolve."""

    __slots__ = ()

    def _check(self) -> None:
        """Raise ConfigError naming the first field outside its domain: each
        field against the parameter table, then the derived threshold, the
        worker count (OC_FIELD_THREADS) and the checks that span fields."""
        for name, value in zip(self._fields, self):
            if name != "output":  # the one field without a domain
                values = value if isinstance(value, tuple) else (value,)
                _in_field(name, _check_each, _DOMAIN_KEYS.get(name, name), values)
        _in_field("gamma", gamma_from_beta, self.beta, self.d_r, self.alpha)
        _in_field("OC_FIELD_THREADS", _resolve_workers)
        if not self.antennas:
            raise ConfigError("L must list at least one antenna count")
        if not self.receivers:
            raise ConfigError("receivers must not be empty")
        if "pzf" in self.receivers:
            _in_field("pzf_k", _pzf_count, min(self.antennas), self.pzf_k)

    def params_for(self, lam: float, L: int) -> SystemParams:
        return SystemParams(
            lam=lam, alpha=self.alpha, sigma2=self.sigma2, d_r=self.d_r, L=L, beta=self.beta
        )

    @property
    def gamma(self) -> float:
        return gamma_from_beta(self.beta, self.d_r, self.alpha)


# ScenarioConfig fields whose key in the parameter table is not their own
# name; each entry of a tuple field is checked on its own
_DOMAIN_KEYS = {"antennas": "L", "receivers": "receiver", "lambda_grid": "lam__positive"}


def derive_row_seed(master_seed: int, row_index: int) -> int:
    """Per-row master seed: splitmix64 of the campaign seed and row index."""
    z = (master_seed + (row_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n densities from lo to hi, log-spaced; a one-point grid is (lo,)."""
    ratio = hi / lo
    return tuple(lo * ratio ** (k / max(n - 1, 1)) for k in range(n))


def default_lambda_grid(config: ScenarioConfig) -> tuple[float, ...]:
    """Log grid spanning outage 0.01 (largest L) to 0.99 (smallest L).

    The low target keys off the largest antenna count and the high target off
    the smallest, so every plotted curve is informative somewhere on the
    grid.  When the noise floor alone exceeds the low target the lower
    endpoint falls back to three decades under the upper one.
    """
    delta, spread, noise = _count_law_terms(config.alpha, config.gamma, config.sigma2)

    def lam_for(L: int, target: float) -> float | None:
        x = _count_law_root(L, target)
        lam = (x - noise) / (delta * spread)
        return lam if lam > 0.0 else None

    lo = lam_for(max(config.antennas), 0.01)
    hi = lam_for(min(config.antennas), 0.99)
    if hi is None:
        raise ConfigError("cannot place the lambda grid: outage saturated by noise alone")
    if lo is None or lo >= hi:
        lo = hi / 1000.0
    grid = _log_grid(lo, hi, config.lambda_points)
    _in_field("lambda_grid", _check_each, "lam__positive", grid)
    return grid


def run_analytic(config: ScenarioConfig) -> list[tuple]:
    """One row per (lambda, L): closed-form outage and throughput density.

    Each density's Poisson mean, from one call's `_count_law_terms`, is shared
    by its antenna counts, bit for bit the `outage_cdf` of every row.  The
    throughput is lam * P(N < L) from the same count law, not lam * (1 -
    outage), which cancels as the outage nears 1.
    """
    delta, spread, noise = _count_law_terms(config.alpha, config.gamma, config.sigma2)
    rows = []
    for lam in config.lambda_grid or default_lambda_grid(config):
        mean = lam * delta * spread + noise
        for L in config.antennas:
            below, outage = _poisson_split(mean, L)
            rows.append((lam, L, outage, lam * below))
    return rows


def run_simulation(config: ScenarioConfig) -> list[tuple]:
    """Monte Carlo rows per (lambda, L, receiver), reproducible per seed.

    Each `run_analytic` row is a cell; its index derives the cell's seed,
    which every receiver shares, so receivers are compared on identical
    trials (paired estimates).  One pass over a cell's blocks serves all its
    receivers: each block is drawn once and reduced to a failure count per
    receiver, and every row equals its one-receiver run bit for bit.  A row
    is the cell's density and antenna count, the receiver's label (pzf<k>
    for PZF), the optimum-combining closed form of the cell (nan for the
    other receivers, which have no closed form here), then the
    `OutageEstimate` fields.
    """
    cells = run_analytic(config)  # resolves the grid, whose errors come first as in `analytic`
    _in_field("antennas", _check_domain, L__simulated=max(config.antennas))
    _in_field("expected_count", _check_disk, max(config.antennas), config.expected_count)
    from .simulate import _estimate_outages  # loads numpy

    rows = []
    for cell_index, (lam, L, analytic, _) in enumerate(cells):
        estimates = _estimate_outages(
            config.params_for(lam, L),
            config.receivers,
            config.n_trials,
            derive_row_seed(config.master_seed, cell_index),
            config.expected_count,
            config.pzf_k,
        )
        for receiver, estimate in zip(config.receivers, estimates):
            label = f"pzf{_pzf_count(L, config.pzf_k)}" if receiver == "pzf" else receiver
            rows.append((lam, L, label, analytic if receiver == "oc" else math.nan, *estimate))
    return rows


def run_optimize(config: ScenarioConfig) -> list[tuple]:
    """Optimum contention density per antenna count, all from one root solver.

    sigma2 = 0 rows are labeled closed-form (g is the root of the contention
    polynomial); sigma2 > 0 rows are labeled root (g is the optimum
    normalized load lambda_max * Delta * gamma**(2/alpha)).  Every row takes
    one call's `_count_law_terms` and equals its `contention_optimum` bit for bit.
    """
    from .contention import _optimum

    gamma = config.gamma
    _in_field("sigma2", _check_domain, sigma2__scaled=config.sigma2 * gamma)
    delta, spread, noise = _count_law_terms(config.alpha, gamma, config.sigma2)
    mode = "closed-form" if config.sigma2 == 0.0 else "root"
    rows = []
    for L in config.antennas:
        opt = _optimum(L, delta * spread, noise)
        rows.append((L, opt.g, opt.lambda_max, opt.t_max, mode))
    return rows


def figure_preset(number: int) -> tuple[str, ScenarioConfig]:
    """Scenario presets mirroring the four summary figures.

    1: outage vs density, L = 1..4, noise -50 dB (simulate)
    2: receiver comparison at L = 3, no noise (simulate)
    3: throughput density vs density, L = 1..5, noise -57 dB (analytic)
    4: optimum contention density vs L, normalized geometry (optimize)
    """
    if number == 1:
        return "simulate", ScenarioConfig(sigma2=db_to_linear(-50.0))
    if number == 2:
        return "simulate", ScenarioConfig(
            sigma2=0.0, antennas=(3,), receivers=("oc", "mrc", "zf", "pzf")
        )
    if number == 3:
        # the default link, with a grid around the optimum of each antenna count
        from .contention import _optimum

        alpha, sigma2, antennas = _DEFAULTS["alpha"], db_to_linear(-57.0), (1, 2, 3, 4, 5)
        gamma = gamma_from_beta(_DEFAULTS["beta"], _DEFAULTS["d_r"], alpha)
        delta, spread, noise = _count_law_terms(alpha, gamma, sigma2)
        optima = [_optimum(L, delta * spread, noise).lambda_max for L in antennas]
        grid = _log_grid(0.2 * min(optima), 5.0 * max(optima), 50)
        return "analytic", ScenarioConfig(sigma2=sigma2, antennas=antennas, lambda_grid=grid)
    if number == 4:
        alpha = 3.5
        beta = delta_const(alpha) ** (-0.5 * alpha)  # makes Delta * gamma**(2/alpha) = 1
        config = ScenarioConfig(
            alpha=alpha, beta=beta, d_r=1.0, sigma2=0.0, antennas=tuple(range(1, 9))
        )
        return "optimize", config
    raise ConfigError(f"figure must be 1, 2, 3 or 4 (got {number})")


@contextlib.contextmanager
def open_output(path: str):
    """The binary file `path` opened for writing but not truncated, or None
    for "-" (stdout).  An OSError in opening, writing or closing it, or in
    writing or flushing stdout, is a ConfigError on --out (the rows
    themselves do no I/O).

    Opened before any row is computed, so an unwritable --out costs no work.
    A new file gets mode 0o666 less the umask, as from open(path, "w"); if
    the run fails, a file this call created is removed.  An existing file is
    rewritten in place, so it keeps its bytes unless the write itself fails
    part-way.
    """
    created = False
    try:
        if path == "-":
            yield None
            sys.stdout.flush()
            return
        try:
            fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
        except FileExistsError:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as handle:
            yield handle
    except BaseException as exc:
        if created:
            os.unlink(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"--out: {exc}") from None
        raise


def write_csv(out, header: str, template: str, rows: list[tuple]) -> None:
    """Write the CSV text, the header and then `template % row` for each
    row, to `out`, a file from `open_output`, or to stdout when `out` is None.

    The text overwrites a file from its start, and a regular file is then
    cut to the text's length; other targets (/dev/null, a pipe, a terminal)
    are written and never truncated.  Rewriting in place, rather than
    truncating to 0 first as open(path, "w") does, keeps ext4 (with its
    default auto_da_alloc) from starting a writeback when the file closes.
    """
    text = header + "\n" + "".join(template % row for row in rows)
    if out is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    out.write(data)
    out.flush()
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        os.ftruncate(out.fileno(), len(data))


def _typed(kind: type, *accepted: type):
    """Parser of flag text, or of a JSON value of an `accepted` type, into
    `kind`; bools, nulls and other types are refused."""

    def parse(value):
        if isinstance(value, bool) or not isinstance(value, (str, *accepted)):
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)

    return parse


_real = _typed(float, int, float)
_integer = _typed(int, int)
_text = _typed(str)


def _decibels(value) -> float:
    return db_to_linear(_real(value))


def _many(parse, empty: str | None = None):
    """Parser of a comma-separated flag text, a JSON list or one JSON scalar;
    given `empty`, a value that lists nothing is a ValueError with that text."""

    def parse_many(value) -> tuple:
        if isinstance(value, str):
            value = [tok.strip() for tok in value.split(",") if tok.strip()]
        elif not isinstance(value, list):
            value = [value]
        if empty and not value:
            raise ValueError(empty)
        return tuple(parse(item) for item in value)

    return parse_many


# config key (also the flag's argparse dest) -> (ScenarioConfig field, parser
# of flag text or JSON value, flag, help).  A layer applies its keys in this
# order, so a linear key overrides its dB twin.
_KEYS = {
    "alpha": ("alpha", _real, "--alpha", "path-loss exponent (> 2)"),
    "beta_db": ("beta", _decibels, "--beta-db", "SINR threshold in dB"),
    "beta": ("beta", _real, "--beta", "SINR threshold, linear (overrides --beta-db)"),
    "d_r": ("d_r", _real, "--d-r", "desired-link distance in meters"),
    "sigma2_db": ("sigma2", _decibels, "--sigma2-db", "noise level in dB (e.g. -50)"),
    "sigma2": (
        "sigma2", _real, "--sigma2", "noise level, linear; use 0 for the no-noise regime"
    ),
    "L": ("antennas", _many(_integer), "--L", "comma-separated antenna counts, e.g. 1,2,3,4"),
    "receivers": (
        "receivers", _many(_text), "--receivers", f"comma-separated subset of {','.join(RECEIVERS)}"
    ),
    "pzf_k": (
        "pzf_k", _integer, "--pzf-k", "PZF cancellation count (default min(ceil(L/2), L-1))"
    ),
    # an empty grid would read as ScenarioConfig's stand-in for the default grid
    "lambda_grid": (
        "lambda_grid", _many(_real, "must list at least one density"), "--lambda-grid",
        "comma-separated densities (overrides min/max)",
    ),
    "lambda_points": ("lambda_points", _integer, "--lambda-points", "log-grid point count (default 10)"),
    "n_trials": ("n_trials", _integer, "--n-trials", "Monte Carlo trials per row"),
    "master_seed": ("master_seed", _integer, "--seed", "campaign master seed (64-bit unsigned)"),
    "expected_count": (
        "expected_count", _integer, "--expected-count", "mean interferer count in the disk"
    ),
    "output": ("output", _text, "--out", "output CSV path, or - for stdout (default)"),
}

# the run settings a figure honours; its scenario stays the preset's
_FIGURE_KEYS = ("n_trials", "master_seed", "expected_count", "pzf_k", "lambda_grid", "output")


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        _, _, flag, text = _KEYS[key]
        parser.add_argument(flag, dest=key, help=text)


def _load_config_file(path: str) -> dict:
    import json

    try:
        with open(path, encoding="utf-8") as handle:  # JSON's encoding, not the locale's
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax, bytes that are not UTF-8, an overlong integer
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _apply(layered: dict, values: dict, from_flags: bool) -> None:
    """Parse each key of `values` into `layered`, keyed by ScenarioConfig field."""
    for key, (field, parse, flag, _) in _KEYS.items():
        if key in values:
            try:
                layered[field] = parse(values[key])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{flag if from_flags else key}: {exc}") from None


def build_config(args: argparse.Namespace, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """The scenario of any command, built once from its layers: `base` (the
    defaults, or a figure preset), then the config file, then the flags.

    Within one layer a linear key beats its dB twin.  --lambda-min and
    --lambda-max, which must come together, make a grid of the layered
    lambda_points that beats a file's lambda_grid; --lambda-grid beats both.
    """
    layered = {}
    if getattr(args, "config", None) is not None:
        _apply(layered, _load_config_file(args.config), from_flags=False)
    flags = {key: value for key in _KEYS if (value := getattr(args, key, None)) is not None}
    _apply(layered, flags, from_flags=True)
    lo, hi = getattr(args, "lambda_min", None), getattr(args, "lambda_max", None)
    if (lo is None) != (hi is None):
        raise ConfigError("--lambda-min and --lambda-max must be given together")
    if lo is not None:
        _in_field("--lambda-min", _check_domain, lam__positive=lo)
        _in_field("--lambda-max", _check_domain, lam__positive=hi)
        if not lo < hi:
            raise ConfigError(f"need lambda-min < lambda-max (got {lo}, {hi})")
        if "lambda_grid" not in flags:
            default = base.lambda_points if base else _DEFAULTS["lambda_points"]
            layered["lambda_grid"] = _log_grid(lo, hi, layered.get("lambda_points", default))
    return ScenarioConfig(**layered) if base is None else base._replace(**layered)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ocfield",
        description="Outage, throughput and contention optimization for optimum "
        "combining in a Poisson interferer field, with a Monte Carlo cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analytic", "closed-form outage and throughput over a density grid"),
        ("simulate", "Monte Carlo outage vs the closed form"),
        ("optimize", "optimum contention density per antenna count"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(command=name)
        sp.add_argument("--config", help="flat JSON config file; flags override file values")
        _add_flags(sp, _KEYS)
        sp.add_argument("--lambda-min", type=float, help="log-grid lower density")
        sp.add_argument("--lambda-max", type=float, help="log-grid upper density")
    fig = sub.add_parser("figure", help="presets reproducing the summary figures (CSV only)")
    fig.set_defaults(command="figure")
    fig.add_argument("number", type=int, help="figure number: 1, 2, 3 or 4")
    _add_flags(fig, _FIGURE_KEYS)
    parser.commands = sub.choices  # each command's parser by name, which `main` calls alone
    return parser


# command -> (CSV header, row template, row function); each column's type is
# fixed by its header, and %.17g round-trips every double
_COMMANDS = {
    "analytic": (ANALYTIC_HEADER, "%.17g,%d,%.17g,%.17g\n", run_analytic),
    "simulate": (SIMULATE_HEADER, "%.17g,%d,%s,%.17g,%.17g,%.17g,%d,%d\n", run_simulation),
    "optimize": (OPTIMIZE_HEADER, "%d,%.17g,%.17g,%.17g,%s\n", run_optimize),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # parsed once, by the named command's parser; the rest, -h too, goes to the top level
    own = parser.commands.get(argv[0]) if argv else None
    args, extra = own.parse_known_args(argv[1:]) if own else (None, True)
    if extra:
        args = parser.parse_args(argv)
    try:
        if args.command == "figure":
            command, base = figure_preset(args.number)
        else:
            command, base = args.command, None
        config = build_config(args, base)
        header, template, run = _COMMANDS[command]
        with open_output(config.output) as out:
            write_csv(out, header, template, run(config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BracketViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    return 0
