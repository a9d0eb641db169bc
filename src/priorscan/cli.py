"""Command-line front end.

Subcommands: ``grid`` traces an epsilon-contour, ``sensitivity`` runs the
reweighting engine over a contour for a tabulated posterior, ``calibrate``
maps between Hellinger distances and benchmark mean shifts, and ``rw1``
runs the conjugate random-walk model end to end from a monthly-count CSV.

Each setting is taken from, in order of precedence: its flag, the
``--config`` file, ``$PRIORSCAN_OUTDIR`` (for ``--outdir`` only), and the
built-in default the parser declares.

Exit codes: 0 success, 2 input or ingestion problem, 3 contour not
reachable, 4 numerical failure. Reports are JSON, plot tables CSV; all
files are written atomically and contain no timestamps, so identical
invocations produce byte-identical outputs.

Only the standard library and the numpy-free modules load at start-up; each
subcommand imports the engines it runs. So ``calibrate``, and an input error
found before any numeric work, run without numpy, and ``grid`` loads neither
engine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from .calibration import calibrate, inverse_calibrate
from .errors import (
    ContourUnreachableError,
    IngestionError,
    NumericalError,
    PartialGridError,
    PriorScanError,
    ReweightingError,
)
from .params import DEFAULT_PRIOR, Family, ParamPoint, PriorSpec, check_epsilon

# Annotations are not evaluated: those naming np.ndarray, PolarGrid and SensitivityResult
# need no import here, and numpy and the engines load only where a subcommand runs them.

OUTDIR_ENV = "PRIORSCAN_OUTDIR"
DEFAULT_EPSILON = 0.00354
DEFAULT_ANGLES = 400

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTOUR = 3
EXIT_NUMERICAL = 4

# config-file values of switches such as --log-scale
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file under a unique name, with the mode open(path, "w") gives: 0o666 less the umask
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cells(column: np.ndarray) -> list[str]:
    """The text of each cell of a column: its ``repr``, made once per distinct value."""
    import numpy as np

    if column.dtype.kind == "U":
        return column.tolist()
    # distinct bit patterns, so that -0.0 and 0.0 keep their own text
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(column.dtype).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns of one length as CSV, with the bytes ``csv.writer`` gives.

    Numbers are written as their ``repr``. No header or cell holds a comma, quote
    or line break, so none is quoted, and rows end in CRLF.
    """
    rows = map(",".join, zip(*map(_cells, columns.values())))
    _atomic_write(path, "\r\n".join([",".join(columns), *rows, ""]))


def _parse_point(text: str) -> ParamPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    try:
        return ParamPoint(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; keys mirror long flag names."""
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IngestionError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _config_values(path: str, command: argparse.ArgumentParser) -> dict:
    """Config-file entries checked and coerced like the subcommand's own flags.

    Each key must name an option of ``command``; its value goes through that
    option's ``type`` and ``choices``, or for a switch ``_SWITCH_VALUES``.
    """
    actions = {action.dest: action for action in command._actions if action.dest != "help"}
    values = {}
    for key, text in _load_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise IngestionError(f"unknown config key {key!r} for {command.prog}")
        switch = action.nargs == 0  # such as --log-scale
        try:
            value = text.lower() if switch else (action.type or str)(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise IngestionError(f"config key {key!r}: {exc}") from exc
        allowed = _SWITCH_VALUES if switch else action.choices
        if allowed is not None and value not in allowed:
            choices = ", ".join(map(repr, allowed))
            raise IngestionError(
                f"config key {key!r}: invalid choice {value!r} (choose from {choices})"
            )
        values[key] = _SWITCH_VALUES[value] if switch else value
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="priorscan",
        description="Local sensitivity of Bayesian posteriors to prior hyperparameters",
    )
    parser.add_argument("--config", help="key=value config file; flags override its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    # none of the per-command settings are required at parse time, so a
    # config file can supply any of them; completeness is checked in run()
    p_grid = sub.add_parser("grid", help="trace an epsilon-contour around a base prior")
    p_grid.add_argument("--family", choices=[f.value for f in Family])
    p_grid.add_argument("--gamma0", type=_parse_point, metavar="G1,G2")

    p_sens = sub.add_parser("sensitivity", help="reweighting sensitivity for a tabulated posterior")
    p_sens.add_argument("--family", choices=[f.value for f in Family])
    p_sens.add_argument("--gamma0", type=_parse_point, metavar="G1,G2")
    p_sens.add_argument("--posterior", type=Path, help="CSV x,density of the base posterior")
    p_sens.add_argument("--log-scale", action="store_true",
                        help="posterior support holds log(parameter)")

    p_cal = sub.add_parser("calibrate", help="map a Hellinger distance to a benchmark mean shift")
    p_cal.add_argument("--h", type=float, help="distance to calibrate")
    p_cal.add_argument("--mu", type=float, help="mean shift to invert")

    p_rw1 = sub.add_parser("rw1", help="conjugate random-walk sensitivity from monthly counts")
    p_rw1.add_argument("--data", type=Path, help="CSV of monthly counts")
    p_rw1.add_argument("--window", choices=["full", "last96"])
    p_rw1.add_argument("--kappa", type=float, help="noise precision override")
    p_rw1.add_argument("--prior", type=_parse_point, default=DEFAULT_PRIOR, metavar="A,B",
                       help="gamma prior on the smoothing precision "
                       f"(default {DEFAULT_PRIOR.gamma1:g},{DEFAULT_PRIOR.gamma2:g})")
    p_rw1.add_argument("--engine", choices=["exact", "reweight"], default="exact",
                       help="posterior distances: exact lattice sums or grid reweighting "
                       "(default %(default)s)")

    for name, p in sub.choices.items():
        # a value such as the point -1,2 is not a flag; argparse admits only plain numbers
        p._negative_number_matcher = re.compile(r"-\.?\d")
        # every command but calibrate traces a contour and writes files
        if name == "calibrate":
            continue
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                       help="contour radius (default %(default)s)")
        p.add_argument("--n-angles", type=int, default=DEFAULT_ANGLES,
                       help="polar directions (default %(default)s)")
        p.add_argument("--allow-partial", action="store_true",
                       help="keep going when some directions have no contour point")
        p.add_argument("--outdir", type=Path, default=os.environ.get(OUTDIR_ENV, "."),
                       help=f"output directory (default %(default)r, or ${OUTDIR_ENV} when set)")
        prefix = "rw1, or rw1_reweight with --engine reweight" if name == "rw1" else name
        p.add_argument("--out-prefix", help=f"basename prefix for emitted files (default {prefix})")
    return parser, sub.choices


def _resolve_config(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; entries of a ``--config`` file replace the parser's defaults."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = commands[args.command]
        command.set_defaults(**_config_values(args.config, command))
        args = parser.parse_args(argv)
    return args


def _prefix(args: argparse.Namespace) -> Path:
    """``--outdir`` joined to ``--out-prefix``, which defaults to the command name,
    and to ``rw1_reweight`` for ``rw1 --engine reweight``: the two engines' reports
    of one series can share a directory."""
    name = args.out_prefix
    if name is None:
        name = "rw1_reweight" if getattr(args, "engine", None) == "reweight" else args.command
    return args.outdir / name


def _emit_sensitivity(args: argparse.Namespace, result: SensitivityResult) -> None:
    from .sensitivity import export_plot_data, result_to_json_dict, summarize

    prefix = _prefix(args)
    _write_json(Path(f"{prefix}.json"), result_to_json_dict(result))
    for name, table in zip(("polar", "rolled"), export_plot_data(result)):
        _write_csv(Path(f"{prefix}_{name}.csv"), {f: table[f] for f in table.dtype.names})
    print(summarize(result))
    if result.super_sensitive:
        print("warning: super-sensitivity detected (worst case > 1)", file=sys.stderr)


def _emit_grid(args: argparse.Namespace, grid: PolarGrid) -> None:
    from .sensitivity import report_header

    prefix = _prefix(args)
    points = grid.points
    _write_csv(
        Path(f"{prefix}_contour.csv"),
        {
            "phi": points.phi,
            "gamma1": points.point.gamma1,
            "gamma2": points.point.gamma2,
            "hellinger_residual": points.residual,
        },
    )
    _write_json(
        Path(f"{prefix}_moduli.json"),
        {
            **report_header(grid),
            "cardinal_moduli": asdict(grid.cardinal),
            "failed_angles": list(grid.failed_angles),
        },
    )


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise IngestionError(f"{args.command} needs {flags} (flag or config file)")


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    if args.command == "calibrate":
        if (args.h is None) == (args.mu is None):
            raise IngestionError("calibrate needs exactly one of --h or --mu")
        if args.h is not None:
            print(f"mu = {calibrate(args.h)!r}")
        else:
            print(f"h = {inverse_calibrate(args.mu)!r}")
        return EXIT_OK

    # a contour (grid) or a result; the reweighting engine needs the posterior inp
    report = inp = None
    if args.command == "rw1":
        _require(args, "data")
        from .rw1 import exact_sensitivity, ingest_timeseries, tabulate_posterior

        model = ingest_timeseries(args.data, window=args.window, kappa=args.kappa, prior=args.prior)
        print(
            f"ingested n = {model.n} months, kappa = {model.kappa:.6g}, "
            f"prior = ({model.prior.gamma1:g}, {model.prior.gamma2:g})",
            file=sys.stderr,
        )
        if args.engine == "exact":
            report = exact_sensitivity(
                model, args.epsilon, n_angles=args.n_angles, allow_partial=args.allow_partial
            )
        else:
            base, inp = PriorSpec(Family.GAMMA, model.prior), tabulate_posterior(model)
    else:
        sensitivity = args.command == "sensitivity"
        _require(args, "family", "gamma0", *(["posterior"] if sensitivity else []))
        base = PriorSpec(Family(args.family), args.gamma0)
        if sensitivity:
            from .grids import PosteriorInput, Scale, normalize_grid, read_density_csv

            scale = Scale.LOG_PARAMETER if args.log_scale else Scale.NATURAL
            posterior = normalize_grid(read_density_csv(args.posterior, scale))
            inp = PosteriorInput(posterior=posterior, base_prior=base, parametrization=scale)
        else:
            check_epsilon(args.epsilon)  # compute_grid's own check, before numpy loads

    if report is None:
        from .contour import compute_grid

        report = compute_grid(
            base, args.epsilon, n_angles=args.n_angles, allow_partial=args.allow_partial
        )
        if inp is not None:
            from .reweight import circular_sensitivity

            report = circular_sensitivity(inp, report)
    (_emit_grid if args.command == "grid" else _emit_sensitivity)(args, report)
    if report.failed_angles:
        print(
            f"warning: {len(report.failed_angles)} contour direction(s) failed and were skipped",
            file=sys.stderr,
        )
    return EXIT_OK


# first matching row wins, so the catch-all input row comes last
_EXIT_CODES = (
    ((ContourUnreachableError, PartialGridError), EXIT_CONTOUR),
    ((NumericalError, ReweightingError), EXIT_NUMERICAL),
    ((PriorScanError, OSError), EXIT_INPUT),
)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda msg, cat, *a, **k: print(
                f"warning: {msg}", file=sys.stderr
            )
            return run(_resolve_config(argv))
    except (PriorScanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    raise SystemExit(main())
