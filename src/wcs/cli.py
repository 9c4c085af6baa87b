"""Command-line interface: every computation as a reproducible table.

Subcommands mirror the library one to one; output is CSV (default) or a
single JSON object {"config": ..., "rows": [...]}.  Each subcommand accepts
only the options it reads, so any other flag is a usage error (exit 2).
The JSON config is the parsed command line: the subcommand and every
option it accepts, defaults included, plus what pdist computed (cutoff and
tail mass).  Identical invocations produce byte-identical output: floats
are printed with 17 significant digits, row order follows grid order, and
diagnostics go exclusively to stderr: the WCS_LOG environment variable
(error, warn, info or debug) sets the level, and each message is written
directly to sys.stderr as `wcs:LEVEL: message`, without the logging module.
A command imports only the library modules it calls, inside its cmd_*
function, so a run loads no more of the package than it uses.

Exit codes: 0 success, 2 invalid configuration (an --out file that cannot
be written included), 3 numerical failure, 4 verification failure (moment
check above threshold).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .errors import ConvergenceError, NumericalRangeError, ParameterError
from .params import _INNER_RTOL, WEIGHT_FAMILY_NAMES, DeformationParams, PhysicalScales

# WCS_LOG's levels, numbered as the logging module numbers them
_LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}
_log_level = _LOG_LEVELS["warn"]


def _setup_logging() -> None:
    global _log_level
    name = os.environ.get("WCS_LOG", "warn").lower()
    if name not in _LOG_LEVELS:
        raise ParameterError(
            f"WCS_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    _log_level = _LOG_LEVELS[name]


def _log(level: str, message: str, *args) -> None:
    """Write `wcs:LEVEL: message % args` to the current stderr when WCS_LOG
    lets level (debug, info or error) through."""
    if _LOG_LEVELS[level] >= _log_level:
        sys.stderr.write(f"wcs:{level.upper()}: {message % args}\n")
        sys.stderr.flush()


# ---------------------------------------------------------------- parsing


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse {text!r} as a number list") from exc


# the most values a range or grid may expand to, checked before it is built
_MAX_VALUES = 10**6


def _check_values(count: int, text: str) -> None:
    if count > _MAX_VALUES:
        raise ParameterError(
            f"{text!r} expands to {count} values, above the ceiling of {_MAX_VALUES}"
        )


def _parse_int_range(text: str) -> tuple[int, ...]:
    """Accept '3', '0..5', or '0,2,5'."""
    try:
        if ".." not in text:
            return tuple(int(tok) for tok in text.split(","))
        lo, hi = (int(tok) for tok in text.split("..", 1))
    except ValueError as exc:
        raise ParameterError(f"cannot parse {text!r} as an integer range") from exc
    if hi < lo:
        raise ParameterError(f"descending range {text!r}")
    _check_values(hi - lo + 1, text)
    return tuple(range(lo, hi + 1))


def _parse_grid(text: str) -> tuple[float, ...]:
    """Accept a single number, 'a,b,c', or 'lo:hi:count' (inclusive)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"grid expression {text!r} must be lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParameterError(f"cannot parse grid expression {text!r}") from exc
        if count < 1:
            raise ParameterError(f"grid count must be >= 1, got {count}")
        _check_values(count, text)
        if count == 1:
            return (lo,)
        step = (hi - lo) / (count - 1)
        return tuple(lo + step * i for i in range(count))
    return _parse_float_list(text)


# ------------------------------------------------------------- formatting


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, int) or isinstance(v, float) and math.isfinite(v):
        return _fmt(v)
    import json  # here and in _render_json: only --format json loads it

    return json.dumps(_fmt(v), ensure_ascii=False)


def _render_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _render_json(config: dict, header: list[str], rows: list[tuple]) -> str:
    import json

    cfg = ",".join(
        f"{json.dumps(k, ensure_ascii=False)}:{_json_value(v)}" for k, v in config.items()
    )
    row_objs = []
    for row in rows:
        row_objs.append(
            "{" + ",".join(f'"{h}":{_json_value(c)}' for h, c in zip(header, row)) + "}"
        )
    return '{"config":{' + cfg + '},"rows":[' + ",".join(row_objs) + "]}\n"


def _config(args, computed: dict) -> dict:
    """The run configuration as parsed: the subcommand, each option it
    accepts, then the computed entries.  alpha, beta and nu are recorded as
    text, the values of a sweep comma-joined."""
    config = {key: v for key, v in vars(args).items() if key != "func"}
    for key in ("alpha", "beta", "nu"):
        v = config[key]
        if v is not None:
            config[key] = ",".join(map(_fmt, v if isinstance(v, tuple) else (v,)))
    return config | computed


def _emit(args, header: list[str], rows: list[tuple], **computed) -> None:
    _log(
        "debug",
        "command=%s rows=%d columns=%s format=%s",
        args.command,
        len(rows),
        ",".join(header),
        args.format,
    )
    if args.format == "json":
        text = _render_json(_config(args, computed), header, rows)
    else:
        text = _render_csv(header, rows)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
            _log("info", "wrote %d rows to %s", len(rows), args.out)
            if args.gnuplot:
                _emit_gnuplot(args.out, header)
        except OSError as exc:
            raise ParameterError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_gnuplot(out_path: str, header: list[str]) -> None:
    gp_path = out_path + ".gp"
    name = os.path.basename(out_path)
    lines = [
        "# plot script for " + name,
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{header[0]}'",
    ]
    quoted = name.replace("'", "''")  # gnuplot's escape inside single quotes
    plots = [f"'{quoted}' using 1:{i + 1} with lines" for i in range(1, len(header))]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(gp_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    _log("info", "wrote gnuplot script %s", gp_path)


# ------------------------------------------------------------- commands


def _triple(args) -> DeformationParams:
    return DeformationParams(args.alpha, args.beta, args.nu)


def cmd_factorial(args) -> int:
    from .factorials import gen_factorial

    p = _triple(args)
    ns = _parse_int_range(args.n)
    rows = []
    for n in ns:
        lv = gen_factorial(n, p)
        try:
            linear = lv.to_float()
        except NumericalRangeError:
            linear = math.inf
        rows.append((n, lv.log_abs, linear))
    _emit(args, ["n", "log_factorial", "factorial_or_inf"], rows)
    return 0


def cmd_spectrum(args) -> int:
    from .algebra import energy_level

    s = PhysicalScales(hbar=args.hbar, omega=args.omega)
    ns = _parse_int_range(args.n)
    rows = []
    for alpha in args.alpha:
        p = DeformationParams(alpha, args.beta, args.nu)
        for n in ns:
            rows.append((n, alpha, args.beta, args.nu, energy_level(n, p, s)))
    _emit(args, ["n", "alpha", "beta", "nu", "energy"], rows)
    return 0


def cmd_pdist(args) -> int:
    from .coherent import CoherentLabel, photon_distribution

    label = CoherentLabel.from_intensity(args.x)
    dist = photon_distribution(label, _triple(args), tail_tol=args.tail)
    rows = [(n, prob) for n, prob in enumerate(dist.probabilities)]
    _emit(args, ["n", "probability"], rows, cutoff=dist.cutoff, tail_mass=dist.tail_mass)
    return 0


def cmd_mandel(args) -> int:
    from .coherent import CoherentLabel, mandel_qm, mandel_qz

    p = _triple(args)
    xs = _parse_grid(args.x)
    if any(x <= 0 for x in xs):
        raise ParameterError("mandel requires x > 0 on the whole grid")
    rows = []
    for x in xs:
        label = CoherentLabel.from_intensity(x)
        rows.append((x, mandel_qz(label, p, tol=args.tol), mandel_qm(label, p)))
    _emit(args, ["x", "q_z", "q_m"], rows)
    return 0


def cmd_uncertainty(args) -> int:
    from .coherent import vacuum_uncertainty

    s = PhysicalScales(hbar=args.hbar)
    unit = 1.0
    if args.units == "half-hbar":
        unit = 0.5 * s.hbar
    rows = [
        (alpha, beta, nu, vacuum_uncertainty(DeformationParams(alpha, beta, nu), s) / unit)
        for alpha, beta, nu in itertools.product(args.alpha, args.beta, args.nu)
    ]
    _emit(args, ["alpha", "beta", "nu", "vacuum_product"], rows)
    return 0


def cmd_wavefunction(args) -> int:
    from .coherent import wavefunction_sample

    p = _triple(args)
    s = PhysicalScales(hbar=args.hbar, mass=args.mass, omega=args.omega)
    ks = _parse_int_range(args.k)
    xs = _parse_grid(args.x)
    rows = []
    for k in ks:
        for x in xs:
            value, cancel = wavefunction_sample(k, x, p, s, tol=args.tol)
            rows.append((k, x, value, cancel))
    _emit(args, ["k", "x", "psi", "cancellation"], rows)
    return 0


def _family_triple(args) -> DeformationParams:
    """The family's deformation triple; an --alpha given on the command line
    must agree with the alpha that the family fixes."""
    from .moments import WEIGHT_FAMILIES

    p = WEIGHT_FAMILIES[args.family].params(args.beta, args.nu)
    if args.alpha is not None and not (
        len(args.alpha) == 1 and math.isclose(args.alpha[0], p.alpha, abs_tol=1e-12)
    ):
        raise ParameterError(
            f"--alpha {','.join(f'{a:g}' for a in args.alpha)} contradicts --family "
            f"{args.family}, which fixes alpha = {p.alpha:g} at beta = {args.beta:g}"
        )
    return p


def cmd_weight(args) -> int:
    from .moments import WEIGHT_FAMILIES, u_from_u_tilde

    xs = _parse_grid(args.x)
    p = _family_triple(args)
    sample_at = WEIGHT_FAMILIES[args.family].sample
    rows = []
    for x in xs:
        sample = sample_at(x, args.beta, args.nu, rtol=args.tol)
        rows.append((x, sample.u_tilde, u_from_u_tilde(sample, p), sample.abs_err_est))
    _emit(args, ["x", "u_tilde", "u", "err_est"], rows)
    return 0


def cmd_moments(args) -> int:
    from .moments import verify_moments

    if args.nmax > 12:
        raise ParameterError(f"--nmax is capped at 12, got {args.nmax}")
    _family_triple(args)
    report = verify_moments(args.family, args.beta, args.nu, args.nmax)
    rows = [
        (n, q, t, r)
        for n, q, t, r in zip(
            report.orders,
            report.quadrature_moments,
            report.target_factorials,
            report.rel_errors,
        )
    ]
    _emit(args, ["n", "quadrature_moment", "target_factorial", "rel_error"], rows)
    if max(report.rel_errors) > args.threshold:
        _log(
            "error",
            "moment verification failed: max rel error %.3g above threshold %.3g",
            max(report.rel_errors),
            args.threshold,
        )
        return 4
    return 0


def cmd_carleman(args) -> int:
    from .moments import carleman_classify

    rows = []
    for alpha, beta, nu in itertools.product(args.alpha, args.beta, args.nu):
        v = carleman_classify(DeformationParams(alpha, beta, nu))
        rows.append((alpha, beta, nu, v.exponent, v.determinate, v.series_divergent))
    _emit(
        args,
        ["alpha", "beta", "nu", "exponent", "determinate", "series_divergent"],
        rows,
    )
    return 0


def cmd_hankel(args) -> int:
    from .moments import hankel_hadamard

    det = hankel_hadamard(_triple(args), args.size, args.offset)
    rows = [(args.size, args.offset, 1 if det > 0 else -1, det)]
    _emit(args, ["size", "offset", "sign", "scaled_det"], rows)
    return 0


# ---------------------------------------------------------------- parser


def _subcommand(sub, name: str, func, help: str, sweep=(), family=False,
                scales=(), tol=None) -> argparse.ArgumentParser:
    """A subcommand that accepts the deformation triple, the physical scales
    named in scales, --tol where tol = (default, help) is given, and the
    output options.  A name in sweep takes a comma list, the others one
    value; with family set, --alpha is optional and checked against the
    family's.  Abbreviated flags are refused: --n would otherwise be taken
    as --nu where a subcommand has no --n."""
    sp = sub.add_parser(name, help=help, allow_abbrev=False)
    triple = (("alpha", 0.0), ("beta", 1.0), ("nu", 0.0))
    if family:
        sp.add_argument("--alpha", type=_parse_float_list, default=None,
                        help="deformation alpha; the family fixes it, and a value "
                             "given must agree")
        triple = triple[1:]
    for flag, default in triple:
        if flag in sweep:
            sp.add_argument(f"--{flag}", type=_parse_float_list, default=(default,),
                            help=f"deformation {flag}, a comma list to sweep")
        else:
            sp.add_argument(f"--{flag}", type=float, default=default,
                            help=f"deformation {flag}")
    for flag in scales:
        sp.add_argument(f"--{flag}", type=float, default=1.0)
    if tol is not None:
        sp.add_argument("--tol", type=float, default=tol[0], help=tol[1])
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--gnuplot", action="store_true",
                    help="with --out and csv format, also write a .gp plot script")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcs",
        description="Deformed boson algebra and generalized coherent-state numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "factorial", cmd_factorial, "generalized factorial [n]!")
    sp.add_argument("--n", required=True, help="integer or range, e.g. 3 or 0..5")

    sp = _subcommand(sub, "spectrum", cmd_spectrum,
                     "energy levels (hw/2)([n+1]+[n]); --alpha may sweep",
                     sweep=("alpha",), scales=("hbar", "omega"))
    sp.add_argument("--n", required=True, help="integer or range, e.g. 0..10")

    sp = _subcommand(sub, "pdist", cmd_pdist, "photon-number distribution")
    sp.add_argument("--x", type=float, required=True, help="intensity |z|^2")
    sp.add_argument("--tail", type=float, default=1e-10, help="tail mass tolerance")

    sp = _subcommand(sub, "mandel", cmd_mandel, "Mandel parameters on an x grid",
                     tol=(1e-8, "series tolerance of q_z (default 1e-8; q_m sums to 1e-13)"))
    sp.add_argument("--x", required=True, help="grid: value, list, or lo:hi:count")

    sp = _subcommand(sub, "uncertainty", cmd_uncertainty,
                     "vacuum uncertainty product over a parameter grid",
                     sweep=("alpha", "beta", "nu"), scales=("hbar",))
    sp.add_argument("--units", choices=("action", "half-hbar"), default="action")

    sp = _subcommand(sub, "wavefunction", cmd_wavefunction,
                     "oscillator wavefunctions on an x grid",
                     scales=("hbar", "mass", "omega"),
                     tol=(1e-8, "accepted and unused (default 1e-8)"))
    sp.add_argument("--k", required=True, help="level index or range, e.g. 0..2")
    sp.add_argument("--x", required=True, help="grid: value, list, or lo:hi:count")

    sp = _subcommand(sub, "weight", cmd_weight, "coherent-state weight samples",
                     family=True,
                     tol=(_INNER_RTOL, "relative error target of each weight value (default "
                                       "1e-11, the target moments holds its weights to)"))
    sp.add_argument("--family", choices=WEIGHT_FAMILY_NAMES, required=True)
    sp.add_argument("--x", required=True, help="grid: value, list, or lo:hi:count")

    sp = _subcommand(sub, "moments", cmd_moments,
                     "verify the moment equation for a weight family", family=True)
    sp.add_argument("--family", choices=WEIGHT_FAMILY_NAMES, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--threshold", type=float, default=1e-5,
                    help="max allowed relative moment error (exit 4 above it)")

    _subcommand(sub, "carleman", cmd_carleman, "moment-problem classification",
                sweep=("alpha", "beta", "nu"))

    sp = _subcommand(sub, "hankel", cmd_hankel, "rescaled Hankel determinant")
    sp.add_argument("--size", type=int, default=3)
    sp.add_argument("--offset", type=int, default=0, choices=(0, 1))

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits on usage errors (2) and --help (0); keep main()
            # returning an int for in-process callers
            return exc.code if isinstance(exc.code, int) else 2
        if args.gnuplot and (args.format != "csv" or not args.out):
            raise ParameterError("--gnuplot requires --format csv and --out")
        if args.gnuplot and ("\n" in args.out or "\r" in args.out):
            # no gnuplot quoting spans lines
            raise ParameterError(
                f"--gnuplot cannot quote an --out name that holds a line break, got {args.out!r}"
            )
        return args.func(args)
    except ParameterError as exc:
        print(f"wcs: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalRangeError) as exc:
        print(f"wcs: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
