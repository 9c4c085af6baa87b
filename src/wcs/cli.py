"""Command-line interface: every computation as a reproducible table.

Subcommands mirror the library one to one; output is CSV (default) or a
single JSON object {"config": ..., "rows": [...]}.  Identical invocations
produce byte-identical output: floats are printed with 17 significant
digits, row order follows grid order, and diagnostics go exclusively to
stderr (controlled by the WCS_LOG environment variable).

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 verification failure (moment check above threshold).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .algebra import energy_level
from .coherent import (
    CoherentLabel,
    mandel_qm,
    mandel_qz,
    photon_distribution,
    vacuum_uncertainty,
    wavefunction_sample,
)
from .errors import ConvergenceError, NumericalRangeError, ParameterError
from .factorials import gen_factorial
from .moments import (
    WEIGHT_FAMILIES,
    carleman_classify,
    hankel_hadamard,
    u_from_u_tilde,
    verify_moments,
)
from .params import DeformationParams, PhysicalScales

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

log = logging.getLogger("wcs")

_DEFAULT_SERIES_TOL = 1e-8
_DEFAULT_ALPHA = (0.0,)


def _setup_logging() -> None:
    name = os.environ.get("WCS_LOG", "warn").lower()
    if name not in _LOG_LEVELS:
        raise ParameterError(
            f"WCS_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("wcs:%(levelname)s: %(message)s"))
    root = logging.getLogger("wcs")
    root.handlers[:] = [handler]
    root.setLevel(_LOG_LEVELS[name])


# ---------------------------------------------------------------- parsing


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse {text!r} as a number list") from exc
    if not vals:
        raise ParameterError("empty value list")
    return vals


def _parse_int_range(text: str) -> tuple[int, ...]:
    """Accept '3', '0..5', or '0,2,5'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ParameterError(f"descending range {text!r}")
            return tuple(range(lo, hi + 1))
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"cannot parse {text!r} as an integer range") from exc


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
        if count == 1:
            return (lo,)
        step = (hi - lo) / (count - 1)
        return tuple(lo + step * i for i in range(count))
    return _parse_float_list(text)


def _scalar(values: tuple, flag: str) -> float:
    if len(values) != 1:
        raise ParameterError(f"{flag} must be a single value for this command")
    return values[0]


# ------------------------------------------------------------- formatting


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            return f'"{_fmt(v)}"'
        return format(v, ".17g")
    return f'"{_json_escape(str(v))}"'


def _render_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _render_json(config: dict, header: list[str], rows: list[tuple]) -> str:
    cfg = ",".join(f'"{_json_escape(k)}":{_json_value(v)}' for k, v in config.items())
    row_objs = []
    for row in rows:
        row_objs.append(
            "{" + ",".join(f'"{h}":{_json_value(c)}' for h, c in zip(header, row)) + "}"
        )
    return '{"config":{' + cfg + '},"rows":[' + ",".join(row_objs) + "]}\n"


def _emit(args, config: dict, header: list[str], rows: list[tuple]) -> None:
    log.debug(
        "command=%s rows=%d columns=%s format=%s",
        config.get("command", "?"),
        len(rows),
        ",".join(header),
        args.format,
    )
    if args.format == "json":
        text = _render_json(config, header, rows)
    else:
        text = _render_csv(header, rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        log.info("wrote %d rows to %s", len(rows), args.out)
        if args.gnuplot:
            _emit_gnuplot(args.out, header)
    else:
        sys.stdout.write(text)


def _emit_gnuplot(out_path: str, header: list[str]) -> None:
    gp_path = out_path + ".gp"
    lines = [
        "# plot script for " + os.path.basename(out_path),
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{header[0]}'",
    ]
    plots = [
        f"'{os.path.basename(out_path)}' using 1:{i + 1} with lines"
        for i in range(1, len(header))
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(gp_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    log.info("wrote gnuplot script %s", gp_path)


# ------------------------------------------------------------- commands


def _base_config(args, command: str) -> dict:
    return {
        "command": command,
        "alpha": ",".join(_fmt(a) for a in args.alpha),
        "beta": ",".join(_fmt(b) for b in args.beta),
        "nu": ",".join(_fmt(v) for v in args.nu),
        "hbar": args.hbar,
        "mass": args.mass,
        "omega": args.omega,
        "tol": args.tol,
        "format": args.format,
        "out": args.out,
        "gnuplot": bool(args.gnuplot),
    }


def _params_scalar(args) -> DeformationParams:
    return DeformationParams(
        _scalar(args.alpha, "--alpha"),
        _scalar(args.beta, "--beta"),
        _scalar(args.nu, "--nu"),
    )


def _scales(args) -> PhysicalScales:
    return PhysicalScales(hbar=args.hbar, mass=args.mass, omega=args.omega)


def cmd_factorial(args) -> int:
    p = _params_scalar(args)
    ns = _parse_int_range(args.n)
    rows = []
    for n in ns:
        lv = gen_factorial(n, p)
        try:
            linear = lv.to_float()
        except NumericalRangeError:
            linear = math.inf
        rows.append((n, lv.log_abs, linear))
    config = _base_config(args, "factorial")
    config["n"] = args.n
    _emit(args, config, ["n", "log_factorial", "factorial_or_inf"], rows)
    return 0


def cmd_spectrum(args) -> int:
    beta = _scalar(args.beta, "--beta")
    nu = _scalar(args.nu, "--nu")
    s = _scales(args)
    ns = _parse_int_range(args.n)
    rows = []
    for alpha in args.alpha:
        p = DeformationParams(alpha, beta, nu)
        for n in ns:
            rows.append((n, alpha, beta, nu, energy_level(n, p, s)))
    config = _base_config(args, "spectrum")
    config["n"] = args.n
    _emit(args, config, ["n", "alpha", "beta", "nu", "energy"], rows)
    return 0


def cmd_pdist(args) -> int:
    p = _params_scalar(args)
    label = CoherentLabel.from_intensity(args.x)
    tail = args.tail if args.tail is not None else 1e-10
    dist = photon_distribution(label, p, tail_tol=tail)
    rows = [(n, prob) for n, prob in enumerate(dist.probabilities)]
    config = _base_config(args, "pdist")
    config["x"] = args.x
    config["tail"] = tail
    config["cutoff"] = dist.cutoff
    config["tail_mass"] = dist.tail_mass
    _emit(args, config, ["n", "probability"], rows)
    return 0


def cmd_mandel(args) -> int:
    p = _params_scalar(args)
    tol = args.tol if args.tol is not None else _DEFAULT_SERIES_TOL
    xs = _parse_grid(args.x)
    if any(x <= 0 for x in xs):
        raise ParameterError("mandel requires x > 0 on the whole grid")
    rows = []
    for x in xs:
        label = CoherentLabel.from_intensity(x)
        rows.append((x, mandel_qz(label, p, tol=tol), mandel_qm(label, p)))
    config = _base_config(args, "mandel")
    config["x"] = args.x
    _emit(args, config, ["x", "q_z", "q_m"], rows)
    return 0


def cmd_uncertainty(args) -> int:
    s = _scales(args)
    unit = 1.0
    if args.units == "half-hbar":
        unit = 0.5 * s.hbar
    rows = []
    for alpha in args.alpha:
        for beta in args.beta:
            for nu in args.nu:
                p = DeformationParams(alpha, beta, nu)
                rows.append((alpha, beta, nu, vacuum_uncertainty(p, s) / unit))
    config = _base_config(args, "uncertainty")
    config["units"] = args.units
    _emit(args, config, ["alpha", "beta", "nu", "vacuum_product"], rows)
    return 0


def cmd_wavefunction(args) -> int:
    p = _params_scalar(args)
    s = _scales(args)
    tol = args.tol if args.tol is not None else _DEFAULT_SERIES_TOL
    ks = _parse_int_range(args.k)
    xs = _parse_grid(args.x)
    rows = []
    for k in ks:
        for x in xs:
            value, cancel = wavefunction_sample(k, x, p, s, tol=tol)
            rows.append((k, x, value, cancel))
    config = _base_config(args, "wavefunction")
    config["k"] = args.k
    config["x"] = args.x
    _emit(args, config, ["k", "x", "psi", "cancellation"], rows)
    return 0


def _family_triple(args, beta: float, nu: float) -> DeformationParams:
    """The family's deformation triple; an --alpha given on the command line
    must agree with the alpha that the family fixes."""
    p = WEIGHT_FAMILIES[args.family].params(beta, nu)
    # identity, not equality: an explicit --alpha 0 parses to a new tuple
    if args.alpha is not _DEFAULT_ALPHA and not (
        len(args.alpha) == 1 and math.isclose(args.alpha[0], p.alpha, abs_tol=1e-12)
    ):
        raise ParameterError(
            f"--alpha {','.join(f'{a:g}' for a in args.alpha)} contradicts --family "
            f"{args.family}, which fixes alpha = {p.alpha:g} at beta = {beta:g}"
        )
    return p


def cmd_weight(args) -> int:
    beta = _scalar(args.beta, "--beta")
    nu = _scalar(args.nu, "--nu")
    # --tol is the relative target of each weight value; without it the
    # samplers' default, the target verify_moments holds its weights to
    rtol = {} if args.tol is None else {"rtol": args.tol}
    xs = _parse_grid(args.x)
    p = _family_triple(args, beta, nu)
    sample_at = WEIGHT_FAMILIES[args.family].sample
    rows = []
    for x in xs:
        sample = sample_at(x, beta, nu, **rtol)
        rows.append((x, sample.u_tilde, u_from_u_tilde(sample, p), sample.abs_err_est))
    config = _base_config(args, "weight")
    config["family"] = args.family
    config["x"] = args.x
    _emit(args, config, ["x", "u_tilde", "u", "err_est"], rows)
    return 0


def cmd_moments(args) -> int:
    beta = _scalar(args.beta, "--beta")
    nu = _scalar(args.nu, "--nu")
    if args.nmax > 12:
        raise ParameterError(f"--nmax is capped at 12, got {args.nmax}")
    _family_triple(args, beta, nu)
    report = verify_moments(args.family, beta, nu, args.nmax)
    rows = [
        (n, q, t, r)
        for n, q, t, r in zip(
            report.orders,
            report.quadrature_moments,
            report.target_factorials,
            report.rel_errors,
        )
    ]
    config = _base_config(args, "moments")
    config["family"] = args.family
    config["nmax"] = args.nmax
    config["threshold"] = args.threshold
    _emit(args, config, ["n", "quadrature_moment", "target_factorial", "rel_error"], rows)
    if max(report.rel_errors) > args.threshold:
        log.error(
            "moment verification failed: max rel error %.3g above threshold %.3g",
            max(report.rel_errors),
            args.threshold,
        )
        return 4
    return 0


def cmd_carleman(args) -> int:
    rows = []
    for alpha in args.alpha:
        for beta in args.beta:
            for nu in args.nu:
                p = DeformationParams(alpha, beta, nu)
                v = carleman_classify(p)
                rows.append(
                    (alpha, beta, nu, v.exponent, v.determinate, v.series_divergent)
                )
    config = _base_config(args, "carleman")
    _emit(
        args,
        config,
        ["alpha", "beta", "nu", "exponent", "determinate", "series_divergent"],
        rows,
    )
    return 0


def cmd_hankel(args) -> int:
    p = _params_scalar(args)
    det = hankel_hadamard(p, args.size, args.offset)
    rows = [(args.size, args.offset, 1 if det > 0 else -1, det)]
    config = _base_config(args, "hankel")
    config["size"] = args.size
    config["offset"] = args.offset
    _emit(args, config, ["size", "offset", "sign", "scaled_det"], rows)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", type=_parse_float_list, default=_DEFAULT_ALPHA,
                        help="deformation alpha (comma list where a sweep is allowed)")
    shared.add_argument("--beta", type=_parse_float_list, default=(1.0,),
                        help="deformation beta")
    shared.add_argument("--nu", type=_parse_float_list, default=(0.0,),
                        help="deformation nu")
    shared.add_argument("--hbar", type=float, default=1.0)
    shared.add_argument("--mass", type=float, default=1.0)
    shared.add_argument("--omega", type=float, default=1.0)
    shared.add_argument("--tol", type=float, default=None,
                        help="tolerance override (default: 1e-8 series; for weight, the "
                             "relative error of each value, default 1e-11)")
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument("--out", default=None, help="output file (default stdout)")
    shared.add_argument("--gnuplot", action="store_true",
                        help="with --out and csv format, also write a .gp plot script")

    parser = argparse.ArgumentParser(
        prog="wcs",
        description="Deformed boson algebra and generalized coherent-state numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factorial", parents=[shared],
                        help="generalized factorial [n]!")
    sp.add_argument("--n", required=True, help="integer or range, e.g. 3 or 0..5")
    sp.set_defaults(func=cmd_factorial)

    sp = sub.add_parser("spectrum", parents=[shared],
                        help="energy levels (hw/2)([n+1]+[n]); --alpha may sweep")
    sp.add_argument("--n", required=True, help="integer or range, e.g. 0..10")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("pdist", parents=[shared], help="photon-number distribution")
    sp.add_argument("--x", type=float, required=True, help="intensity |z|^2")
    sp.add_argument("--tail", type=float, default=None, help="tail mass tolerance")
    sp.set_defaults(func=cmd_pdist)

    sp = sub.add_parser("mandel", parents=[shared], help="Mandel parameters on an x grid")
    sp.add_argument("--x", required=True, help="grid: value, list, or lo:hi:count")
    sp.set_defaults(func=cmd_mandel)

    sp = sub.add_parser("uncertainty", parents=[shared],
                        help="vacuum uncertainty product over a parameter grid")
    sp.add_argument("--units", choices=("action", "half-hbar"), default="action")
    sp.set_defaults(func=cmd_uncertainty)

    sp = sub.add_parser("wavefunction", parents=[shared],
                        help="oscillator wavefunctions on an x grid")
    sp.add_argument("--k", required=True, help="level index or range, e.g. 0..2")
    sp.add_argument("--x", required=True, help="grid: value, list, or lo:hi:count")
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("weight", parents=[shared], help="coherent-state weight samples")
    sp.add_argument("--family", choices=WEIGHT_FAMILIES, required=True)
    sp.add_argument("--x", required=True, help="grid: value, list, or lo:hi:count")
    sp.set_defaults(func=cmd_weight)

    sp = sub.add_parser("moments", parents=[shared],
                        help="verify the moment equation for a weight family")
    sp.add_argument("--family", choices=WEIGHT_FAMILIES, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--threshold", type=float, default=1e-5,
                    help="max allowed relative moment error (exit 4 above it)")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("carleman", parents=[shared], help="moment-problem classification")
    sp.set_defaults(func=cmd_carleman)

    sp = sub.add_parser("hankel", parents=[shared], help="rescaled Hankel determinant")
    sp.add_argument("--size", type=int, default=3)
    sp.add_argument("--offset", type=int, default=0, choices=(0, 1))
    sp.set_defaults(func=cmd_hankel)

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
        return args.func(args)
    except ParameterError as exc:
        print(f"wcs: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalRangeError) as exc:
        print(f"wcs: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
