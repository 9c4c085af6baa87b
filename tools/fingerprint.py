"""Print one md5 per group of outputs of the `wcs` package on PYTHONPATH.

    PYTHONPATH=src python tools/fingerprint.py
    PYTHONPATH=src python tools/fingerprint.py --against BENCH_32.json

Two trees that print the same line for a group return the same bits there.
With --against, it then prints each group whose md5 differs from the one
in that file's fingerprint.groups (or fingerprint.change_groups, where the
file records both trees), or that the file lacks, and exits 1 if there is
any.
Each group pickles a fixed list of results; a call that raises contributes
its exception type and message instead, so a value that turns into an error
moves its group.  A RuntimeWarning is an error, as under the tests' pytest
filter, here and in each command's interpreter: a numpy floating-point
warning that escapes the package moves its group too.

readme          stdout of the `wcs` commands in README.md's sh blocks, in
                README order, each run in a fresh interpreter
cli-json        the same commands with --format json, then `factorial` with
                a newline in --n, each run in a fresh interpreter
tables          log_box and log_gen_factorial at n = 0..k0+2, through the
                first closed-form entry k0, on four triples, and at
                n = 0..4100, two array blocks, at beta = 1e-9, where k0 is
                past every table; then at the last entry of the table those
                reads left, a hit, and one past it, a read that replaces
                the table
verify_moments  fixed verify_moments calls over the three weight families
weights         the three scalar weight samplers at fixed (x, beta, nu) of
                each family, and the two verify_moments calls refused
                before any weight is evaluated
wright_w        wright_w on fixed triples at real x of both signs
log_n_function, n_function, photon_distribution, mandel_qz, mandel_qm,
normally_ordered_moment, fock_moment_sum, coherent_amplitudes, overlap
                one group per photon-statistics function, on fixed triples
                and intensities, called in turn at each (triple, x) as the
                photon-stats benchmark workload calls them
kernel          log_n_function, fock_moment_sum (r = 1, 3, 9),
                photon_distribution and mandel_qm at small beta and large x
                with tight tolerances: Fock series of several kernel
                blocks, and ones that exhaust their term budget, with the
                ConvergenceError messages they raise
cold-sweep      the factorial, spectrum, Hankel and wavefunction functions
                the cold-sweep workload calls, on fixed triples, Hankel at
                the workload's size 4
wavefunction    wavefunction_sample at k = 0..12 on four triples at two
                scales, at x rising from 0 to 8.0 (flagged at (0, 1, 0))
                and falling back: each triple reads level tables of
                growing lengths mid-grid, and later reads take tables
                longer than their lattices; then at SI scales (hbar =
                1.05e-34, m = 1e-27, omega = 1e14) on the same triples at
                0 to 12 oscillator lengths, the last ones past double range
hankel          hankel_hadamard at sizes 1-15 on fixed triples: the sizes
                whose rounding bound exceeds the tolerance raise
ranges          calls at the edge of double range, each a value or a
                range error: both moment functions at (r, x) = (155,
                97.66) and (150, 114.0), n_function at x = 800, -800 and
                500 + 500i, and wright_w at x = 713.15, on three triples;
                n_function_derivative(755, 1) at (1, 0.3, 0.2); and a
                PowerSeries whose two terms fit but whose sum does not
errors          the messages of DeformationParams with alpha and beta both
                out of range, of the one-minus-beta sampler and
                verify_moments at beta outside (0, 1], and of
                hankel_hadamard at sizes 16-40 and 1000 on the hankel triples
api             each name in wcs.__all__ with its call signature (field
                names for a dataclass, base names for another class, keys
                for a mapping, else its repr), not the module that defines
                it, so moving a name between modules keeps the group
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import pickle
import subprocess
import sys
import warnings

import wcs
from groups import (COLD_SWEEP_GRID, COLD_SWEEP_TRIPLES, PHOTON_TRIPLES, PHOTON_XS,
                    TABLE_END, TABLE_TRIPLES, cold_sweep_rows, readme_commands,
                    wavefunction_rows)
from wcs.factorials import _TABLES, _first_series_entry


def _stdout(commands: list[list[str]]) -> bytes:
    out = b""
    for args in commands:
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "wcs.cli", *args]
        out += subprocess.run(cmd, capture_output=True, check=False).stdout
    return out


def _cli_json() -> bytes:
    commands = [args + ["--format", "json"] for args in readme_commands()]
    return _stdout(commands + [["factorial", "--n", "0..1\n", "--format", "json"]])


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error is part of the output
        return (type(exc).__name__, str(exc))


def _tables() -> list:
    out = []
    for triple in TABLE_TRIPLES:
        p = wcs.DeformationParams(*triple)
        end = min(_first_series_entry(p) + 2, TABLE_END)
        rows = [(wcs.log_box(n, p), wcs.log_gen_factorial(n, p)) for n in range(end + 1)]
        # the table's last entry, a hit, and the one past it, which the
        # fallback reads from the table that replaces it
        last = len(_TABLES[p].log_box) - 1
        rows += [(wcs.log_box(n, p), wcs.log_gen_factorial(n, p)) for n in (last, last + 1)]
        out.append(rows)
    return out


def _verify_moments() -> list:
    calls = [
        ("wright", 0.5, 1.0, 8),
        ("wright", 1.0, 1.0, 6),
        ("wright", 0.3, 0.8, 4),
        ("one-minus-beta", 0.5, -0.25, 6),
        ("one-minus-beta", 0.7, 0.2, 8),
        ("one-minus-beta", 0.4, 0.5, 4),
        ("ml-closed-form", 1.0, 0.5, 8),
        ("ml-closed-form", 1.0, 0.0, 4),
        ("ml-closed-form", 1.0, 2.5, 6),
    ]
    return [_call(wcs.verify_moments, *c) for c in calls]


def _weights() -> list:
    xs = (1e-3, 0.5, 2.0, 30.0)
    samplers = [
        (wcs.weight_wright, [(1.0, 1.0), (0.5, 0.5), (0.3, 0.8)]),
        (wcs.weight_one_minus_beta, [(0.5, -0.25), (0.7, 0.2), (0.4, 0.5)]),
    ]
    out = [_call(fn, x, beta, nu) for fn, rows in samplers for beta, nu in rows for x in xs]
    out += [_call(wcs.weight_ml_closed_form, x, nu) for nu in (-0.5, 0.0, 2.5) for x in xs]
    out += [_call(wcs.verify_moments, "one-minus-beta", 0.5, -0.49, 4),
            _call(wcs.verify_moments, "ml-closed-form", 1.0, -0.98, 4)]
    return out


def _wright_w() -> list:
    triples = [(1.0, 0.5, 1.0), (1.0, 1.0, 0.5), (1.0, 0.3, 0.2), (0.3, 0.7, 0.2),
               (0.0, 1.0, 0.5)]
    return [
        _call(wcs.wright_w, x, wcs.DeformationParams(*triple))
        for triple in triples for x in (-20.0, -3.0, -0.5, 0.0, 0.5, 3.0, 20.0, 60.0, 713.15)
    ]


def _photon_stats() -> dict:
    out: dict = {}
    for triple in PHOTON_TRIPLES:
        p = wcs.DeformationParams(*triple)
        for x in PHOTON_XS:
            lab = wcs.CoherentLabel.from_intensity(x)
            for name, result in [
                ("log_n_function", _call(wcs.log_n_function, x, p)),
                ("n_function", _call(lambda: wcs.n_function(-x, p))),
                ("photon_distribution", _call(wcs.photon_distribution, lab, p)),
                ("mandel_qz", _call(wcs.mandel_qz, lab, p)),
                ("mandel_qm", _call(wcs.mandel_qm, lab, p)),
                ("normally_ordered_moment",
                 [_call(wcs.normally_ordered_moment, r, lab, p) for r in (1, 2, 3)]),
                ("fock_moment_sum", [_call(wcs.fock_moment_sum, r, lab, p) for r in (1, 2, 3)]),
                ("coherent_amplitudes", _call(wcs.coherent_amplitudes, lab, p, 12)),
                ("overlap", _call(wcs.overlap, lab, wcs.CoherentLabel(complex(0.3, 0.4)), p)),
            ]:
                out.setdefault(name, []).append(result)
    return out


def _kernel() -> list:
    triples = [(0.0, 0.2, 0.0), (0.0, 0.1, 0.0), (0.3, 0.15, 2.0), (0.0, 0.3, 0.5)]
    out = []
    for triple in triples:
        p = wcs.DeformationParams(*triple)
        for x in (2.0, 5.0, 9.9, 60.0):
            lab = wcs.CoherentLabel.from_intensity(x)
            out.append([
                _call(wcs.log_n_function, x, p, 1e-15, 10**5),
                [_call(wcs.fock_moment_sum, r, lab, p, 1e-14, 40000) for r in (1, 3, 9)],
                _call(wcs.photon_distribution, lab, p, 1e-12, 20000, 1e-15),
                [_call(wcs.mandel_qm, lab, p, tol, budget)
                 for tol, budget in ((1e-15, 10**5), (1e-14, 40000), (1e-13, 20000))],
            ])
    return out


def _samples(row) -> list:
    """wavefunction_sample at each (k, x) of a groups.py row, in turn."""
    triple, scales, points = row
    p = wcs.DeformationParams(*triple)
    s = wcs.PhysicalScales(*(scales or ()))
    return [_call(wcs.wavefunction_sample, k, x, p, s) for k, x in points]


def _per_level(samples: list) -> list:
    """A cold-sweep row's samples, one list per level."""
    n = len(COLD_SWEEP_GRID)
    return [samples[i : i + n] for i in range(0, len(samples), n)]


def _cold_sweep() -> list:
    out = []
    for triple, row in zip(COLD_SWEEP_TRIPLES, cold_sweep_rows()):
        p = wcs.DeformationParams(*triple)
        out.append([
            [wcs.log_gen_factorial(n, p) for n in (0, 1, 7, 1000, 4321)],
            math.fsum(wcs.log_box(k, p) for k in range(1, 1001)),
            [wcs.log_gen_double_factorial(m, p) for m in (0, 1, 2, 9, 40, 333)],
            wcs.spectrum_table(100, p),
            [_call(wcs.hankel_hadamard, p, 4, offset) for offset in (0, 1)],
            _per_level(_samples(row)),
            _call(wcs.eigenfunction_residual, 0.7, 1.3, p),
        ])
    return out


def _wavefunction() -> list:
    return [_samples(row) for row in wavefunction_rows()]


_HANKEL_TRIPLES = [(0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0), (0.3, 0.7, 0.2)]


def _hankel() -> list:
    return [
        _call(wcs.hankel_hadamard, wcs.DeformationParams(*triple), size, offset)
        for triple in _HANKEL_TRIPLES for size in range(1, 16) for offset in (0, 1)
    ]


def _ranges() -> list:
    out = []
    for triple in [(0.0, 1.0, 0.0), (0.0, 1.0, 0.5), (1.0, 0.3, 0.2)]:
        p = wcs.DeformationParams(*triple)
        for r, x in ((155, 97.66), (150, 114.0)):
            lab = wcs.CoherentLabel.from_intensity(x)
            out += [_call(wcs.fock_moment_sum, r, lab, p),
                    _call(wcs.normally_ordered_moment, r, lab, p)]
        out += [_call(wcs.n_function, x, p) for x in (800.0, -800.0, 500 + 500j)]
        out.append(_call(wcs.wright_w, 713.15, p))
    out.append(_call(wcs.n_function_derivative, 755.0, 1, wcs.DeformationParams(1.0, 0.3, 0.2)))
    out.append(_call(wcs.PowerSeries((1e308, 1e308), 1.0), 1.0))
    return out


def _errors() -> list:
    out = [_call(wcs.DeformationParams, *triple)
           for triple in [(-0.5, 1.5, 0.0), (1.5, 0.0, 1.0), (-1.0, -1.0, 0.0), (2.0, 2.0, 5.0)]]
    for beta in (1.5, -0.5):
        out += [_call(wcs.weight_one_minus_beta, 1.0, beta, 0.25),
                _call(wcs.verify_moments, "one-minus-beta", beta, 0.25, 2)]
    out += [
        _call(wcs.hankel_hadamard, wcs.DeformationParams(*triple), size, offset)
        for triple in _HANKEL_TRIPLES for size in [*range(16, 41), 1000] for offset in (0, 1)
    ]
    return out


def _shape(obj):
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    if inspect.isclass(obj):
        return [base.__name__ for base in obj.__bases__]
    if callable(obj):
        return str(inspect.signature(obj))
    if isinstance(obj, dict):
        return sorted(obj)
    return repr(obj)


def _api() -> list:
    return [(name, _shape(getattr(wcs, name))) for name in sorted(wcs.__all__)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="BENCH_JSON",
                    help="a benchmark record whose fingerprint.groups to compare with")
    args = ap.parse_args(argv)
    warnings.simplefilter("error", RuntimeWarning)
    groups = {
        "readme": _stdout(readme_commands()),
        "cli-json": _cli_json(),
        "tables": pickle.dumps(_tables(), protocol=4),
        "verify_moments": pickle.dumps(_verify_moments(), protocol=4),
        "weights": pickle.dumps(_weights(), protocol=4),
        "wright_w": pickle.dumps(_wright_w(), protocol=4),
        **{name: pickle.dumps(results, protocol=4) for name, results in _photon_stats().items()},
        "kernel": pickle.dumps(_kernel(), protocol=4),
        "cold-sweep": pickle.dumps(_cold_sweep(), protocol=4),
        "wavefunction": pickle.dumps(_wavefunction(), protocol=4),
        "hankel": pickle.dumps(_hankel(), protocol=4),
        "ranges": pickle.dumps(_ranges(), protocol=4),
        "errors": pickle.dumps(_errors(), protocol=4),
        "api": pickle.dumps(_api(), protocol=4),
    }
    md5s = {name: hashlib.md5(data).hexdigest() for name, data in groups.items()}
    for name, md5 in md5s.items():
        print(f"{name:24s} {md5}")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        fingerprint = json.load(fh)["fingerprint"]
    # a BENCH file that records both trees names the change's groups change_groups
    want = fingerprint.get("groups") or fingerprint["change_groups"]
    moved = [name for name, md5 in md5s.items() if want.get(name) != md5]
    for name in moved:
        print(f"differs from {args.against}: {name} {want.get(name, '(missing)')} -> {md5s[name]}")
    if not moved:
        print(f"all {len(md5s)} groups equal {args.against}'s")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
