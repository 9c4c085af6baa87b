"""Print one md5 per group of outputs of the `wcs` package on PYTHONPATH.

    PYTHONPATH=src python tools/fingerprint.py

Two trees that print the same line for a group return the same bits there.
Each group pickles a fixed list of results; a call that raises contributes
its exception type and message instead, so a value that turns into an error
moves its group.

readme          stdout of the `wcs` commands in README.md's sh blocks, in
                README order, each run in a fresh interpreter
verify_moments  fixed verify_moments calls over the three weight families
photon-stats    the coherent-state and series functions the photon-stats
                benchmark workload calls, on fixed triples and intensities
cold-sweep      the factorial, spectrum, Hankel and wavefunction functions
                the cold-sweep workload calls, on fixed triples, Hankel at
                the workload's size 4
hankel          hankel_hadamard at sizes 1-15 on fixed triples: the sizes
                whose rounding bound exceeds the tolerance raise
api             each name in wcs.__all__ with its call signature (field
                names for a dataclass, base names for another class, keys
                for a mapping, else its repr), not the module that defines
                it, so moving a name between modules keeps the group
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import math
import os
import pickle
import re
import subprocess
import sys

import wcs

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme() -> bytes:
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    out = b""
    for line in (ln for block in blocks for ln in block.splitlines()):
        if line.startswith("wcs "):
            cmd = [sys.executable, "-m", "wcs.cli", *line.split()[1:]]
            out += subprocess.run(cmd, capture_output=True, check=False).stdout
    return out


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error is part of the output
        return (type(exc).__name__, str(exc))


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


def _photon_stats() -> list:
    triples = [(0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0), (0.3, 0.7, 0.2)]
    out = []
    for triple in triples:
        p = wcs.DeformationParams(*triple)
        for x in (0.1, 1.0, 7.5, 40.0):
            lab = wcs.CoherentLabel.from_intensity(x)
            out.append([
                _call(wcs.log_n_function, x, p),
                _call(lambda: wcs.n_function(-x, p)),
                _call(wcs.photon_distribution, lab, p),
                _call(wcs.mandel_qz, lab, p),
                _call(wcs.mandel_qm, lab, p),
                [_call(wcs.normally_ordered_moment, r, lab, p) for r in (1, 2, 3)],
                [_call(wcs.fock_moment_sum, r, lab, p) for r in (1, 2, 3)],
                _call(wcs.coherent_amplitudes, lab, p, 12),
                _call(wcs.overlap, lab, wcs.CoherentLabel(complex(0.3, 0.4)), p),
            ])
    return out


def _cold_sweep() -> list:
    triples = [(0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0), (0.3, 0.7, 0.2),
               (0.9, 0.15, 1.7), (0.6, 0.35, -0.2)]
    grid = [3.0 * j / 30 for j in range(31)]
    out = []
    for triple in triples:
        p = wcs.DeformationParams(*triple)
        out.append([
            [wcs.log_gen_factorial(n, p) for n in (0, 1, 7, 1000, 4321)],
            math.fsum(wcs.log_box(k, p) for k in range(1, 1001)),
            [wcs.log_gen_double_factorial(m, p) for m in (0, 1, 2, 9, 40, 333)],
            wcs.spectrum_table(100, p),
            [_call(wcs.hankel_hadamard, p, 4, offset) for offset in (0, 1)],
            [[_call(wcs.wavefunction_sample, k, x, p) for x in grid] for k in range(6)],
            _call(wcs.eigenfunction_residual, 0.7, 1.3, p),
        ])
    return out


def _hankel() -> list:
    triples = [(0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0), (0.3, 0.7, 0.2)]
    return [
        _call(wcs.hankel_hadamard, wcs.DeformationParams(*triple), size, offset)
        for triple in triples for size in range(1, 16) for offset in (0, 1)
    ]


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


def main() -> int:
    groups = {
        "readme": _readme,
        "verify_moments": lambda: pickle.dumps(_verify_moments(), protocol=4),
        "photon-stats": lambda: pickle.dumps(_photon_stats(), protocol=4),
        "cold-sweep": lambda: pickle.dumps(_cold_sweep(), protocol=4),
        "hankel": lambda: pickle.dumps(_hankel(), protocol=4),
        "api": lambda: pickle.dumps(_api(), protocol=4),
    }
    for name, make in groups.items():
        print(f"{name:16s} {hashlib.md5(make()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
