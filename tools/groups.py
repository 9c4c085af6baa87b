"""Inputs of the wavefunction samples that tools/fingerprint.py hashes and
tools/accuracy.py checks against mpmath.  Plain data: importing this module
imports no `wcs` tree.

A sample row is (triple, scales, points): DeformationParams and
PhysicalScales arguments as tuples, scales None for the defaults, and the
(k, x) points in call order.
"""

from __future__ import annotations

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

# the cold-sweep group's triples, and its wavefunction grid: the README grid
# 0:3:31 at k = 0..5
COLD_SWEEP_TRIPLES = [(0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0), (0.3, 0.7, 0.2),
                      (0.9, 0.15, 1.7), (0.6, 0.35, -0.2)]
COLD_SWEEP_GRID = [3.0 * j / 30 for j in range(31)]
COLD_SWEEP_LEVELS = range(6)

# the wavefunction group: four triples at two scales, x rising to 8.0 and
# falling back, then SI scales at 0 to 12 oscillator lengths
WAVE_TRIPLES = [(0.0, 1.0, 0.0), (0.5, 0.5, 0.25), (1.0, 0.1, 0.5), (0.3, 0.7, 0.2)]
WAVE_SCALES = [None, (0.5, 2.0, 1.5)]
WAVE_XS = [0.0, 0.3, 1.0, 2.2, 8.0, 4.0, 1.7, 0.05]
SI = (1.05e-34, 1e-27, 1e14)
SI_LENGTHS = [0.0, 0.5, 2.0, 5.0, 12.0]
SI_LEVELS = (0, 1, 5, 12)


def readme_commands() -> list[list[str]]:
    """The arguments of each `wcs` command in README.md's sh blocks."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = (ln for block in blocks for ln in block.splitlines())
    return [line.split()[1:] for line in lines if line.startswith("wcs ")]


def cold_sweep_rows() -> list[tuple]:
    """One row per cold-sweep triple: the levels in turn, each on the grid."""
    points = [(k, x) for k in COLD_SWEEP_LEVELS for x in COLD_SWEEP_GRID]
    return [(triple, None, points) for triple in COLD_SWEEP_TRIPLES]


def wavefunction_rows() -> list[tuple]:
    """The wavefunction group's rows: each triple at each scale, x in turn
    with every level at each; then each triple at SI scales."""
    hbar, mass, omega = SI
    length = (hbar / (mass * omega)) ** 0.5  # PhysicalScales.length_sq ** 0.5
    return [
        (triple, scales, [(k, x) for x in WAVE_XS for k in range(13)])
        for triple in WAVE_TRIPLES for scales in WAVE_SCALES
    ] + [
        (triple, SI, [(k, u * length) for u in SI_LENGTHS for k in SI_LEVELS])
        for triple in WAVE_TRIPLES
    ]
