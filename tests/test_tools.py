"""The accuracy ledger's summary and two-tree comparison, and ab.py's seed
ranges, on hand-made outcomes: no tree is loaded and no reference summed."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import ab  # noqa: E402
import accuracy  # noqa: E402

T = (0.0, 1.0, 0.0)
# two parts, the error of each its value's distance from the reference
GROUP = accuracy.Group(
    "g", parts=("p", "q"), fields=("n",), samples=None, call=None, references=None,
    errors=lambda o, ref: (abs(o[0] - ref), abs(o[1] - ref)),
)


def test_summary_counts_and_spread():
    # 200 values, part p's error n at n = 1..200 and q's 1 at every n but
    # 57, where it is 5; then a flagged sample and two raised
    outs = {(T, n): (float(n), 5.0 if n == 57 else 1.0) for n in range(1, 201)}
    outs.update({(T, 201): "flagged", (T, 202): "NumericalRangeError",
                 (T, 203): "ConvergenceError"})
    refs = {key: 0.0 for key in outs}
    s = accuracy.summarize(GROUP, outs, refs)
    assert (s.values, s.flagged, s.raised) == (200, 1, 2)
    # the median of 1..200, the nearest-rank p99 (the 198th of 200), the max
    assert s.parts[0] == (100.5, 198.0, 200.0, (T, 200))
    assert s.parts[1] == (1.0, 1.0, 5.0, (T, 57))
    assert accuracy.describe(GROUP, (T, 57)) == "(0.0, 1.0, 0.0) n 57"


def test_summary_of_a_group_without_values():
    s = accuracy.summarize(GROUP, {(T, 1): "ParameterError"}, {})
    assert s == accuracy.Summary(0, 0, 1, [None, None])


def test_max_names_the_first_sample_at_it():
    outs = {(T, 1): (1.0, 0.0), (T, 2): (3.0, 0.0), (T, 3): (3.0, 0.0)}
    s = accuracy.summarize(GROUP, outs, dict.fromkeys(outs, 0.0))
    assert s.parts[0][3] == (T, 2)


def test_comparison_counts_and_moves():
    refs = {(T, n): 0.0 for n in range(1, 7)}
    a = {(T, 1): (1.0, 1.0), (T, 2): (2.0, 1.0), (T, 3): (3.0, 1.0),
         (T, 4): (1.0, 1.0), (T, 5): "flagged", (T, 6): "NumericalRangeError"}
    b = {(T, 1): (0.5, 1.0), (T, 2): (2.0, 1.0), (T, 3): (4.0, 1.0),
         (T, 4): "ConvergenceError", (T, 5): (1.0, 1.0), (T, 6): "NumericalRangeError"}
    c = accuracy.compare(GROUP, a, b, refs)
    # samples 1-3 are values on both trees: 1 closer, 3 farther, 2 equal in p
    assert c.parts[0] == (1, 1, 1, [((T, 1), 1.0, 0.5), ((T, 3), 3.0, 4.0)])
    assert c.parts[1] == (0, 0, 3, [])
    assert c.moves == [((T, 4), "value", "ConvergenceError"), ((T, 5), "flagged", "value")]


def test_comparison_reads_only_samples_both_trees_read():
    # a tree whose table reads start elsewhere reads other samples
    a = {(T, 1): (1.0, 1.0), (T, 2): (1.0, 1.0)}
    b = {(T, 2): (0.0, 1.0), (T, 3): "ParameterError"}
    c = accuracy.compare(GROUP, a, b, dict.fromkeys([(T, 1), (T, 2), (T, 3)], 0.0))
    assert c.parts[0][:3] == (1, 0, 0)
    assert c.moves == []


def test_wanted_takes_the_first_tree_with_values():
    a = {(T, 1): (1.0, 2.0), (T, 2): "flagged", (T, 3): "ParameterError"}
    b = {(T, 1): (9.0, 9.0), (T, 2): (3.0, 4.0), (T, 3): "ParameterError", (T, 4): (5.0, 6.0)}
    assert accuracy.wanted([a, b]) == {(T, 1): (1.0, 2.0), (T, 2): (3.0, 4.0),
                                       (T, 4): (5.0, 6.0)}


def test_spread():
    assert accuracy.spread([3.0]) == (3.0, 3.0, 3.0)
    assert accuracy.spread([4.0, 1.0, 2.0, 3.0]) == (2.5, 4.0, 4.0)


def test_seed_range():
    assert ab.seed_range("3") == range(3, 4)
    assert ab.seed_range("1-10") == range(1, 11)
