"""The series kernel against a frozen copy of its earlier block loop.

_frozen_log_series below is the kernel as it stood before the stop search
over candidate indices and the per-order falling-factor columns: per block
a flags array carrying the previous block's last two flags, an argmax over
three flags in a row, and the falling factor made afresh from np.arange.
It reads the module's shared helpers (tables, block sizes, phases, error
messages) through `series`, so a monkeypatched _first_block sizes both
kernels' blocks alike.  It keeps its own (start, log_factor) arguments,
and _frozen_args spells out what each of the kernel's two series keys
stands for.  The rewritten kernel must return the same bits,
or raise the same error with the same message, on every input.
"""

import functools
import math
import random
import sys
import threading

import numpy as np
import pytest

import wcs
from wcs import DeformationParams, series
from wcs.series import _log_falling, _LogSeries, _log_series


def _frozen_log_series(lx, p, tol, max_terms, what, start=0, log_factor=None, phase=None):
    if lx == -math.inf:
        return _LogSeries(np.zeros(1), 0.0, -math.inf)
    end = start + max_terms
    kept = []
    l_start = f_start = 0.0
    scale, partial = 0.0, 0.0
    carry = np.zeros(2, dtype=bool)
    lo, size = start, series._first_block(lx, p, start)
    while lo < end:
        hi = min(lo + size, end)
        tab = series._table(p, hi)
        log_fact = tab.log_fact[lo : hi + 1]
        if lo == start:
            l_start = log_fact[0]
        logs = np.arange(lo - start, hi - start + 1, dtype=float) * lx
        logs -= log_fact - l_start if l_start else log_fact
        if log_factor is not None:
            f = log_factor(np.arange(lo, hi + 1, dtype=float), tab.log_box[lo : hi + 1])
            if lo == start:
                f_start = f[0]
            logs += f - f_start
        log_t = logs[:-1]
        top = max(scale, float(np.maximum.reduce(log_t)))
        terms = np.exp(log_t - top)
        if phase is not None:
            terms = terms * series._phases(phase, lo - start, hi - lo)
        sums = np.add.accumulate(terms)
        if partial:
            sums += partial * math.exp(scale - top)
        flags = np.empty(hi - lo + 2, dtype=bool)
        flags[:2] = carry
        small = flags[2:]
        floor = math.exp(-top)
        if phase is None:
            np.less_equal(terms, tol * np.maximum(sums, floor), out=small)
        else:
            np.less_equal(np.abs(terms), tol * np.maximum(np.abs(sums), floor), out=small)
        small &= logs[1:] - log_t < series._LOG_RATIO_CEILING
        run = small & flags[1:-1]
        run &= flags[:-2]
        k = int(run.argmax())
        hit = bool(run[k])
        k = k + 1 if hit else len(small)
        kept.append(log_t[:k])
        if hit:
            log_terms = np.concatenate(kept)
            log_sum = top + series._log_abs(sums[k - 1])
            return _LogSeries(log_terms, log_sum, float(logs[k] - logs[k - 1]))
        scale, partial = top, sums[-1]
        carry = flags[-2:]
        lo, size = hi, min(2 * size, series._MAX_BLOCK)
    raise series._no_convergence(what, tol, max_terms, lx, p, start)


def _falling(r, n, log_b):
    return _log_falling(r, n)


def _frozen_args(call):
    """The frozen loop's arguments for the kernel's (lx, p, tol, budget,
    what, kind, phase): kind None is N's series (start 0) and an int r the
    r-th derivative's (start r, the falling factor)."""
    *head, kind, phase = call
    if kind is None:
        shape = 0, None
    else:
        shape = kind, functools.partial(_falling, kind)
    return (*head, *shape, phase)


def _outcome(kernel, *args):
    """The kernel's record as bytes and hex, or its error's type and message."""
    try:
        s = kernel(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return s.log_terms.tobytes(), s.log_sum.hex(), s.log_ratio.hex()


def _random_triple(rng):
    a = rng.choice([0.0, 1.0, rng.random()])
    b = rng.choice([1.0, 0.5, rng.uniform(0.1, 1.0)])
    return DeformationParams(a, b, a - 1.0 + rng.uniform(1e-3, 4.0))


def _random_calls(rng, count):
    """Kernel arguments over the two series keys: positive, alternating
    and complex series of N and of orders r = 0..10; tolerances from 1e-6
    to 1e-16; budgets from 1 term to past the stop, so some end in the
    middle of a block."""
    calls = []
    for _ in range(count):
        p = _random_triple(rng)
        lx = rng.choice([rng.uniform(-6.0, 3.0), rng.uniform(3.0, 7.0), 700.0])
        phase = rng.choice([None, -1.0, complex(math.cos(0.7), math.sin(0.7))])
        tol = 10.0 ** -rng.uniform(6.0, 16.0)
        budget = rng.choice([1, 2, 3, 5, 9, 17, 40, 100, 333, 20000])
        kind = rng.choice([None, rng.randrange(11)])
        calls.append((lx, p, tol, budget, "replay", kind, phase))
    return calls


@pytest.mark.parametrize("first", [1, 2, 3, 5, 8, None])
def test_kernel_replays_the_frozen_block_loop(monkeypatch, first):
    # first blocks of 1 to 8 terms put runs of small terms across block
    # edges; None keeps the kernel's own first block
    if first is not None:
        monkeypatch.setattr(series, "_first_block", lambda lx, p, start: first)
    carried = set()
    stop = series._stop

    def recording(small, run):
        carried.add(run)
        return stop(small, run)

    monkeypatch.setattr(series, "_stop", recording)
    rng = random.Random(31 + (first or 0))
    kinds, keys = set(), set()
    for call in _random_calls(rng, 200):
        want = _outcome(_frozen_log_series, *_frozen_args(call))
        assert _outcome(_log_series, *call) == want, call
        kinds.add(want[0] if isinstance(want[0], str) else "record")
        keys.add(None if call[5] is None else "r")
    assert kinds == {"record", "ConvergenceError"}
    assert keys == {None, "r"}
    if first is not None:
        assert carried == {0, 1, 2}  # each carry reaches a later block


def _frozen_first_block(lx, p, start):
    # _first_block's earlier last lines: builtins max, min and int
    e = p.alpha + p.beta
    log_mode = series._log_mode(lx, p)
    log_ratio_stop = log_mode - series._LOG_RATIO_CEILING / e
    if log_ratio_stop >= math.log(series._MAX_BLOCK):
        return series._MAX_BLOCK
    mode = math.exp(log_mode)
    reach = max(mode + 8.0 * math.sqrt(mode / e), math.exp(log_ratio_stop))
    return int(min(max(reach + 64.0 - start, series._FIRST_BLOCK), series._MAX_BLOCK))


def test_first_block_equals_its_builtin_form():
    # 10 000 random passes: from below the 64-term floor, through sizes
    # between, to past the cap
    rng = random.Random(11)
    sizes = set()
    for _ in range(10_000):
        lx, p = rng.uniform(-8.0, 12.0), _random_triple(rng)
        start = rng.choice([0, 1, rng.randrange(2, 12)])
        want = _frozen_first_block(lx, p, start)
        got = series._first_block(lx, p, start)
        assert type(got) is int and got == want, (lx, p, start)
        sizes.add("floor" if got == 64 else "cap" if got == 16384 else "between")
    assert sizes == {"floor", "between", "cap"}


@pytest.mark.parametrize("carry", [0, 1, 2])
def test_stop_equals_three_flags_in_a_row(carry):
    # the scan over candidate indices against the flags and argmax it
    # replaced, on random blocks of 1 to 12 flags
    rng = random.Random(carry)
    for _ in range(2000):
        small = np.array([rng.random() < 0.6 for _ in range(rng.randint(1, 12))])
        flags = np.concatenate(([False, False, True, True][carry : carry + 2], small))
        run = small & flags[1:-1] & flags[:-2]
        k = int(run.argmax())
        want_k = k + 1 if run[k] else -1
        trailing = 0
        for f in flags[::-1][:2]:
            if not f:
                break
            trailing += 1
        want = (want_k, 0 if want_k > 0 else trailing)
        assert series._stop(small, carry) == want, (small, carry)


class TestColumns:
    def setup_method(self):
        wcs.clear_caches()

    @pytest.mark.parametrize("r", range(1, 13))
    def test_falling_column_has_the_per_block_bits(self, r):
        # F_r(n) - F_r(r) as a block from lo to hi made it: the factor over
        # its own n, less the first block's first entry
        f_start = _log_falling(r, np.arange(r, r + 5, dtype=float))[0]
        col = series._column(r, 4096)
        for lo, hi in [(r, r + 1), (r, r + 64), (r + 1, r + 9), (r + 63, r + 191),
                       (r + 700, r + 2999)]:
            block = _log_falling(r, np.arange(lo, hi + 1, dtype=float)) - f_start
            assert col[lo - r : hi - r + 1].tobytes() == block.tobytes(), (lo, hi)

    def test_columns_are_read_only_and_grow(self):
        first = series._column(3, 16)
        assert len(first) == 16 and not first.flags.writeable
        assert series._column(3, 16) is first
        longer = series._column(3, 32)
        assert len(longer) == 32 and not longer.flags.writeable
        assert longer[:16].tobytes() == first.tobytes()

    def test_a_pass_grows_its_columns_to_its_reach(self):
        # one block of the first block's length, read off the least power
        # of two past its last index
        p = DeformationParams(0.5, 0.7, 0.2)
        s = series._memo_read(math.log(3.0), p, 1e-12, 10000, "", 2)
        reach = series._first_block(math.log(3.0), p, 2) + 1
        assert len(s.log_terms) < reach
        info = series._column.cache_info()
        assert info.misses == 1 and info.currsize == 1
        col = series._column(2, 1 << (reach - 1).bit_length())
        assert series._column.cache_info().hits == info.hits + 1
        assert reach <= len(col) < 2 * reach

    def test_clear_caches_drops_them(self):
        series._column(4, 16)
        wcs.clear_caches()
        assert series._column.cache_info().currsize == 0

    def test_orders_are_bounded(self):
        assert series._column.cache_info().maxsize == series._MAX_ORDERS
        for r in range(3 * series._MAX_ORDERS):
            series._column(r, 4)
            assert series._column.cache_info().currsize <= series._MAX_ORDERS

    def test_threads_read_single_threaded_bits(self):
        # four threads, each summing its own order's series at rising x, so
        # each grows its column while the others read theirs
        p = DeformationParams(0.3, 0.9, 1.5)
        xs = np.geomspace(0.1, 100.0, 40).tolist()

        def sums(r):
            return [_outcome(_log_series, math.log(x), p, 1e-13, 10**5, "", r) for x in xs]

        want = {r: sums(r) for r in (1, 2, 3, 9)}
        wcs.clear_caches()
        got, barrier = {}, threading.Barrier(4, timeout=5)

        def work(r):
            barrier.wait()
            got[r] = sums(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(r,)) for r in want]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want
