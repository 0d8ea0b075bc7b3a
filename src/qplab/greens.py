"""Green's functions of finite boxes, decay fits, and paving.

A box [a, b] is the symmetric tridiagonal operator with the potential values
of `transfer.box_diagonal` on its diagonal and ones off it.  Green's function
entries are kept in signed-log form throughout: with a positive Lyapunov
exponent the off-diagonal entries of a few-hundred-site box underflow
doubles, while their logs stay perfectly representable.  Two independent
routes produce the entries, each evaluating its box once: the
minor/continuant factorization (`green_cramer_matrix`) and a pivoted
tridiagonal LU solve (`green_solve`), which reads log|det| for the
`DET_FLOOR` check off its own factors.  `pave`
assembles the Green's function of a long interval from overlapping good
windows by iterating the resolvent identity to its fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, List, Tuple

import numpy as np

from . import numfmt, slog
from .errors import IterationDiverged, PavingFailed, SingularEnergy
from .model import Frequency, TrigPotential
from .transfer import box_diagonal, det_sequence

# log|det| below which a box counts as singular at the energy.
DET_FLOOR = -700.0
# Rows of the paved G that `pave`'s final pass assembles at once.
_PAVE_BLOCK_ROWS = 64


def _scipy_linalg():
    """``scipy.linalg``, imported on first use.

    scipy serves only the tridiagonal solve here and the eigensolver in
    `localization`, and importing it costs about 0.3 s of a fresh
    interpreter.  Commands that never build a box (``lyapunov``, ``ldt``,
    ``lowerbound``, ``recursion``) and config validation skip it; this is the
    package's one deferred import.
    """
    import scipy.linalg

    return scipy.linalg


@dataclass
class GreenMatrix:
    """Inverse of (A_box - E) with entries stored as (sign, log magnitude)."""

    interval: Tuple[int, int]
    signs: np.ndarray
    logs: np.ndarray

    @property
    def size(self) -> int:
        return self.interval[1] - self.interval[0] + 1

    def values(self) -> np.ndarray:
        return slog.to_values(self.signs, self.logs)

    def csv_lines(self) -> CsvLines:
        """Header plus one ``n1,n2,sign,log_mag`` line per entry, row by row,
        formatted lazily (see `CsvLines`)."""
        return CsvLines(self)


@dataclass(frozen=True)
class CsvLines:
    """The CSV lines of a `GreenMatrix`, sized and formatted lazily.

    `span_text` formats the lines of a range of matrix rows, and `spans` cuts
    the matrix into such ranges.  `cli.run` writes `HEADER` and then the
    ranges in order, each formatted in one of up to ``--threads`` forked
    processes (the cap the manifest records as ``threads``), so the n^2
    strings never exist at once and the bytes are the same at every thread
    count.
    """

    HEADER: ClassVar[str] = "n1,n2,sign,log_mag"
    green: GreenMatrix

    def __len__(self) -> int:
        return self.green.size ** 2 + 1

    def spans(self, lines: int) -> List[range]:
        """Consecutive ranges of whole rows, about ``lines`` lines each (at
        least one row), that cover the matrix."""
        n = self.green.size
        step = max(1, lines // n)
        return [range(i, min(i + step, n)) for i in range(0, n, step)]

    def span_text(self, rows: range) -> str:
        """The newline-terminated lines of matrix ``rows``."""
        g = self.green
        # The ",n2,sign," middle of a line, per column, indexed by the sign:
        # 0 and 1 index directly and -1 picks the last element.
        a = g.interval[0]
        tails = [(f",{c},0,", f",{c},1,", f",{c},-1,")
                 for c in range(a, a + g.size)]
        lines: List[str] = []
        for i in rows:
            head = str(a + i)
            lines += [f"{head}{t[s]}{x}" for t, s, x in
                      zip(tails, g.signs[i].tolist(), numfmt.nums(g.logs[i]))]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cramer route: minors are products of leading/trailing continuants


def _check_det(interval, sign: int, logmag: float):
    if sign == 0 or logmag < DET_FLOOR:
        raise SingularEnergy(interval, logmag if sign != 0 else -math.inf)


def green_cramer_matrix(interval: Tuple[int, int], omega: Frequency, theta,
                        energy: float, v: TrigPotential) -> GreenMatrix:
    """Every Green's function entry from the minor factorization.

    The (i, j) minor of a unit-off-diagonal tridiagonal box splits into the
    leading continuant before i and the trailing continuant after j, so the
    entry is their product over the full determinant with the checkerboard
    sign from Cramer's rule.  One leading and one trailing continuant
    sequence serve every entry: the box is symmetric, so entry (i, j) is
    read at (min(i, j), max(i, j)).
    """
    a, b = int(interval[0]), int(interval[1])
    n = b - a + 1
    diag = box_diagonal((a, b), omega, theta, v) - energy
    lead_s, lead_l = det_sequence(diag)
    trail_s, trail_l = det_sequence(diag[::-1])
    _check_det((a, b), int(lead_s[n]), float(lead_l[n]))
    i = np.arange(n)
    lo, hi = np.minimum.outer(i, i), np.maximum.outer(i, i)
    checker = np.where((lo + hi) % 2 == 0, 1, -1)
    signs = (checker * lead_s[lo] * trail_s[n - 1 - hi]
             * int(lead_s[n])).astype(np.int8)
    logs = lead_l[lo] + trail_l[n - 1 - hi] - float(lead_l[n])
    logs[signs == 0] = -math.inf
    return GreenMatrix(interval=(a, b), signs=signs, logs=logs)


def green_solve(interval: Tuple[int, int], omega: Frequency, theta,
                energy: float, v: TrigPotential) -> GreenMatrix:
    """Full inverse via a pivoted tridiagonal LU solve (independent of Cramer).

    LAPACK ``dgtsv`` is the routine ``scipy.linalg.solve_banded`` runs on a
    tridiagonal band; called directly, it also hands back the diagonal of U,
    whose log-magnitudes sum to log|det| for the `DET_FLOOR` check.
    """
    a, b = int(interval[0]), int(interval[1])
    d = box_diagonal((a, b), omega, theta, v) - energy
    if not np.all(np.isfinite(d)):
        raise ValueError("box diagonal v - E must be finite")
    n = d.size
    # f2py wants off-diagonals of length >= 1, even for a one-site box.
    ones = np.ones(max(n - 1, 1))
    # A Fortran-order right-hand side is the layout LAPACK takes, so the
    # solve overwrites it without a copy; from_values then turns that same
    # buffer into the logs.  The only other n x n array kept is the int8 signs.
    _, u, _, inv, info = _scipy_linalg().lapack.dgtsv(
        ones, d, ones.copy(), np.eye(n, order="F"), 1, 1, 1, 1)
    if info > 0:                    # U(info, info) is exactly zero
        raise SingularEnergy((a, b), -math.inf)
    _check_det((a, b), 1, float(np.sum(np.log(np.abs(u)))))
    signs, logs = slog.from_values(inv)
    return GreenMatrix(interval=(a, b), signs=signs, logs=logs)


# ---------------------------------------------------------------------------
# exponential-decay fit


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    residual: float
    pairs: int


def decay_fit(green: GreenMatrix, min_sep: int) -> DecayFit:
    """Least-squares slope of -log|G(i,j)| against |i - j| at separation >= min_sep.

    Entries count when their sign is nonzero and their log finite.  All
    entries of one diagonal share x = |i - j|, so the fit is assembled from
    each diagonal's count, mean and centred sum of squares; no n x n table of
    separations is built.  Both sums call `np.add.reduce`, the reduction
    `np.mean` and `np.sum` run, so the bits are theirs at less cost.  Raises
    ValueError when min_sep < 0 or the box is narrower than 4 min_sep.
    """
    n = green.size
    if min_sep < 0:
        raise ValueError(f"min_sep must be >= 0, got {min_sep}")
    if n < 4 * min_sep:
        raise ValueError("box too small for the requested separation")
    ok = (green.signs != 0) & np.isfinite(green.logs)
    stats = []          # (separation, count, mean, centred sum of squares)
    for off in [*range(-n + 1, -max(min_sep, 1) + 1), *range(min_sep, n)]:
        y = -np.diagonal(green.logs, off)[np.diagonal(ok, off)]
        if y.size:
            mean = np.add.reduce(y) / y.size
            dev = y - mean
            stats.append((abs(off), y.size, mean, np.add.reduce(dev * dev)))
    if len({d for d, *_ in stats}) < 2:
        return DecayFit(rate=0.0, intercept=0.0, residual=math.inf, pairs=0)
    x, cnt, mean, m2 = (np.array(col, dtype=float) for col in zip(*stats))
    pairs = float(np.sum(cnt))
    x_bar = np.dot(cnt, x) / pairs
    y_bar = np.dot(cnt, mean) / pairs
    dx = x - x_bar
    rate = np.dot(cnt * dx, mean - y_bar) / np.dot(cnt * dx, dx)
    intercept = y_bar - rate * x_bar
    sq = np.sum(m2) + np.dot(cnt, (mean - (rate * x + intercept)) ** 2)
    return DecayFit(rate=float(rate), intercept=float(intercept),
                    residual=math.sqrt(sq / pairs), pairs=int(pairs))


# ---------------------------------------------------------------------------
# paving


@dataclass
class PavingCertificate:
    rate: float
    intercept: float
    required_rate: float
    rate_ok: bool
    sup_logmag: float
    window_rate: float
    beta: float
    windows: List[Tuple[int, int]]
    contraction: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "rate": self.rate,
            "intercept": self.intercept,
            "required_rate": self.required_rate,
            "rate_ok": self.rate_ok,
            "sup_logmag": self.sup_logmag,
            "window_rate": self.window_rate,
            "beta": self.beta,
            "windows_used": [list(w) for w in self.windows],
            "contraction": self.contraction,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class PaveResult:
    green: GreenMatrix
    certificate: PavingCertificate


def _window_admissible(gw: GreenMatrix, c: float, budget: float,
                       sep_min: int) -> bool:
    """log|G(i,j)| + c|i-j| <= budget at every separation |i-j| >= sep_min."""
    idx = np.arange(gw.size)
    sep = np.abs(np.subtract.outer(idx, idx))
    worst = np.max(gw.logs + c * sep, where=sep >= sep_min, initial=-np.inf)
    return bool(worst - budget <= 0.0)


def pave(interval: Tuple[int, int], n: int, omega: Frequency, theta,
         energy: float, v: TrigPotential, c: float,
         beta: float = 0.1) -> PaveResult:
    """Assemble G on [a, b] from size-n windows with decay rate c.

    Windows start every max(1, n // 4) sites, the last ending at b; each site
    belongs to the window with the nearest centre, which covers the site's
    protected neighbourhood [x-m+1, x+m-1] within [a, b], m = max(1, n // 10).
    A window needs log|G(i,j)| <= -c|i-j| + beta*n at separations >= m; a
    failing or singular one gives way to a one-site trim that passes.  By the
    resolvent identity each row is its window's row minus hops through rows
    lo - 1 and hi + 1: those edge rows reach their fixed point by ordered
    sweeps, then one pass builds every row.  Window rows are held n wide
    and widened to [a, b] only where they are summed, so G is the one
    big x big array.  The certificate checks the fitted rate against c/2;
    its `iterations` counts the ordered sweeps.
    """
    a, b = int(interval[0]), int(interval[1])
    big = b - a + 1
    if n < 2:
        raise ValueError("window size must be >= 2")
    margin = max(1, n // 10)

    if n >= big:
        g = green_solve((a, b), omega, theta, energy, v)
        cert = _certificate(g, c, beta, n, [(a, b)], 0.0, 0)
        return PaveResult(green=g, certificate=cert)

    starts = [*range(a, b - n + 1, max(1, n // 4)), b - n + 1]
    # Sites up to the midpoint of two neighbouring centres go to the left one.
    firsts = [a] + [(lo + nxt + n - 1) // 2 + 1
                    for lo, nxt in zip(starts, starts[1:])]
    lasts = [f - 1 for f in firsts[1:]] + [b]

    # Per row: the window's row of G, held n wide from column off[r], and
    # the hops to rows lo - 1 and hi + 1.  Trimmed windows are padded with
    # zeros, and off[r] <= big - n keeps the padding inside [a, b].  Row
    # `big` stands for "no hop": an empty window, read as zero.
    w_signs = np.zeros((big + 1, n), dtype=np.int8)
    w_logs = np.full((big + 1, n), slog.LOG_ZERO)
    off = np.zeros(big + 1, dtype=np.intp)
    hop = np.full((big, 2), big)
    hop_sign = np.zeros((big, 2), dtype=np.int8)
    hop_log = np.full((big, 2), slog.LOG_ZERO)
    windows: List[Tuple[int, int]] = []
    failures: List[int] = []
    for start, x0, x1 in zip(starts, firsts, lasts):
        need_lo, need_hi = max(a, x0 - margin + 1), min(b, x1 + margin - 1)
        gw = None
        for lo, hi in ((start, start + n - 1), (start + 1, start + n - 1),
                       (start, start + n - 2), (start + 1, start + n - 2)):
            if not (lo <= need_lo and hi >= need_hi and hi > lo):
                continue
            try:
                cand = green_solve((lo, hi), omega, theta, energy, v)
            except SingularEnergy:
                continue
            if _window_admissible(cand, c, beta * n, margin):
                gw = cand
                break
        if gw is None:
            failures.extend(range(x0, x1 + 1))
            continue
        windows.append((lo, hi))
        rows, own = slice(x0 - a, x1 - a + 1), slice(x0 - lo, x1 - lo + 1)
        off[rows] = first = min(lo - a, big - n)
        cols = slice(lo - a - first, hi - a - first + 1)
        w_signs[rows, cols] = gw.signs[own]
        w_logs[rows, cols] = gw.logs[own]
        for side, (edge, col) in enumerate(((lo - 1, 0), (hi + 1, -1))):
            if a <= edge <= b:
                hop[rows, side] = edge - a
                hop_sign[rows, side] = gw.signs[own, col]
                hop_log[rows, side] = gw.logs[own, col]
    if failures:
        raise PavingFailed(failures)

    with np.errstate(over="ignore"):
        contraction = float(np.max(np.sum(np.exp(hop_log), axis=1)))
    if contraction >= 0.5:
        raise IterationDiverged(contraction)

    def window_rows(rows):
        """The window rows of `rows` at full width, zero outside the window."""
        cols = off[rows][:, None] + np.arange(n)
        signs = np.zeros((len(cols), big), dtype=np.int8)
        logs = np.full((len(cols), big), slog.LOG_ZERO)
        np.put_along_axis(signs, cols, w_signs[rows], axis=1)
        np.put_along_axis(logs, cols, w_logs[rows], axis=1)
        return signs, logs

    # Edge rows of G, plus the zero row that the missing hops read.
    edges = np.unique(hop[hop < big])
    at = np.full(big + 1, edges.size)
    at[edges] = np.arange(edges.size)
    e_signs, e_logs = window_rows(np.append(edges, big))

    def resolvent(rows):
        """Window term plus both hops for `rows`, through the edge rows."""
        src = at[hop[rows]]
        d_signs, d_logs = window_rows(rows)
        return slog.add(
            np.stack([d_signs, *(-hop_sign[rows, side, None]
                                 * e_signs[src[:, side]]
                                 for side in (0, 1))]),
            np.stack([d_logs, *(hop_log[rows, side, None]
                                + e_logs[src[:, side]]
                                for side in (0, 1))]))

    # Ordered (Gauss-Seidel) sweeps: the edge rows a window owns form one
    # block, updated in place from the newest values of the other blocks,
    # ascending and then descending along the chain, so one sweep carries
    # information the whole length of the chain.  A block's rows hop only to
    # rows outside their window and never read each other, so one slog.add
    # per block computes what one per row would, with fewer calls.
    owner = np.searchsorted(np.asarray(firsts) - a, edges, side="right")
    bounds = [0, *(np.flatnonzero(np.diff(owner)) + 1), edges.size]
    blocks = [slice(i, j) for i, j in zip(bounds, bounds[1:])]
    order = blocks + blocks[-2::-1]
    cap = 8 * math.ceil(big / margin) + 100
    for iterations in range(1, cap + 1):
        old_signs, old_logs = e_signs.copy(), e_logs.copy()
        for blk in order:
            e_signs[blk], e_logs[blk] = resolvent(edges[blk])
        both = (old_signs != 0) & (e_signs != 0)
        flipped = np.any(old_signs != e_signs)
        delta = float(np.max(np.abs(e_logs[both] - old_logs[both]),
                             initial=0.0))
        if not flipped and delta < 1e-12:
            break
    else:
        raise IterationDiverged(
            contraction,
            f"no fixed point after {cap} sweeps (contraction {contraction:.3g})")
    del old_signs, old_logs, both

    # Every row from the edge rows, in blocks of rows so that the stacks
    # slog.add sums stay small; it works entry by entry, so the bits are
    # those of one pass over all rows.  Blocks stop at row big - 1: row
    # `big` of `off` is the no-hop row.
    g_signs = np.empty((big, big), dtype=np.int8)
    g_logs = np.empty((big, big))
    for lo in range(0, big, _PAVE_BLOCK_ROWS):
        rows = slice(lo, min(lo + _PAVE_BLOCK_ROWS, big))
        g_signs[rows], g_logs[rows] = resolvent(rows)
    del e_signs, e_logs
    green = GreenMatrix(interval=(a, b), signs=g_signs, logs=g_logs)
    cert = _certificate(green, c, beta, n, windows, contraction, iterations)
    return PaveResult(green=green, certificate=cert)


def _certificate(green: GreenMatrix, c: float, beta: float, n: int,
                 windows: List[Tuple[int, int]], contraction: float,
                 iterations: int) -> PavingCertificate:
    min_sep = min(max(1, n), max(1, green.size // 4))
    try:
        fit = decay_fit(green, min_sep)
    except ValueError:
        fit = DecayFit(rate=math.nan, intercept=math.nan, residual=math.inf,
                       pairs=0)
    sup_log = float(np.max(green.logs, where=green.signs != 0,
                           initial=-math.inf))
    return PavingCertificate(
        rate=fit.rate, intercept=fit.intercept, required_rate=c / 2.0,
        rate_ok=fit.rate >= c / 2.0, sup_logmag=sup_log, window_rate=c,
        beta=beta, windows=windows, contraction=contraction,
        iterations=iterations)
