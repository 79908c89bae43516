"""Descriptive statistics used throughout the experiment harness.

The paper reports boxplots (median, quartiles, 1.5-IQR whiskers, outliers)
and tables of medians/means/standard deviations.  Matplotlib is not
available offline, so figures are reproduced as *data*: the exact numbers
a boxplot would draw, plus an ASCII rendering for terminal inspection.

:func:`bootstrap_mean_ci` adds uncertainty quantification on top: a
seeded (:mod:`repro.util.rng`), fully vectorised percentile bootstrap of
a sample mean — the evaluation subsystem runs it on paired per-window
policy deltas, so its confidence intervals say whether a policy's
advantage over a baseline survives window-to-window noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import SeedLike, as_generator


@dataclass(frozen=True)
class Summary:
    """Median / mean / standard deviation of a sample.

    Matches the statistics block printed by the paper's artifact
    (``sched-performance-tester``): medians, means and population-style
    standard deviations (ddof=1 when n > 1, else 0.0).
    """

    n: int
    median: float
    mean: float
    std: float
    min: float
    max: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} median={self.median:.2f} mean={self.mean:.2f} "
            f"std={self.std:.2f} min={self.min:.2f} max={self.max:.2f}"
        )


def summarize(values: np.ndarray | list[float]) -> Summary:
    """Compute a :class:`Summary` of *values* (must be non-empty)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    lo, hi = float(arr.min()), float(arr.max())
    # Summation rounding can push the computed mean (and interpolated
    # median) a ULP outside [min, max]; clamp to keep the invariant.
    mean = min(max(float(arr.mean()), lo), hi)
    median = min(max(float(np.median(arr)), lo), hi)
    return Summary(
        n=int(arr.size),
        median=median,
        mean=mean,
        std=std,
        min=lo,
        max=hi,
    )


#: Resampled-index matrices are built in blocks of at most this many
#: elements, bounding bootstrap memory at ~128 MiB of int64 indices no
#: matter how many windows or resamples are requested.  A fixed constant:
#: the blocking must not depend on the environment, or results would.
_BOOTSTRAP_BLOCK_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile-bootstrap confidence interval for a sample mean.

    ``point`` is the plain sample mean.  ``lo``/``hi`` are NaN when the
    interval is undefined — a sample of fewer than two values (a single
    evaluation window) or ``n_boot=0`` — in which case reports show the
    point estimate with the CI marked n/a rather than failing.
    """

    point: float
    lo: float
    hi: float
    level: float  # nominal coverage, e.g. 0.95
    n: int  # sample size
    n_boot: int  # resamples actually drawn (0 when undefined)

    @property
    def defined(self) -> bool:
        """Whether the interval carries information (finite bounds)."""
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def significant(self) -> bool | None:
        """True when the CI excludes zero; ``None`` when undefined.

        For a *paired delta* sample this is the usual bootstrap test of
        "is the policy really different from the baseline at this
        confidence level".
        """
        if not self.defined:
            return None
        return self.lo > 0.0 or self.hi < 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.defined:
            return f"{self.point:.2f} (CI n/a, n={self.n})"
        return f"{self.point:.2f} [{self.lo:.2f}, {self.hi:.2f}]"


def bootstrap_mean_ci(
    values: np.ndarray | list[float],
    *,
    n_boot: int = 1000,
    level: float = 0.95,
    seed: SeedLike = 0,
) -> BootstrapCI:
    """Percentile-bootstrap CI of the mean of *values*.

    Draws *n_boot* resamples (with replacement, vectorised: one
    ``integers`` matrix + one fancy-indexed ``mean(axis=1)`` per block)
    and returns the ``(1-level)/2`` / ``(1+level)/2`` percentiles of the
    resampled means.  Fully deterministic for a fixed *seed* — the block
    size is a compile-time constant, so the draw order never depends on
    the machine.

    Degenerate inputs stay usable instead of raising: fewer than two
    values (no resampling variance to measure) or ``n_boot=0`` (bootstrap
    disabled) yield a :class:`BootstrapCI` with NaN bounds whose
    ``significant`` is ``None``.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if n_boot < 0:
        raise ValueError(f"n_boot must be >= 0, got {n_boot}")
    point = float(arr.mean())
    if arr.size < 2 or n_boot == 0:
        return BootstrapCI(
            point=point,
            lo=float("nan"),
            hi=float("nan"),
            level=level,
            n=int(arr.size),
            n_boot=0,
        )
    rng = as_generator(seed)
    block = max(1, _BOOTSTRAP_BLOCK_ELEMENTS // arr.size)
    means = np.empty(n_boot, dtype=float)
    for start in range(0, n_boot, block):
        stop = min(start + block, n_boot)
        idx = rng.integers(0, arr.size, size=(stop - start, arr.size))
        means[start:stop] = arr[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return BootstrapCI(
        point=point,
        lo=float(lo),
        hi=float(hi),
        level=level,
        n=int(arr.size),
        n_boot=n_boot,
    )


@dataclass(frozen=True)
class BoxplotStats:
    """The numbers a matplotlib boxplot would draw for one sample.

    Whiskers extend to the most extreme data point within 1.5×IQR of the
    box, exactly as in the paper's figures; anything beyond is an outlier.
    """

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...] = field(default_factory=tuple)

    @property
    def iqr(self) -> float:
        """Inter-quartile range (box height)."""
        return self.q3 - self.q1


def boxplot_stats(values: np.ndarray | list[float]) -> BoxplotStats:
    """Compute boxplot statistics with 1.5×IQR whiskers."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("cannot compute boxplot stats of an empty sample")
    q1, med, q3 = (float(q) for q in np.percentile(arr, [25, 50, 75]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    # A whisker always exists because the median itself is inside the fence.
    whisker_low = float(inside[0])
    whisker_high = float(inside[-1])
    outliers = tuple(float(x) for x in arr[(arr < lo_fence) | (arr > hi_fence)])
    return BoxplotStats(
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
    )


def ascii_boxplot(
    samples: dict[str, np.ndarray | list[float]],
    *,
    width: int = 60,
    log10: bool = False,
) -> str:
    """Render labelled samples as a terminal boxplot.

    One row per label: ``|----[  #  ]------|`` where ``#`` is the median,
    ``[`` / ``]`` the quartiles and ``|`` the whiskers.  With *log10* the
    axis is logarithmic, which matches how slowdown distributions are
    usually inspected.
    """
    if not samples:
        raise ValueError("no samples to plot")
    stats = {label: boxplot_stats(vals) for label, vals in samples.items()}
    # Interpolated quartiles can lie outside the whiskers for tiny samples,
    # so the axis must cover the box as well as the whiskers.
    lo = min(min(s.whisker_low, s.q1) for s in stats.values())
    hi = max(max(s.whisker_high, s.q3) for s in stats.values())
    if log10:
        lo = max(lo, 1e-12)
        hi = max(hi, lo * 10)

        def pos(x: float) -> int:
            x = min(max(x, lo), hi)
            frac = (np.log10(x) - np.log10(lo)) / (np.log10(hi) - np.log10(lo))
            return min(max(int(round(frac * (width - 1))), 0), width - 1)

    else:
        span = hi - lo or 1.0

        def pos(x: float) -> int:
            frac = (min(max(x, lo), hi) - lo) / span
            return min(max(int(round(frac * (width - 1))), 0), width - 1)

    label_w = max(len(label) for label in stats)
    lines = []
    for label, s in stats.items():
        row = [" "] * width
        for i in range(pos(s.whisker_low), pos(s.whisker_high) + 1):
            row[i] = "-"
        row[pos(s.whisker_low)] = "|"
        row[pos(s.whisker_high)] = "|"
        for i in range(pos(s.q1), pos(s.q3) + 1):
            if row[i] == "-":
                row[i] = "="
        row[pos(s.q1)] = "["
        row[pos(s.q3)] = "]"
        row[pos(s.median)] = "#"
        lines.append(f"{label:>{label_w}} {''.join(row)} median={s.median:.2f}")
    axis = f"{'':>{label_w}} {lo:<12.4g}{'':^{max(width - 24, 0)}}{hi:>12.4g}"
    return "\n".join(lines + [axis])


def _tied_pairs(change: np.ndarray) -> int:
    """Pairs inside runs of a sorted sequence; *change* marks the
    positions where consecutive items differ."""
    runs = np.diff(np.flatnonzero(np.r_[True, change, True]))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs ``i < j`` with ``ranks[i] > ranks[j]`` for ranks in ``[0, n]``.

    Bottom-up merge counting, one vectorised pass per level: at width
    ``w`` every right-half element of a ``2w`` block counts the larger
    elements of its left half, found by one ``searchsorted`` over all
    left halves sorted at once (block-offset keys never interleave).
    """
    n = len(ranks)
    pos = np.arange(n, dtype=np.int64)
    total = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        right = (pos // width) % 2 == 1
        keys = block * (n + 1) + ranks
        left = np.sort(keys[~right])
        not_greater = np.searchsorted(left, keys[right], side="right") - np.searchsorted(
            left, block[right] * (n + 1), side="left"
        )
        total += int((width - not_greater).sum())
        width *= 2
    return total


def kendall_tau_b(x: np.ndarray | list[float], y: np.ndarray | list[float]) -> float:
    """Kendall's tau-b rank correlation of two equal-length samples.

    Ties are handled as in tau-b: ``(concordant - discordant) /
    sqrt((pairs - x ties) * (pairs - y ties))``.  NaN when undefined
    (fewer than two items, a NaN input, or a constant sample).
    O(n log² n).
    """
    xs = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).ravel()
    if xs.shape != ys.shape:
        raise ValueError(f"samples differ in length: {xs.size} vs {ys.size}")
    n = xs.size
    if n < 2 or np.isnan(xs).any() or np.isnan(ys).any():
        return float("nan")
    order = np.lexsort((ys, xs))  # by x, ties in x by y: those never invert
    xs, ys = xs[order], ys[order]
    pairs = n * (n - 1) // 2
    x_ties = _tied_pairs(xs[1:] != xs[:-1])
    y_sorted = np.sort(ys)
    y_ties = _tied_pairs(y_sorted[1:] != y_sorted[:-1])
    if x_ties == pairs or y_ties == pairs:
        return float("nan")
    joint_ties = _tied_pairs((xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]))
    discordant = _inversions(np.searchsorted(y_sorted, ys))
    con_minus_dis = pairs - x_ties - y_ties + joint_ties - 2 * discordant
    tau = con_minus_dis / math.sqrt(pairs - x_ties) / math.sqrt(pairs - y_ties)
    return min(1.0, max(-1.0, tau))
