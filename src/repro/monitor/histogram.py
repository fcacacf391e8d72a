"""Hardware histogrammers: 64K 32-bit saturating counters."""

from __future__ import annotations

from typing import Dict, List, Sequence


class Histogrammer:
    """A bank of 64K 32-bit counters binning a hardware signal.

    Values are mapped to bins linearly between ``lo`` and ``hi``; out of
    range values clamp to the edge bins (as real histogram hardware
    does) **and** increment the explicit ``underflow``/``overflow``
    counters, so statistics can place that mass at the range edge it
    actually clamped to instead of smearing it across an edge bin.
    Counters saturate at 2**32 - 1.
    """

    BINS = 1 << 16
    COUNTER_MAX = (1 << 32) - 1

    def __init__(self, lo: float, hi: float, bins: int = BINS) -> None:
        if hi <= lo:
            raise ValueError("hi must exceed lo")
        if not 1 <= bins <= self.BINS:
            raise ValueError(f"bins must be in 1..{self.BINS}")
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self._counts: Dict[int, int] = {}
        self.samples = 0
        #: samples below ``lo`` / at-or-above ``hi``.  They still clamp
        #: into the edge-bin counters (hardware behaviour), but
        #: :meth:`mean` and :meth:`percentile` exclude them from
        #: within-bin interpolation — clamped mass sits exactly at
        #: ``lo``/``hi``, not at an edge-bin midpoint, which otherwise
        #: biases every statistic that touches an edge bin.
        self.underflow = 0
        self.overflow = 0

    def bin_for(self, value: float) -> int:
        frac = (value - self.lo) / (self.hi - self.lo)
        idx = int(frac * self.bins)
        return min(max(idx, 0), self.bins - 1)

    def record(self, value: float) -> None:
        idx = self.bin_for(value)
        current = self._counts.get(idx, 0)
        if current < self.COUNTER_MAX:
            self._counts[idx] = current + 1
        self.samples += 1
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1

    def record_count(self, value: float, count: int) -> None:
        """``count`` samples of ``value`` at once: the same bank state as
        ``count`` calls to :meth:`record`, saturation included."""
        idx = self.bin_for(value)
        self._counts[idx] = min(self._counts.get(idx, 0) + count, self.COUNTER_MAX)
        self.samples += count
        if value < self.lo:
            self.underflow += count
        elif value >= self.hi:
            self.overflow += count

    @classmethod
    def from_counts(
        cls, counts: Dict[float, int], lo: float, hi: float, bins: int = BINS
    ) -> "Histogrammer":
        """A bank holding ``counts`` (``{value: samples}``).  Values are
        replayed in the table's order, so a first-seen-order table fills
        bins in the order live recording would have created them and
        the float sums behind :meth:`mean` come out bit-identical."""
        hist = cls(lo, hi, bins=bins)
        for value, count in counts.items():
            hist.record_count(value, count)
        return hist

    def count(self, idx: int) -> int:
        return self._counts.get(idx, 0)

    def nonzero_bins(self) -> List[int]:
        return sorted(self._counts)

    def _in_range_count(self, idx: int) -> int:
        """The bin's count minus any clamped out-of-range mass (which
        lives in the edge bins).  Saturated counters can undershoot the
        clamped mass, hence the floor at zero."""
        count = self._counts.get(idx, 0)
        if idx == 0:
            count -= self.underflow
        if idx == self.bins - 1:
            count -= self.overflow
        return max(count, 0)

    def mean(self) -> float:
        """Mean of bin centers weighted by counts; clamped out-of-range
        mass contributes exactly ``lo``/``hi``."""
        if not self._counts:
            raise ValueError("no samples recorded")
        width = (self.hi - self.lo) / self.bins
        acc = self.lo * self.underflow + self.hi * self.overflow
        total = self.underflow + self.overflow
        for idx in self._counts:
            count = self._in_range_count(idx)
            acc += (self.lo + (idx + 0.5) * width) * count
            total += count
        return acc / total

    def percentile(self, q: float) -> float:
        """Percentile from binned counts (0 <= q <= 1), interpolated
        linearly *within* the bin that crosses the target rank — the
        resolution limit is one bin width, not one bin midpoint.

        Clamped mass orders at the range edges: ``underflow`` samples
        sit at exactly ``lo`` (before every in-range bin), ``overflow``
        samples at exactly ``hi`` (after every in-range bin).  Only
        genuinely in-range counts interpolate, so a run whose tail
        clamps into the top bin no longer drags interpolated quantiles
        below ``hi``.
        """
        if not 0 <= q <= 1:
            raise ValueError("q must be within [0, 1]")
        if not self._counts:
            raise ValueError("no samples recorded")
        in_range = {
            idx: self._in_range_count(idx) for idx in sorted(self._counts)
        }
        total = self.underflow + self.overflow + sum(in_range.values())
        target = q * total
        if self.underflow and self.underflow >= target:
            return self.lo
        seen = self.underflow
        width = (self.hi - self.lo) / self.bins
        for idx, count in in_range.items():
            if count and seen + count >= target:
                frac = (target - seen) / count
                frac = min(max(frac, 0.0), 1.0)
                value = self.lo + (idx + frac) * width
                return min(max(value, self.lo), self.hi)
            seen += count
        return self.hi

    def quantiles(self, qs: Sequence[float] = (0.5, 0.9, 0.95, 0.99)) -> List[float]:
        """:meth:`percentile` for each ``q`` in ``qs`` (one pass per q;
        the bank is small enough that a shared pass is not worth it)."""
        return [self.percentile(q) for q in qs]
