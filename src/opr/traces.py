"""Carbon-trace ingestion, bounds, segment sampling, and the volatility knob.

Trace CSV contract: UTF-8, ``\\n`` newlines, header ``timestamp,value``,
ISO-8601 timestamps at strict one-hour cadence, one row per hour, compared
as instants (a naive timestamp is UTC).  Lines starting with ``#`` are
comments; a ``# region: NAME`` comment labels the dataset.  Missing hours
are an error, never interpolated: silent gap filling would corrupt segment
sampling.  A `TraceDataset` holds the region, values and kind; the
timestamps are checked while parsing and not kept.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, TraceError


class TraceKind(Enum):
    INTENSITY = "intensity"  # gCO2eq/kWh, used by min studies
    CARBON_FREE_PCT = "carbon-free"  # percent in [0, 100], used by max studies


_HOUR = timedelta(hours=1)


@dataclass(frozen=True)
class TraceDataset:
    region: str
    values: tuple[float, ...]
    kind: TraceKind

    def __post_init__(self) -> None:
        if not self.values:
            raise TraceError("empty trace")
        _check_values(range(len(self.values)), self.values, self.kind)

    def __len__(self) -> int:
        return len(self.values)


def _check_values(rows: Sequence[int], values: Sequence[float], kind: TraceKind) -> None:
    """The value rules of a trace; errors name each row by its number in
    ``rows``: its 0-based index in a `TraceDataset`, its 1-based file line in
    `parse_trace`.  The rows are walked only to name the first fault."""
    if all(map(math.isfinite, values)) and min(values) >= 0 and (
            kind is not TraceKind.CARBON_FREE_PCT or max(values) <= 100):
        return
    for row, v in zip(rows, values):
        if not math.isfinite(v) or v < 0:
            raise TraceError(f"value at row {row} must be finite and >= 0, got {v}")
        if kind is TraceKind.CARBON_FREE_PCT and v > 100:
            raise TraceError(f"carbon-free percentage at row {row} exceeds 100: {v}")


@dataclass(frozen=True)
class TraceBounds:
    L: float
    U: float

    def __post_init__(self) -> None:
        if not (0 < self.L <= self.U):
            raise ParameterError(f"need 0 < L <= U, got L={self.L}, U={self.U}")


def _parse_timestamp(raw: str, row: int) -> datetime:
    """The instant ``raw`` names, in UTC; a naive timestamp is taken as UTC."""
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise TraceError(f"row {row}: bad timestamp {raw!r}") from exc
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_trace(
    source: str | Path | io.TextIOBase, kind: TraceKind = TraceKind.INTENSITY
) -> TraceDataset:
    """Parse a trace CSV; row indices in errors are 1-based file lines."""
    if isinstance(source, (str, Path)):
        # utf-8-sig drops a leading byte-order mark, as some editors save one
        with open(source, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            return parse_trace(fh, kind)
    region = ""
    lines: list[int] = []
    timestamps: list[datetime] = []
    values: list[float] = []
    saw_header = False
    for lineno, line in enumerate(source, start=1):
        # surrogateescape decodes each byte that is not UTF-8 to U+DC80..U+DCFF
        if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
            raise TraceError(f"row {lineno}: not valid UTF-8")
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("region:"):
                region = body.split(":", 1)[1].strip()
            continue
        if not saw_header:
            if [c.strip().lower() for c in line.split(",")] != ["timestamp", "value"]:
                raise TraceError(f"row {lineno}: expected header 'timestamp,value', got {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceError(f"row {lineno}: expected 2 fields, got {len(parts)}")
        timestamps.append(_parse_timestamp(parts[0].strip(), lineno))
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise TraceError(f"row {lineno}: bad value {parts[1]!r}") from exc
        lines.append(lineno)
        values.append(value)
    if not saw_header:
        raise TraceError("empty trace file")
    if not values:
        raise TraceError("trace has a header but no rows")
    # every fault is named by its file line: the cadence first, then the values
    for row, prev, ts in zip(lines[1:], timestamps, timestamps[1:]):
        if ts <= prev:
            raise TraceError(f"timestamps not strictly increasing at row {row}")
        if ts - prev != _HOUR:
            raise TraceError(
                f"missing hour before row {row}: {prev.isoformat()} -> {ts.isoformat()}"
            )
    _check_values(lines, values, kind)
    return TraceDataset(region, tuple(values), kind)


def trace_bounds(ds: TraceDataset) -> TraceBounds:
    """Observed (min, max) of the trace.

    A zero minimum is floored at the smallest positive value (with a
    warning), since the fluctuation ratio U/L must stay finite.
    """
    lo = min(ds.values)
    hi = max(ds.values)
    if lo == 0:
        positive = [v for v in ds.values if v > 0]
        if not positive:
            raise TraceError("trace is identically zero; bounds undefined")
        lo = min(positive)
        warnings.warn(
            f"trace minimum is 0; flooring L at smallest positive value {lo}",
            stacklevel=2,
        )
    return TraceBounds(L=lo, U=hi)


def sample_segment_with_offset(
    ds: TraceDataset, T: int, seed: int
) -> tuple[tuple[float, ...], int]:
    """Contiguous window of length T and its offset, uniform over valid starts."""
    if T < 1:
        raise ParameterError(f"segment length must be >= 1, got {T}")
    if T > len(ds):
        raise ParameterError(f"segment length {T} exceeds trace length {len(ds)}")
    # offset = seed mod n_starts: deterministic, sequential seeds sweep every
    # window, and hashed upstream seeds land uniformly across offsets
    offset = int(seed) % (len(ds) - T + 1)
    return ds.values[offset : offset + T], offset


def apply_noise(
    prices: Sequence[float] | Iterable[float], m: float, kind: TraceKind
) -> tuple[float, ...]:
    """Amplify deviations from the segment mean by a finite noise factor m >= 1.

    v -> mean + m*(v - mean), truncated below at 0; carbon-free percentages
    are additionally capped at 100.  m = 1 re-rounds, by up to 1 ulp of max(v, mean).
    The one-row case of `noise_rows`.
    """
    if not (1 <= m < math.inf):
        raise ParameterError(f"noise factor must be finite and >= 1, got {m}")
    vals = tuple(float(v) for v in prices)
    if not vals:
        raise ParameterError("cannot noise an empty segment")
    row = np.array([vals])
    noise_rows(row, [math.fsum(vals) / len(vals)], m, kind)
    return tuple(row[0].tolist())


def noise_rows(rows: np.ndarray, means: Sequence[float], m: float, kind: TraceKind) -> None:
    """`apply_noise` in place on each row of a float64 array, around that
    row's mean in ``means``.  Elementwise IEEE ops: the same bits as the
    scalar expression per value, overflow to inf included (so numpy's
    overflow warning is off)."""
    mu = np.asarray(means, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        np.subtract(rows, mu, out=rows)
        np.multiply(rows, float(m), out=rows)
        np.add(rows, mu, out=rows)
    np.maximum(rows, 0.0, out=rows)
    if kind is TraceKind.CARBON_FREE_PCT:
        np.minimum(rows, 100.0, out=rows)


def synthetic_diurnal(
    hours: int,
    period: float = 24.0,
    amp: float = 100.0,
    mean: float = 250.0,
    seed: int = 0,
    jitter: float = 0.1,
    kind: TraceKind = TraceKind.INTENSITY,
) -> TraceDataset:
    """Sinusoidal daily cycle plus seeded Gaussian jitter, floored above 0,
    in region ``synthetic``.

    Stands in for real grid data when no trace file is supplied; bounds are
    always recomputed from the generated values, never assumed.  Parameters
    whose values overflow or turn NaN raise, before the floor and the cap,
    and so does an `hours` whose arrays cannot be allocated.
    """
    if hours < 1:
        raise ParameterError(f"hours must be >= 1, got {hours}")
    if period <= 0 or amp < 0 or mean <= 0:
        raise ParameterError("need period > 0, amp >= 0, mean > 0")
    rng = np.random.default_rng(seed)
    try:
        t = np.arange(hours)
        with np.errstate(over="ignore", invalid="ignore"):
            values = mean + amp * np.sin(2 * np.pi * t / period)
            values = values + jitter * amp * rng.standard_normal(hours)
    except MemoryError:  # an impossible length fails at once; no cap is set
        raise ParameterError(f"hours must fit in memory, got {hours}") from None
    if not np.isfinite(values).all():
        raise ParameterError(f"synthetic trace is not finite at hour {np.isfinite(values).argmin()}"
                             f" (period={period}, amp={amp}, mean={mean}, jitter={jitter})")
    floor = max(mean * 1e-3, 1e-9)
    values = np.maximum(values, floor)
    if kind is TraceKind.CARBON_FREE_PCT:
        values = np.minimum(values, 100.0)
    return TraceDataset(region="synthetic", values=tuple(values.tolist()), kind=kind)
