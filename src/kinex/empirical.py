"""Country-indicator ingestion and per-group regression.

Input is a comma-separated table with header ``country,f,g,lambda,gamma``
(f = GDP per capita in any consistent unit, g = Gini index, lambda = gross
savings share, gamma = tax revenue share). Missing cells are empty or a
dash. Derived columns follow the sweep analysis: x = (1 - lambda) * gamma,
f_norm = f / max(f), y = f_norm / g; countries are grouped by f and each
group is fitted as y against ln(x).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ParseError
from .fitting import FitResult, XYPoint, fit_linear

_COLUMNS = ("country", "f", "g", "lambda", "gamma")
_MISSING = {"", "-", "—", "–"}

GROUP_HIGH = "high"
GROUP_MIDDLE = "middle"
GROUP_LOW = "low"


@dataclass(frozen=True)
class CountryRecord:
    """One table row; g/lam/gamma are None when the cell is missing."""

    name: str
    f: float
    g: float | None
    lam: float | None
    gamma: float | None

    @property
    def complete(self) -> bool:
        return self.g is not None and self.lam is not None and self.gamma is not None


@dataclass(frozen=True)
class DerivedRecord:
    """A complete record with the derived analysis columns attached."""

    name: str
    f: float
    g: float
    lam: float
    gamma: float
    x: float
    f_norm: float
    y: float
    group: str | None = None


@dataclass(frozen=True)
class GroupFit:
    group: str
    fit: FitResult | None
    members: tuple[str, ...]
    excluded: tuple[str, ...] = ()  # members with x <= 0, unusable on a log axis
    reason: str | None = None      # set when the group could not be fitted


def _parse_cell(raw: str, column: str, lo: float, hi: float,
                line_number: int) -> float | None:
    cell = raw.strip()
    if cell in _MISSING:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"column {column!r}: {cell!r} is not a number", line_number) from None
    if not math.isfinite(value):
        raise ParseError(f"column {column!r}: {cell!r} is not finite", line_number)
    if not lo <= value <= hi:
        raise ParseError(f"column {column!r}: {value} outside valid range", line_number)
    return value


def _csv_rows(lines) -> list[tuple[int, list[str]]]:
    """The rows of CSV text that are neither blank nor comments (a first cell
    starting with ``#`` after blanks), each with the file line it ends on."""
    reader = csv.reader(lines)
    try:
        return [(reader.line_num, row) for row in reader
                if row and not row[0].lstrip().startswith("#")]
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise ParseError(str(exc), reader.line_num) from None


def load_countries(source) -> list[CountryRecord]:
    """Parse country records from a path or an open text stream.

    Unknown columns are ignored with a warning. A published Gini of zero
    or less is impossible and is flagged as missing data (with a warning)
    rather than taken at face value.
    """
    if isinstance(source, (str, Path)):
        # utf-8-sig drops the byte-order mark that spreadsheet programs write
        with open(source, newline="", encoding="utf-8-sig") as fh:
            source = fh.readlines()
    rows = _csv_rows(source)
    if not rows:
        raise ParseError("missing header row", 1)
    (line_number, header), *rows = rows
    header = [cell.strip().lower() for cell in header]

    indices: dict[str, int] = {}
    for pos, name in enumerate(header):
        if name in _COLUMNS:
            if name in indices:
                raise ParseError(f"duplicate column {name!r}", line_number)
            indices[name] = pos
        else:
            warnings.warn(f"ignoring unknown column {name!r}", stacklevel=2)
    missing_cols = [c for c in _COLUMNS if c not in indices]
    if missing_cols:
        raise ParseError(f"missing required column(s): {', '.join(missing_cols)}", line_number)

    records: list[CountryRecord] = []
    for line_number, row in rows:
        if len(row) < len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}", line_number)
        name = row[indices["country"]].strip()
        if not name:
            raise ParseError("empty country name", line_number)
        f = _parse_cell(row[indices["f"]], "f", 0.0, math.inf, line_number)
        if f is None:
            raise ParseError("column 'f' is required", line_number)
        g = _parse_cell(row[indices["g"]], "g", -math.inf, 1.0, line_number)
        if g is not None and g >= 1.0:
            raise ParseError(f"column 'g': {g} outside valid range", line_number)
        if g is not None and g <= 0.0:
            warnings.warn(f"{name}: Gini of {g} is not a credible published value; "
                          "treating as missing", stacklevel=2)
            g = None
        lam = _parse_cell(row[indices["lambda"]], "lambda", 0.0, 1.0, line_number)
        gamma = _parse_cell(row[indices["gamma"]], "gamma", 0.0, 1.0, line_number)
        records.append(CountryRecord(name=name, f=f, g=g, lam=lam, gamma=gamma))
    return records


def derive(records: list[CountryRecord]) -> tuple[list[DerivedRecord], list[CountryRecord]]:
    """Compute x, f_norm, and y for every complete record.

    f_norm is normalized by the maximum f among complete records (exactly
    1 for that record). Incomplete records are excluded and returned in
    the second list.
    """
    complete = [r for r in records if r.complete]
    incomplete = [r for r in records if not r.complete]
    if not complete:
        raise ValueError("no complete records to derive from")
    f_max = max(r.f for r in complete)
    if f_max <= 0:
        raise ValueError("maximum f must be positive")
    derived = []
    for r in complete:
        derived.append(DerivedRecord(
            name=r.name, f=r.f, g=r.g, lam=r.lam, gamma=r.gamma,
            x=(1.0 - r.lam) * r.gamma,
            f_norm=r.f / f_max,
            y=(r.f / f_max) / r.g,
        ))
    return derived, incomplete


def percentile_thresholds(records: list[DerivedRecord]) -> tuple[float, float]:
    """Default group thresholds: the 33rd and 67th percentiles of f over the records.

    numpy's default (linear) percentile, bit for bit: the value at index
    (n - 1) * q of the sorted f, interpolated between its neighbours a and b
    as a + (b - a) * t below t = 0.5 and as b - (b - a) * (1 - t) from there.
    """
    fs = sorted(r.f for r in records)

    def percentile(q: float) -> float:
        index = (len(fs) - 1) * q
        i = int(index)
        if i >= len(fs) - 1:
            return fs[-1]
        a, b = fs[i], fs[i + 1]
        t = index - i
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)

    return percentile(0.33), percentile(0.67)


def classify_groups(records: list[DerivedRecord],
                    thresholds: tuple[float, float]) -> list[DerivedRecord]:
    """Partition records into high (f >= t_high), low (f < t_low), middle."""
    t_low, t_high = thresholds
    if not t_low < t_high:
        raise ValueError(f"thresholds must satisfy t_low < t_high, got {thresholds}")
    out = []
    for r in records:
        if r.f >= t_high:
            group = GROUP_HIGH
        elif r.f < t_low:
            group = GROUP_LOW
        else:
            group = GROUP_MIDDLE
        out.append(replace(r, group=group))
    return out


def fit_groups(records: list[DerivedRecord]) -> list[GroupFit]:
    """Fit y against ln(x) within each group.

    Records with no group label are pooled under "all". A group with
    fewer than two usable members (x > 0) is reported as unfittable; the
    other groups still proceed.
    """
    by_group: dict[str, list[DerivedRecord]] = {}
    for r in records:
        by_group.setdefault(r.group or "all", []).append(r)
    # high, middle, low first; other labels in first-seen order (the sort is stable)
    rank = {GROUP_HIGH: 0, GROUP_MIDDLE: 1, GROUP_LOW: 2}

    fits = []
    for group in sorted(by_group, key=lambda g: rank.get(g, 3)):
        members = by_group[group]
        usable = [r for r in members if r.x > 0.0]
        excluded = tuple(r.name for r in members if r.x <= 0.0)
        if len(usable) < 2:
            fits.append(GroupFit(
                group=group, fit=None, members=tuple(r.name for r in members),
                excluded=excluded,
                reason=f"only {len(usable)} member(s) with x > 0; need 2",
            ))
            continue
        points = [XYPoint(math.log(r.x), r.y) for r in usable]
        fits.append(GroupFit(group=group, fit=fit_linear(points),
                             members=tuple(r.name for r in members), excluded=excluded))
    return fits
