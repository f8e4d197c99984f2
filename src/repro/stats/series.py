"""Throughput-vs-latency series: the data structure behind every figure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SeriesPoint:
    """One measured point on a latency/throughput curve."""

    offered_mbps: float
    achieved_mbps: float
    latency_us: float
    saturated: bool = False


@dataclass
class Series:
    """One labelled curve (e.g. 'Spread / original')."""

    label: str
    points: List[SeriesPoint] = field(default_factory=list)

    def add(self, point: SeriesPoint) -> None:
        self.points.append(point)

    def stable_points(self) -> List[SeriesPoint]:
        return [p for p in self.points if not p.saturated]

    def max_stable_throughput(self) -> float:
        """Highest achieved throughput among non-saturated points."""
        stable = self.stable_points()
        return max((p.achieved_mbps for p in stable), default=0.0)

    def latency_at(self, offered_mbps: float) -> Optional[float]:
        for point in self.points:
            if abs(point.offered_mbps - offered_mbps) < 1e-6:
                return point.latency_us
        return None


class Figure:
    """A set of labelled curves — one reproduced paper figure."""

    def __init__(self, figure_id: str, title: str) -> None:
        self.figure_id = figure_id
        self.title = title
        self.series: Dict[str, Series] = {}

    def series_for(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label)
        return self.series[label]

    def labels(self) -> List[str]:
        return sorted(self.series)

    # -- rendering --------------------------------------------------------

    def to_markdown(self) -> str:
        lines = ["## %s — %s" % (self.figure_id, self.title), ""]
        header = "| offered (Mbps) | " + " | ".join(self.labels()) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (len(self.labels()) + 1))
        offered_values = sorted(
            {p.offered_mbps for s in self.series.values() for p in s.points}
        )
        for offered in offered_values:
            cells = []
            for label in self.labels():
                point = next(
                    (p for p in self.series[label].points
                     if abs(p.offered_mbps - offered) < 1e-6),
                    None,
                )
                if point is None:
                    cells.append("-")
                elif point.saturated:
                    cells.append("SAT")
                else:
                    cells.append("%.0f us" % point.latency_us)
            lines.append(
                "| %.0f | " % offered + " | ".join(cells) + " |"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["label,offered_mbps,achieved_mbps,latency_us,saturated"]
        for label in self.labels():
            for point in self.series[label].points:
                rows.append(
                    "%s,%.1f,%.1f,%.1f,%s"
                    % (label, point.offered_mbps, point.achieved_mbps,
                       point.latency_us, point.saturated)
                )
        return "\n".join(rows)

