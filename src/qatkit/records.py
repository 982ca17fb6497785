"""Per-run metric records shared by the retraining engine and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


@dataclass
class MetricRow:
    epoch: int
    split: str
    metric_name: str
    value: float


@dataclass
class DeltaRow:
    epoch: int
    group_id: str
    delta: float


@dataclass
class RunRecord:
    """History of one retraining run: metrics per epoch plus the step-size
    trajectory per weight group, and the final test metric."""

    run_id: str
    cell_bits: int
    schedule: str
    seed: int
    metric_name: str = "error"
    rows: list[MetricRow] = field(default_factory=list)
    deltas: list[DeltaRow] = field(default_factory=list)
    final_test_metric: float | None = None
    events: list[str] = field(default_factory=list)

    def log_metric(self, epoch, split, metric_name, value):
        self.rows.append(MetricRow(epoch, split, metric_name, float(value)))

    def log_deltas(self, epoch, specs):
        for gid in sorted(specs):
            self.deltas.append(DeltaRow(epoch, gid, float(specs[gid].step)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """The record `to_dict` wrote as `d`."""
        return cls(**{**d, "rows": [MetricRow(**r) for r in d["rows"]],
                      "deltas": [DeltaRow(**r) for r in d["deltas"]]})
