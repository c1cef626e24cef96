"""Set-valued evaluation: hamming loss and micro-averaged precision/recall/F1."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataError


@dataclass
class MetricsReport:
    hamming_loss: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    instances: int
    buckets: dict[int, "MetricsReport"] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "hamming_loss": self.hamming_loss,
            "micro_precision": self.micro_precision,
            "micro_recall": self.micro_recall,
            "micro_f1": self.micro_f1,
            "instances": self.instances,
        }
        if self.buckets:
            out["by_label_set_size"] = {str(k): v.as_dict() for k, v in sorted(self.buckets.items())}
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def hamming_loss(pairs: list[tuple[set[int], set[int]]], num_labels: int) -> float:
    """Fraction of label slots that disagree: symmetric-difference mass over N*L."""
    if num_labels < 1:
        raise DataError(f"num_labels must be positive, got {num_labels}")
    if not pairs:
        raise DataError("cannot score an empty dataset")
    wrong = 0
    for true_set, pred_set in pairs:
        for s in (true_set, pred_set):
            bad = [i for i in s if not 0 <= i < num_labels]
            if bad:
                raise DataError(f"label id {bad[0]} out of range for {num_labels} labels")
        wrong += len(true_set ^ pred_set)
    return wrong / (len(pairs) * num_labels)


def micro_prf(pairs: list[tuple[set[int], set[int]]]) -> tuple[float, float, float]:
    """Micro-averaged precision, recall, F1 over pooled counts.

    Zero denominators yield 0 rather than an error, so a model that predicts
    nothing scores (0, 0, 0) instead of crashing the evaluation.
    """
    if not pairs:
        raise DataError("cannot score an empty dataset")
    tp = sum(len(true_set & pred_set) for true_set, pred_set in pairs)
    fp = sum(len(pred_set - true_set) for true_set, pred_set in pairs)
    fn = sum(len(true_set - pred_set) for true_set, pred_set in pairs)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    return precision, recall, f1


def score(pairs: list[tuple[set[int], set[int]]], num_labels: int) -> MetricsReport:
    precision, recall, f1 = micro_prf(pairs)
    return MetricsReport(
        hamming_loss=hamming_loss(pairs, num_labels),
        micro_precision=precision,
        micro_recall=recall,
        micro_f1=f1,
        instances=len(pairs),
    )


def bucket_by_lls(
    pairs: list[tuple[set[int], set[int]]], num_labels: int
) -> dict[int, MetricsReport]:
    """Metrics split by reference label-set size (the size of the true set)."""
    if not pairs:
        raise DataError("cannot score an empty dataset")
    groups: dict[int, list[tuple[set[int], set[int]]]] = {}
    for pair in pairs:
        groups.setdefault(len(pair[0]), []).append(pair)
    return {size: score(group, num_labels) for size, group in sorted(groups.items())}
