"""Metrics, ablation orchestration, and transfer evaluation.

All metrics are pure functions of the confusion matrix with the positive
class being "interaction"; percentages mirror two-decimal table style.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Sequence

from .dataset import select

# The six ablation rows: name -> TrainConfig field overrides.
ABLATION_GRID = {
    "full": {},
    "wo_ft": {"fusion_mode": "off"},
    "wo_mt": {"mt": False},
    "wo_ft_mt": {"fusion_mode": "off", "mt": False},
    "wo_aw": {"aw": False},
    "concat": {"fusion_mode": "concat"},
}


@dataclass
class MetricReport:
    tp: int
    fp: int
    fn: int
    tn: int
    dataset_id: str = ""
    config_hash: str = ""
    precision_undefined: bool = False
    recall_undefined: bool = False
    # Candidates the model could not score (context overflow); each is also
    # counted in the confusion matrix as predicted negative.
    skipped: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return 100.0 * (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return 100.0 * self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return 100.0 * self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def formatted(self) -> dict:
        return {
            "Acc": f"{self.accuracy:.2f}", "P": f"{self.precision:.2f}",
            "R": f"{self.recall:.2f}", "F1": f"{self.f1:.2f}",
        }

    def to_json(self) -> dict:
        return {
            "dataset_id": self.dataset_id, "config_hash": self.config_hash,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "skipped": self.skipped,
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
            "precision_undefined": self.precision_undefined,
            "recall_undefined": self.recall_undefined,
        }


def compute_metrics(predictions: Sequence[int], gold: Sequence[int],
                    dataset_id: str = "", config_hash: str = "") -> MetricReport:
    """Confusion-matrix metrics over aligned binary label lists."""
    if len(predictions) != len(gold):
        raise ValueError(
            f"prediction/gold length mismatch: {len(predictions)} vs {len(gold)}")
    tp = fp = fn = tn = 0
    for pred, y in zip(predictions, gold):
        if pred not in (0, 1) or y not in (0, 1):
            raise ValueError(f"labels must be binary, got ({pred}, {y})")
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1:
            fp += 1
        elif y == 1:
            fn += 1
        else:
            tn += 1
    return MetricReport(tp=tp, fp=fp, fn=fn, tn=tn, dataset_id=dataset_id,
                        config_hash=config_hash,
                        precision_undefined=(tp + fp == 0),
                        recall_undefined=(tp + fn == 0))


@dataclass
class AblationRow:
    name: str
    config_hash: str
    report: MetricReport
    seed: int


@dataclass
class AblationTable:
    rows: list[AblationRow] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["config", "config_hash", "seed", "Acc", "P", "R", "F1"])
        for row in self.rows:
            fmt = row.report.formatted()
            writer.writerow([row.name, row.config_hash, row.seed,
                             fmt["Acc"], fmt["P"], fmt["R"], fmt["F1"]])
        return buf.getvalue()

    def to_text(self) -> str:
        header = f"{'config':<10} {'hash':<12} {'Acc':>7} {'P':>7} {'R':>7} {'F1':>7}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            fmt = row.report.formatted()
            lines.append(f"{row.name:<10} {row.config_hash:<12} "
                         f"{fmt['Acc']:>7} {fmt['P']:>7} {fmt['R']:>7} {fmt['F1']:>7}")
        return "\n".join(lines) + "\n"


def ablation_configs(base_config) -> list[tuple[str, object]]:
    """The six study configurations derived from a base config, base untouched."""
    return [(name, replace(base_config, **overrides))
            for name, overrides in ABLATION_GRID.items()]


def run_ablations(examples, base_config, frozen_extractor,
                  dataset_id: str = "") -> AblationTable:
    """Train and evaluate every ablation configuration on the same splits,
    each once at the base seed.

    Each row gets a fresh model built from its own config; rows that keep
    feature transfer (``concat`` always does) read the frozen extractor. Every
    row shares one feature store: the configs differ only in trainable
    parts, so each distinct input is encoded once for the whole study.
    """
    from .training import FeatureStore, InteractionModel, train

    test_set = [ex for ex in examples if ex.split == "test"]
    table = AblationTable()
    store = None
    for name, config in ablation_configs(base_config):
        frozen = frozen_extractor if config.fusion_mode != "off" else None
        model = InteractionModel(config, frozen=frozen)
        store = store or FeatureStore.for_model(model, frozen_extractor)
        train(model, examples, store=store)
        table.rows.append(AblationRow(
            name=name, config_hash=config.config_hash(), seed=config.seed,
            report=evaluate_transfer(model, test_set, dataset_id, store)))
    return table


def evaluate_transfer(model, examples, dataset_id: str = "external",
                      store=None) -> MetricReport:
    """Metrics of an already-trained model's labels (:func:`~falcon.training.predict`,
    on ``store`` when given) against the interaction labels of ``examples``,
    rows of one :class:`~falcon.dataset.LabeledTable`; no retraining. A
    skipped candidate counts as a negative and in ``skipped``; no rows give
    an all-zero report."""
    from .training import predict

    examples = select(examples)
    _, labels, reasons = predict(model, examples.mentions, store=store)
    report = compute_metrics(labels.tolist(), examples.labels["y_inter"].tolist(),
                             dataset_id=dataset_id, config_hash=model.config.config_hash())
    report.skipped = sum(reason is not None for reason in reasons)
    return report
