"""Labeled examples, splits and summaries.

Every labeled example carries the interaction label plus the two per-person
trajectory labels of the quadruple's (person, time, location) halves (its
trajectory views, :func:`falcon.encoder.candidate_views`); an interaction
entails both presences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from .ingest import (
    CandidateQuadruple,
    TrajectoryTriple,
    candidate_from_json,
    candidate_to_json,
    iter_jsonl,
    triple_from_json,
    triple_to_json,
    write_jsonl,
)

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class LabeledExample:
    candidate: CandidateQuadruple
    y_inter: int
    y_tra1: int
    y_tra2: int
    split: str | None = None

    def __post_init__(self):
        for name, y in (("y_inter", self.y_inter), ("y_tra1", self.y_tra1),
                        ("y_tra2", self.y_tra2)):
            if y not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {y!r}")
        if self.y_inter == 1 and not (self.y_tra1 == 1 and self.y_tra2 == 1):
            raise ValueError("label entailment violated: y_inter=1 requires both y_tra=1")
        if self.split is not None and self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")


def split_dataset(examples: Sequence[LabeledExample],
                  ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                  seed: int = 0,
                  group_by_doc: bool = False) -> list[LabeledExample]:
    """Assign train/val/test splits by floor-plus-largest-remainder allocation.

    Deterministic under ``seed``; sizes land within one example of the exact
    proportions and the assignment partitions the input. With
    ``group_by_doc`` all examples of one document share a split (leakage
    guard; off by default).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")

    if group_by_doc:
        units: list[list[int]] = []
        by_doc: dict[str, list[int]] = {}
        for i, ex in enumerate(examples):
            by_doc.setdefault(ex.candidate.segment.doc_id, []).append(i)
        units = [by_doc[k] for k in sorted(by_doc)]
    else:
        units = [[i] for i in range(len(examples))]

    rng = random.Random(seed)
    order = list(range(len(units)))
    rng.shuffle(order)

    n = len(units)
    exact = [r * n for r in ratios]
    sizes = [int(x) for x in exact]
    remainders = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in remainders[: n - sum(sizes)]:
        sizes[i] += 1

    assignment: dict[int, str] = {}
    cursor = 0
    for split, size in zip(SPLITS, sizes):
        for unit_idx in order[cursor:cursor + size]:
            for ex_idx in units[unit_idx]:
                assignment[ex_idx] = split
        cursor += size

    return [replace(ex, split=assignment[i]) for i, ex in enumerate(examples)]


@dataclass
class DatasetSummary:
    interaction_pos: int = 0
    interaction_neg: int = 0
    trajectory_pos: int = 0
    trajectory_neg: int = 0
    split_sizes: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.interaction_pos + self.interaction_neg

    def to_json(self) -> dict:
        return {
            "interaction": {"positive": self.interaction_pos,
                            "negative": self.interaction_neg,
                            "total": self.total},
            "trajectory": {"positive": self.trajectory_pos,
                           "negative": self.trajectory_neg,
                           "total": self.trajectory_pos + self.trajectory_neg},
            "split_sizes": dict(sorted(self.split_sizes.items())),
        }


def summarize(examples: Iterable[LabeledExample]) -> DatasetSummary:
    summary = DatasetSummary()
    for ex in examples:
        if ex.y_inter == 1:
            summary.interaction_pos += 1
        else:
            summary.interaction_neg += 1
        for y in (ex.y_tra1, ex.y_tra2):
            if y == 1:
                summary.trajectory_pos += 1
            else:
                summary.trajectory_neg += 1
        if ex.split is not None:
            summary.split_sizes[ex.split] = summary.split_sizes.get(ex.split, 0) + 1
    return summary


# ---------------------------------------------------------------------------
# Labeled JSONL

def example_to_json(ex: LabeledExample) -> dict:
    rec = candidate_to_json(ex.candidate)
    rec["y_inter"] = ex.y_inter
    rec["y_tra1"] = ex.y_tra1
    rec["y_tra2"] = ex.y_tra2
    if ex.split is not None:
        rec["split"] = ex.split
    return rec


def example_from_json(obj: dict) -> LabeledExample:
    return LabeledExample(
        candidate=candidate_from_json(obj),
        y_inter=int(obj["y_inter"]),
        y_tra1=int(obj["y_tra1"]),
        y_tra2=int(obj["y_tra2"]),
        split=obj.get("split"),
    )


def load_examples(path: str | Path) -> list[LabeledExample]:
    """Read Labeled JSONL, rejecting records that violate label entailment."""
    return list(iter_jsonl(path, example_from_json))


def dump_examples(examples: Iterable[LabeledExample], path: str | Path) -> None:
    write_jsonl(path, map(example_to_json, examples))


# Labeled trajectory corpus (for pretraining the frozen extractor):
# Triple JSONL envelope plus a binary y_tra label.

@dataclass(frozen=True)
class LabeledTriple:
    triple: TrajectoryTriple
    y_tra: int

    def __post_init__(self):
        if self.y_tra not in (0, 1):
            raise ValueError(f"y_tra must be 0 or 1, got {self.y_tra!r}")


def load_labeled_triples(path: str | Path) -> list[LabeledTriple]:
    return list(iter_jsonl(path, lambda obj: LabeledTriple(
        triple=triple_from_json(obj), y_tra=int(obj["y_tra"]))))


def dump_labeled_triples(items: Iterable[LabeledTriple], path: str | Path) -> None:
    write_jsonl(path, (dict(triple_to_json(item.triple), y_tra=item.y_tra)
                       for item in items))
