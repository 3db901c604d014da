"""Labeled examples, splits and summaries.

A labeled file is read into a :class:`LabeledTable`: the mentions of its
rows as a :class:`~falcon.ingest.MentionTable`, read by the one reader of
every mention file (:func:`~falcon.ingest.read_mentions`), plus a column
per label and the split column. Labeled JSONL holds candidate quadruples
with the interaction label and the two per-person trajectory labels of the
quadruple's (person, time, location) halves (its trajectory views,
:func:`falcon.encoder.candidate_views`); an interaction entails both
presences. The labeled trajectory corpus holds triples with one trajectory
label each. Every output line is built from a row.
"""

from __future__ import annotations

import math
import random
from array import array
from copy import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .ingest import (
    INTERACTION_ROLES,
    TRAJECTORY_ROLES,
    MentionTable,
    read_mentions,
    row_json,
    write_jsonl,
)

SPLITS = ("train", "val", "test")
# The labels of a row, by the roles of its mentions
LABELS = {INTERACTION_ROLES: ("y_inter", "y_tra1", "y_tra2"), TRAJECTORY_ROLES: ("y_tra",)}


class LabeledTable:
    """Labeled rows as columns: ``mentions`` holds each row's candidate
    quadruple or trajectory triple, ``labels`` a 0/1 column (``array('b')``)
    per name of :data:`LABELS`, and ``split`` each row's split (None when
    unsplit, and always for triples). Iterating yields the rows as
    :class:`LabeledRow`."""

    def __init__(self, mentions: MentionTable):
        self.mentions = mentions
        self.labels = {name: array("b") for name in LABELS[mentions.roles]}
        self.split: list[str | None] = []

    def __len__(self) -> int:
        return len(self.split)

    def __iter__(self):
        return (LabeledRow(self, row) for row in range(len(self)))

    def take(self, rows: Iterable[int]) -> "LabeledTable":
        """The rows at ``rows``, in that order."""
        rows = list(rows)
        out = LabeledTable(self.mentions.take(rows))
        for name, column in self.labels.items():
            out.labels[name] = array("b", [column[row] for row in rows])
        out.split = [self.split[row] for row in rows]
        return out

    def add_json(self, obj) -> str | None:
        """Append the row of one decoded line: its mentions
        (:meth:`~falcon.ingest.MentionTable.add_json`, which raises for a bad
        line), then its labels and split. A missing label, one that does not
        equal 0 or 1, an interaction without both presences or an unknown
        split is returned as what is wrong, and then neither is appended:
        the reader stops at that line (:func:`~falcon.ingest.read_mentions`)."""
        self.mentions.add_json(obj)
        try:
            values = [obj[name] for name in self.labels]
        except KeyError as exc:
            return str(exc)
        for name, y in zip(self.labels, values):
            if y not in (0, 1):
                return f"{name} must be 0 or 1, got {y!r}"
        split = None
        if len(values) == 3:  # an interaction label and its two presences
            if values[0] == 1 and not (values[1] == 1 and values[2] == 1):
                return "label entailment violated: y_inter=1 requires both y_tra=1"
            split = obj.get("split")
            if split is not None and split not in SPLITS:
                return f"unknown split {split!r}"
        for column, y in zip(self.labels.values(), values):
            column.append(int(y))
        self.split.append(split)
        return None


class LabeledRow(NamedTuple):
    """Row ``index`` of a :class:`LabeledTable`. perfbench reads ``.split``
    of the rows of :func:`load_examples` and of ``train``'s examples, and
    passes lists of rows to :func:`~falcon.evalbench.evaluate_transfer`."""

    table: LabeledTable
    index: int

    @property
    def split(self) -> str | None:
        return self.table.split[self.index]


def select(rows: Iterable[LabeledRow]) -> LabeledTable:
    """The rows, in order, as one table: an empty candidate table when there
    are none. Rows of more than one table raise ValueError."""
    rows = list(rows)
    if not rows:
        return LabeledTable(MentionTable(INTERACTION_ROLES))
    table = rows[0].table
    if any(row.table is not table for row in rows):
        raise ValueError("rows of more than one labeled table")
    return table.take(row.index for row in rows)


def check_ratios(ratios: Sequence[float]) -> None:
    """Raise ``ValueError`` unless the split ratios are finite and
    non-negative and sum to 1."""
    if not all(0 <= r < math.inf for r in ratios):
        raise ValueError(f"split ratios must be finite and non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")


def split_dataset(examples: LabeledTable,
                  ratios: Sequence[float] = (0.7, 0.1, 0.2),
                  seed: int = 0,
                  group_by_doc: bool = False) -> LabeledTable:
    """Assign train/val/test splits by floor-plus-largest-remainder allocation.

    Deterministic under ``seed``; sizes land within one example of the exact
    proportions and the assignment partitions the input. With
    ``group_by_doc`` all examples of one document share a split (leakage
    guard; off by default). Returns a table of the same rows with the new
    splits; ``examples`` is left as it is. Ratios must be finite and
    non-negative and sum to 1 (:func:`check_ratios`).
    """
    check_ratios(ratios)

    if group_by_doc:
        by_doc: dict[str, list[int]] = {}
        for i, doc_id in enumerate(examples.mentions.doc_ids()):
            by_doc.setdefault(doc_id, []).append(i)
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

    out = copy(examples)
    out.split = [None] * len(examples)
    cursor = 0
    for split, size in zip(SPLITS, sizes):
        for unit_idx in order[cursor:cursor + size]:
            for ex_idx in units[unit_idx]:
                out.split[ex_idx] = split
        cursor += size
    return out


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


def summarize(examples: LabeledTable) -> DatasetSummary:
    labels, n = examples.labels, len(examples)
    inter, tra = sum(labels["y_inter"]), sum(labels["y_tra1"]) + sum(labels["y_tra2"])
    sizes: dict[str, int] = {}
    for split in examples.split:
        if split is not None:
            sizes[split] = sizes.get(split, 0) + 1
    return DatasetSummary(inter, n - inter, tra, 2 * n - tra, sizes)


# ---------------------------------------------------------------------------
# Labeled JSONL, and the labeled trajectory corpus (for pretraining the
# frozen extractor): Triple JSONL lines plus a binary y_tra label.

def _load_labeled(path: str | Path, roles: tuple[str, ...]) -> LabeledTable:
    table = LabeledTable(MentionTable(roles))
    read_mentions(path, table.mentions, table.add_json)
    return table


def load_examples(path: str | Path) -> LabeledTable:
    """Read Labeled JSONL; the first bad line raises
    ``ValueError("path:line: reason")`` (:meth:`LabeledTable.add_json`)."""
    return _load_labeled(path, INTERACTION_ROLES)


def load_labeled_triples(path: str | Path) -> LabeledTable:
    """Read the labeled trajectory corpus, as :func:`load_examples` reads
    Labeled JSONL."""
    return _load_labeled(path, TRAJECTORY_ROLES)


def dump_examples(examples: LabeledTable, path: str | Path) -> None:
    """Write each row as its line: :func:`~falcon.ingest.row_json`, then its
    labels, then its split when it has one."""
    labels = list(examples.labels.items())

    def line(row: int) -> dict:
        rec = row_json(examples.mentions, row)
        for name, column in labels:
            rec[name] = column[row]
        if examples.split[row] is not None:
            rec["split"] = examples.split[row]
        return rec

    write_jsonl(path, map(line, range(len(examples))))
