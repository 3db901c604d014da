"""Corpus ingestion: documents, segments, trajectory triples, candidate quadruples.

Raw biography documents plus externally-extracted trajectory triples
(person, time, location) enter here; candidate interaction quadruples
(person1, person2, time, location) come out, generated by pairing triples
that co-occur (same normalized time and location surfaces) within one
text segment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import orjson

DOCUMENT_SOURCES = ("wikipedia", "britannica", "fixture")

PERSON_ROLES = ("Person1", "Person2", "Person")
ENTITY_ROLES = PERSON_ROLES + ("Time", "Location")


@lru_cache(maxsize=1 << 12)  # a corpus repeats a few thousand names
def normalize_surface(surface: str) -> str:
    """Case-fold and collapse whitespace; the equality used for co-occurrence."""
    return " ".join(surface.split()).casefold()


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str
    source: str = "fixture"

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"document {self.doc_id!r} has empty text")
        if self.source not in DOCUMENT_SOURCES:
            raise ValueError(f"unknown document source {self.source!r}")


@dataclass(frozen=True)
class TextSegment:
    segment_id: str
    doc_id: str
    char_start: int
    char_end: int
    text: str

    def __post_init__(self):
        if not (0 <= self.char_start < self.char_end):
            raise ValueError(f"segment {self.segment_id!r}: bad offsets")
        if len(self.text) != self.char_end - self.char_start:
            raise ValueError(f"segment {self.segment_id!r}: text/offset length mismatch")


@dataclass(frozen=True)
class EntityMention:
    """A role-tagged entity with every occurrence span inside its segment."""

    role: str
    surface: str
    occurrences: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.role not in ENTITY_ROLES:
            raise ValueError(f"unknown entity role {self.role!r}")
        if not self.occurrences:
            raise ValueError(f"{self.role} mention {self.surface!r} has no occurrences")

    @property
    def norm(self) -> str:
        return normalize_surface(self.surface)


def validate_mention(mention: EntityMention, segment_text: str) -> None:
    """Check span ordering, bounds, non-overlap, and surface agreement."""
    prev_end = -1
    for start, end in mention.occurrences:
        if not (0 <= start < end <= len(segment_text)):
            raise ValueError(
                f"{mention.role} occurrence ({start},{end}) out of segment bounds"
            )
        if start < prev_end:
            raise ValueError(
                f"{mention.role} occurrences overlap or are unsorted at ({start},{end})"
            )
        prev_end = end
        span_text = segment_text[start:end]
        if normalize_surface(span_text) != mention.norm:
            raise ValueError(
                f"{mention.role} span text {span_text!r} does not match surface "
                f"{mention.surface!r}"
            )


@dataclass(frozen=True)
class TrajectoryTriple:
    segment: TextSegment
    person: EntityMention
    time: EntityMention
    location: EntityMention

    def validate(self) -> None:
        if self.person.role != "Person":
            raise ValueError(f"triple person role must be 'Person', got {self.person.role!r}")
        if self.time.role != "Time" or self.location.role != "Location":
            raise ValueError("triple time/location roles mislabeled")
        for m in (self.person, self.time, self.location):
            validate_mention(m, self.segment.text)


@dataclass(frozen=True)
class CandidateQuadruple:
    segment: TextSegment
    person1: EntityMention
    person2: EntityMention
    time: EntityMention
    location: EntityMention

    def validate(self) -> None:
        if self.person1.role != "Person1" or self.person2.role != "Person2":
            raise ValueError("quadruple person roles mislabeled")
        if self.time.role != "Time" or self.location.role != "Location":
            raise ValueError("quadruple time/location roles mislabeled")
        if self.person1.norm == self.person2.norm:
            raise ValueError("quadruple persons must differ")
        for m in self.entities():
            validate_mention(m, self.segment.text)

    def entities(self) -> tuple[EntityMention, ...]:
        return (self.person1, self.person2, self.time, self.location)

    def key(self) -> tuple:
        """Corpus-level identity: doc id plus normalized surfaces, persons unordered."""
        pair = tuple(sorted((self.person1.norm, self.person2.norm)))
        return (self.segment.doc_id, pair, self.time.norm, self.location.norm)


# ---------------------------------------------------------------------------
# Triple / candidate JSONL

@dataclass(frozen=True)
class RecordError:
    line: int
    message: str


@dataclass
class TripleLoadResult:
    triples: list[TrajectoryTriple] = field(default_factory=list)
    errors: list[RecordError] = field(default_factory=list)


def _mention_to_json(m: EntityMention) -> dict:
    return {"surface": m.surface, "occurrences": [list(span) for span in m.occurrences]}


def _mention_from_json(obj: dict, role: str) -> EntityMention:
    occurrences = tuple(tuple(int(x) for x in span) for span in obj["occurrences"])
    return EntityMention(role=role, surface=obj["surface"], occurrences=occurrences)


def _segment_from_json(obj: dict) -> TextSegment:
    return TextSegment(
        segment_id=obj["segment_id"],
        doc_id=obj["doc_id"],
        char_start=int(obj["char_start"]),
        char_end=int(obj["char_end"]),
        text=obj["segment_text"],
    )


def _envelope(segment: TextSegment) -> dict:
    return {
        "doc_id": segment.doc_id,
        "segment_id": segment.segment_id,
        "char_start": segment.char_start,
        "char_end": segment.char_end,
        "segment_text": segment.text,
    }


def triple_to_json(triple: TrajectoryTriple) -> dict:
    rec = _envelope(triple.segment)
    rec["person"] = _mention_to_json(triple.person)
    rec["time"] = _mention_to_json(triple.time)
    rec["location"] = _mention_to_json(triple.location)
    return rec


def triple_from_json(obj: dict) -> TrajectoryTriple:
    triple = TrajectoryTriple(
        segment=_segment_from_json(obj),
        person=_mention_from_json(obj["person"], "Person"),
        time=_mention_from_json(obj["time"], "Time"),
        location=_mention_from_json(obj["location"], "Location"),
    )
    triple.validate()
    return triple


def candidate_to_json(cand: CandidateQuadruple) -> dict:
    rec = _envelope(cand.segment)
    rec["person1"] = _mention_to_json(cand.person1)
    rec["person2"] = _mention_to_json(cand.person2)
    rec["time"] = _mention_to_json(cand.time)
    rec["location"] = _mention_to_json(cand.location)
    return rec


def candidate_from_json(obj: dict) -> CandidateQuadruple:
    cand = CandidateQuadruple(
        segment=_segment_from_json(obj),
        person1=_mention_from_json(obj["person1"], "Person1"),
        person2=_mention_from_json(obj["person2"], "Person2"),
        time=_mention_from_json(obj["time"], "Time"),
        location=_mention_from_json(obj["location"], "Location"),
    )
    cand.validate()
    return cand


def dumps_record(obj: dict) -> str:
    """One JSONL line. A non-finite float raises ValueError: the readers
    reject ``NaN`` and ``Infinity``, so falcon never writes them."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def iter_jsonl(path: str | Path, parse: Callable,
               errors: list[RecordError] | None = None) -> Iterator:
    """Yield ``parse(obj)`` for every non-blank line of a JSONL file.

    A line ends at a newline byte and is decoded by ``orjson``, which takes
    strict JSON in UTF-8 (no ``NaN``, ``Infinity`` or lone surrogates). A
    line that is not JSON, or that ``parse`` rejects, raises
    ``ValueError("path:line: reason")``. When ``errors`` is a list, the bad
    line is appended to it as a RecordError instead and reading continues.
    An unreadable file raises OSError.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                item = parse(orjson.loads(line))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if errors is None:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                errors.append(RecordError(line=lineno, message=str(exc)))
                continue
            yield item


def is_jsonl_line(line: bytes) -> bool:
    """Whether :func:`iter_jsonl` decodes ``line``: a blank line, which it
    skips, or one JSON value."""
    line = line.strip()
    try:
        if line:
            orjson.loads(line)
    except ValueError:
        return False
    return True


def load_json(path: str | Path):
    """The JSON value of a whole file, decoded as :func:`iter_jsonl` decodes a
    line. Bad JSON raises ``ValueError("path: reason")``; an unreadable file
    raises OSError."""
    data = Path(path).read_bytes()
    try:
        return orjson.loads(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_name_table(path: str | Path) -> dict[str, tuple[str, dict]]:
    """Read a JSON object whose every value is an object (name -> attributes),
    as ``normalize_surface(name)`` -> (name, attributes).

    Bad JSON, a top level that is not an object, a value that is not an
    object, or two names that normalise alike raises ``ValueError("path:
    reason")``. An unreadable file raises OSError.
    """
    table = load_json(path)
    if not isinstance(table, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(table).__name__}")
    out: dict[str, tuple[str, dict]] = {}
    for name, value in table.items():
        if not isinstance(value, dict):
            raise ValueError(f"{path}: value of {name!r} is not a JSON object")
        first, _ = out.setdefault(normalize_surface(name), (name, value))
        if first != name:
            raise ValueError(f"{path}: keys {first!r} and {name!r} normalise to one name")
    return out


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> None:
    """Write one ``dumps_record`` line per object."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(dumps_record(obj) + "\n")


def load_triples(path: str | Path) -> TripleLoadResult:
    """Read Triple JSONL; malformed lines become error records, not crashes.

    An unreadable file is fatal (raises OSError); a bad line is collected
    with its 1-based line number and processing continues.
    """
    result = TripleLoadResult()
    result.triples = list(iter_jsonl(path, triple_from_json, result.errors))
    return result


def dump_triples(triples: Iterable[TrajectoryTriple], path: str | Path) -> None:
    write_jsonl(path, map(triple_to_json, triples))


def load_candidates(path: str | Path) -> list[CandidateQuadruple]:
    return list(iter_jsonl(path, candidate_from_json))


def dump_candidates(cands: Iterable[CandidateQuadruple], path: str | Path) -> None:
    write_jsonl(path, map(candidate_to_json, cands))


# ---------------------------------------------------------------------------
# Candidate generation

def _merge_occurrences(a: EntityMention, b: EntityMention, role: str) -> EntityMention:
    # Same normalized surface by construction; union the spans, dropping
    # any span that would overlap an already-kept one.
    spans = sorted(set(a.occurrences) | set(b.occurrences))
    kept: list[tuple[int, int]] = []
    for start, end in spans:
        if not kept or start >= kept[-1][1]:
            kept.append((start, end))
    return EntityMention(role=role, surface=a.surface, occurrences=tuple(kept))


def _triple_sort_key(t: TrajectoryTriple) -> tuple:
    return (t.person.norm, t.time.norm, t.location.norm, t.person.surface,
            t.person.occurrences[0])


def pair_candidates(triples: Sequence[TrajectoryTriple]) -> list[CandidateQuadruple]:
    """Pair co-occurring triples of one segment into candidate quadruples.

    Two triples co-occur when their normalized time surfaces match, their
    normalized location surfaces match, and the persons differ. The person
    with the lexicographically smaller normalized surface becomes Person1.
    Output order and content are invariant under input permutation.
    """
    if not triples:
        return []
    seg_keys = {(t.segment.doc_id, t.segment.segment_id) for t in triples}
    if len(seg_keys) > 1:
        raise ValueError("pair_candidates expects triples from a single segment")

    ordered = sorted(triples, key=_triple_sort_key)
    seen: set[tuple] = set()
    out: list[CandidateQuadruple] = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if a.person.norm == b.person.norm:
                continue
            if a.time.norm != b.time.norm or a.location.norm != b.location.norm:
                continue
            first, second = (a, b) if (a.person.norm, a.person.surface) <= (
                b.person.norm, b.person.surface) else (b, a)
            cand = CandidateQuadruple(
                segment=first.segment,
                person1=replace(first.person, role="Person1"),
                person2=replace(second.person, role="Person2"),
                time=_merge_occurrences(first.time, second.time, "Time"),
                location=_merge_occurrences(first.location, second.location, "Location"),
            )
            key = cand.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(cand)
    out.sort(key=lambda c: (c.person1.norm, c.person2.norm, c.time.norm, c.location.norm))
    return out


def generate_candidates(triples: Sequence[TrajectoryTriple]) -> list[CandidateQuadruple]:
    """Group triples by segment and pair within each group, in stable order."""
    groups: dict[tuple[str, str], list[TrajectoryTriple]] = {}
    for t in triples:
        groups.setdefault((t.segment.doc_id, t.segment.segment_id), []).append(t)
    out: list[CandidateQuadruple] = []
    for key in sorted(groups):
        out.extend(pair_candidates(groups[key]))
    return out


# ---------------------------------------------------------------------------
# Document readers

def _document_from_json(obj: dict) -> Document:
    return Document(doc_id=obj["doc_id"], title=obj.get("title", obj["doc_id"]),
                    text=obj["text"], source=obj.get("source", "fixture"))


def load_documents(path: str | Path) -> list[Document]:
    """Read a corpus directory: ``*.jsonl`` document files and/or plain ``*.txt``.

    JSONL records carry doc_id/title/text/source; a ``.txt`` file becomes a
    fixture-source document named after its stem.
    """
    path = Path(path)
    docs: list[Document] = []
    for file in sorted(path.glob("*.jsonl")):
        docs.extend(iter_jsonl(file, _document_from_json))
    for file in sorted(path.glob("*.txt")):
        text = file.read_text(encoding="utf-8")
        docs.append(Document(doc_id=file.stem, title=file.stem, text=text))
    seen: set[str] = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r} in corpus")
        seen.add(doc.doc_id)
    docs.sort(key=lambda d: d.doc_id)
    return docs
