"""Corpus ingestion: documents, segments, trajectory triples, candidate quadruples.

Raw biography documents plus externally-extracted trajectory triples
(person, time, location) enter here; candidate interaction quadruples
(person1, person2, time, location) come out, generated by pairing triples
that co-occur (same normalized time and location surfaces) within one
text segment.

Triples and candidates travel as columns (:class:`MentionTable`): each
distinct segment envelope and surface is held once, and mentions are
arrays of surface ids and occurrence spans. :func:`load_triples` decodes
each line once into such a table and checks the spans per column;
:func:`generate_candidates` pairs a table into another. Every step after
it (the feature store, scoring, extraction) takes a table too. The
objects (:class:`TrajectoryTriple`, :class:`CandidateQuadruple`) are what
the labeled files, the fixtures and the tests speak; a caller that holds
them converts them once, through :meth:`MentionTable.from_triples` or
:meth:`MentionTable.from_candidates`, and :meth:`MentionTable.objects`
turns a table back into objects.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import orjson

DOCUMENT_SOURCES = ("wikipedia", "britannica", "fixture")

PERSON_ROLES = ("Person1", "Person2", "Person")
ENTITY_ROLES = PERSON_ROLES + ("Time", "Location")
# The roles of a candidate quadruple and of a trajectory triple, in the
# order of their mentions (the encoder's canonical order)
INTERACTION_ROLES = ("Person1", "Person2", "Time", "Location")
TRAJECTORY_ROLES = ("Person", "Time", "Location")


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class EntityMention:
    """A role-tagged entity with every occurrence span inside its segment."""

    role: str
    surface: str
    occurrences: tuple[tuple[int, int], ...]
    # normalize_surface(surface), computed once
    norm: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_role(self.role)
        if not self.occurrences:
            raise ValueError(f"{self.role} mention {self.surface!r} has no occurrences")
        object.__setattr__(self, "norm", normalize_surface(self.surface))


def _check_role(role: str) -> None:
    if role not in ENTITY_ROLES:
        raise ValueError(f"unknown entity role {role!r}")


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# ---------------------------------------------------------------------------
# Triple / candidate JSONL

@dataclass(frozen=True)
class RecordError:
    line: int
    message: str


class MentionTable:
    """Rows of role-tagged mentions in text segments, as columns: the
    trajectory triples of a file (``TRAJECTORY_ROLES``) or the candidate
    quadruples paired from them (``INTERACTION_ROLES``).

    Row i lies in the segment envelope ``envelopes[segment[i]]``, a
    (doc_id, segment_id, char_start, char_end, text) tuple held once however
    many rows share it. Its mention in role ``roles[k]`` is mention
    ``m = i * len(roles) + k``: its surface is ``surfaces[surface[m]]``
    (normalized: ``norms[surface[m]]``), each distinct surface held once, and
    its occurrences are the spans ``(starts[j], ends[j])`` for j in
    ``bounds[m]:bounds[m + 1]``; the integer columns are ``array('q')``.
    Envelopes and surfaces take ids in the order first seen, so a table
    does not depend on the hash seed. A table made ``like`` another
    (:meth:`take`, :func:`generate_candidates`) shares its envelopes and
    surfaces.
    """

    _SHARED = ("envelopes", "_envelope_ids", "surfaces", "norms", "_surface_ids")

    def __init__(self, roles: tuple[str, ...], like: "MentionTable | None" = None):
        self.roles = roles
        if like is None:
            self.envelopes: list[tuple] = []
            self._envelope_ids: dict[tuple, int] = {}
            self.surfaces: list[str] = []
            self.norms: list[str] = []
            self._surface_ids: dict[str, int] = {}
        else:
            for name in self._SHARED:
                setattr(self, name, getattr(like, name))
        self.segment = array("q")
        self.surface = array("q")
        self.bounds = array("q", [0])
        self.starts = array("q")
        self.ends = array("q")

    def __len__(self) -> int:
        return len(self.segment)

    def _envelope(self, envelope: tuple) -> int:
        seg = self._envelope_ids.get(envelope)
        if seg is None:
            seg = self._envelope_ids[envelope] = len(self.envelopes)
            self.envelopes.append(envelope)
        return seg

    def _surface(self, surface: str) -> int:
        sid = self._surface_ids.get(surface)
        if sid is None:
            sid = self._surface_ids[surface] = len(self.surfaces)
            self.surfaces.append(surface)
            self.norms.append(normalize_surface(surface))
        return sid

    def _mention(self, surface: int, starts: list[int], ends: list[int]) -> None:
        """Append a mention: the id of its surface and its occurrences."""
        self.surface.append(surface)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.bounds.append(len(self.starts))

    def add(self, segment: TextSegment, entities: Sequence[EntityMention]) -> None:
        """Append one row: its segment and one mention per role, in the order
        of ``roles`` (the mentions' own roles are not read)."""
        self.segment.append(self._envelope((segment.doc_id, segment.segment_id,
                                            segment.char_start, segment.char_end,
                                            segment.text)))
        for e in entities:
            self.surface.append(self._surface(e.surface))
            for start, end in e.occurrences:
                self.starts.append(start)
                self.ends.append(end)
            self.bounds.append(len(self.starts))

    def add_json(self, obj) -> None:
        """Append the triple of one decoded Triple JSONL line. A line whose
        values all have their JSON types (strings, integer offsets, spans of
        two integers inside the segment) and whose segment is well formed
        goes into the columns as read; any other goes through
        :func:`triple_from_json`, which raises what is wrong with it or
        returns the triple to append. The spans are checked apart, per
        column (:meth:`span_faults`)."""
        if not self._add_checked_json(obj):
            t = triple_from_json(obj)
            self.add(t.segment, (t.person, t.time, t.location))

    def _add_checked_json(self, obj) -> bool:
        """:meth:`add_json` of a line that needs no conversion; False, with
        nothing appended, for any other."""
        try:
            envelope = (obj["doc_id"], obj["segment_id"], obj["char_start"], obj["char_end"],
                        obj["segment_text"])
            mentions = [(m["surface"], m["occurrences"])
                        for m in (obj["person"], obj["time"], obj["location"])]
            seg = self._envelope_ids.get(envelope)
        except (KeyError, TypeError):  # not an object, a key missing, or an unhashable value
            return False
        doc_id, segment_id, start, end, text = envelope
        if seg is None and not (type(doc_id) is str and type(segment_id) is str
                                and type(text) is str and type(start) is int
                                and type(end) is int and 0 <= start < end
                                and len(text) == end - start):
            return False
        for surface, occurrences in mentions:
            if type(surface) is not str or type(occurrences) is not list or not occurrences:
                return False
            for span in occurrences:  # two integers inside the segment
                if (type(span) is not list or len(span) != 2
                        or type(span[0]) is not int or type(span[1]) is not int
                        or not 0 <= span[0] <= len(text) or not 0 <= span[1] <= len(text)):
                    return False
        self.segment.append(self._envelope(envelope) if seg is None else seg)
        starts, ends = self.starts, self.ends
        for surface, occurrences in mentions:
            self.surface.append(self._surface(surface))
            for start, end in occurrences:
                starts.append(start)
                ends.append(end)
            self.bounds.append(len(starts))
        return True

    def span_faults(self) -> list[int]:
        """The rows with a mention whose occurrences :func:`validate_mention`
        refuses: one outside its segment, one that overlaps or precedes the
        one before it, or one whose text does not normalise to the mention's
        surface."""
        arity, bounds, starts, ends = len(self.roles), self.bounds, self.starts, self.ends
        surfaces, norms = self.surfaces, self.norms
        texts = [envelope[4] for envelope in self.envelopes]
        faults: list[int] = []
        for m, (text, sid, a, b) in enumerate(zip(
                [texts[seg] for seg in self.segment for _ in range(arity)], self.surface,
                bounds, islice(bounds, 1, None))):
            prev = 0
            for j in range(a, b):
                start, end = starts[j], ends[j]
                if (not prev <= start < end <= len(text)
                        or text[start:end] != surfaces[sid]  # most spans read their surface
                        and normalize_surface(text[start:end]) != norms[sid]):
                    if not faults or faults[-1] != m // arity:
                        faults.append(m // arity)
                    break
                prev = end
        return faults

    def take(self, rows: Iterable[int]) -> "MentionTable":
        """The rows at ``rows``, in that order, as a table like this one."""
        out = MentionTable(self.roles, like=self)
        arity, bounds = len(self.roles), self.bounds
        if isinstance(rows, range) and rows.step == 1:  # a run of rows: slices
            first, last = rows.start * arity, rows.stop * arity
            out.segment = self.segment[rows.start:rows.stop]
            out.surface = self.surface[first:last]
            out.starts = self.starts[bounds[first]:bounds[last]]
            out.ends = self.ends[bounds[first]:bounds[last]]
            out.bounds = array("q", [b - bounds[first] for b in bounds[first:last + 1]])
            return out
        rows = list(rows)
        mentions = [m for row in rows for m in range(row * arity, row * arity + arity)]
        out.segment = array("q", [self.segment[row] for row in rows])
        out.surface = array("q", [self.surface[m] for m in mentions])
        out.starts = array("q", [x for m in mentions for x in self.starts[bounds[m]:bounds[m + 1]]])
        out.ends = array("q", [x for m in mentions for x in self.ends[bounds[m]:bounds[m + 1]]])
        out.bounds = array("q", [0, *accumulate(bounds[m + 1] - bounds[m] for m in mentions)])
        return out

    def doc_ids(self) -> list[str]:
        """Each row's doc_id."""
        return [self.envelopes[seg][0] for seg in self.segment]

    def objects(self) -> list:
        """The rows as :class:`TrajectoryTriple` or :class:`CandidateQuadruple`
        objects, by the table's roles."""
        build = TrajectoryTriple if self.roles == TRAJECTORY_ROLES else CandidateQuadruple
        arity, bounds, starts, ends = len(self.roles), self.bounds, self.starts, self.ends
        surfaces, surface = self.surfaces, self.surface
        segments: dict[int, TextSegment] = {}
        out = []
        for row, seg in enumerate(self.segment):
            if seg not in segments:
                doc_id, segment_id, start, end, text = self.envelopes[seg]
                segments[seg] = TextSegment(segment_id, doc_id, start, end, text)
            out.append(build(segments[seg], *[
                EntityMention(role, surfaces[surface[m]],
                              tuple(zip(starts[bounds[m]:bounds[m + 1]],
                                        ends[bounds[m]:bounds[m + 1]])))
                for m, role in enumerate(self.roles, row * arity)]))
        return out

    @classmethod
    def from_triples(cls, triples: Iterable[TrajectoryTriple]) -> "MentionTable":
        """Triples as a table, through the span checks of :func:`load_triples`:
        a triple that fails them raises what its ``validate`` raises."""
        triples = list(triples)
        table = cls(TRAJECTORY_ROLES)
        for t in triples:
            table.add(t.segment, (t.person, t.time, t.location))
        for row in table.span_faults():
            triples[row].validate()
        return table

    @classmethod
    def from_candidates(cls, cands: Iterable[CandidateQuadruple]) -> "MentionTable":
        """Candidates as a table, as they are: their loader and the pairer
        check them, and marking refuses spans that it cannot mark."""
        table = cls(INTERACTION_ROLES)
        for cand in cands:
            table.add(cand.segment, cand.entities())
        return table


@dataclass
class TripleLoadResult:
    triples: MentionTable
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


# One JSONL line of a JSON value: json.dumps with these options, through one
# encoder built once. A non-finite float raises ValueError: the readers
# reject ``NaN`` and ``Infinity``, so falcon never writes them.
dumps_record = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"),
                                allow_nan=False).encode


def iter_jsonl(path: str | Path, parse: Callable,
               errors: list[RecordError] | None = None, numbered: bool = False) -> Iterator:
    """Yield ``parse(obj)`` for every non-blank line of a JSONL file, as
    ``(line, parse(obj))`` when ``numbered``.

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
            yield (lineno, item) if numbered else item


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


def _refuse_repeated_keys(path, pairs: list) -> None:
    """An ``object_pairs_hook`` that refuses a key given twice in one object.
    It builds no value: the table is the one orjson decoded."""
    if len(dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"{path}: key {repeated!r} appears twice")


def load_name_table(path: str | Path, checks=()) -> dict[str, tuple[str, dict]]:
    """Read a JSON object whose every value is an object (name -> attributes),
    as ``normalize_surface(name)`` -> (name, attributes).

    Bad JSON, a key given twice in one object, a top level that is not an
    object, a value that is not an object, or two names that normalise alike
    raises ``ValueError("path: reason")``, as does a value that fails its
    ``(key, test, what)`` triple of ``checks``: ``key of 'name' is not what``.
    An unreadable file raises OSError.
    """
    table = load_json(path)
    # orjson keeps the last of two equal keys; the stdlib decoder sees each pair.
    json.loads(Path(path).read_bytes(),
               object_pairs_hook=lambda pairs: _refuse_repeated_keys(path, pairs))
    if not isinstance(table, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(table).__name__}")
    out: dict[str, tuple[str, dict]] = {}
    for name, value in table.items():
        if not isinstance(value, dict):
            raise ValueError(f"{path}: value of {name!r} is not a JSON object")
        for key, test, what in checks:
            if key in value and not test(value[key]):
                raise ValueError(f"{path}: {key} of {name!r} is not {what}")
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
    """Read Triple JSONL into a :class:`MentionTable`; malformed lines become
    error records, not crashes.

    Each line is decoded once and its values go straight into the columns
    (:meth:`MentionTable.add_json`); the spans are then checked per column.
    A triple those checks refuse is left out, with the message of the
    per-line check (``validate``) at its line. An unreadable file is fatal
    (raises OSError); a bad line is collected with its 1-based line number
    and processing continues.
    """
    table = MentionTable(TRAJECTORY_ROLES)
    result = TripleLoadResult(table)
    lines = [line for line, _ in iter_jsonl(path, table.add_json, result.errors, numbered=True)]
    faults = table.span_faults()
    if faults:
        refused = set()
        for row, triple in zip(faults, table.take(faults).objects()):
            try:
                triple.validate()
            except ValueError as exc:
                refused.add(row)
                result.errors.append(RecordError(line=lines[row], message=str(exc)))
        result.triples = table.take(row for row in range(len(table)) if row not in refused)
        result.errors.sort(key=lambda error: error.line)
    return result


def dump_triples(triples: Iterable[TrajectoryTriple], path: str | Path) -> None:
    write_jsonl(path, map(triple_to_json, triples))


def load_candidates(path: str | Path) -> list[CandidateQuadruple]:
    return list(iter_jsonl(path, candidate_from_json))


def dump_candidates(cands: Iterable[CandidateQuadruple], path: str | Path) -> None:
    write_jsonl(path, map(candidate_to_json, cands))


# ---------------------------------------------------------------------------
# Candidate generation

def generate_candidates(triples: MentionTable) -> MentionTable:
    """Pair co-occurring triples of each segment into candidate quadruples.

    Triples are grouped by (doc_id, segment_id), groups in sorted order. Two
    triples of a group co-occur when their normalized time surfaces match,
    their normalized location surfaces match, and the persons differ. The
    person with the lexicographically smaller normalized surface becomes
    Person1; the time and location mentions hold both triples' occurrences.
    A group's candidates are in the order of their normalized surfaces, one
    per (persons, time, location), so their order and content do not depend
    on the order of the triples (ties keep the first triple). Returns a
    table like ``triples``.
    """
    norms, surfaces, surface = triples.norms, triples.surfaces, triples.surface
    bounds, starts, ends = triples.bounds, triples.starts, triples.ends
    groups: dict[tuple, list[int]] = {}
    for row, seg in enumerate(triples.segment):
        groups.setdefault(triples.envelopes[seg][:2], []).append(row)
    out = MentionTable(INTERACTION_ROLES, like=triples)
    for key in sorted(groups):
        rows = groups[key]
        if len(rows) < 2:
            continue
        # (person, time, location norms, person surface, first person span), by row
        ordered = sorted([(norms[surface[3 * row]], norms[surface[3 * row + 1]],
                           norms[surface[3 * row + 2]], surfaces[surface[3 * row]],
                           (starts[bounds[3 * row]], ends[bounds[3 * row]]), row)
                          for row in rows])  # ties in row order
        found: dict[tuple, tuple[int, int]] = {}
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if a[0] == b[0] or a[1] != b[1] or a[2] != b[2]:
                    continue
                first, second = (a, b) if a[0::3] <= b[0::3] else (b, a)
                found.setdefault((first[0], second[0], a[1], a[2]), (first[5], second[5]))
        for pair in sorted(found):
            first, second = found[pair]
            out.segment.append(triples.segment[first])
            for m in (3 * first, 3 * second):
                out._mention(surface[m], starts[bounds[m]:bounds[m + 1]],
                             ends[bounds[m]:bounds[m + 1]])
            for m, n in ((3 * first + 1, 3 * second + 1), (3 * first + 2, 3 * second + 2)):
                m_starts, m_ends = starts[bounds[m]:bounds[m + 1]], ends[bounds[m]:bounds[m + 1]]
                n_starts, n_ends = starts[bounds[n]:bounds[n + 1]], ends[bounds[n]:bounds[n + 1]]
                if m_starts != n_starts or m_ends != n_ends:
                    # unite the spans, dropping a span that overlaps a kept one
                    kept: list[tuple[int, int]] = []
                    for start, end in sorted({*zip(m_starts, m_ends), *zip(n_starts, n_ends)}):
                        if not kept or start >= kept[-1][1]:
                            kept.append((start, end))
                    m_starts, m_ends = [start for start, _ in kept], [end for _, end in kept]
                out._mention(surface[m], m_starts, m_ends)
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
