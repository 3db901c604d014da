"""Corpus ingestion: documents, segments, trajectory triples, candidate quadruples.

Raw biography documents plus externally-extracted trajectory triples
(person, time, location) enter here; candidate interaction quadruples
(person1, person2, time, location) come out, generated by pairing triples
that co-occur (same normalized time and location surfaces) within one
text segment.

Triples and candidates travel as columns (:class:`MentionTable`): each
distinct segment envelope and surface is held once, and mentions are
arrays of surface ids and occurrence spans. Every file of mentions (the
triples, the candidates and both labeled files) is read by one reader,
:func:`read_mentions`: it decodes each line once into such a table and
checks the spans per column. A line that needs a conversion or fails a
check goes through :func:`row_from_json`, the per-line check that names
what is wrong with it or returns its plain values. :func:`generate_candidates`
pairs a table into another, and every step after it (the feature store,
scoring, extraction) takes a table too; each output line is built from a
row (:func:`row_json`). No module builds a per-line mention object.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import orjson

DOCUMENT_SOURCES = ("wikipedia", "britannica", "fixture")

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


def mention_fault(role: str, surface: str, occurrences, segment_text: str) -> str | None:
    """What is wrong with a mention's spans, or None: the first occurrence,
    in order, that lies outside the segment, that overlaps or precedes the
    one before it, or whose text does not normalise to the surface."""
    norm = normalize_surface(surface)
    prev_end = -1
    for start, end in occurrences:
        if not (0 <= start < end <= len(segment_text)):
            return f"{role} occurrence ({start},{end}) out of segment bounds"
        if start < prev_end:
            return f"{role} occurrences overlap or are unsorted at ({start},{end})"
        prev_end = end
        span_text = segment_text[start:end]
        if normalize_surface(span_text) != norm:
            return f"{role} span text {span_text!r} does not match surface {surface!r}"
    return None


# ---------------------------------------------------------------------------
# Triple / candidate JSONL

@dataclass(frozen=True)
class RecordError:
    line: int
    message: str


class MentionTable:
    """Rows of role-tagged mentions in text segments, as columns: trajectory
    triples (``TRAJECTORY_ROLES``) or candidate quadruples
    (``INTERACTION_ROLES``); any other roles raise ValueError. A line of a file holds the mention in role
    ``roles[k]`` under the key ``keys[k]``, the role in lower case.

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
        if roles not in (INTERACTION_ROLES, TRAJECTORY_ROLES):
            raise ValueError(f"unsupported role set {roles}")
        self.roles = roles
        self.keys = tuple(role.lower() for role in roles)
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

    def add_json(self, obj) -> None:
        """Append the row of one decoded line of a mention file: its segment
        envelope, then the mention of each role under the role's key in
        lower case (``person``, or ``person1`` and ``person2``, then ``time``
        and ``location``). A line whose values all have their JSON types
        (strings, integer offsets, spans of two integers inside the segment),
        whose segment is well formed and whose persons differ goes into the
        columns as read; any other goes through :func:`row_from_json`, which
        raises what is wrong with it or returns the values to append. The
        spans are checked apart, per column (:meth:`span_faults`)."""
        self._append_row(*(self._checked_row(obj) or row_from_json(obj, self.roles)))

    def _checked_row(self, obj) -> tuple | None:
        """The envelope and (surface, occurrences) mentions of a line that
        needs no conversion, as read; None for any other."""
        try:
            envelope = (obj["doc_id"], obj["segment_id"], obj["char_start"], obj["char_end"],
                        obj["segment_text"])
            mentions = [(m["surface"], m["occurrences"])
                        for m in [obj[key] for key in self.keys]]
            known = envelope in self._envelope_ids
        except (KeyError, TypeError):  # not an object, a key missing, or an unhashable value
            return None
        doc_id, segment_id, start, end, text = envelope
        if not known and not (type(doc_id) is str and type(segment_id) is str
                              and type(text) is str and type(start) is int
                              and type(end) is int and 0 <= start < end
                              and len(text) == end - start):
            return None
        for surface, occurrences in mentions:
            if type(surface) is not str or type(occurrences) is not list or not occurrences:
                return None
            for span in occurrences:  # two integers inside the segment
                if (type(span) is not list or len(span) != 2
                        or type(span[0]) is not int or type(span[1]) is not int
                        or not 0 <= span[0] <= len(text) or not 0 <= span[1] <= len(text)):
                    return None
        if (self.roles == INTERACTION_ROLES
                and normalize_surface(mentions[0][0]) == normalize_surface(mentions[1][0])):
            return None
        return envelope, mentions

    def _append_row(self, envelope: tuple, mentions) -> None:
        """Append one row: its segment envelope, then per role, in the order
        of ``roles``, its mention's surface and (start, end) occurrences. The
        fixture generator appends its rows here too."""
        self.segment.append(self._envelope(envelope))
        starts, ends = self.starts, self.ends
        for surface, occurrences in mentions:
            self.surface.append(self._surface(surface))
            for start, end in occurrences:
                starts.append(start)
                ends.append(end)
            self.bounds.append(len(starts))

    def span_faults(self) -> dict[int, str]:
        """The rows with a mention whose occurrences :func:`mention_fault`
        refuses (one outside its segment, one that overlaps or precedes the
        one before it, or one whose text does not normalise to the mention's
        surface), each with the fault of its first such mention."""
        roles, bounds, starts, ends = self.roles, self.bounds, self.starts, self.ends
        arity, surfaces, norms = len(roles), self.surfaces, self.norms
        texts = [envelope[4] for envelope in self.envelopes]
        faults: dict[int, str] = {}
        for m, (text, sid, a, b) in enumerate(zip(
                [texts[seg] for seg in self.segment for _ in range(arity)], self.surface,
                bounds, islice(bounds, 1, None))):
            prev = 0
            for j in range(a, b):
                start, end = starts[j], ends[j]
                if (not prev <= start < end <= len(text)
                        or text[start:end] != surfaces[sid]  # most spans read their surface
                        and normalize_surface(text[start:end]) != norms[sid]):
                    faults.setdefault(m // arity, mention_fault(
                        roles[m % arity], surfaces[sid], zip(starts[a:b], ends[a:b]), text))
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


@dataclass
class TripleLoadResult:
    triples: MentionTable
    errors: list[RecordError] = field(default_factory=list)


def _whole(value, what: str) -> int:
    """``int(value)``, but a float with a fractional part, which ``int``
    would truncate, raises ValueError naming ``what`` it is."""
    if type(value) is float and not value.is_integer():
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def row_from_json(obj: dict, roles: tuple[str, ...]) -> tuple[tuple, list[tuple]]:
    """The per-line check of a line of a mention file: its segment envelope
    (doc_id, segment_id, char_start, char_end, text) and, per role of
    ``roles``, its mention's (surface, occurrences)
    (:meth:`MentionTable.add_json`), each offset converted by ``int``. A
    line with a key missing, an offset ``int`` refuses or would truncate, a
    bad segment, a mention without occurrences, persons of a quadruple that
    normalise alike, or a span :func:`mention_fault` refuses raises what is
    wrong with it first."""
    segment_id, doc_id = obj["segment_id"], obj["doc_id"]
    start = _whole(obj["char_start"], "char_start")
    end = _whole(obj["char_end"], "char_end")
    text = obj["segment_text"]
    if not 0 <= start < end:
        raise ValueError(f"segment {segment_id!r}: bad offsets")
    if len(text) != end - start:
        raise ValueError(f"segment {segment_id!r}: text/offset length mismatch")
    mentions, norms = [], []
    for role in roles:
        mention = obj[role.lower()]
        what = f"{role} occurrence offset"
        occurrences = tuple(tuple(_whole(x, what) for x in span)
                            for span in mention["occurrences"])
        surface = mention["surface"]
        if not occurrences:
            raise ValueError(f"{role} mention {surface!r} has no occurrences")
        norms.append(normalize_surface(surface))
        mentions.append((surface, occurrences))
    if roles == INTERACTION_ROLES and norms[0] == norms[1]:
        raise ValueError("quadruple persons must differ")
    for role, (surface, occurrences) in zip(roles, mentions):
        fault = mention_fault(role, surface, occurrences, text)
        if fault:
            raise ValueError(fault)
    return (doc_id, segment_id, start, end, text), mentions


def row_json(table: MentionTable, row: int) -> dict:
    """Row ``row`` of a table as a line of its file writes it: the segment
    envelope, then each role's mention under its key (:meth:`MentionTable.add_json`)."""
    doc_id, segment_id, char_start, char_end, text = table.envelopes[table.segment[row]]
    rec = {"doc_id": doc_id, "segment_id": segment_id, "char_start": char_start,
           "char_end": char_end, "segment_text": text}
    bounds, starts, ends = table.bounds, table.starts, table.ends
    for m, key in enumerate(table.keys, row * len(table.keys)):
        a, b = bounds[m], bounds[m + 1]
        rec[key] = {"surface": table.surfaces[table.surface[m]],
                             "occurrences": [list(span) for span in zip(starts[a:b], ends[a:b])]}
    return rec


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


def read_mentions(path: str | Path, table: MentionTable, add: Callable | None = None,
                  errors: list[RecordError] | None = None) -> set[int]:
    """Read a mention file into ``table``, a row a line, and return the rows
    of the lines it refuses.

    Each line is decoded once and its values go straight into the columns
    (``add``, by default :meth:`MentionTable.add_json`); the spans are then
    checked per column (:meth:`MentionTable.span_faults`). ``add`` may
    return what else is wrong with a line it has appended (a label), which
    the line's span fault comes before. Each refused line goes into
    ``errors`` with its 1-based line number, in line order; without
    ``errors`` the first raises ``ValueError("path:line: reason")``. A
    reader whose ``add`` fills columns of its own (labels) passes no
    ``errors``, as a refused line would leave those columns out of step
    with the table. An unreadable file raises OSError.
    """
    found: list[RecordError] = []
    read = list(iter_jsonl(path, add or table.add_json, found, numbered=True))
    faults = table.span_faults()
    refused = set()
    for row, (line, problem) in enumerate(read):
        message = faults.get(row, problem)
        if message is not None:
            refused.add(row)
            found.append(RecordError(line=line, message=message))
    found.sort(key=lambda error: error.line)
    if errors is None and found:
        raise ValueError(f"{path}:{found[0].line}: {found[0].message}")
    if errors is not None:
        errors.extend(found)
    return refused


def load_triples(path: str | Path) -> TripleLoadResult:
    """Read Triple JSONL into a :class:`MentionTable` (:func:`read_mentions`);
    a bad line becomes an error record with its line number, not a crash,
    and its triple is left out. An unreadable file raises OSError."""
    result = TripleLoadResult(MentionTable(TRAJECTORY_ROLES))
    refused = read_mentions(path, result.triples, errors=result.errors)
    if refused:
        result.triples = result.triples.take(
            row for row in range(len(result.triples)) if row not in refused)
    return result


def load_candidates(path: str | Path) -> MentionTable:
    """Read Candidate JSONL into a :class:`MentionTable` (:func:`read_mentions`);
    a bad line raises ``ValueError("path:line: reason")``."""
    table = MentionTable(INTERACTION_ROLES)
    read_mentions(path, table)
    return table


def dump_rows(table: MentionTable, path: str | Path) -> None:
    """Write a table's rows, one :func:`row_json` line each."""
    write_jsonl(path, (row_json(table, row) for row in range(len(table))))


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
