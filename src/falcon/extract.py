"""Batch corpus extraction: candidates -> model scores -> interaction records.

Positively classified candidates become interaction records with a
normalized year, optional geocodes from a gazetteer file, and (after the
typing step) one of three interaction types. Extraction is resumable by
document and byte-identical across clean re-runs.

:func:`extract_corpus` works on columns from the triples to the record
lines: it pairs a triple table into a candidate table
(:func:`~falcon.ingest.generate_candidates`), scores and labels chunks of
its rows (:func:`~falcon.training.predict`) and builds each record line from
the positive row's columns (:func:`record_json`). :class:`InteractionRecord` is
the record as the typing step and the analyses read it back.
"""

from __future__ import annotations

import json
import operator
import os
import re
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, make_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .ingest import (
    MentionTable,
    dumps_record,
    generate_candidates,
    is_jsonl_line,
    iter_jsonl,
    load_json,
    load_name_table,
    write_jsonl,
)

INTERACTION_TYPES = ("Adversarial", "Cooperative", "Neutral")
YEAR_RANGE = (1000, 2024)
# Tries per record before the typing step gives up on a failing transport.
LLM_ATTEMPTS = 3
# Seconds the HTTP client waits on a silent endpoint before the try fails.
LLM_TIMEOUT_S = 30.0
# Seconds before the first retry of a failed try; each later wait doubles.
LLM_BACKOFF_S = 0.5
# Candidates per scoring call of ``extract_corpus``, which groups whole
# documents up to this many (a larger document is a call of its own), and of
# ``falcon predict``. It is the largest chunk that keeps perfbench
# ``extract``'s peak RSS within 46.1 MB, its peak when the chunk was 64
# (d = 8, 2 vCPU, seed 1, 20 s runs): 256 scores 1,166 items per reference
# second at 45.8 MB, against 945 at 45.2 MB at 64, 1,174 at 46.5 MB at 384
# and 1,199 at 47.0 MB at 512. At d = 768 a fill of 256 candidates peaks
# 63 MB above its start (33 MB at 64).
EXTRACT_CHUNK = 256

_YEAR_RE = re.compile(r"(?<!\d)(\d{3,4})(?!\d)")


@lru_cache(maxsize=1 << 12)  # a corpus repeats a few thousand time surfaces
def normalize_time(surface: str) -> int | None:
    """Extract a single plausible 3-4 digit year; None when absent or ambiguous.

    Plausible means 100-999 for three digits and 1000-2999 for four. Two or
    more distinct plausible years (ranges like "1950 to 1953") are ambiguous.
    """
    candidates = set()
    for match in _YEAR_RE.finditer(surface):
        year = int(match.group(1))
        if (100 <= year <= 999) or (1000 <= year <= 2999):
            candidates.add(year)
    if len(candidates) != 1:
        return None
    return candidates.pop()


@dataclass
class InteractionRecord:
    record_id: str
    doc_id: str
    segment_id: str
    char_start: int
    char_end: int
    person1: str
    person2: str
    time_surface: str
    time_year: int | None
    location: str
    score: float
    lat: float | None = None
    lon: float | None = None
    state: str | None = None
    interaction_type: str | None = None
    type_flag: str | None = None

    def to_json(self) -> dict:
        rec = {key: getattr(self, key) for key in RECORD_KEYS}
        for key in OPTIONAL_RECORD_KEYS:
            value = getattr(self, key)
            if value is not None:
                rec[key] = value
        return rec

    @classmethod
    def from_json(cls, obj: dict) -> "InteractionRecord":
        """Rebuild a record; every key that ``to_json`` always writes is
        required, and every value that a record table keeps is checked as
        :func:`_record_columns` checks it."""
        _record_columns(obj)
        return cls(*_required_values(obj), *map(obj.get, OPTIONAL_RECORD_KEYS))


# Fields without a default are always written and required on read; the
# rest are written only when set. Both tuples follow the field order.
RECORD_KEYS = tuple(f.name for f in fields(InteractionRecord) if f.default is MISSING)
OPTIONAL_RECORD_KEYS = tuple(f.name for f in fields(InteractionRecord)
                             if f.default is not MISSING)
_required_values = operator.itemgetter(*RECORD_KEYS)  # KeyError names a missing key
# The four required values a record table keeps, out of all of them in RECORD_KEYS order
_kept_values = operator.itemgetter(*map(RECORD_KEYS.index,
                                        ("record_id", "person1", "person2", "time_year")))
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
_NUMBER = (int, float)


def _refused(key: str, value, expected: str) -> ValueError:
    return ValueError(f"{key} must be {expected}, not {type(value).__name__}")


def _record_columns(obj: dict) -> tuple:
    """(record_id, person1, person2, time_year, interaction_type, lat, lon,
    state) of a record object, checked: the people are strings, the year an
    int64 above the least one or null, the type and the state strings or
    null, lat and lon numbers or null (a bool is none of these). A missing
    required key raises KeyError, a bad value ``ValueError(reason)``. Both
    readers of records call it: :meth:`InteractionRecord.from_json` and
    :func:`~falcon.polarnet.load_record_table`."""
    record_id, person1, person2, year = _kept_values(_required_values(obj))
    itype, lat, lon, state = (obj.get("interaction_type"), obj.get("lat"),
                              obj.get("lon"), obj.get("state"))
    if type(person1) is not str:
        raise _refused("person1", person1, "a string")
    if type(person2) is not str:
        raise _refused("person2", person2, "a string")
    if year is not None:
        if type(year) is not int:
            raise _refused("time_year", year, "an integer or null")
        if not _INT64_MIN < year <= _INT64_MAX:
            raise ValueError(f"time_year {year} is out of range")
    if itype is not None and type(itype) is not str:
        raise _refused("interaction_type", itype, "a string or null")
    if lat is not None and type(lat) not in _NUMBER:
        raise _refused("lat", lat, "a number or null")
    if lon is not None and type(lon) not in _NUMBER:
        raise _refused("lon", lon, "a number or null")
    if state is not None and type(state) is not str:
        raise _refused("state", state, "a string or null")
    return record_id, person1, person2, year, itype, lat, lon, state


# The gazetteer values a record takes, in the order of OPTIONAL_RECORD_KEYS
_GEOCODE_KEYS = ("lat", "lon", "state")


def _is_number(value) -> bool:
    return type(value) in _NUMBER  # a bool is not a number


_GAZETTEER_CHECKS = (("lat", _is_number, "a number"), ("lon", _is_number, "a number"),
                     ("state", lambda value: type(value) is str, "a string"))


def load_gazetteer(path: str | Path) -> dict:
    """Location surface -> {lat, lon, state?}, keys normalized for lookup.
    A ``lat`` or ``lon`` that is not a number, or a ``state`` that is not a
    string, raises ``ValueError("path: reason")``."""
    return {norm: value for norm, (_, value) in load_name_table(path, _GAZETTEER_CHECKS).items()}


def record_json(cands: MentionTable, row: int, score: float,
                gazetteer: dict | None = None) -> dict:
    """The interaction record of candidate ``row`` of a table, as
    :meth:`InteractionRecord.to_json` writes it: its id hashes the segment
    and the normalized surfaces; its year is the time surface's
    (:func:`normalize_time`) when inside ``YEAR_RANGE``; a gazetteer entry
    of its location adds the entry's lat, lon and state."""
    import hashlib  # here: loading it is a few ms of every command's start-up

    doc_id, segment_id, char_start, char_end, _ = cands.envelopes[cands.segment[row]]
    person1, person2, time_, location = cands.surface[4 * row:4 * row + 4]
    norms, surfaces = cands.norms, cands.surfaces
    key = json.dumps([doc_id, segment_id, norms[person1], norms[person2], norms[time_],
                      norms[location]])
    year = normalize_time(surfaces[time_])
    if year is not None and not (YEAR_RANGE[0] <= year <= YEAR_RANGE[1]):
        year = None
    rec = dict(zip(RECORD_KEYS, (
        hashlib.sha1(key.encode()).hexdigest()[:12], doc_id, segment_id, char_start, char_end,
        surfaces[person1], surfaces[person2], surfaces[time_], year, surfaces[location], score)))
    hit = gazetteer.get(norms[location]) if gazetteer else None
    if hit:
        for name in _GEOCODE_KEYS:
            if hit.get(name) is not None:
                rec[name] = hit[name]
    return rec


# A document's candidates and what became of them: its state-log line holds
# these counts, and the summary holds their sums over the documents.
DOC_COUNTS = ("candidates", "positives", "negatives", "skipped")
ExtractSummary = make_dataclass(
    "ExtractSummary", [(key, int, 0) for key in (*DOC_COUNTS, "documents", "excluded_lines")],
    namespace={"to_json": asdict, "__module__": __name__})
STATE_KEYS = ("doc_id", *DOC_COUNTS, "out_bytes")


def _add_document(summary: ExtractSummary, counts: dict) -> None:
    for key in DOC_COUNTS:
        setattr(summary, key, getattr(summary, key) + counts[key])
    summary.documents += 1


def _state_entry(obj: dict) -> dict:
    return {key: obj[key] for key in STATE_KEYS}


def _read_state_log(state_path: str | Path) -> list[dict]:
    """Entries of the finished documents in a resume-state log.

    A torn last line (no trailing newline, or a line that :func:`iter_jsonl`
    cannot decode) is what a kill during the append leaves; it is cut off the
    file so appends start on a fresh line. A bad line anywhere else raises
    ``path:line``.
    """
    path = Path(state_path)
    if not path.exists():
        return []
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep:
        last = data.rfind(b"\n", 0, keep - 1) + 1
        if not is_jsonl_line(data[last:keep]):
            keep = last
    if keep < len(data):
        os.truncate(path, keep)
    return list(iter_jsonl(path, _state_entry))


def _append_state(log, entry: dict) -> None:
    log.write(dumps_record(entry) + "\n")
    log.flush()


def _document_chunks(docs: Iterable[tuple[str, Sequence]]):
    """Consecutive runs of (doc_id, candidates) that hold at most
    ``EXTRACT_CHUNK`` candidates together; a larger document is a run of
    its own."""
    run: list[tuple[str, Sequence]] = []
    size = 0
    for doc in docs:
        if run and size + len(doc[1]) > EXTRACT_CHUNK:
            yield run
            run, size = [], 0
        run.append(doc)
        size += len(doc[1])
    if run:
        yield run


def extract_corpus(triples: MentionTable, model,
                   out_path: str | Path, threshold: float | None = None,
                   summary_path: str | Path | None = None,
                   state_path: str | Path | None = None,
                   gazetteer: dict | None = None, excluded_lines: int = 0) -> ExtractSummary:
    """Pair, score, and stream positive records per document in sorted order.

    ``triples`` is a triple table (:func:`~falcon.ingest.load_triples`).
    Documents are scored and labeled in chunks of whole documents, one
    :func:`~falcon.training.predict` call per chunk of at most
    ``EXTRACT_CHUNK`` candidates, by ``threshold`` (default: the model's
    ``config.threshold``); a candidate that ``predict`` labels 1 is a
    record, one it gives a reason is skipped. A candidate's score depends
    only on the candidate and the model, not on its chunk, so the output is
    the same bytes however the documents are chunked. ``excluded_lines``
    counts the triple lines the caller could not read; it is reported in
    the summary (and its file) as is.

    With ``state_path`` the run is resumable: after each document's records
    are flushed, one line with its doc_id, counts and the output's byte size
    is appended to the state log. A restart skips those documents (restoring
    their counts) and truncates the output to the last recorded size, so a
    run killed at any point resumes without duplicating or losing records.
    """
    from .training import predict

    summary = ExtractSummary(excluded_lines=excluded_lines)
    entries = _read_state_log(state_path) if state_path else []
    for entry in entries:
        _add_document(summary, entry)
    done = {entry["doc_id"] for entry in entries}
    if entries:
        # Drop the records of a document whose run died before its state line.
        os.truncate(out_path, entries[-1]["out_bytes"])
    doc_ids = triples.doc_ids()
    if done:
        triples = triples.take(row for row, doc_id in enumerate(doc_ids) if doc_id not in done)
    # a document's candidates are consecutive rows, the documents in sorted order
    cands = generate_candidates(triples)
    sizes = Counter(cands.doc_ids())
    pending, end = [], 0
    for doc_id in sorted(set(doc_ids) - done):
        pending.append((doc_id, range(end, end + sizes[doc_id])))
        end += sizes[doc_id]

    with (open(out_path, "a" if done else "w", encoding="utf-8") as out,
          open(state_path, "a", encoding="utf-8") if state_path else nullcontext() as log):
        for chunk in _document_chunks(pending):
            first = chunk[0][1].start
            scores, labels, reasons = predict(
                model, cands.take(range(first, chunk[-1][1].stop)), threshold)
            scores, labels = scores.tolist(), labels.tolist()
            for doc_id, rows in chunk:
                counts = dict.fromkeys(DOC_COUNTS, 0)
                counts["candidates"] = len(rows)
                for row in rows:
                    i = row - first
                    if reasons[i] is not None:
                        counts["skipped"] += 1
                    elif labels[i]:
                        counts["positives"] += 1
                        record = record_json(cands, row, scores[i], gazetteer)
                        out.write(dumps_record(record) + "\n")
                    else:
                        counts["negatives"] += 1
                out.flush()
                _add_document(summary, counts)
                if state_path:
                    _append_state(log, {"doc_id": doc_id, **counts, "out_bytes": out.tell()})

    if summary_path:
        Path(summary_path).write_text(
            json.dumps(summary.to_json(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    return summary


def load_records(path: str | Path) -> list[InteractionRecord]:
    return list(iter_jsonl(path, InteractionRecord.from_json))


def dump_records(records: Iterable[InteractionRecord], path: str | Path) -> None:
    write_jsonl(path, (rec.to_json() for rec in records))


# ---------------------------------------------------------------------------
# Interaction typing via a chat-completion client

class TransportError(RuntimeError):
    pass


class FixtureLLMClient:
    """Replays canned responses from a JSON list, cycling by call index."""

    def __init__(self, path: str | Path):
        self.responses = load_json(path)
        if not isinstance(self.responses, list) or not self.responses:
            raise ValueError(f"{path}: expected a non-empty JSON list of responses")
        self.calls = 0

    def complete(self, prompt: str) -> str:
        response = self.responses[self.calls % len(self.responses)]
        self.calls += 1
        return response


class HttpChatClient:
    """Minimal chat-completion client against an OpenAI-style endpoint."""

    def __init__(self, endpoint: str, model: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key

    def complete(self, prompt: str) -> str:
        # Imported here: urllib.request pulls in http.client and email, a
        # noticeable share of the start-up of every command that never calls it.
        import urllib.error
        import urllib.request

        body = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 1.0,
        }).encode("utf-8")
        req = urllib.request.Request(self.endpoint, data=body, method="POST")
        req.add_header("Content-Type", "application/json")
        if self.api_key:
            req.add_header("Authorization", f"Bearer {self.api_key}")
        try:
            with urllib.request.urlopen(req, timeout=LLM_TIMEOUT_S) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {payload!r}") from exc


def make_llm_client(spec: str, model: str = "gpt-4o-mini"):
    """Build a client from a CLI spec: ``fixture:<path>`` or ``http(s)://...``;
    an HTTP client sends the key in ``FALCON_LLM_API_KEY``, if set."""
    if spec.startswith("fixture:"):
        return FixtureLLMClient(spec[len("fixture:"):])
    if spec.startswith("http://") or spec.startswith("https://"):
        return HttpChatClient(spec, model=model,
                              api_key=os.environ.get("FALCON_LLM_API_KEY"))
    raise ValueError(f"unknown llm client spec {spec!r}")


def type_prompt(record: InteractionRecord) -> str:
    year = record.time_year if record.time_year is not None else record.time_surface
    return (
        f"Two political figures, {record.person1} and {record.person2}, "
        f"interacted in {record.location} in {year}.\n"
        "Classify this interaction. Answer with exactly one word:\n"
        "Adversarial - conflicting political interests (campaigns against each "
        "other, debates, lawsuits).\n"
        "Cooperative - joint action toward shared political goals (co-sponsored "
        "work, endorsements, coalitions).\n"
        "Neutral - personal, ceremonial, or otherwise non-political contact.")


_TYPE_RE = re.compile("|".join(INTERACTION_TYPES), re.IGNORECASE)


def parse_type(response: str) -> str | None:
    match = _TYPE_RE.search(response)
    if not match:
        return None
    return match.group(0).capitalize()


def classify_type(record: InteractionRecord, llm_client) -> InteractionRecord:
    """Attach one of the three interaction types to a record.

    Unparseable responses default to Neutral with a ``defaulted`` flag so the
    record accounting stays total; transport failures are retried with
    exponential backoff and finally marked ``unclassified``.
    """
    prompt = type_prompt(record)
    response = None
    for attempt in range(LLM_ATTEMPTS):
        try:
            response = llm_client.complete(prompt)
            break
        except TransportError:
            if attempt == LLM_ATTEMPTS - 1:
                record.interaction_type = None
                record.type_flag = "unclassified"
                return record
            time.sleep(LLM_BACKOFF_S * (2 ** attempt))
    parsed = parse_type(response)
    if parsed is None:
        record.interaction_type = "Neutral"
        record.type_flag = "defaulted"
    else:
        record.interaction_type = parsed
        record.type_flag = None
    return record


@dataclass
class TypingSummary:
    counts: dict = field(default_factory=dict)
    defaulted: int = 0
    unclassified: int = 0


def classify_records(records: Sequence[InteractionRecord], llm_client) -> TypingSummary:
    summary = TypingSummary()
    for rec in records:
        classify_type(rec, llm_client)
        if rec.type_flag == "unclassified":
            summary.unclassified += 1
            continue
        if rec.type_flag == "defaulted":
            summary.defaulted += 1
        summary.counts[rec.interaction_type] = summary.counts.get(
            rec.interaction_type, 0) + 1
    return summary
