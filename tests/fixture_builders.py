"""Fixture builders that only the tests use: the per-line mention objects
(segments, mentions, triples and candidates) with tables from and to
them, encoder views of them, the coverage-audit corpus, the hand-labeled
time surfaces, encoder views that cannot be marked and two graphs with a
known community answer.
They build on the package's fixture pieces (:mod:`falcon.fixtures`)."""

import random
from dataclasses import dataclass, field

from falcon.dataset import LabeledTable
from falcon.encoder import Views
from falcon.fixtures import (
    LOCATIONS,
    NAMES,
    POSITIVE_TEMPLATES,
    _build_doc,
    _make_graph,
    random_signed_graph,
)
from falcon.ingest import (
    INTERACTION_ROLES,
    TRAJECTORY_ROLES,
    Document,
    MentionTable,
    generate_candidates,
    normalize_surface,
)
from falcon.polarnet import SignedGraph

# ---------------------------------------------------------------------------
# Mention objects: the oracles the column tables are checked against

# Every role; each layout's roles are in this order
ENTITY_ROLES = ("Person1", "Person2", "Person", "Time", "Location")


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


@dataclass(frozen=True, slots=True)
class TrajectoryTriple:
    """A trajectory triple as objects: a row of a triple table."""

    segment: TextSegment
    person: EntityMention
    time: EntityMention
    location: EntityMention


@dataclass(frozen=True, slots=True)
class CandidateQuadruple:
    """A candidate quadruple as objects: a row of a candidate table."""

    segment: TextSegment
    person1: EntityMention
    person2: EntityMention
    time: EntityMention
    location: EntityMention


def add_row(table: MentionTable, segment: TextSegment, entities) -> None:
    """Append one row to ``table``: its segment and one mention per role,
    in the order of ``table.roles`` (the mentions' own roles are not read)."""
    table._append_row((segment.doc_id, segment.segment_id, segment.char_start,
                       segment.char_end, segment.text),
                      [(e.surface, e.occurrences) for e in entities])


def table_of(items) -> MentionTable:
    """Triple objects, or candidate objects, as a table, as they are."""
    items = list(items)
    roles = INTERACTION_ROLES if items and isinstance(items[0], CandidateQuadruple) \
        else TRAJECTORY_ROLES
    table = MentionTable(roles)
    for item in items:
        add_row(table, item.segment, [getattr(item, role.lower()) for role in roles])
    return table


def objects(table: MentionTable) -> list:
    """The rows of a table as :class:`TrajectoryTriple` or
    :class:`CandidateQuadruple` objects, by the table's roles."""
    build = TrajectoryTriple if table.roles == TRAJECTORY_ROLES else CandidateQuadruple
    arity, bounds, starts, ends = len(table.roles), table.bounds, table.starts, table.ends
    out = []
    for row, seg in enumerate(table.segment):
        doc_id, segment_id, start, end, text = table.envelopes[seg]
        out.append(build(TextSegment(segment_id, doc_id, start, end, text), *[
            EntityMention(role, table.surfaces[table.surface[m]],
                          tuple(zip(starts[bounds[m]:bounds[m + 1]], ends[bounds[m]:bounds[m + 1]])))
            for m, role in enumerate(table.roles, row * arity)]))
    return out


def canonical_entities(entities) -> list[EntityMention]:
    """Entities in the order of their layout's roles: (Person1, Person2,
    Time, Location) or (Person, Time, Location)."""
    return sorted(entities, key=lambda e: ENTITY_ROLES.index(e.role))


def views_of(pairs) -> Views:
    """(segment, entities) pairs of one role layout as encoder views, a row
    of one table each, the entities in canonical order; a role set of
    neither layout raises ValueError (:class:`MentionTable` refuses it)."""
    rows = [(segment, canonical_entities(entities)) for segment, entities in pairs]
    roles = {tuple(e.role for e in entities) for _, entities in rows}
    if len(roles) > 1:
        raise ValueError(f"views of more than one role layout: {sorted(roles)}")
    table = MentionTable(roles.pop() if roles else TRAJECTORY_ROLES)
    for segment, entities in rows:
        add_row(table, segment, entities)
    return Views.of(table)


def labeled_of(cands, labels, split=None) -> LabeledTable:
    """Candidate objects with their (y_inter, y_tra1, y_tra2) labels, all in
    ``split``, as a labeled table."""
    table = LabeledTable(table_of(cands))
    for ys in labels:
        for column, y in zip(table.labels.values(), ys):
            column.append(y)
        table.split.append(split)
    return table


def in_split(table: LabeledTable, *splits) -> LabeledTable:
    """The rows of a labeled table in one of ``splits``."""
    return table.take(row for row, split in enumerate(table.split) if split in splits)


# ---------------------------------------------------------------------------
# Encoder views, one of each marking outcome

def _trajectory_view(text, person, time, location):
    """A (segment, entities) trajectory view, one occurrence per entity."""
    segment = TextSegment(segment_id="t:s0", doc_id="t", char_start=0, char_end=len(text),
                          text=text)
    return segment, [EntityMention(role=role, surface=text[a:b], occurrences=((a, b),))
                     for role, (a, b) in (("Person", person), ("Time", time),
                                          ("Location", location))]


def unmarkable_views():
    """Trajectory views by name: one that marks, and one each whose
    occurrences overlap, overflow a 32-token window, and hold whitespace
    alone."""
    text = "Ada met Berg in Oslo in 1950"
    return {"ok": _trajectory_view(text, (0, 3), (24, 28), (16, 20)),
            "overlap": _trajectory_view(text, (0, 3), (2, 6), (16, 20)),
            "overflow": _trajectory_view(text + " x" * 40, (0, 3), (24, 28), (107, 108)),
            "empty": _trajectory_view(text, (0, 3), (24, 28), (3, 4))}


# ---------------------------------------------------------------------------
# Coverage-audit fixture: 12 documents with hand-listed gold interactions

def _mention(role, surface, spans) -> EntityMention:
    return EntityMention(role=role, surface=surface, occurrences=tuple(tuple(s) for s in spans))


def build_audit_fixture(seed: int = 11):
    """Gold interactions vs. extractable triples for the coverage audit.

    One gold interaction is deliberately uncapturable: its two triples carry
    time surfaces at different granularity ("March <year>" vs "<year>"), so
    pairing misses it and coverage lands at 23/24.
    """
    rng = random.Random(seed)
    documents: list[Document] = []
    triples: list[TrajectoryTriple] = []
    gold: list[CandidateQuadruple] = []
    loc_names = list(LOCATIONS)

    for i in range(12):
        person_a = NAMES[(i * 3) % len(NAMES)]
        specs = []
        for j in range(2):
            b = rng.choice([n for n in NAMES if n != person_a])
            t = str(rng.randrange(1920, 2000))
            if i == 0 and j == 0:
                t = f"March {t}"
            l = rng.choice(loc_names)
            template = rng.choice(POSITIVE_TEMPLATES)
            specs.append((template(person_a, b, t, l), person_a, b, t, l))
        doc, rows = _build_doc(f"audit{i:02d}", person_a, specs)
        documents.append(doc)
        for j, (envelope, rendered, a, b, t, l) in enumerate(rows):
            doc_id, segment_id, start, end, text = envelope
            segment = TextSegment(segment_id, doc_id, start, end, text)
            spans = rendered.spans
            time, location = _mention("Time", t, spans["T"]), _mention("Location", l, spans["L"])
            ta, tb = (TrajectoryTriple(segment, _mention("Person", person, spans[tag]),
                                       time, location) for person, tag in ((a, "A"), (b, "B")))
            if i == 0 and j == 0:
                # person B's extractor saw only the bare year inside "March <year>"
                ts, te = spans["T"][0]
                year_only = _mention("Time", t[len("March "):],
                                     [(ts + len("March "), te)])
                tb = TrajectoryTriple(segment=segment, person=tb.person,
                                      time=year_only, location=tb.location)
                triples.extend([ta, tb])
                first, second = sorted((a, b), key=normalize_surface)
                gold.append(CandidateQuadruple(
                    segment=segment,
                    person1=_mention("Person1", first, spans["A" if first == a else "B"]),
                    person2=_mention("Person2", second, spans["A" if second == a else "B"]),
                    time=ta.time, location=ta.location))
                continue
            triples.extend([ta, tb])
            gold.extend(objects(generate_candidates(table_of([ta, tb]))))
    return documents, triples, gold


# ---------------------------------------------------------------------------
# Time-surface fixture: 200 hand-labeled entries

MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]


def time_surface_fixture() -> list[tuple[str, int | None]]:
    """200 (surface, hand label) pairs; two entries are intentionally beyond
    the deterministic rules ("'98" and "AD 79"), keeping rule agreement at 99%.
    """
    entries: list[tuple[str, int | None]] = []
    for i in range(80):
        year = 1870 + i
        entries.append((str(year), year))
    for i in range(30):
        year = 1900 + i * 3
        entries.append((f"{MONTHS[i % 12]} {year}", year))
    for i in range(20):
        year = 1700 + i * 10
        entries.append((f"{year}s", year))
    for i in range(20):
        year = 1805 + i * 7
        entries.append((f"summer of {year}", year))
    for i in range(15):
        y1 = 1850 + i * 4
        entries.append((f"{y1} to {y1 + 1}", None))
    for surface in ["unknown", "antiquity", "mid-century", "the war years",
                    "n/a", "", "??", "soon", "later that year",
                    "the following spring"]:
        entries.append((surface, None))
    for i in range(10):
        year = 1601 + i * 11
        entries.append((f"early {year}", year))
    for i in range(10):
        year = 145 + i * 80
        entries.append((str(year), year))
    entries.extend([
        ("'98", 1998),       # rule yields None: two-digit
        ("AD 79", 79),       # rule yields None: two-digit
        ("19 May", None),
        ("year 2525", 2525),
        ("20000 BC", None),
    ])
    assert len(entries) == 200
    return entries


# ---------------------------------------------------------------------------
# Graph fixtures

def two_clique_graph(k: int = 10, bridge_weight: float = 1.0) -> SignedGraph:
    """Two positive k-cliques joined by one bridge edge; party = clique."""
    edges = {}
    for i in range(k):
        for j in range(i + 1, k):
            edges[(i, j)] = 2.0
            edges[(i + k, j + k)] = 2.0
    edges[(k - 1, k)] = bridge_weight
    parties = ["Republican"] * k + ["Democrat"] * k
    return _make_graph(2 * k, edges, parties)


def partition_blind_graph(n: int = 50, p: float = 0.12,
                          seed: int = 5) -> SignedGraph:
    """Uniform-weight random graph with parties unrelated to structure."""
    return random_signed_graph(n, p, seed=seed, weights=(1.0,))
