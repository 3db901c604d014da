"""Fixture builders that only the tests use: the coverage-audit corpus, the
hand-labeled time surfaces, encoder views that cannot be marked and two
graphs with a known community answer.
They build on the package's fixture pieces (:mod:`falcon.fixtures`)."""

import random

from falcon.fixtures import (
    LOCATIONS,
    NAMES,
    POSITIVE_TEMPLATES,
    _build_doc,
    _make_graph,
    _mention,
    paragraph_triples,
    random_signed_graph,
)
from falcon.ingest import (
    CandidateQuadruple,
    Document,
    EntityMention,
    MentionTable,
    TextSegment,
    TrajectoryTriple,
    generate_candidates,
    normalize_surface,
)
from falcon.polarnet import SignedGraph


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
        for j, (segment, rendered, a, b, t, l) in enumerate(rows):
            ta, tb = paragraph_triples(segment, rendered, a, b, t, l)
            if i == 0 and j == 0:
                # person B's extractor saw only the bare year inside "March <year>"
                ts, te = rendered.spans["T"][0]
                year_only = _mention("Time", t[len("March "):],
                                     [(ts + len("March "), te)])
                tb = TrajectoryTriple(segment=segment, person=tb.person,
                                      time=year_only, location=tb.location)
                triples.extend([ta, tb])
                first, second = sorted((a, b), key=normalize_surface)
                gold.append(CandidateQuadruple(
                    segment=segment,
                    person1=_mention("Person1", first,
                                     rendered.spans["A" if first == a else "B"]),
                    person2=_mention("Person2", second,
                                     rendered.spans["A" if second == a else "B"]),
                    time=ta.time, location=ta.location))
                continue
            triples.extend([ta, tb])
            gold.extend(generate_candidates(MentionTable.from_triples([ta, tb])).objects())
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
