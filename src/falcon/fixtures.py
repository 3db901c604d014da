"""Deterministic fixture corpora for tests, demos, and offline runs.

Everything here is synthesized from fixed seeds: biography documents built
from sentence templates with exact occurrence spans, the matching
trajectory triples and labeled candidates, party/birthplace attribute
tables, a gazetteer, canned typing responses, and small graphs for the
null-model contracts. Positive and negative templates use distinct wording
so a trained classifier has signal to find.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .dataset import LabeledTable
from .extract import InteractionRecord
from .ingest import (
    INTERACTION_ROLES,
    TRAJECTORY_ROLES,
    Document,
    EntityMention,
    MentionTable,
    TextSegment,
    TrajectoryTriple,
    generate_candidates,
    normalize_surface,
)

if TYPE_CHECKING:
    from .polarnet import SignedGraph

NAMES = [
    "Niemans", "Berg", "Joseph", "Mary", "Ashford", "Blake", "Corwin", "Devlin",
    "Ellery", "Farrow", "Garner", "Holloway", "Irving", "Jepson", "Keating",
    "Lambert", "Mercer", "Norwood", "Oakes", "Prescott", "Quimby", "Rutland",
    "Severin", "Thatcher", "Underhill", "Vance", "Whitfield", "Yardley",
    "Abbott", "Bellamy", "Crane", "Dunmore", "Easton", "Fenwick", "Granger",
    "Hartley", "Ingram", "Joplin", "Kessler", "Loring",
]

LOCATIONS = {
    "The Hague": (52.0767, 4.2986, None),
    "Boston": (42.3601, -71.0589, "Massachusetts"),
    "Austin": (30.2672, -97.7431, "Texas"),
    "Albany": (42.6526, -73.7562, "New York"),
    "Madison": (43.0731, -89.4012, "Wisconsin"),
    "Denver": (39.7392, -104.9903, "Colorado"),
    "Salem": (44.9429, -123.0351, "Oregon"),
    "Concord": (43.2081, -71.5376, "New Hampshire"),
    "New York": (40.7128, -74.0060, "New York"),
    "Washington": (38.9072, -77.0369, "District of Columbia"),
    "Savannah": (32.0809, -81.0912, "Georgia"),
    "Lexington": (38.0406, -84.5037, "Kentucky"),
}


# ---------------------------------------------------------------------------
# Sentence templates with exact spans

@dataclass
class RenderedParagraph:
    text: str
    spans: dict  # role tag ("A","B","T","L") -> list of (start, end)
    y_inter: int
    y_tra_a: int
    y_tra_b: int


def _render(parts, y_inter, y_tra_a, y_tra_b) -> RenderedParagraph:
    text = ""
    spans: dict = {"A": [], "B": [], "T": [], "L": []}
    for tag, value in parts:
        if tag == "lit":
            text += value
        else:
            spans[tag].append((len(text), len(text) + len(value)))
            text += value
    return RenderedParagraph(text=text, spans=spans, y_inter=y_inter,
                             y_tra_a=y_tra_a, y_tra_b=y_tra_b)


def _pos_met(a, b, t, l):
    return _render([
        ("lit", "In "), ("T", t), ("lit", ", "), ("A", a), ("lit", " met "),
        ("B", b), ("lit", " in "), ("L", l),
        ("lit", " and the two worked closely for months."),
    ], 1, 1, 1)


def _pos_festival(a, b, t, l):
    return _render([
        ("A", a), ("lit", " and "), ("B", b),
        ("lit", " organized a festival together in "), ("L", l),
        ("lit", " in "), ("T", t), ("lit", ". "), ("A", a),
        ("lit", " called it a shared triumph."),
    ], 1, 1, 1)


def _pos_debate(a, b, t, l):
    return _render([
        ("lit", "During "), ("T", t), ("lit", ", "), ("A", a),
        ("lit", " debated "), ("B", b), ("lit", " before a crowd in "),
        ("L", l), ("lit", "."),
    ], 1, 1, 1)


def _neg_afar(a, b, t, l):
    return _render([
        ("A", a), ("lit", " moved to "), ("L", l), ("lit", " in "), ("T", t),
        ("lit", ". From a distance, "), ("B", b),
        ("lit", " wrote letters praising "), ("A", a), ("lit", "."),
    ], 0, 1, 0)


def _neg_never_met(a, b, t, l):
    return _render([
        ("lit", "Both "), ("A", a), ("lit", " and "), ("B", b),
        ("lit", " lived in "), ("L", l), ("lit", " in "), ("T", t),
        ("lit", ", though the two never crossed paths."),
    ], 0, 1, 1)


def _neg_recalled(a, b, t, l):
    return _render([
        ("lit", "Long after "), ("T", t), ("lit", ", "), ("A", a),
        ("lit", " recalled reading about "), ("B", b),
        ("lit", " and the distant affair of "), ("L", l), ("lit", "."),
    ], 0, 0, 0)


POSITIVE_TEMPLATES = [_pos_met, _pos_festival, _pos_debate]
NEGATIVE_TEMPLATES = [_neg_afar, _neg_never_met, _neg_recalled]


def _mention(role, surface, spans) -> EntityMention:
    return EntityMention(role=role, surface=surface,
                         occurrences=tuple(tuple(s) for s in spans))


def paragraph_triples(segment: TextSegment, rendered: RenderedParagraph,
                      a: str, b: str, t: str, l: str):
    """Two trajectory triples (one per person) sharing time/location spans."""
    time_m = _mention("Time", t, rendered.spans["T"])
    loc_m = _mention("Location", l, rendered.spans["L"])
    triple_a = TrajectoryTriple(segment=segment,
                                person=_mention("Person", a, rendered.spans["A"]),
                                time=time_m, location=loc_m)
    triple_b = TrajectoryTriple(segment=segment,
                                person=_mention("Person", b, rendered.spans["B"]),
                                time=time_m, location=loc_m)
    return triple_a, triple_b


# ---------------------------------------------------------------------------
# The 50-document fixture corpus

@dataclass
class FixtureCorpus:
    """The documents, the triples (``labeled_triples.mentions``, with each
    triple's trajectory label) and the labeled candidates (``examples``) of
    a fixture corpus, with its attribute tables and canned responses."""

    documents: list[Document] = field(default_factory=list)
    labeled_triples: LabeledTable = field(
        default_factory=lambda: LabeledTable(MentionTable(TRAJECTORY_ROLES)))
    examples: LabeledTable = field(
        default_factory=lambda: LabeledTable(MentionTable(INTERACTION_ROLES)))
    node_attrs: dict = field(default_factory=dict)
    gazetteer: dict = field(default_factory=dict)
    llm_responses: list = field(default_factory=list)

    @property
    def triples(self) -> MentionTable:
        return self.labeled_triples.mentions


def _build_doc(doc_id: str, person_a: str, paragraphs: list[tuple]) -> tuple:
    """Assemble a document from rendered paragraphs; returns
    (document, [(segment, rendered, a, b, t, l), ...])."""
    intro = f"{person_a} spent a lifetime between small towns and archives."
    texts = [intro] + [p[0].text for p in paragraphs]
    doc_text = "\n\n".join(texts)
    doc = Document(doc_id=doc_id, title=person_a, text=doc_text)
    out = []
    offset = len(intro) + 2
    for i, (rendered, a, b, t, l) in enumerate(paragraphs):
        segment = TextSegment(
            segment_id=f"{doc_id}:s{i + 1}", doc_id=doc_id,
            char_start=offset, char_end=offset + len(rendered.text),
            text=rendered.text)
        out.append((segment, rendered, a, b, t, l))
        offset += len(rendered.text) + 2
    return doc, out


def build_fixture_corpus(n_docs: int = 50, seed: int = 7) -> FixtureCorpus:
    """A deterministic biography corpus with labels, attributes, and canned
    typing responses. Documents 0 and 1 reproduce the canonical positive
    (Niemans/Berg, 1950, The Hague) and negative (Joseph/Mary, 1970,
    New York) cases; the rest are drawn from the template pools.
    """
    rng = random.Random(seed)
    corpus = FixtureCorpus()
    corpus.gazetteer = {
        name: {"lat": lat, "lon": lon, **({"state": state} if state else {})}
        for name, (lat, lon, state) in LOCATIONS.items()
    }
    loc_names = list(LOCATIONS)
    for i, name in enumerate(NAMES):
        home = loc_names[i % len(loc_names)]
        lat, lon, state = LOCATIONS[home]
        corpus.node_attrs[normalize_surface(name)] = {
            "name": name,
            "party": "Republican" if i % 2 == 0 else "Democrat",
            "birthplace": [lat, lon],
            "state": state or "Massachusetts",
            "profession": ["Politics & Law", "Education", "Journalism"][i % 3],
        }

    paragraphs = []  # (segment_id, rendered, person a) of each paragraph

    def add_paragraph_set(doc_id, person_a, specs):
        doc, rows = _build_doc(doc_id, person_a, specs)
        corpus.documents.append(doc)
        y_tra = corpus.labeled_triples.labels["y_tra"]
        for segment, rendered, a, b, t, l in rows:
            for triple, y in zip(paragraph_triples(segment, rendered, a, b, t, l),
                                 (rendered.y_tra_a, rendered.y_tra_b)):
                corpus.triples.add(segment, (triple.person, triple.time, triple.location))
                y_tra.append(y)
                corpus.labeled_triples.split.append(None)
            paragraphs.append((segment.segment_id, rendered, a))

    # canonical docs
    fig1a = _pos_met("Niemans", "Berg", "1950", "The Hague")
    add_paragraph_set("fix0000", "Niemans", [(fig1a, "Niemans", "Berg", "1950",
                                              "The Hague")])
    fig1b_neg = _neg_afar("Joseph", "Mary", "1970", "New York")
    fig1b_pos = _pos_met("Joseph", "Mary", "1993", "Washington")
    add_paragraph_set("fix0001", "Joseph",
                      [(fig1b_neg, "Joseph", "Mary", "1970", "New York"),
                       (fig1b_pos, "Joseph", "Mary", "1993", "Washington")])

    for i in range(2, n_docs):
        person_a = NAMES[i % len(NAMES)]
        others = [n for n in NAMES if n != person_a]
        specs = []
        for _ in range(rng.choice([2, 3])):
            b = rng.choice(others)
            t = str(rng.randrange(1950, 2015))
            l = rng.choice(loc_names)
            template = rng.choice(POSITIVE_TEMPLATES + NEGATIVE_TEMPLATES)
            specs.append((template(person_a, b, t, l), person_a, b, t, l))
        add_paragraph_set(f"fix{i:04d}", person_a, specs)

    # A paragraph is a segment of its two triples, so it has at most one
    # candidate; the examples are in the order of their paragraphs.
    cands = generate_candidates(corpus.triples)
    row_of = {cands.envelopes[seg][1]: row for row, seg in enumerate(cands.segment)}
    paired = [(row_of[segment_id], rendered, a) for segment_id, rendered, a in paragraphs
              if segment_id in row_of]
    corpus.examples = LabeledTable(cands.take(row for row, _, _ in paired))
    labels = corpus.examples.labels
    for row, rendered, a in paired:
        if cands.norms[cands.surface[4 * row]] == normalize_surface(a):
            y1, y2 = rendered.y_tra_a, rendered.y_tra_b
        else:
            y1, y2 = rendered.y_tra_b, rendered.y_tra_a
        for name, y in zip(labels, (rendered.y_inter, y1, y2)):
            labels[name].append(y)
        corpus.examples.split.append(None)

    corpus.llm_responses = [
        "Cooperative", "Adversarial", "Neutral", "Cooperative",
        "Adversarial", "Cooperative", "Neutral", "Adversarial",
    ]
    return corpus


# ---------------------------------------------------------------------------
# Graph fixtures

def _make_graph(n: int, edges: dict, parties=None) -> SignedGraph:
    # Imported here: polarnet loads NumPy, which `falcon fixture` never needs.
    from .polarnet import SignedGraph

    nodes = [f"n{i:02d}" for i in range(n)]
    attrs = {}
    for i, node in enumerate(nodes):
        party = parties[i] if parties else ("Republican" if i % 2 == 0 else "Democrat")
        attrs[node] = {"name": node, "party": party}
    return SignedGraph.from_mapping(nodes, attrs, edges)


def random_signed_graph(n: int, p: float, seed: int,
                        weights=(-2.0, -1.0, 1.0, 2.0)) -> SignedGraph:
    rng = random.Random(seed)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges[(i, j)] = rng.choice(weights)
    return _make_graph(n, edges)


def null_model_fixture() -> SignedGraph:
    """The 30-node graph used by the null-model contract checks."""
    return random_signed_graph(30, 0.18, seed=3, weights=(-2.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# Political records fixture for trends / polarization series

def political_records_fixture(seed: int = 13, years=range(1960, 2021, 5),
                              per_year: int = 12) -> tuple[list[InteractionRecord], dict]:
    """Typed records whose adversarial share among inter-party pairs grows
    over time, over a 20-person two-party roster."""
    rng = random.Random(seed)
    roster = NAMES[:20]
    attrs = {}
    loc_names = list(LOCATIONS)
    for i, name in enumerate(roster):
        home = loc_names[i % len(loc_names)]
        lat, lon, state = LOCATIONS[home]
        attrs[normalize_surface(name)] = {
            "name": name, "party": "Republican" if i < 10 else "Democrat",
            "birthplace": [lat, lon], "state": state or "Massachusetts",
            "profession": "Politics & Law",
        }
    records: list[InteractionRecord] = []
    counter = 0
    for year in years:
        progress = (year - 1960) / 60.0
        for _ in range(per_year):
            p1, p2 = rng.sample(roster, 2)
            same_party = (attrs[normalize_surface(p1)]["party"]
                          == attrs[normalize_surface(p2)]["party"])
            if same_party:
                itype = "Cooperative" if rng.random() < 0.75 else "Neutral"
            else:
                adversarial_p = 0.3 + 0.55 * progress
                roll = rng.random()
                if roll < adversarial_p:
                    itype = "Adversarial"
                elif roll < adversarial_p + 0.25:
                    itype = "Cooperative"
                else:
                    itype = "Neutral"
            loc = rng.choice(loc_names)
            lat, lon, state = LOCATIONS[loc]
            records.append(InteractionRecord(
                record_id=f"pol{counter:05d}", doc_id="polfix",
                segment_id="polfix:s0", char_start=0, char_end=1,
                person1=min(p1, p2), person2=max(p1, p2),
                time_surface=str(year), time_year=year, location=loc,
                score=0.9, lat=lat, lon=lon, state=state,
                interaction_type=itype))
            counter += 1
    return records, attrs
