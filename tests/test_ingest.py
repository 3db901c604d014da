import itertools
import json
import random
import struct
from dataclasses import replace

import pytest

from falcon.dataset import load_examples, load_labeled_triples
from falcon.extract import load_records
from falcon.ingest import (
    TRAJECTORY_ROLES,
    EntityMention,
    RecordError,
    TextSegment,
    TrajectoryTriple,
    dump_rows,
    dumps_record,
    generate_candidates,
    iter_jsonl,
    load_candidates,
    load_documents,
    load_triples,
    row_from_json,
    row_json,
    write_jsonl,
)
from falcon.polarnet import load_record_table
from fixture_builders import CandidateQuadruple, objects, table_of


def test_a_mention_carries_its_normalized_surface():
    mention = EntityMention(role="Person1", surface=" Ada\u3000 LOVELACE ",
                            occurrences=((0, 3),))
    assert mention.norm == "ada lovelace"
    # replace builds a new mention, so its surface is normalized again
    assert replace(mention, surface="Berg").norm == "berg"
    assert replace(mention, role="Person").norm == "ada lovelace"
    assert "norm" not in repr(mention)
    assert mention == replace(mention) and hash(mention) == hash(replace(mention))


def make_segment(text, doc_id="d1", seg_id="d1:s0", start=0):
    return TextSegment(segment_id=seg_id, doc_id=doc_id, char_start=start,
                       char_end=start + len(text), text=text)


def make_triple(seg, person, time, location):
    def mention(role, surface):
        spans, offset = [], 0
        while True:
            i = seg.text.find(surface, offset)
            if i < 0:
                break
            spans.append((i, i + len(surface)))
            offset = i + len(surface)
        return EntityMention(role=role, surface=surface, occurrences=tuple(spans))

    return TrajectoryTriple(segment=seg, person=mention("Person", person),
                            time=mention("Time", time),
                            location=mention("Location", location))


# ---------------------------------------------------------------------------
# triple JSONL

def _fig1a_triples():
    seg = make_segment("In 1950, Niemans met Berg in The Hague and the two "
                       "worked closely for months.")
    return [make_triple(seg, "Niemans", "1950", "The Hague"),
            make_triple(seg, "Berg", "1950", "The Hague")]


def test_load_triples_well_formed(tmp_path):
    path = tmp_path / "triples.jsonl"
    triples = _fig1a_triples() + [make_triple(
        make_segment("In 1971, Ash met Bell in Rome today.", seg_id="d1:s1"),
        "Ash", "1971", "Rome")]
    dump_rows(table_of(triples), path)
    result = load_triples(path)
    assert len(result.triples) == 3
    assert result.errors == []


def test_load_triples_overlapping_spans_collected(tmp_path):
    triples = _fig1a_triples()
    good = [row_json(table_of([t]), 0) for t in triples]
    bad = json.loads(json.dumps(good[0]))
    bad["person"]["occurrences"] = [[9, 16], [12, 20]]
    path = tmp_path / "triples.jsonl"
    with open(path, "w") as fh:
        for rec in (good[0], bad):
            fh.write(json.dumps(rec) + "\n")
        fh.write("{not json\n\n[1, 2]\n")
        fh.write(json.dumps(good[1]) + "\n")
    result = load_triples(path)
    assert len(result.triples) == 2
    assert [err.line for err in result.errors] == [2, 3, 5]
    assert "overlap" in result.errors[0].message


@pytest.mark.parametrize("bad_line", ["{not json", "[1, 2]", "{}"])
@pytest.mark.parametrize("loader", [load_candidates, load_documents, load_examples,
                                    load_labeled_triples, load_records, load_record_table])
def test_strict_loaders_report_file_and_line(tmp_path, loader, bad_line):
    path = tmp_path / "input.jsonl"
    path.write_text("\n" + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        loader(tmp_path if loader is load_documents else path)
    assert str(info.value).startswith(f"{path}:2: ")


# ---------------------------------------------------------------------------
# the column reader: each kind of bad line gets the per-line check's message

READER_TEXT = "In 1950, Niemans met Berg in The Hague; Niemans stayed on."


def _reader_line() -> dict:
    return row_json(table_of([make_triple(make_segment(READER_TEXT), "Niemans", "1950",
                                          "The Hague")]), 0)


def _edited(edit):
    def line():
        obj = _reader_line()
        edit(obj)
        return json.dumps(obj)
    return line


def _occurrences(key, spans):
    return _edited(lambda obj: obj[key].__setitem__("occurrences", spans))


# each kind of line: how to make it, and what the per-line check reports (None: it is read)
READER_LINES = {
    "bad-json": (lambda: '{"doc_id": "d1",', "unexpected end of data: line 1 column 17 (char 16)"),
    "non-finite": (lambda: json.dumps(_reader_line()).replace("{", '{"note": NaN, ', 1),
                   "unexpected character: line 1 column 10 (char 9)"),
    "missing-key": (_edited(lambda obj: obj["time"].pop("surface")), "'surface'"),
    "not-an-object": (lambda: "[1, 2]", "list indices must be integers or slices, not str"),
    "out-of-bounds": (_occurrences("location", [[29, 99]]),
                      "Location occurrence (29,99) out of segment bounds"),
    "overlap": (_occurrences("person", [[9, 16], [12, 16]]),
                "Person occurrences overlap or are unsorted at (12,16)"),
    "unsorted": (_occurrences("person", [[40, 47], [9, 16]]),
                 "Person occurrences overlap or are unsorted at (9,16)"),
    "surface-mismatch": (_edited(lambda obj: obj["time"].__setitem__("surface", "1951")),
                         "Time span text '1950' does not match surface '1951'"),
    "non-integer-offset": (_occurrences("time", [[3, None]]),
                           "int() argument must be a string, a bytes-like object or a real "
                           "number, not 'NoneType'"),
    "no-occurrences": (_occurrences("time", []), "Time mention '1950' has no occurrences"),
    "bad-segment": (_edited(lambda obj: obj.__setitem__("char_end", 3)),
                    "segment 'd1:s0': text/offset length mismatch"),
    "integral-float-offset": (_occurrences("time", [[3.0, 7]]), None),
    "numeric-string-offset": (_occurrences("time", [["3", 7]]), None),
    "bool-offset": (_edited(lambda obj: obj.__setitem__("char_start", False)), None),
}


def _per_line_check(obj) -> TrajectoryTriple:
    """The triple of one decoded line, or what the per-line check raises."""
    segment, mentions = row_from_json(obj, TRAJECTORY_ROLES)
    return TrajectoryTriple(segment, *mentions)


@pytest.mark.parametrize("kind", sorted(READER_LINES))
def test_the_column_reader_reports_each_bad_line_as_the_per_line_check(tmp_path, kind):
    make, message = READER_LINES[kind]
    good = json.dumps(_reader_line())
    path = tmp_path / "triples.jsonl"
    path.write_text("\n".join([good, make(), "", good]) + "\n", encoding="utf-8")
    result = load_triples(path)
    assert result.errors == ([] if message is None else [RecordError(2, message)])
    oracle_errors = []  # the per-line check over the same file
    oracle = list(iter_jsonl(path, _per_line_check, oracle_errors))
    assert result.errors == oracle_errors
    assert objects(result.triples) == oracle


def test_the_column_reader_keeps_line_order_around_many_bad_lines(tmp_path):
    lines, want = [], []
    for i, kind in enumerate(sorted(READER_LINES) * 2):
        make, message = READER_LINES[kind]
        lines += [json.dumps(_reader_line()), make()]
        if message is not None:
            want.append(RecordError(2 * i + 2, message))
    path = tmp_path / "triples.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_triples(path)
    assert result.errors == want
    assert objects(result.triples) == list(iter_jsonl(path, _per_line_check, []))
    assert len(result.triples.envelopes) == 1  # the one segment envelope, held once


# ---------------------------------------------------------------------------
# JSON decoding: strict orjson on read, no token on write that the reader refuses

RECORD = {"record_id": "r0", "doc_id": "d1", "segment_id": "d1:s0", "char_start": 0,
          "char_end": 9, "person1": "A", "person2": "B", "time_surface": "1950",
          "time_year": 1950, "location": "Lima", "score": 0.5}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_dumps_record_refuses_a_non_finite_float(value):
    with pytest.raises(ValueError):
        dumps_record({"score": value})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_record_with_a_non_finite_token_is_refused_at_its_line(tmp_path, token):
    good = dumps_record(RECORD)
    path = tmp_path / "records.jsonl"
    path.write_text(good + "\n" + good.replace('"score":0.5', f'"score":{token}') + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_records(path)
    assert str(info.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize("token", ["NaN", "1e400", '"\\ud800"'],
                         ids=["nan", "overflow", "lone-surrogate"])
def test_load_triples_collects_a_line_the_decoder_refuses(tmp_path, token):
    good = dumps_record(row_json(table_of(_fig1a_triples()[:1]), 0))
    path = tmp_path / "triples.jsonl"
    path.write_text(good + "\n" + good.replace("{", f'{{"note":{token},', 1) + "\n",
                    encoding="utf-8")
    result = load_triples(path)
    assert len(result.triples) == 1
    assert [err.line for err in result.errors] == [2]


def test_random_doubles_read_back_bit_identical(tmp_path):
    # Written by the stdlib encoder, read by orjson: each finite double,
    # subnormals and signed zero included, keeps its bits.
    rng = random.Random(20)
    values = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
    while len(values) < 12_000:
        (value,) = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))
        if value == value and abs(value) != float("inf"):
            values.append(value)
    values.extend(rng.uniform(-1e3, 1e3) for _ in range(2_000))
    path = tmp_path / "doubles.jsonl"
    write_jsonl(path, ({"x": value} for value in values))
    back = list(iter_jsonl(path, lambda obj: obj["x"]))
    assert [struct.pack("<d", v) for v in back] == [struct.pack("<d", v) for v in values]


def test_dumps_record_writes_what_json_dumps_writes():
    # One encoder built once, against a fresh json.dumps call per value:
    # non-ASCII and escaped text, None, nesting and doubles of every exponent.
    rng = random.Random(21)
    alphabet = "aZ09 \"\\/\n\t\x00\x1f\x7fé€中\u2028\U0001d11e"

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))

    def value(depth=0):
        kind = rng.randrange(7 if depth < 2 else 5)
        if kind == 0:
            return None
        if kind == 1:
            return text()
        if kind == 2:
            return rng.choice([True, False, rng.randrange(-10 ** 20, 10 ** 20)])
        if kind in (3, 4):
            (x,) = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))
            return x if x == x and abs(x) != float("inf") else rng.choice([5e-324, -0.0])
        if kind == 5:
            return [value(depth + 1) for _ in range(rng.randrange(4))]
        return {text(): value(depth + 1) for _ in range(rng.randrange(4))}

    for _ in range(3000):
        record = dict(RECORD, person1=text(), location=text(), score=value(), note=value())
        assert dumps_record(record) == json.dumps(record, ensure_ascii=False,
                                                  separators=(",", ":"), allow_nan=False)


def test_load_triples_unreadable_file_fatal(tmp_path):
    with pytest.raises(OSError):
        load_triples(tmp_path / "missing.jsonl")


def test_fig1a_record_roundtrip_byte_identical(tmp_path):
    path = tmp_path / "triples.jsonl"
    dump_rows(table_of(_fig1a_triples()), path)
    original = path.read_bytes()
    result = load_triples(path)
    path2 = tmp_path / "again.jsonl"
    dump_rows(result.triples, path2)
    assert path2.read_bytes() == original


# ---------------------------------------------------------------------------
# candidate pairing

def pair(triples):
    """The candidate objects :func:`generate_candidates` pairs from triple objects."""
    return objects(generate_candidates(table_of(triples)))


def test_fig1a_pairing_orders_persons_lexicographically():
    cands = pair(_fig1a_triples())
    assert len(cands) == 1
    cand = cands[0]
    assert cand.person1.surface == "Berg"
    assert cand.person2.surface == "Niemans"
    assert cand.time.surface == "1950"
    assert cand.location.surface == "The Hague"
    assert cand.person1.role == "Person1"
    assert cand.person2.role == "Person2"


def test_time_mismatch_produces_nothing():
    seg = make_segment("A stood in Paris in 1950. B stood in Paris in 1951.")
    t1 = make_triple(seg, "A", "1950", "Paris")
    t2 = make_triple(seg, "B", "1951", "Paris")
    assert pair([t1, t2]) == []


def test_four_cooccurring_triples_give_all_pairs():
    names = ["Ada", "Bo", "Cy", "Dee"]
    seg = make_segment("Ada Bo Cy Dee all in Lima in 1950 together.")
    triples = [make_triple(seg, n, "1950", "Lima") for n in names]
    cands = pair(triples)
    # oracle: brute-force enumeration of unordered person pairs
    expected = {tuple(sorted((a.casefold(), b.casefold())))
                for a, b in itertools.combinations(names, 2)}
    got = {(c.person1.norm, c.person2.norm) for c in cands}
    assert got == expected
    assert len(cands) == 6


def test_pairing_symmetric_under_permutation():
    seg = make_segment("Ada Bo Cy met in Lima in 1950, then Ada left in 1951.")
    triples = [make_triple(seg, n, "1950", "Lima") for n in ["Ada", "Bo", "Cy"]]
    base = [(c.person1.norm, c.person2.norm, c.time.norm, c.location.norm,
             c.time.occurrences, c.location.occurrences)
            for c in pair(triples)]
    rng = random.Random(5)
    for _ in range(10):
        shuffled = triples[:]
        rng.shuffle(shuffled)
        other = [(c.person1.norm, c.person2.norm, c.time.norm, c.location.norm,
                  c.time.occurrences, c.location.occurrences)
                 for c in pair(shuffled)]
        assert other == base


def test_pair_surfaces_match_sources_after_normalization():
    seg = make_segment("Ada met Bo in The  Hague in 1950; The Hague was warm.")
    t1 = make_triple(seg, "Ada", "1950", "The Hague")
    seg_b = seg
    t2 = make_triple(seg_b, "Bo", "1950", "The Hague")
    for cand in pair([t1, t2]):
        assert cand.time.norm == t1.time.norm == t2.time.norm
        assert cand.location.norm == t1.location.norm == t2.location.norm


def test_same_person_never_paired():
    seg = make_segment("Ada came to Lima in 1950. Ada stayed in Lima in 1950.")
    t1 = make_triple(seg, "Ada", "1950", "Lima")
    assert pair([t1, t1]) == []


def candidate_key(cand):
    """Corpus-level identity: doc id plus normalized surfaces, persons unordered."""
    pair = tuple(sorted((cand.person1.norm, cand.person2.norm)))
    return (cand.segment.doc_id, pair, cand.time.norm, cand.location.norm)


def _pair_oracle(triples):
    """Pairing one segment's triples object by object: sort the triples,
    try every pair, keep the first candidate per key, sort the candidates."""
    def merged(a, b, role):
        kept = []
        for start, end in sorted(set(a.occurrences) | set(b.occurrences)):
            if not kept or start >= kept[-1][1]:
                kept.append((start, end))
        return EntityMention(role=role, surface=a.surface, occurrences=tuple(kept))

    ordered = sorted(triples, key=lambda t: (t.person.norm, t.time.norm, t.location.norm,
                                             t.person.surface, t.person.occurrences[0]))
    seen, out = set(), []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if (a.person.norm == b.person.norm or a.time.norm != b.time.norm
                    or a.location.norm != b.location.norm):
                continue
            first, second = ((a, b) if (a.person.norm, a.person.surface)
                             <= (b.person.norm, b.person.surface) else (b, a))
            cand = CandidateQuadruple(
                segment=first.segment, person1=replace(first.person, role="Person1"),
                person2=replace(second.person, role="Person2"),
                time=merged(first.time, second.time, "Time"),
                location=merged(first.location, second.location, "Location"))
            if candidate_key(cand) not in seen:
                seen.add(candidate_key(cand))
                out.append(cand)
    return sorted(out, key=lambda c: (c.person1.norm, c.person2.norm, c.time.norm,
                                      c.location.norm))


PAIRING_TEXT = "Ada met Bo, ADA and  Cy in Lima in 1950; aaa Lima. Dee, 1950, Bo, lima, 1951 aaa"


def _random_triple(rng, segment):
    """A triple of random surfaces (some equal after normalization), each
    with a random run of its occurrences: spans of "aa" overlap across
    triples."""
    def mention(role, surfaces):
        surface = rng.choice(surfaces)
        found = [(i, i + len(surface)) for i in range(len(segment.text))
                 if segment.text.startswith(surface, i)]
        kept = []
        for span in rng.sample(found, rng.randint(1, len(found))):
            if all(span[1] <= a or span[0] >= b for a, b in kept):
                kept.append(span)
        return EntityMention(role=role, surface=surface, occurrences=tuple(sorted(kept)))

    return TrajectoryTriple(segment, mention("Person", ["Ada", "ADA", "Bo", "Cy", "Dee"]),
                            mention("Time", ["1950", "1951"]),
                            mention("Location", ["Lima", "lima", "aa"]))


def test_generate_candidates_pairs_as_the_object_pairing_did():
    rng = random.Random(7)
    segments = [make_segment(PAIRING_TEXT, doc_id=f"d{k % 3}", seg_id=f"d{k % 3}:s{k}")
                for k in range(40)]
    triples = [_random_triple(rng, seg) for seg in segments for _ in range(rng.randint(2, 6))]
    for seg in segments:
        group = [t for t in triples if t.segment is seg]
        for _ in range(3):  # in any order, ties between equal sort keys kept in it
            rng.shuffle(group)
            assert pair(group) == _pair_oracle(group)
    rng.shuffle(triples)
    want = [cand for seg in sorted(segments, key=lambda seg: (seg.doc_id, seg.segment_id))
            for cand in _pair_oracle([t for t in triples if t.segment is seg])]
    assert len(want) > 40
    assert any(len(c.time.occurrences) > 1 for c in want)
    assert pair(triples) == want


# ---------------------------------------------------------------------------
# coverage audit

def test_audit_fixture_reaches_94_percent(audit_fixture):
    docs, triples, gold = audit_fixture
    assert len(docs) == 12
    gold_keys = set(map(candidate_key, gold))
    produced_keys = set(map(candidate_key, pair(triples)))
    cov = len(gold_keys & produced_keys) / len(gold_keys)
    assert cov >= 0.94
    assert cov < 1.0  # the granularity-mismatch case stays uncaptured
