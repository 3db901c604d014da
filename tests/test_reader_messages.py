"""The message of each kind of bad line in the labeled files and the
candidate file: ``path:line: reason``, where the reason is what the per-line
check of that line reports."""

import json

import pytest

from falcon.dataset import load_examples, load_labeled_triples
from falcon.ingest import load_candidates

TEXT = "In 1950, Niemans met Berg in The Hague; Niemans stayed on."
ENVELOPE = {"doc_id": "d1", "segment_id": "d1:s0", "char_start": 0, "char_end": len(TEXT),
            "segment_text": TEXT}
NIEMANS = {"surface": "Niemans", "occurrences": [[9, 16], [40, 47]]}
TIME_LOCATION = {"time": {"surface": "1950", "occurrences": [[3, 7]]},
                 "location": {"surface": "The Hague", "occurrences": [[29, 38]]}}
CANDIDATE = {**ENVELOPE, "person1": {"surface": "Berg", "occurrences": [[21, 25]]},
             "person2": NIEMANS, **TIME_LOCATION}

# format -> (loader, a good line, the key of the person whose spans the edits move)
FORMATS = {
    "labeled": (load_examples,
                {**CANDIDATE, "y_inter": 1, "y_tra1": 1, "y_tra2": 1, "split": "train"},
                "person2"),
    "trajectories": (load_labeled_triples,
                     {**ENVELOPE, "person": NIEMANS, **TIME_LOCATION, "y_tra": 1}, "person"),
    "candidates": (load_candidates, CANDIDATE, "person2"),
}


def _at(obj, key):
    """A copy of ``obj``, the object that holds the path ``key`` (keys
    joined by dots) in it, and the last key."""
    obj = json.loads(json.dumps(obj))
    *parents, last = key.split(".")
    inner = obj
    for name in parents:
        inner = inner[name]
    return obj, inner, last


def _edit(obj, key, value):
    """``obj`` with the value at the path ``key`` set to ``value``."""
    obj, inner, last = _at(obj, key)
    inner[last] = value
    return obj


def _pop(obj, key):
    """``obj`` without the value at the path ``key``."""
    obj, inner, last = _at(obj, key)
    del inner[last]
    return obj


NONE = "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"

# kind -> (the formats it applies to, how to make the line from a good one and
# its person key, and the message; None: the line is read)
KINDS = {
    "bad-json": (FORMATS, lambda obj, p: '{"doc_id": "d1",',
                 "unexpected end of data: line 1 column 17 (char 16)"),
    "non-finite": (FORMATS, lambda obj, p: json.dumps(obj).replace("{", '{"note": NaN, ', 1),
                   "unexpected character: line 1 column 10 (char 9)"),
    "missing-key": (FORMATS, lambda obj, p: _pop(obj, "time.surface"), "'surface'"),
    "not-an-object": (FORMATS, lambda obj, p: [1, 2],
                      "list indices must be integers or slices, not str"),
    "out-of-bounds": (FORMATS, lambda obj, p: _edit(obj, "location.occurrences", [[29, 99]]),
                      "Location occurrence (29,99) out of segment bounds"),
    "overlap": (FORMATS, lambda obj, p: _edit(obj, f"{p}.occurrences", [[9, 16], [12, 16]]),
                "{role} occurrences overlap or are unsorted at (12,16)"),
    "unsorted": (FORMATS, lambda obj, p: _edit(obj, f"{p}.occurrences", [[40, 47], [9, 16]]),
                 "{role} occurrences overlap or are unsorted at (9,16)"),
    "surface-mismatch": (FORMATS, lambda obj, p: _edit(obj, "time.surface", "1951"),
                         "Time span text '1950' does not match surface '1951'"),
    "non-integer-offset": (FORMATS, lambda obj, p: _edit(obj, "time.occurrences", [[3, None]]),
                           NONE),
    "no-occurrences": (FORMATS, lambda obj, p: _edit(obj, "time.occurrences", []),
                       "Time mention '1950' has no occurrences"),
    "bad-segment": (FORMATS, lambda obj, p: _edit(obj, "char_end", 3),
                    "segment 'd1:s0': text/offset length mismatch"),
    "integral-float-offset": (FORMATS, lambda obj, p: _edit(obj, "time.occurrences", [[3.0, 7]]),
                              None),
    "numeric-string-offset": (FORMATS,
                              lambda obj, p: _edit(obj, "time.occurrences", [["3", 7]]), None),
    "bool-offset": (FORMATS, lambda obj, p: _edit(obj, "char_start", False), None),
    # int() would truncate these to 7 and 58, which the spans and the text allow
    "fractional-offset": (FORMATS, lambda obj, p: _edit(obj, "time.occurrences", [[3, 7.5]]),
                          "Time occurrence offset 7.5 is not an integer"),
    "fractional-segment-offset": (FORMATS, lambda obj, p: _edit(obj, "char_end", 58.9),
                                  "char_end 58.9 is not an integer"),
    "persons-alike": (("labeled", "candidates"),
                      lambda obj, p: _edit(obj, "person1", {"surface": "NIEMANS ",
                                                            "occurrences": [[9, 16]]}),
                      "quadruple persons must differ"),
    "label-of-2": (("labeled", "trajectories"),
                   lambda obj, p: _edit(obj, "y_inter" if "y_inter" in obj else "y_tra", 2),
                   "{label} must be 0 or 1, got 2"),
    "missing-label": (("labeled", "trajectories"),
                      lambda obj, p: _pop(obj, "y_tra1" if "y_inter" in obj else "y_tra"),
                      "'{missing}'"),
    "broken-entailment": (("labeled",), lambda obj, p: _edit(obj, "y_tra2", 0),
                          "label entailment violated: y_inter=1 requires both y_tra=1"),
    "unknown-split": (("labeled",), lambda obj, p: _edit(obj, "split", "dev"),
                      "unknown split 'dev'"),
}


def _message(kind, fmt):
    message = KINDS[kind][2]
    if message is None:
        return None
    person = FORMATS[fmt][2]
    return message.format(role=person.capitalize(),
                          label="y_inter" if fmt == "labeled" else "y_tra",
                          missing="y_tra1" if fmt == "labeled" else "y_tra")


def _line(kind, fmt) -> str:
    _, good, person = FORMATS[fmt]
    line = KINDS[kind][1](good, person)
    return line if isinstance(line, str) else json.dumps(line)


CASES = [(kind, fmt) for kind, (formats, _, _) in KINDS.items() for fmt in formats]


@pytest.mark.parametrize("kind, fmt", CASES, ids=[f"{fmt}-{kind}" for kind, fmt in CASES])
def test_each_bad_line_is_refused_with_its_line_and_reason(tmp_path, kind, fmt):
    loader, good, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.jsonl"
    path.write_text("\n".join([json.dumps(good), _line(kind, fmt), "", json.dumps(good)]) + "\n",
                    encoding="utf-8")
    message = _message(kind, fmt)
    if message is None:
        assert len(loader(path)) == 3
        return
    with pytest.raises(ValueError) as info:
        loader(path)
    assert str(info.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_the_first_bad_line_is_reported_whatever_its_kind(tmp_path, fmt):
    # A span that only the columns refuse (line 2) comes before a line that
    # fails as it is decoded (line 3).
    loader, good, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.jsonl"
    path.write_text("\n".join([json.dumps(good), _line("overlap", fmt),
                               _line("missing-key", fmt)]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        loader(path)
    assert str(info.value) == f"{path}:2: {_message('overlap', fmt)}"


def test_a_line_with_bad_spans_and_a_bad_label_reports_its_spans(tmp_path):
    _, good, _ = FORMATS["labeled"]
    bad = _edit(_edit(good, "person2.occurrences", [[9, 16], [12, 16]]), "y_inter", 2)
    path = tmp_path / "labeled.jsonl"
    path.write_text("\n".join([json.dumps(good), json.dumps(_edit(good, "split", "dev")),
                               json.dumps(bad)]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_examples(path)
    assert str(info.value) == f"{path}:2: unknown split 'dev'"
    path.write_text("\n".join([json.dumps(good), json.dumps(bad)]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_examples(path)
    assert str(info.value) == f"{path}:2: {_message('overlap', 'labeled')}"
