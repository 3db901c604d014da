import http.server
import json
import threading

import numpy as np
import pytest

from falcon import extract
from falcon.dataset import split_dataset
from falcon.extract import (
    FixtureLLMClient,
    HttpChatClient,
    InteractionRecord,
    TransportError,
    classify_records,
    classify_type,
    extract_corpus,
    load_records,
    normalize_time,
    parse_type,
    record_json,
)
from falcon.ingest import MentionTable, dumps_record, generate_candidates, iter_jsonl
from falcon.training import (
    InteractionModel,
    TrainConfig,
    predict,
    pretrain_trajectory_extractor,
    train,
)
from fixture_builders import time_surface_fixture


# ---------------------------------------------------------------------------
# time normalization

def test_plain_year():
    assert normalize_time("1950") == 1950


def test_month_year():
    assert normalize_time("March 1993") == 1993


def test_ambiguous_range_is_null():
    assert normalize_time("1950 to 1953") is None


def test_no_year_is_null():
    assert normalize_time("sometime later") is None


def test_five_digit_number_not_a_year():
    assert normalize_time("20000 BC") is None


def test_time_fixture_agreement_at_least_98_percent():
    entries = time_surface_fixture()
    assert len(entries) == 200
    agree = sum(1 for surface, label in entries if normalize_time(surface) == label)
    assert agree / len(entries) >= 0.98


def record_of(cand, score, gazetteer=None):
    """The record extraction writes for one candidate object."""
    return InteractionRecord.from_json(
        record_json(MentionTable.from_candidates([cand]), 0, score, gazetteer))


def test_out_of_span_year_dropped_from_record(corpus):
    cand = corpus.examples[0].candidate
    rec = record_of(cand, 0.9)
    assert rec.time_year == int(cand.time.surface)
    # craft a surface outside the supported span
    from dataclasses import replace

    far = replace(cand, time=replace(cand.time, surface="2525",
                                     occurrences=cand.time.occurrences))
    rec2 = record_of(far, 0.9)
    assert rec2.time_year is None
    assert rec2.time_surface == "2525"


# ---------------------------------------------------------------------------
# corpus extraction

@pytest.fixture(scope="module")
def triples(corpus):
    """The fixture corpus's triples as a table."""
    return MentionTable.from_triples(corpus.triples)


@pytest.fixture(scope="module")
def trained(request):
    corpus = request.getfixturevalue("corpus")
    config = TrainConfig(hidden_size=4, max_epochs=3, learning_rate=5e-3, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, config)
    examples = split_dataset(corpus.examples, seed=0)
    model = InteractionModel(config, frozen=extractor)
    train(model, examples)
    return model


def test_extraction_accounting_and_recount(tmp_path, corpus, triples, trained):
    out = tmp_path / "records.jsonl"
    summary_path = tmp_path / "summary.json"
    summary = extract_corpus(triples, trained, out, threshold=0.5,
                             summary_path=summary_path)
    # every candidate accounted for
    assert summary.positives + summary.negatives + summary.skipped == summary.candidates
    # summary counts equal an independent recount of the emitted lines
    emitted = sum(1 for line in out.read_text().splitlines() if line.strip())
    assert emitted == summary.positives
    persisted = json.loads(summary_path.read_text())
    assert persisted["positives"] == summary.positives
    assert summary.candidates == len(corpus.examples)


def test_extraction_counts_are_predicts_labels_and_reasons(tmp_path, triples):
    # A 20-token window overflows on some fixture candidates; the median
    # score as threshold makes both labels occur among the others.
    model = InteractionModel(TrainConfig(hidden_size=4, max_tokens=20, fusion_mode="off"))
    cands = generate_candidates(triples)
    scores, _, reasons = predict(model, cands)
    threshold = float(np.nanmedian(scores))
    _, labels, _ = predict(model, cands, threshold)
    skipped = sum(reason is not None for reason in reasons)
    out = tmp_path / "records.jsonl"
    summary = extract_corpus(triples, model, out, threshold=threshold)
    assert skipped > 0 and 0 < labels.sum() < len(cands) - skipped
    assert (summary.candidates, summary.positives, summary.negatives, summary.skipped) == (
        len(cands), labels.sum(), len(cands) - skipped - labels.sum(), skipped)
    assert [rec.score for rec in load_records(out)] == scores[labels == 1].tolist()


def test_threshold_above_one_emits_nothing(tmp_path, triples, trained):
    out = tmp_path / "records.jsonl"
    summary = extract_corpus(triples, trained, out, threshold=1.0 + 1e-9)
    assert summary.positives == 0
    assert out.read_text() == ""


def test_extraction_reruns_byte_identical(tmp_path, triples, trained):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    extract_corpus(triples, trained, out1, threshold=0.5)
    extract_corpus(triples, trained, out2, threshold=0.5)
    assert out1.read_bytes() == out2.read_bytes()


def test_extraction_resume_matches_clean_run(tmp_path, corpus, triples, trained):
    clean = tmp_path / "clean.jsonl"
    extract_corpus(triples, trained, clean, threshold=0.5)

    resumed = tmp_path / "resumed.jsonl"
    state = tmp_path / "state.json"
    doc_ids = sorted({t.segment.doc_id for t in corpus.triples})
    first_half = [t for t in corpus.triples if t.segment.doc_id in doc_ids[:25]]
    extract_corpus(MentionTable.from_triples(first_half), trained, resumed, threshold=0.5,
                   state_path=state)
    # second run sees the full corpus and must only process the remainder
    extract_corpus(triples, trained, resumed, threshold=0.5,
                   state_path=state)
    assert resumed.read_bytes() == clean.read_bytes()


class Killed(Exception):
    pass


@pytest.mark.parametrize("torn", [False, True], ids=["before-state-write", "torn-state"])
def test_extraction_killed_at_state_write_resumes_byte_identical(
        tmp_path, monkeypatch, corpus, triples, trained, torn):
    clean = tmp_path / "clean.jsonl"
    clean_summary = extract_corpus(triples, trained, clean, threshold=0.5)
    doc_ids = sorted({t.segment.doc_id for t in corpus.triples})
    victim = sorted({rec.doc_id for rec in load_records(clean)})[1]

    out, state = tmp_path / "out.jsonl", tmp_path / "state.json"
    real_append = extract._append_state

    def append_state(log, entry):
        # Killed after the victim's records are flushed, before its state
        # line is complete: either nothing or half the line reaches the log.
        if entry["doc_id"] == victim:
            if torn:
                log.write(dumps_record(entry)[:20])
                log.flush()
            raise Killed
        real_append(log, entry)

    with monkeypatch.context() as patch:
        patch.setattr(extract, "_append_state", append_state)
        with pytest.raises(Killed):
            extract_corpus(triples, trained, out, threshold=0.5, state_path=state)
    # the victim's records reached the output before the kill
    assert victim in {rec.doc_id for rec in load_records(out)}
    resumed_summary = extract_corpus(triples, trained, out, threshold=0.5,
                                     state_path=state)
    assert out.read_bytes() == clean.read_bytes()
    assert resumed_summary == clean_summary
    # the torn line was cut off, so the log holds one clean line per document
    lines = state.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["doc_id"] for line in lines] == doc_ids


@pytest.fixture(scope="module")
def trained8(request):
    corpus = request.getfixturevalue("corpus")
    config = TrainConfig(hidden_size=8, max_epochs=3, learning_rate=0.05, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, config)
    model = InteractionModel(config, frozen=extractor)
    train(model, split_dataset(corpus.examples, seed=0))
    return model


def test_extraction_resumed_inside_a_chunk_matches_clean_run(tmp_path, corpus, triples, trained8):
    # A resume that starts at a document inside one of the clean run's
    # chunks scores the rest of that chunk in other batches. At d=8 a BLAS
    # product over many rows rounds a row differently with the row count,
    # so the bytes match only while a score depends on its candidate alone.
    clean = tmp_path / "clean.jsonl"
    extract_corpus(triples, trained8, clean, threshold=0.5)
    by_doc: dict = {}
    for triple in corpus.triples:
        by_doc.setdefault(triple.segment.doc_id, []).append(triple)
    firsts = {chunk[0][0] for chunk in extract._document_chunks(
        (doc_id, generate_candidates(MentionTable.from_triples(by_doc[doc_id])))
        for doc_id in sorted(by_doc))}
    inside = [i for i, doc_id in enumerate(sorted(by_doc)) if doc_id not in firsts]
    assert len(inside) > 20
    for k in inside[::5]:
        out, state = tmp_path / f"out{k}.jsonl", tmp_path / f"state{k}.json"
        head = set(sorted(by_doc)[:k])
        extract_corpus(MentionTable.from_triples(t for t in corpus.triples
                                                 if t.segment.doc_id in head),
                       trained8, out, threshold=0.5, state_path=state)
        extract_corpus(triples, trained8, out, threshold=0.5, state_path=state)
        assert out.read_bytes() == clean.read_bytes(), k


def test_state_log_with_a_bad_inner_line_reports_its_line(tmp_path, triples, trained):
    out, state = tmp_path / "out.jsonl", tmp_path / "state.json"
    extract_corpus(triples, trained, out, threshold=0.5, state_path=state)
    lines = state.read_text(encoding="utf-8").splitlines(keepends=True)
    state.write_text("".join([lines[0], "{not json\n", *lines[1:]]), encoding="utf-8")
    with pytest.raises(ValueError, match=r"state\.json:2: "):
        extract_corpus(triples, trained, out, threshold=0.5, state_path=state)


@pytest.mark.parametrize("token", ["NaN", "1e400", '"\\ud800"'],
                         ids=["nan", "overflow", "lone-surrogate"])
def test_state_log_last_line_the_reader_refuses_is_cut_as_torn(tmp_path, triples, trained,
                                                               token):
    out, state = tmp_path / "out.jsonl", tmp_path / "state.json"
    extract_corpus(triples, trained, out, threshold=0.5, state_path=state)
    lines = state.read_text(encoding="utf-8").splitlines(keepends=True)
    torn = lines[-1].replace("{", f'{{"note":{token},', 1)
    (tmp_path / "torn.jsonl").write_text(torn, encoding="utf-8")
    with pytest.raises(ValueError, match=r"torn\.jsonl:1: "):
        list(iter_jsonl(tmp_path / "torn.jsonl", dict))
    state.write_text("".join(lines[:-1]) + torn, encoding="utf-8")
    assert len(extract._read_state_log(state)) == len(lines) - 1
    assert state.read_text(encoding="utf-8") == "".join(lines[:-1])


def test_gazetteer_enrichment(tmp_path, corpus, triples, trained):
    gaz = {k.casefold(): v for k, v in corpus.gazetteer.items()}
    out = tmp_path / "records.jsonl"
    extract_corpus(triples, trained, out, threshold=0.5, gazetteer=gaz)
    recs = load_records(out)
    assert recs, "fixture model should emit at least one positive"
    assert all(r.lat is not None and r.lon is not None for r in recs)


# ---------------------------------------------------------------------------
# typing

def canned_client(tmp_path, responses):
    path = tmp_path / "canned.json"
    path.write_text(json.dumps(responses))
    return FixtureLLMClient(path)


def record_stub(corpus, i=0):
    return record_of(corpus.examples[i].candidate, 0.9)


def test_fixture_client_round_robin(tmp_path, corpus):
    client = canned_client(tmp_path, ["Cooperative"])
    rec = classify_type(record_stub(corpus), client)
    assert rec.interaction_type == "Cooperative"
    assert rec.type_flag is None


@pytest.mark.parametrize("text, reason", [
    ("[NaN]", "unexpected character: line 1 column 2 (char 1)"),
    ("[]", "expected a non-empty JSON list of responses"),
], ids=["bad-json", "empty-list"])
def test_fixture_client_names_its_file_on_bad_input(tmp_path, text, reason):
    path = tmp_path / "canned.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        FixtureLLMClient(path)
    assert str(info.value) == f"{path}: {reason}"


def test_batch_counts_match_canned_distribution(tmp_path, corpus):
    responses = ["Cooperative", "Adversarial", "Neutral", "Adversarial",
                 "Cooperative", "Cooperative", "Neutral", "Adversarial",
                 "Adversarial", "Cooperative"]
    client = canned_client(tmp_path, responses)
    records = [record_stub(corpus, i) for i in range(10)]
    summary = classify_records(records, client)
    assert summary.counts == {"Cooperative": 4, "Adversarial": 4, "Neutral": 2}
    assert summary.defaulted == 0


def test_unparseable_response_defaults_to_neutral(tmp_path, corpus):
    client = canned_client(tmp_path, ["no idea, sorry"])
    rec = classify_type(record_stub(corpus), client)
    assert rec.interaction_type == "Neutral"
    assert rec.type_flag == "defaulted"


def test_parse_type_finds_first_mention():
    assert parse_type("Clearly ADVERSARIAL, not cooperative") == "Adversarial"
    assert parse_type("cooperative") == "Cooperative"
    assert parse_type("hmm") is None


class _FailingClient:
    def __init__(self, failures, answer="Neutral"):
        self.failures = failures
        self.answer = answer
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("boom")
        return self.answer


def test_transport_retry_then_success(corpus, monkeypatch):
    monkeypatch.setattr(extract, "LLM_BACKOFF_S", 0.0)
    client = _FailingClient(failures=2)
    rec = classify_type(record_stub(corpus), client)
    assert rec.interaction_type == "Neutral"
    assert client.calls == 3


def test_transport_exhaustion_marks_unclassified(corpus, monkeypatch):
    monkeypatch.setattr(extract, "LLM_BACKOFF_S", 0.0)
    client = _FailingClient(failures=10)
    rec = classify_type(record_stub(corpus), client)
    assert rec.interaction_type is None
    assert rec.type_flag == "unclassified"
    assert client.calls == 3


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Records each request and answers with the server's status and payload."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append({
            "body": json.loads(body),
            "content_type": self.headers.get("Content-Type"),
            "authorization": self.headers.get("Authorization"),
        })
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(self.server.payload).encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    """A chat-completion endpoint on the loopback interface, served from a thread."""
    # urllib would send even a loopback request through a proxy named in the
    # environment.
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.requests = []
    server.status = 200
    server.payload = {"choices": [{"message": {"content": "Cooperative"}}]}
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("api_key, authorization", [
    ("sk-test", "Bearer sk-test"),
    (None, None),
])
def test_http_client_posts_the_prompt(chat_server, api_key, authorization):
    client = HttpChatClient(chat_server.url, model="gpt-test", api_key=api_key)
    assert client.complete("Who met whom?") == "Cooperative"
    assert chat_server.requests == [{
        "body": {"model": "gpt-test",
                 "messages": [{"role": "user", "content": "Who met whom?"}],
                 "temperature": 1.0},
        "content_type": "application/json",
        "authorization": authorization,
    }]


@pytest.mark.parametrize("status, payload, message", [
    (500, {"error": "overloaded"}, "500"),
    (200, {"error": "no choices"}, "malformed completion payload"),
])
def test_http_client_failures_are_transport_errors(chat_server, status, payload, message):
    chat_server.status = status
    chat_server.payload = payload
    client = HttpChatClient(chat_server.url, model="gpt-test")
    with pytest.raises(TransportError, match=message):
        client.complete("Who met whom?")
    assert len(chat_server.requests) == 1
