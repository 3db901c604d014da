"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from falcon import fixtures
from falcon.backbone import DeterministicStubBackbone
from falcon.dataset import dump_examples, split_dataset
from falcon.encoder import ArBertEncoder, attend
from falcon.extract import FixtureLLMClient, classify_records, extract_corpus, load_records
from falcon.fusion import (
    FrozenTrajectoryExtractor,
    cross_attention_backward,
    cross_attention_forward,
    fuse,
    gate_backward,
    gate_forward,
)
from falcon.ingest import (
    EntityMention,
    TextSegment,
    TrajectoryTriple,
    dump_rows,
    generate_candidates,
)
from falcon.polarnet import (
    build_graph,
    fit_power_law,
    haversine_km,
    interaction_distance,
    modularity,
    randomize_null,
    standardized_modularity,
    trend_ratios,
)
from falcon.training import (
    FeatureStore,
    InteractionModel,
    TrainConfig,
    multitask_loss,
    multitask_loss_grad_c,
    predict,
    pretrain_trajectory_extractor,
    train,
)
from fixture_builders import in_split, objects, table_of


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:>2} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _rel_err(analytic, numeric):
    scale = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / scale


@pytest.fixture(scope="module")
def corpus():
    return fixtures.build_fixture_corpus()


@pytest.fixture(scope="module")
def split_corpus(corpus):
    return split_dataset(corpus.examples, seed=0)


# ---------------------------------------------------------------------------

def _forward_one(model, cand):
    """The cache of the batched forward of ``cand`` alone, from a fresh store."""
    store = FeatureStore.for_model(model)
    rows, (reason,) = store.fill_candidates(table_of([cand]),
                                            with_features=model.uses_features)
    assert reason is None, reason
    return model.forward_batch(*store.gather(rows))[2]


def test_criterion_01_shape_contracts(corpus):
    t0 = time.time()
    cand = objects(corpus.examples.mentions.take([0]))[0]
    ok = True
    details = []
    for d in (4, 768):
        enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=d), seed=1)
        quad, _ = enc.forward(cand.segment, (cand.person1, cand.person2, cand.time,
                                             cand.location))
        ok &= quad.shape == (5 * d,)
        person = replace(cand.person1, role="Person")  # the first trajectory half
        tri, _ = enc.forward(cand.segment, (person, cand.time, cand.location))
        ok &= tri.shape == (4 * d,)

        extractor = FrozenTrajectoryExtractor(TrainConfig(hidden_size=d, seed=2))
        extractor.freeze()
        model = InteractionModel(TrainConfig(hidden_size=d, seed=1),
                                 frozen=extractor)
        cache = _forward_one(model, cand)
        ok &= cache["h_fused"][0].shape == (7 * d,)
        ok &= model.params["head.inter.W"].shape == (2, 7 * d)

        off = InteractionModel(TrainConfig(hidden_size=d, fusion_mode="off", seed=1))
        cache_off = _forward_one(off, cand)
        ok &= cache_off["h_fused"][0].shape == (5 * d,)
        ok &= off.params["head.inter.W"].shape == (2, 5 * d)
        details.append(f"d={d} ok")
    elapsed = time.time() - t0
    report(1, "shape contracts", ok and elapsed < 60,
           f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_02_attention_softmax_invariants():
    rng = np.random.default_rng(202)
    d = 4
    ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        occ = rng.normal(size=(k, d))
        _, weights, _ = attend(occ, np.ones(k, dtype=bool), rng.normal(size=d),
                               float(rng.normal()))
        ok &= abs(weights.sum() - 1.0) <= 1e-6
        ok &= bool((weights >= 0).all())
    for _ in range(1000):
        (_, _), cache = cross_attention_forward(
            rng.normal(size=5 * d), rng.normal(size=d), rng.normal(size=d),
            rng.normal(size=(d, 5 * d)))
        ok &= abs(cache.alphas.sum() - 1.0) <= 1e-6
    report(2, "attention weight sums", ok, "2x1000 random inputs at d=4")


def test_criterion_03_gradient_oracle(corpus):
    t0 = time.time()
    d = 4
    h = 1e-6
    worst = {"attn": 0.0, "gate": 0.0, "query": 0.0, "adaptive": 0.0}
    rng = np.random.default_rng(303)

    # (a) occurrence-attention parameters through the full encoder
    text = "Berg met Ada, and later Berg left in 1950 from Oslo"
    segment = TextSegment(segment_id="g:s0", doc_id="g", char_start=0,
                          char_end=len(text), text=text)

    def find_all(surface):
        spans, off = [], 0
        while True:
            i = text.find(surface, off)
            if i < 0:
                break
            spans.append((i, i + len(surface)))
            off = i + len(surface)
        return tuple(spans)

    entities = [
        EntityMention(role="Person1", surface="Ada", occurrences=find_all("Ada")),
        EntityMention(role="Person2", surface="Berg", occurrences=find_all("Berg")),
        EntityMention(role="Time", surface="1950", occurrences=find_all("1950")),
        EntityMention(role="Location", surface="Oslo", occurrences=find_all("Oslo")),
    ]
    for case in range(20):
        enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=d),
                            seed=1000 + case)
        g = rng.normal(size=5 * d)
        _, cache = enc.forward(segment, entities)
        grads = enc.zero_grads()
        enc.backward(g, cache)
        for name in ("attn.w", "attn.b"):
            p = enc.params[name]
            for i in range(max(1, p.size)):
                if p.ndim == 0:
                    orig = float(p)
                    enc.params[name][...] = orig + h
                    fp = g @ enc.forward(segment, entities)[0]
                    enc.params[name][...] = orig - h
                    fm = g @ enc.forward(segment, entities)[0]
                    enc.params[name][...] = orig
                    ana = float(grads[name])
                else:
                    flat = p.reshape(-1)
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = g @ enc.forward(segment, entities)[0]
                    flat[i] = orig - h
                    fm = g @ enc.forward(segment, entities)[0]
                    flat[i] = orig
                    ana = grads[name].reshape(-1)[i]
                worst["attn"] = max(worst["attn"], _rel_err(ana, (fp - fm) / (2 * h)))

    # (b) gate matrix
    for _ in range(20):
        hvec = rng.normal(size=d)
        w = rng.normal(size=(d, d))
        g = rng.normal(size=d)
        out, cache = gate_forward(hvec, w)
        d_w, _ = gate_backward(g, cache, w)
        for i in range(d * d):
            flat = w.reshape(-1)
            orig = flat[i]
            flat[i] = orig + h
            fp = g @ gate_forward(hvec, w)[0]
            flat[i] = orig - h
            fm = g @ gate_forward(hvec, w)[0]
            flat[i] = orig
            worst["gate"] = max(worst["gate"],
                                _rel_err(d_w.reshape(-1)[i], (fp - fm) / (2 * h)))

    # (c) query matrix
    for _ in range(20):
        h_inter = rng.normal(size=5 * d)
        h1, h2 = rng.normal(size=d), rng.normal(size=d)
        w_q = rng.normal(size=(d, 5 * d))
        g1, g2 = rng.normal(size=d), rng.normal(size=d)
        (o1, o2), cache = cross_attention_forward(h_inter, h1, h2, w_q)
        d_wq, _, _, _ = cross_attention_backward(g1, g2, cache, w_q)
        idxs = rng.choice(w_q.size, size=20, replace=False)
        for i in idxs:
            flat = w_q.reshape(-1)
            orig = flat[i]
            flat[i] = orig + h
            (a1, a2), _ = cross_attention_forward(h_inter, h1, h2, w_q)
            fp = g1 @ a1 + g2 @ a2
            flat[i] = orig - h
            (a1, a2), _ = cross_attention_forward(h_inter, h1, h2, w_q)
            fm = g1 @ a1 + g2 @ a2
            flat[i] = orig
            worst["query"] = max(worst["query"],
                                 _rel_err(d_wq.reshape(-1)[i], (fp - fm) / (2 * h)))

    # (d) adaptive-loss scalars
    for _ in range(20):
        l_i, l_t = rng.uniform(0.01, 3.0, size=2)
        c1, c2 = rng.uniform(0.2, 3.0, size=2)
        a1, a2 = multitask_loss_grad_c(l_i, l_t, c1, c2)
        n1 = (multitask_loss(l_i, l_t, c1 + h, c2)
              - multitask_loss(l_i, l_t, c1 - h, c2)) / (2 * h)
        n2 = (multitask_loss(l_i, l_t, c1, c2 + h)
              - multitask_loss(l_i, l_t, c1, c2 - h)) / (2 * h)
        worst["adaptive"] = max(worst["adaptive"], _rel_err(a1, n1), _rel_err(a2, n2))

    elapsed = time.time() - t0
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 60
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(3, "gradient oracle", ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_04_adaptive_loss_closed_form():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(50):
        l_i, l_t = rng.uniform(0.0, 5.0, size=2)
        got = multitask_loss(l_i, l_t, 1.0, 1.0)
        want = 0.5 * l_i + 0.5 * l_t + 2.0 * math.log(2.0)
        ok &= abs(got - want) <= 1e-6
    report(4, "adaptive loss closed form at c=1", ok)


def test_criterion_05_frozen_extractor_contract(corpus, split_corpus):
    config = TrainConfig(hidden_size=4, max_epochs=5, learning_rate=5e-3,
                         batch_size=4, seed=5, patience=99)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, config)
    before = extractor.snapshot()

    model = InteractionModel(config, frozen=extractor)
    result = train(model, split_corpus)
    n_train = sum(1 for ex in split_corpus if ex.split == "train")
    steps = len(result.history) * math.ceil(n_train / config.batch_size)
    after = extractor.all_params()
    unchanged = before.keys() == after.keys() and all(
        before[k].tobytes() == after[k].tobytes() for k in before)
    ok = unchanged and steps >= 100
    report(5, "frozen extractor unchanged", ok, f"{steps} main-task steps")


def test_criterion_06_modularity_oracle():
    import random as pyrandom

    rng = pyrandom.Random(606)
    checked = 0
    trial = 0
    worst = 0.0
    ok = True
    while checked < 100:
        trial += 1
        n = rng.randrange(3, 9)
        g = fixtures.random_signed_graph(n, 0.6, seed=6000 + trial,
                                         weights=(-2.0, -1.0, 1.0, 2.0))
        if g.n_edges == 0 or g.total_weight() == 0.0:
            continue
        part = {node: ("X" if i % 2 else "Y") for i, node in enumerate(g.nodes)}
        q = modularity(g, part)
        # oracle: direct double sum over the dense matrix
        a = [[0.0] * n for _ in range(n)]
        for i, j, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
            a[i][j] += w
            a[j][i] += w
        k = [sum(row) for row in a]
        m2 = sum(k)
        comm = [part[node] for node in g.nodes]
        total = 0.0
        for i in range(n):
            for j in range(n):
                if comm[i] == comm[j]:
                    total += a[i][j] - k[i] * k[j] / m2
        worst = max(worst, abs(q - total / m2))
        ok &= abs(q - total / m2) <= 1e-9
        ok &= modularity(g, {node: "one" for node in g.nodes}) == 0.0
        checked += 1
    report(6, "modularity double-sum oracle", ok,
           f"100 graphs, worst gap {worst:.2e}")


def test_criterion_07_null_model_contract():
    t0 = time.time()
    g = fixtures.null_model_fixture()
    base_deg = g.degree_sequence()
    base_w = np.sort(g.w)
    ok = True
    for seed in range(1000):
        null = randomize_null(g, seed=seed)
        ok &= bool(np.array_equal(null.degree_sequence(), base_deg))
        ok &= bool(np.array_equal(np.sort(null.w), base_w))
    part = g.party_partition()
    (rep1,) = standardized_modularity([(g, part)], n_samples=1000, master_seed=77)
    (rep2,) = standardized_modularity([(g, part)], n_samples=1000, master_seed=77)
    ok &= rep1.z == rep2.z
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(7, "null-model contract", ok,
           f"1000 samples, Z={rep1.z:.4f}, {elapsed:.1f}s")


def test_criterion_08_candidate_generation(corpus):
    fig1a = [cand for cand in objects(corpus.examples.mentions)
             if cand.segment.doc_id == "fix0000"]
    ok = len(fig1a) == 1
    cand = fig1a[0]
    ok &= (cand.person1.surface, cand.person2.surface) == ("Berg", "Niemans")
    ok &= cand.time.surface == "1950"
    ok &= cand.location.surface == "The Hague"

    for k in range(2, 7):
        names = [f"Person{chr(65 + i)}" for i in range(k)]
        text = " ".join(names) + " met in Lima in 1950 ."
        seg = TextSegment(segment_id="k:s0", doc_id="k", char_start=0,
                          char_end=len(text), text=text)

        def mention(role, surface):
            i = text.find(surface)
            return EntityMention(role=role, surface=surface,
                                 occurrences=((i, i + len(surface)),))

        triples = [TrajectoryTriple(segment=seg, person=mention("Person", nm),
                                    time=mention("Time", "1950"),
                                    location=mention("Location", "Lima"))
                   for nm in names]
        ok &= len(generate_candidates(table_of(triples))) == k * (k - 1) // 2
    report(8, "candidate generation", ok, "fig-1a quadruple + C(k,2) for k<=6")


def test_criterion_09_fixture_training(corpus):
    examples = split_dataset(corpus.examples, seed=0)
    pre_cfg = TrainConfig(hidden_size=8, max_epochs=10, learning_rate=5e-3,
                          batch_size=16, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, pre_cfg)
    cfg = TrainConfig(hidden_size=8, max_epochs=60, learning_rate=1e-2,
                      batch_size=16, seed=5, patience=60)
    model = InteractionModel(cfg, frozen=extractor)
    train(model, examples)

    train_set, val_set = in_split(examples, "train"), in_split(examples, "val")

    def accuracy(subset):
        labels = predict(model, subset.mentions)[1]
        return float(np.mean(labels == subset.labels["y_inter"]))

    train_acc, val_acc = accuracy(train_set), accuracy(val_set)
    pos_rate = float(np.mean(val_set.labels["y_inter"]))
    majority = max(pos_rate, 1.0 - pos_rate)
    ok = train_acc >= 0.95 and val_acc > majority
    report(9, "fixture training quality", ok,
           f"train acc {train_acc:.3f}, val acc {val_acc:.3f} vs majority "
           f"{majority:.3f}")


def _run_e2e(corpus, out_dir):
    """ingest -> train -> extract -> type -> graph -> reports, all offline."""
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_rows(corpus.triples, out_dir / "triples.jsonl")
    examples = split_dataset(corpus.examples, seed=0)
    dump_examples(examples, out_dir / "labeled.jsonl")
    dump_examples(corpus.labeled_triples, out_dir / "trajectories.jsonl")

    cfg = TrainConfig(hidden_size=4, max_epochs=6, learning_rate=5e-3,
                      batch_size=16, seed=5, patience=99)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, cfg)
    extractor.save(out_dir / "extractor.ckpt")
    model = InteractionModel(cfg, frozen=extractor)
    train(model, examples)
    model.save(out_dir / "model.ckpt")

    from falcon.ingest import load_triples

    triples = load_triples(out_dir / "triples.jsonl").triples
    gazetteer = {k.casefold(): v for k, v in corpus.gazetteer.items()}
    extract_corpus(triples, model, out_dir / "records.jsonl", threshold=0.5,
                   summary_path=out_dir / "summary.json", gazetteer=gazetteer)

    records = load_records(out_dir / "records.jsonl")
    responses = out_dir / "llm.json"
    responses.write_text(json.dumps(corpus.llm_responses))
    classify_records(records, FixtureLLMClient(responses))
    from falcon.extract import dump_records

    dump_records(records, out_dir / "typed.jsonl")

    graph, _ = build_graph(records, corpus.node_attrs)
    (rep,) = standardized_modularity([(graph, graph.party_partition())],
                                     n_samples=300, master_seed=11)
    (out_dir / "modularity.json").write_text(
        json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n")
    series = trend_ratios(records, corpus.node_attrs, bin_size="decade")
    (out_dir / "trends.csv").write_text(series.to_csv())
    return rep


def test_criterion_10_end_to_end_smoke(corpus, tmp_path):
    t0 = time.time()
    rep_a = _run_e2e(corpus, tmp_path / "runA")
    rep_b = _run_e2e(corpus, tmp_path / "runB")
    files = ["triples.jsonl", "labeled.jsonl", "trajectories.jsonl",
             "extractor.ckpt", "model.ckpt", "records.jsonl", "typed.jsonl",
             "modularity.json", "trends.csv", "summary.json"]
    ok = rep_a.z == rep_b.z
    mismatched = []
    for name in files:
        if (tmp_path / "runA" / name).read_bytes() != \
                (tmp_path / "runB" / name).read_bytes():
            mismatched.append(name)
            ok = False
    elapsed = time.time() - t0
    ok &= elapsed < 300
    detail = f"Z={rep_a.z:.3f}, {elapsed:.1f}s"
    if mismatched:
        detail += f", mismatched: {mismatched}"
    report(10, "end-to-end smoke byte-identical", ok, detail)


def test_criterion_11_distance_formula():
    quarter = math.pi * 6371.0 / 2.0
    leg = haversine_km(0.0, 0.0, 0.0, 90.0)
    ok = abs(leg - 10007.5) / 10007.5 < 0.001
    ok &= abs(leg - quarter) / quarter < 1e-12

    p = (37.7, -122.4)
    ok &= interaction_distance(p, p, p) == 0.0
    bp = (0.0, 90.0)
    cumulative = interaction_distance((0.0, 0.0), bp, bp)
    ok &= cumulative == 2 * leg
    ok &= abs(cumulative - 20015.0) / 20015.0 < 0.001
    report(11, "great-circle distance formula", ok,
           f"leg {leg:.1f} km, cumulative {cumulative:.1f} km")


def test_criterion_12_power_law_calibration():
    rng = np.random.default_rng(4)
    r = rng.random(100_000)
    sample = np.floor(1.5 * (1 - r) ** (-1 / 1.5) + 0.5).astype(int)
    alpha, tail = fit_power_law(sample.tolist(), k_min=2)
    ok = tail == 100_000 and 2.4 <= alpha <= 2.6
    report(12, "power-law exponent recovery", ok, f"alpha {alpha:.4f}")
