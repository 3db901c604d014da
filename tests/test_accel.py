import hashlib
import struct

import numpy as np
import pytest

from falcon import accel, fixtures
from falcon.polarnet import STEP_FACTOR, build_graph

# The null model's bit-identity contract: sha256 (first 16 hex digits) of the
# rewired (u2, v2, w2, accepted) plus the modularity of the rewired graph under
# a three-way partition, after (steps factor) * m steps. The last seed is at
# least 2**64 and has bit 63 set, both of which the seed mask clears;
# "dense_20" stops after 2 * m steps, far from mixed, and "tiny_4" admits no
# swap at all.
GOLDEN_SEEDS = (0, 1, 2**62 + 17, 2**63 - 1, 2**64 + 2**63 + 12345)
GOLDEN_GRAPHS = {
    "null_model_fixture": (fixtures.null_model_fixture, STEP_FACTOR),
    "sparse_975": (lambda: fixtures.random_signed_graph(
        975, 0.0021, seed=2, weights=(-2.0, 1.0, 2.0)), STEP_FACTOR),
    "dense_20": (lambda: fixtures.random_signed_graph(20, 0.5, seed=1), 2),
    "tiny_4": (lambda: fixtures.random_signed_graph(4, 0.7, seed=4), 100),
}
GOLDEN_DIGESTS = {
    "null_model_fixture": ("c6483109edde272d", "663f41887c6a6709", "eba66ff19a2ad3de",
                           "97a61e3cf04376f7", "d6729de19f2633a1"),
    "sparse_975": ("403ee8b212d750fb", "7b3be468993cd9e8", "72b91512687e7c50",
                   "5bd81942728ea3cd", "d12072b429cc9628"),
    "dense_20": ("4bb859bb10d6f85d", "52f0d51ac4efff91", "f82cdfbcd9a13fe6",
                 "5331f84de6543e61", "45ed48993380145b"),
    "tiny_4": ("27e44bc35d32ec8e", "36049f19baff406b", "0d5b95b84d4ec2c2",
               "7cc2b2d55bfd69f1", "8d516f3ab569706d"),
}


def _null_digest(graph, seed, steps_factor):
    comm = np.arange(graph.n_nodes, dtype=np.int64) % 3
    u2, v2, w2, acc = accel.rewire_edges(graph.u, graph.v, graph.w, graph.n_nodes,
                                         steps_factor * graph.n_edges, seed)
    q = accel.modularity_edges(u2, v2, w2, comm, graph.n_nodes, 3,
                               np.zeros(len(u2), dtype=np.int64), 1)[0]
    h = hashlib.sha256()
    for arr, dtype in ((u2, "<i8"), (v2, "<i8"), (w2, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(struct.pack("<qd", int(acc), float(q)))
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_null_model_matches_golden_digests(name):
    make, steps_factor = GOLDEN_GRAPHS[name]
    graph = make()
    got = tuple(_null_digest(graph, seed, steps_factor) for seed in GOLDEN_SEEDS)
    assert got == GOLDEN_DIGESTS[name]


def test_rewire_on_empty_and_single_edge_graphs():
    u = np.zeros(0, dtype=np.int64)
    v = np.zeros(0, dtype=np.int64)
    w = np.zeros(0, dtype=np.float64)
    u2, v2, w2, acc = accel.rewire_edges(u, v, w, 4, 0, 1)
    assert len(u2) == 0 and acc == 0

    u = np.array([0], dtype=np.int64)
    v = np.array([1], dtype=np.int64)
    w = np.array([2.0])
    u2, v2, w2, acc = accel.rewire_edges(u, v, w, 4, 100, 1)
    assert acc == 0
    assert (u2[0], v2[0], w2[0]) == (0, 1, 2.0)


def test_modularity_kernel_handles_isolated_nodes():
    u = np.array([0, 1], dtype=np.int64)
    v = np.array([1, 2], dtype=np.int64)
    w = np.array([1.0, 1.0])
    comm = np.array([0, 0, 0, 1], dtype=np.int64)  # node 3 isolated
    q = accel.modularity_edges(u, v, w, comm, 4, 2, np.zeros(2, dtype=np.int64), 1)[0]
    assert q == 0.0  # all edges internal to community 0, k3 = 0


def _modularity_loop(u, v, w, comm, n_nodes, n_comms):
    k = np.zeros(n_nodes)
    for a, b, x in zip(u, v, w):
        k[a] += x
        k[b] += x
    m2 = sum(k)
    s_in = sum(2.0 * x for a, b, x in zip(u, v, w) if comm[a] == comm[b])
    strength = np.zeros(n_comms)
    for i in range(n_nodes):
        strength[comm[i]] += k[i]
    return s_in / m2 - sum((s / m2) ** 2 for s in strength)


def test_modularity_kernel_matches_loop_reference_on_real_weights():
    # Integer weights are pinned bit for bit above; sums of other weights
    # may round differently in the last bits, so compare within 1e-12.
    rng = np.random.default_rng(4)
    for n, m in ((10, 20), (200, 600)):
        u = rng.integers(0, n, m)
        v = (u + rng.integers(1, n, m)) % n
        w = rng.uniform(-1.0, 3.0, m)
        comm = rng.integers(0, 3, n)
        q = accel.modularity_edges(u, v, w, comm, n, 3, np.zeros(m, dtype=np.int64), 1)[0]
        assert q == pytest.approx(_modularity_loop(u, v, w, comm, n, 3), rel=1e-12, abs=1e-12)


# (n, edge probability): from two nodes to the benchmark's 1,200 people.
INVARIANT_GRAPHS = ((2, 1.0), (3, 0.9), (5, 0.6), (8, 0.5), (20, 0.5), (31, 0.2),
                    (64, 0.08), (300, 0.01), (1200, 0.0014))


@pytest.mark.parametrize("n, p", INVARIANT_GRAPHS)
def test_rewire_keeps_simple_graph_degrees_and_weights(n, p):
    rng = np.random.default_rng(n)
    for rep in range(3):
        graph = fixtures.random_signed_graph(n, p, seed=rep)
        u, v, w = graph.u, graph.v, graph.w
        if not len(u) or (u[-1], v[-1]) != (n - 2, n - 1):  # an edge on the last node
            u, v, w = np.append(u, n - 2), np.append(v, n - 1), np.append(w, 2.0)
        m = len(u)
        steps = int(rng.integers(0, 40 * m + 1))
        u2, v2, w2, acc = accel.rewire_edges(u, v, w, n, steps,
                                             int(rng.integers(0, 2**63)))
        pairs = {(min(a, b), max(a, b)) for a, b in zip(u2.tolist(), v2.tolist())}
        assert not np.any(u2 == v2)
        assert len(pairs) == m
        assert np.array_equal(np.bincount(np.concatenate([u2, v2]), minlength=n),
                              np.bincount(np.concatenate([u, v]), minlength=n))
        assert sorted(w2.tolist()) == sorted(w.tolist())
        assert 0 <= acc <= steps


def _political_windows():
    records, attrs = fixtures.political_records_fixture()
    years = sorted({rec.time_year for rec in records})
    return [build_graph(records, attrs, (years[0], year))[0] for year in years]


def _ensemble_graphs():
    """Graphs of many sizes, each with a step count not tied to its size."""
    graphs = [fixtures.random_signed_graph(n, p, seed=s) for n, p, s in (
        (20, 0.5, 1), (37, 0.09, 2), (8, 0.5, 3), (4, 0.7, 4), (3, 0.9, 5), (64, 0.08, 6))]
    two = fixtures._make_graph(4, {(0, 1): 2.0, (2, 3): -1.0})  # m = 2: draws often coincide
    path = fixtures._make_graph(3, {(0, 1): 1.0, (0, 2): 2.0})  # no swap is possible
    single = fixtures.random_signed_graph(2, 1.0, seed=0)  # m = 1: no step runs
    empty = fixtures.random_signed_graph(5, 0.0, seed=0)
    graphs += [two, path, single, empty] + _political_windows()
    rng = np.random.default_rng(18)
    specs = []
    for graph in graphs:
        specs.append((graph.u, graph.v, graph.w, graph.n_nodes,
                      int(rng.integers(0, 25 * graph.n_edges + 2))))
    return specs


@pytest.mark.parametrize("budget, lockstep_lanes", [
    (accel.ENSEMBLE_BUDGET, accel.LOCKSTEP_LANES),  # as shipped
    (1 << 40, 1),  # one lockstep group
    (150_000, 6),  # many groups, on both steppers
    (1 << 40, 10**9),  # rewire_edges lane by lane
])
def test_every_ensemble_lane_equals_the_one_lane_call(monkeypatch, budget, lockstep_lanes):
    monkeypatch.setattr(accel, "ENSEMBLE_BUDGET", budget)
    monkeypatch.setattr(accel, "LOCKSTEP_LANES", lockstep_lanes)
    specs = _ensemble_graphs()
    seeds = GOLDEN_SEEDS + tuple(range(3, 15))
    lanes = [(g, seed) for g in range(len(specs)) for seed in seeds]
    seen = []
    for idx, u2, v2, w2, acc in accel.rewire_ensemble(specs, lanes):
        assert len(idx) == len(acc)
        end = 0
        for i, accepted in zip(idx.tolist(), acc.tolist()):
            g, seed = lanes[i]
            ru, rv, rw, racc = accel.rewire_edges(*specs[g], seed)
            start, end = end, end + len(ru)
            assert np.array_equal(u2[start:end], ru) and np.array_equal(v2[start:end], rv)
            assert np.array_equal(w2[start:end], rw) and accepted == racc
        assert end == len(u2) == len(v2) == len(w2)
        seen += idx.tolist()
    assert sorted(seen) == list(range(len(lanes)))


def test_modularity_kernel_scores_lanes_as_one_lane_calls():
    # Real weights: the lane sums must add in the order of the one-lane call.
    rng = np.random.default_rng(7)
    lanes = []
    for n, m in ((10, 20), (3, 2), (40, 90)):
        u = rng.integers(0, n, m)
        lanes.append((u, (u + rng.integers(1, n, m)) % n, rng.uniform(-1.0, 3.0, m),
                      rng.integers(0, 3, n), n))
    shift = np.cumsum([0] + [n for *_, n in lanes])
    q = accel.modularity_edges(
        np.concatenate([u + s for (u, *_), s in zip(lanes, shift)]),
        np.concatenate([v + s for (_, v, *_), s in zip(lanes, shift)]),
        np.concatenate([w for _, _, w, _, _ in lanes]),
        np.concatenate([comm + 3 * i for i, (*_, comm, _) in enumerate(lanes)]),
        int(shift[-1]), 3,
        np.repeat(np.arange(len(lanes)), [len(u) for u, *_ in lanes]), len(lanes))
    assert q.tolist() == [accel.modularity_edges(u, v, w, comm, n, 3,
                                                 np.zeros(len(u), dtype=np.int64), 1)[0]
                          for u, v, w, comm, n in lanes]
