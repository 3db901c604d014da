import itertools
import math
import random
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from falcon import accel, fixtures, polarnet
from falcon.extract import InteractionRecord
from falcon.polarnet import (
    DegenerateGraphError,
    SignedGraph,
    build_graph,
    edges_csv,
    fit_power_law,
    graph_stats,
    haversine_km,
    interaction_distance,
    modularity,
    pagerank,
    polarization_series,
    randomize_null,
    record_distance,
    sample_seeds,
    series_to_csv,
    standardized_modularity,
    to_gexf,
    trend_ratios,
    type_party_totals,
)
from fixture_builders import partition_blind_graph, two_clique_graph


def make_record(i, p1, p2, itype, year=1980, location="Boston",
                lat=None, lon=None):
    return InteractionRecord(
        record_id=f"r{i:03d}", doc_id="t", segment_id="t:s0", char_start=0,
        char_end=1, person1=p1, person2=p2, time_surface=str(year),
        time_year=year, location=location, score=0.9, lat=lat, lon=lon,
        interaction_type=itype)


ATTRS = {
    "ada": {"party": "Republican", "birthplace": [42.0, -71.0]},
    "bo": {"party": "Democrat", "birthplace": [30.0, -97.0]},
    "cy": {"party": "Republican", "birthplace": [40.0, -74.0]},
    "dee": {"party": "Democrat", "birthplace": [38.0, -77.0]},
}


# ---------------------------------------------------------------------------
# graph construction

def test_single_cooperative_record_weight_two():
    graph, report = build_graph([make_record(0, "Ada", "Bo", "Cooperative")], ATTRS)
    assert graph.n_edges == 1
    assert list(graph.edges.values()) == [2.0]
    assert report.included == 1


def test_opposing_records_cancel_but_edge_remains():
    records = [make_record(0, "Ada", "Bo", "Cooperative"),
               make_record(1, "Bo", "Ada", "Adversarial")]
    graph, report = build_graph(records, ATTRS)
    assert graph.n_edges == 1
    assert list(graph.edges.values()) == [0.0]
    assert report.included == 2


def test_empty_window_gives_empty_graph():
    records = [make_record(0, "Ada", "Bo", "Cooperative", year=1980)]
    graph, report = build_graph(records, ATTRS, time_window=(1990, 1999))
    assert graph.n_nodes == 0 and graph.n_edges == 0
    assert report.excluded_out_of_window == 1


def test_unknown_party_excluded_and_counted():
    records = [make_record(0, "Ada", "Nobody", "Cooperative"),
               make_record(1, "Ada", "Bo", "Neutral")]
    graph, report = build_graph(records, ATTRS)
    assert report.excluded_no_party == 1
    assert graph.n_edges == 1
    assert list(graph.edges.values()) == [1.0]


def test_self_pair_excluded_and_counted():
    nx = pytest.importorskip("networkx")

    pairs = [("Ada", "Bo"), ("Bo", "Cy"), ("Ada", "Cy"), ("Cy", "Dee"), ("Bo", "Dee")]
    records = [make_record(i, a, b, "Neutral") for i, (a, b) in enumerate(pairs)]
    records.append(make_record(len(pairs), "Ada", " ada ", "Cooperative"))
    graph, report = build_graph(records, ATTRS)
    assert report.excluded_self_pairs == 1
    assert report.included == len(pairs)
    assert all(i != j for (i, j) in graph.edges)
    assert list(graph.degree_sequence()) == [2, 3, 3, 2]
    loop_free = nx.Graph([(a.lower(), b.lower()) for a, b in pairs])
    assert graph_stats(graph).clustering == pytest.approx(nx.transitivity(loop_free),
                                                          abs=1e-12)


def test_a_self_pair_changes_no_graph_trend_or_total():
    # One person twice, spelled two ways: build_graph drops the record, and so
    # do the trend bins and the intra-/inter-party totals.
    records, attrs = fixtures.political_records_fixture()
    name = next(iter(attrs.values()))["name"]
    spelled = " " + name.upper().replace(" ", "  ")
    with_pair = records + [make_record(999, name, spelled, "Cooperative", year=1990)]
    assert build_graph(with_pair, attrs)[0] == build_graph(records, attrs)[0]
    for bin_size in ("decade", "year"):
        assert (trend_ratios(with_pair, attrs, bin_size).to_csv()
                == trend_ratios(records, attrs, bin_size).to_csv())
    assert type_party_totals(with_pair, attrs) == type_party_totals(records, attrs)


def test_untyped_record_excluded():
    rec = make_record(0, "Ada", "Bo", None)
    graph, report = build_graph([rec], ATTRS)
    assert report.excluded_untyped == 1
    assert graph.n_edges == 0


# ---------------------------------------------------------------------------
# modularity

def _modularity_oracle(graph: SignedGraph, partition):
    """Direct double-sum over the dense matrix, scalar arithmetic only."""
    n = graph.n_nodes
    a = [[0.0] * n for _ in range(n)]
    for (i, j), w in graph.edges.items():
        a[i][j] += w
        a[j][i] += w
    k = [sum(row) for row in a]
    m2 = sum(k)
    comm = [partition[node] for node in graph.nodes]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if comm[i] == comm[j]:
                total += a[i][j] - k[i] * k[j] / m2
    return total / m2


def test_single_community_is_exactly_zero():
    g = fixtures.random_signed_graph(8, 0.5, seed=1, weights=(1.0, 2.0, -2.0))
    assert modularity(g, {node: "all" for node in g.nodes}) == 0.0


def test_two_disjoint_cliques_match_oracle():
    g = two_clique_graph(4, bridge_weight=0.0)
    del g.edges[(3, 4)]
    part = g.party_partition()
    assert modularity(g, part) == pytest.approx(_modularity_oracle(g, part),
                                                abs=1e-12)
    assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)


def test_hundred_random_graphs_match_oracle():
    rng = random.Random(99)
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        n = rng.randrange(3, 9)
        g = fixtures.random_signed_graph(n, 0.6, seed=trial,
                                         weights=(-2.0, -1.0, 1.0, 2.0))
        if g.n_edges == 0 or g.total_weight() == 0.0:
            continue
        part = {node: ("X" if i % 2 else "Y") for i, node in enumerate(g.nodes)}
        assert modularity(g, part) == pytest.approx(
            _modularity_oracle(g, part), abs=1e-9)
        checked += 1


def test_modularity_invariant_to_label_and_node_relabeling():
    g = two_clique_graph(5)
    part = g.party_partition()
    q = modularity(g, part)
    renamed = {node: {"Republican": "blue", "Democrat": "gold"}[party]
               for node, party in part.items()}
    assert modularity(g, renamed) == pytest.approx(q, abs=1e-12)
    # permute node order
    perm = list(range(g.n_nodes))
    random.Random(0).shuffle(perm)
    remap = {old: new for new, old in enumerate(perm)}
    g2 = SignedGraph(nodes=[g.nodes[old] for old in perm],
                     node_attrs=g.node_attrs,
                     edges={tuple(sorted((remap[i], remap[j]))): w
                            for (i, j), w in g.edges.items()})
    assert modularity(g2, part) == pytest.approx(q, abs=1e-12)


def test_modularity_scale_invariant_for_positive_weights():
    g = two_clique_graph(5)
    part = g.party_partition()
    q = modularity(g, part)
    for lam in (0.5, 3.0, 17.0):
        g2 = SignedGraph(nodes=list(g.nodes), node_attrs=g.node_attrs,
                         edges={k: lam * w for k, w in g.edges.items()})
        assert modularity(g2, part) == pytest.approx(q, abs=1e-12)


def test_zero_total_weight_is_degenerate():
    g = SignedGraph(nodes=["a", "b", "c", "d"],
                    node_attrs={x: {"party": "R"} for x in "abcd"},
                    edges={(0, 1): 2.0, (2, 3): -2.0})
    with pytest.raises(DegenerateGraphError):
        modularity(g, {x: "R" for x in "abcd"})


def test_gomez_mode_runs_and_differs_on_signed_graph():
    g = fixtures.random_signed_graph(10, 0.5, seed=4, weights=(-2.0, 1.0, 2.0))
    part = {node: ("X" if i % 2 else "Y") for i, node in enumerate(g.nodes)}
    q_verbatim = modularity(g, part)
    q_gomez = modularity(g, part, signed_mode="gomez")
    assert math.isfinite(q_gomez)
    assert q_gomez != pytest.approx(q_verbatim, abs=1e-12)


def test_verbatim_modularity_beyond_one_is_flagged_not_changed():
    attrs = dict(ATTRS, eve={"party": "Republican"}, fay={"party": "Democrat"})
    pairs = [("Ada", "Bo", "Adversarial"), ("Cy", "Dee", "Adversarial"),
             ("Ada", "Cy", "Cooperative"), ("Bo", "Dee", "Cooperative"),
             ("Ada", "Dee", "Neutral"), ("Eve", "Fay", "Neutral"),
             ("Eve", "Bo", "Adversarial"), ("Fay", "Cy", "Cooperative")]
    records = [make_record(i, *pair) for i, pair in enumerate(pairs)]
    graph, _ = build_graph(records, attrs)
    assert graph.total_weight() == 2.0  # of 14 in |w|
    (row,) = polarization_series(records, attrs, n_samples=50, master_seed=1)
    assert row["q"] == modularity(graph, graph.party_partition()) == 1.5
    (report,) = standardized_modularity([(graph, graph.party_partition())],
                                        n_samples=50, master_seed=1)
    assert (row["z"], row["accept_rate"]) == (report.z, report.accept_rate)
    assert "--signed-mode gomez" in row["reason"]
    line = series_to_csv([row]).splitlines()[1]
    assert line == (f"1980,1980,6,8,1.500000000,{row['z']:.6f},"
                    f"{row['accept_rate']:.6f},{row['reason']}")
    (gomez,) = polarization_series(records, attrs, n_samples=50, master_seed=1,
                                   signed_mode="gomez")
    assert gomez["reason"] is None

    # Without negative weights |q| <= 1, so no all-positive series is flagged.
    records, attrs = fixtures.political_records_fixture()
    positive = [r for r in records if r.interaction_type != "Adversarial"]
    for cumulative in (False, True):
        rows = polarization_series(positive, attrs, n_samples=20, master_seed=1,
                                   cumulative=cumulative)
        assert all(row["z"] is not None and row["reason"] is None for row in rows)


# ---------------------------------------------------------------------------
# null model

def test_null_preserves_degrees_and_weights():
    g = fixtures.null_model_fixture()
    base_deg = g.degree_sequence()
    base_w = np.sort(list(g.edges.values()))
    for seed in range(20):
        null = randomize_null(g, seed=seed)
        assert np.array_equal(null.degree_sequence(), base_deg)
        assert np.array_equal(np.sort(list(null.edges.values())), base_w)
        assert null.nodes == g.nodes


def test_null_deterministic_per_seed_and_varied_across_seeds():
    g = fixtures.random_signed_graph(20, 0.25, seed=8, weights=(1.0, 2.0))
    a = randomize_null(g, seed=5)
    b = randomize_null(g, seed=5)
    assert a.edges == b.edges
    rng = random.Random(0)
    differing = 0
    pairs = 0
    for _ in range(100):
        s1, s2 = rng.randrange(10**6), rng.randrange(10**6)
        if s1 == s2:
            continue
        pairs += 1
        if (set(randomize_null(g, seed=s1).edges)
                != set(randomize_null(g, seed=s2).edges)):
            differing += 1
    assert differing / pairs >= 0.99


def test_unswappable_graph_permutes_weights():
    g = SignedGraph(nodes=["a", "b"], node_attrs={"a": {}, "b": {}},
                    edges={(0, 1): 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the null's edges are the only signal
        null = randomize_null(g, seed=0)
    assert null.edges == g.edges


def test_null_is_uniform_over_the_graphs_with_the_degree_sequence():
    # A kite: its degree sequence admits 54 simple graphs, with 22 to 28
    # valid swap proposals each. A chain that counts only accepted swaps
    # weights each graph by that number: it reads 130.6 at these 10,000
    # seeds, but 83.4, a pass, at 5,000, hence the sample size.
    kite = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    g = SignedGraph(nodes=list("abcdef"), node_attrs={x: {} for x in "abcdef"},
                    edges={e: 1.0 for e in kite})
    degrees = g.degree_sequence().tolist()
    graphs = []
    for edges in itertools.combinations(itertools.combinations(range(6), 2), len(kite)):
        deg = [0] * 6
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if deg == degrees:
            graphs.append(frozenset(edges))
    assert len(graphs) == 54
    counts = dict.fromkeys(graphs, 0)
    n = 10000
    for seed in sample_seeds(0, n):
        counts[frozenset(randomize_null(g, int(seed)).edges)] += 1
    expected = n / len(graphs)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 90.57  # the 0.999 quantile of chi-square at 53 df


def test_standardized_modularity_determinism_and_structure():
    g = two_clique_graph(10)
    part = g.party_partition()
    (rep1,) = standardized_modularity([(g, part)], n_samples=100, master_seed=42)
    (rep2,) = standardized_modularity([(g, part)], n_samples=100, master_seed=42)
    assert rep1.z == rep2.z  # bit-stable
    assert rep1.z > 3.0
    assert rep1.n_samples == 100

    blind = partition_blind_graph()
    (rep3,) = standardized_modularity([(blind, blind.party_partition())],
                                      n_samples=100, master_seed=7)
    assert abs(rep3.z) < 4.0


def test_a_null_that_made_no_swap_scores_no_row():
    # The 1967 graph of the README walkthrough: a path a-b, a-c, on which no
    # double-edge swap is possible, so every null sample only permutes the
    # two weights. Scored, it read z = -1.011 against 500 such samples. With
    # equal weights the null's scores are also all equal, and the reason is
    # still the missing swap.
    attrs = {"abbott": {"party": "Republican"}, "corwin": {"party": "Republican"},
             "hartley": {"party": "Democrat"}}
    for second_type in ("Adversarial", "Neutral"):
        records = [make_record(0, "Abbott", "Corwin", "Neutral", year=1967),
                   make_record(1, "Abbott", "Hartley", second_type, year=1967)]
        graph, _ = build_graph(records, attrs)
        assert (graph.n_nodes, graph.n_edges) == (3, 2)
        (report,) = standardized_modularity([(graph, graph.party_partition())],
                                            n_samples=500, master_seed=3)
        assert isinstance(report, DegenerateGraphError)
        assert str(report) == "null made no swap: weights permuted only"
        (row,) = polarization_series(records, attrs, n_samples=500, master_seed=3)
        assert (row["q"], row["z"], row["accept_rate"]) == (None, None, None)
        assert row["reason"] == "null made no swap: weights permuted only"
        assert series_to_csv([row]).splitlines() == [
            "year,window_start,n_nodes,n_edges,q,z,accept_rate,reason",
            "1967,1967,3,2,,,,null made no swap: weights permuted only"]


def test_standardized_modularity_needs_two_samples():
    g = two_clique_graph(4)
    with pytest.raises(ValueError, match="at least 2"):
        standardized_modularity([(g, g.party_partition())], n_samples=1)


def test_polarization_series_needs_two_samples_before_any_work():
    # Neither series has a window to score, so no null is ever drawn.
    with pytest.raises(ValueError, match="at least 2"):
        polarization_series([], ATTRS, n_samples=1)
    with pytest.raises(ValueError, match="at least 2"):
        polarization_series([make_record(0, "Ada", "Bo", "Cooperative")], ATTRS,
                            n_samples=1)


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("signed_mode", ["verbatim", "gomez"])
def test_series_rows_do_not_depend_on_how_lanes_are_grouped(monkeypatch, cumulative,
                                                            signed_mode):
    records, attrs = fixtures.political_records_fixture()
    kwargs = dict(n_samples=12, master_seed=5, cumulative=cumulative,
                  signed_mode=signed_mode)
    shipped = polarization_series(records, attrs, **kwargs)
    assert sum(row["z"] is not None for row in shipped) >= 10
    ran = {"_lockstep": 0, "rewire_edges": 0}  # calls of each stepper
    for name in ran:
        def counted(*args, fn=getattr(accel, name), name=name):
            ran[name] += 1
            return fn(*args)
        monkeypatch.setattr(accel, name, counted)
    # A lane of the largest window fits no second lane into its group, so
    # it runs rewire_edges; the smaller windows' lanes share groups and run
    # in lockstep.
    years = sorted({rec.time_year for rec in records})
    sizes = [accel._lane_bytes(graph.n_nodes, graph.n_edges) for graph in (
        build_graph(records, attrs, (years[0] if cumulative else year, year))[0]
        for year in years) if graph.n_edges >= polarnet.MIN_EDGES]
    monkeypatch.setattr(accel, "ENSEMBLE_BUDGET", max(sizes) + min(sizes) - 1)
    monkeypatch.setattr(accel, "LOCKSTEP_LANES", 2)
    assert polarization_series(records, attrs, **kwargs) == shipped
    assert ran["_lockstep"] >= 2 and ran["rewire_edges"] >= 2


def test_degenerate_null_distribution_is_error():
    # Two disjoint edges swap freely (a null that made no swap would give
    # the other reason), but under one community every graph scores q = 0,
    # so sigma == 0.
    g = SignedGraph(nodes=["a", "b", "c", "d"],
                    node_attrs={x: {"party": "R"} for x in "abcd"},
                    edges={(0, 1): 1.0, (2, 3): 1.0})
    (report,) = standardized_modularity([(g, dict.fromkeys("abcd", "R"))], n_samples=20,
                                        master_seed=0)
    assert isinstance(report, DegenerateGraphError)
    assert str(report).startswith("degenerate null")


# ---------------------------------------------------------------------------
# trends

def test_inter_party_share_three_of_ten():
    records = [make_record(i, "Ada", "Cy", "Cooperative", year=1983)
               for i in range(7)]
    records += [make_record(7 + i, "Ada", "Bo", "Adversarial", year=1985)
                for i in range(3)]
    series = trend_ratios(records, ATTRS, bin_size="decade")
    assert len(series.bins) == 1
    row = series.bins[0]
    assert row.bin_start == 1980
    assert row.inter_share == pytest.approx(0.3)
    assert row.type_shares["Adversarial"] == pytest.approx(1.0)


def test_empty_bins_report_null_not_zero():
    records = [make_record(0, "Ada", "Bo", "Cooperative", year=1961),
               make_record(1, "Ada", "Bo", "Neutral", year=1989)]
    series = trend_ratios(records, ATTRS, bin_size="decade")
    starts = [b.bin_start for b in series.bins]
    assert starts == [1960, 1970, 1980]
    empty = series.bins[1]
    assert empty.total == 0
    assert empty.inter_share is None
    assert all(v is None for v in empty.type_shares.values())


def test_type_shares_sum_to_one_when_present():
    records, attrs = fixtures.political_records_fixture()
    series = trend_ratios(records, attrs, bin_size="decade")
    for row in series.bins:
        shares = [v for v in row.type_shares.values() if v is not None]
        if shares:
            assert sum(shares) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bin_size, step", [("decade", 10), ("year", 1)])
def test_trend_ratios_match_a_rescan_of_every_bin(bin_size, step):
    records, attrs = fixtures.political_records_fixture()
    records.append(make_record(999, "nobody", "nemo", "Neutral", year=1961))
    series = trend_ratios(records, attrs, bin_size=bin_size)
    rows = [(r.time_year // step * step, polarnet._record_parties(r, attrs), r.interaction_type)
            for r in records if polarnet._record_parties(r, attrs)]
    assert [b.bin_start for b in series.bins] == list(
        range(min(r[0] for r in rows), max(r[0] for r in rows) + 1, step))
    for row in series.bins:
        in_bin = [r for r in rows if r[0] == row.bin_start]
        inter = [r[2] for r in in_bin if r[1][0] != r[1][1]]
        assert (row.total, row.inter_party) == (len(in_bin), len(inter))
        assert row.inter_share == (len(inter) / len(in_bin) if in_bin else None)
        assert row.type_shares == {t: inter.count(t) / len(inter) if inter else None
                                   for t in ("Adversarial", "Cooperative", "Neutral")}


def test_adversarial_share_rises_in_political_fixture():
    records, attrs = fixtures.political_records_fixture()
    series = trend_ratios(records, attrs, bin_size="decade")
    filled = [b for b in series.bins if b.type_shares["Adversarial"] is not None]
    assert filled[-1].type_shares["Adversarial"] > filled[0].type_shares["Adversarial"]


def test_type_party_totals_counts():
    records = [make_record(0, "Ada", "Cy", "Cooperative"),
               make_record(1, "Ada", "Bo", "Cooperative"),
               make_record(2, "Ada", "Bo", "Adversarial")]
    totals = type_party_totals(records, ATTRS)
    assert totals["Cooperative"] == {"intra": 1, "inter": 1}
    assert totals["Adversarial"] == {"intra": 0, "inter": 1}
    assert totals["Neutral"] == {"intra": 0, "inter": 0}


# ---------------------------------------------------------------------------
# distances

def test_distance_zero_when_all_points_coincide():
    p = (41.9, 12.5)
    assert interaction_distance(p, p, p) == 0.0


def test_distance_doubles_when_birthplaces_equal():
    loc = (0.0, 0.0)
    bp = (0.0, 90.0)
    single = haversine_km(0.0, 0.0, 0.0, 90.0)
    assert interaction_distance(loc, bp, bp) == 2 * single


def test_quarter_circumference_leg():
    # oracle: quarter of the 6371 km sphere circumference
    expected = math.pi * 6371.0 / 2.0
    got = haversine_km(0.0, 0.0, 0.0, 90.0)
    assert abs(got - expected) / expected < 1e-12
    assert abs(got - 10007.5) / 10007.5 < 0.001


def test_missing_geocode_gives_null():
    assert interaction_distance(None, (0, 0), (0, 0)) is None
    rec = make_record(0, "Ada", "Bo", "Neutral")
    assert record_distance(rec, ATTRS) is None


def test_record_distance_uses_attr_birthplaces():
    rec = make_record(0, "Ada", "Bo", "Neutral", lat=42.0, lon=-71.0)
    got = record_distance(rec, ATTRS)
    want = haversine_km(42.0, -71.0, 42.0, -71.0) + haversine_km(
        42.0, -71.0, 30.0, -97.0)
    assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# graph statistics

def _graph_from_edges(n, pairs, weight=1.0):
    return SignedGraph(nodes=[f"n{i}" for i in range(n)],
                       node_attrs={f"n{i}": {"party": "R"} for i in range(n)},
                       edges={p: weight for p in pairs})


def test_triangle_clustering_is_one():
    g = _graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert graph_stats(g).clustering == pytest.approx(1.0)


def test_star_clustering_is_zero():
    g = _graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert graph_stats(g).clustering == 0.0


def test_alpha_null_when_no_tail():
    g = _graph_from_edges(2, [(0, 1)])
    stats = graph_stats(g, k_min=2)
    assert stats.alpha is None
    assert stats.alpha_tail_size == 0


def test_power_law_fit_recovers_exponent():
    rng = np.random.default_rng(4)
    r = rng.random(20_000)
    k = np.floor(1.5 * (1 - r) ** (-1 / 1.5) + 0.5).astype(int)
    alpha, tail = fit_power_law(k.tolist(), k_min=2)
    assert tail == 20_000
    assert 2.3 <= alpha <= 2.6


@pytest.mark.parametrize("k_min", [0, -1])
def test_power_law_fit_refuses_k_min_below_one(k_min):
    with pytest.raises(ValueError, match="k_min must be at least 1"):
        fit_power_law([1, 2, 3], k_min=k_min)


def test_pagerank_sums_to_one_and_favors_hub():
    g = _graph_from_edges(5, [(0, i) for i in range(1, 5)])
    ranks = pagerank(g)
    assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-8)
    assert ranks["n0"] == max(ranks.values())


@pytest.mark.parametrize("seed", range(4))
def test_clustering_and_pagerank_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    g = fixtures.random_signed_graph(60, 0.08, seed=seed)  # leaves isolated nodes
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n_nodes))
    ref.add_weighted_edges_from((i, j, abs(w)) for (i, j), w in g.edges.items())
    stats = graph_stats(g)
    assert stats.clustering == pytest.approx(nx.transitivity(ref), abs=1e-12)
    want = nx.pagerank(ref, alpha=0.85, weight="weight", tol=1e-13, max_iter=10000)
    for i, node in enumerate(g.nodes):
        assert stats.pagerank[node] == pytest.approx(want[i], abs=1e-9)


def test_degree_histogram_counts():
    g = _graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    stats = graph_stats(g)
    assert stats.degree_histogram == {3: 1, 1: 3}


# ---------------------------------------------------------------------------
# exports

def test_edges_csv_layout():
    g = _graph_from_edges(3, [(0, 1), (1, 2)], weight=-2.0)
    text = edges_csv(g)
    lines = text.splitlines()
    assert lines[0] == "person1,person2,weight"
    assert lines[1] == "n0,n1,-2.0"
    assert len(lines) == 3


def test_gexf_is_wellformed_and_complete():
    g = two_clique_graph(3)
    doc = to_gexf(g)
    root = ET.fromstring(doc)
    ns = "{http://www.gexf.net/1.2draft}"
    nodes = root.findall(f".//{ns}node")
    edges = root.findall(f".//{ns}edge")
    assert len(nodes) == g.n_nodes
    assert len(edges) == g.n_edges
    weights = {float(e.get("weight")) for e in edges}
    assert weights == set(g.edges.values())


@pytest.mark.parametrize("signed_mode", ["verbatim", "gomez"])
def test_z_score_uses_a_null_scored_in_the_same_mode(signed_mode):
    # The production loop against the reference: one randomize_null graph
    # per seed, scored by the public modularity.
    g = fixtures.random_signed_graph(40, 0.15, seed=2)
    part = g.party_partition()
    (report,) = standardized_modularity([(g, part)], n_samples=50, master_seed=0,
                                        signed_mode=signed_mode)
    qs = [modularity(randomize_null(g, int(seed)), part, signed_mode=signed_mode)
          for seed in sample_seeds(0, 50)]
    u, v, w = g.edge_arrays()
    steps = polarnet.STEP_FACTOR * g.n_edges
    rates = [accel.rewire_edges(u, v, w, g.n_nodes, steps, int(seed))[3] / steps
             for seed in sample_seeds(0, 50)]
    assert report.accept_rate == np.mean(rates)
    assert report.q_original == modularity(g, part, signed_mode=signed_mode)
    assert report.mu == pytest.approx(np.mean(qs), rel=1e-9, abs=1e-12)
    assert report.sigma == pytest.approx(np.std(qs, ddof=1), rel=1e-9)
