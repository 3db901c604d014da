import itertools
import math
import random
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from falcon import accel, fixtures, polarnet
from falcon.extract import InteractionRecord, dump_records
from falcon.ingest import normalize_surface
from falcon.polarnet import (
    NO_YEAR,
    DegenerateGraphError,
    RecordTable,
    SignedGraph,
    build_graph,
    edges_csv,
    fit_power_law,
    graph_stats,
    haversine_km,
    interaction_distance,
    load_record_table,
    modularity,
    pagerank,
    polarization_series,
    randomize_null,
    record_distances,
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


def _columns(g):
    return g.u.tolist(), g.v.tolist(), g.w.tolist()


def _pairs(g):
    return frozenset(zip(g.u.tolist(), g.v.tolist()))


# ---------------------------------------------------------------------------
# records as columns

def test_record_table_columns(tmp_path):
    records = [make_record(0, "Ada", "Bo", "Cooperative", lat=42.0, lon=-71),
               make_record(1, " bo ", "Cy", None, year=None),
               make_record(2, "Cy", "ADA", "Friendly")]
    records[0].state = "MA"
    path = tmp_path / "typed.jsonl"
    dump_records(records, path)
    table = load_record_table(path)
    assert table.keys == ["ada", "bo", "cy"]
    assert table.person1.tolist() == [0, 1, 2] and table.person2.tolist() == [1, 2, 0]
    assert table.year.tolist() == [1980, NO_YEAR, 1980]
    assert table.type_code.tolist() == [1, -1, -1]
    assert table.lat[0] == 42.0 and table.lon[0] == -71.0
    assert np.isnan(table.lat[1:]).all() and np.isnan(table.lon[1:]).all()
    assert (table.states, table.state.tolist()) == (["MA"], [0, -1, -1])
    assert table.record_id == ["r000", "r001", "r002"]
    assert table.in_state("MA").tolist() == [True, False, False]
    assert not table.in_state("Ohio").any()
    assert table.take(table.in_state("MA")).record_id == ["r000"]


def test_loaded_table_equals_the_table_of_the_records(tmp_path):
    records, _ = fixtures.political_records_fixture()
    records.append(make_record(999, "Nemo", " nemo", None, year=None))
    path = tmp_path / "typed.jsonl"
    dump_records(records, path)
    loaded, built = load_record_table(path), RecordTable.from_records(records)
    for name in RecordTable.__dataclass_fields__:
        got, want = getattr(loaded, name), getattr(built, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), name
        else:
            assert got == want, name


# ---------------------------------------------------------------------------
# graph construction

def test_single_cooperative_record_weight_two():
    graph, report = build_graph([make_record(0, "Ada", "Bo", "Cooperative")], ATTRS)
    assert graph.n_edges == 1
    assert graph.w.tolist() == [2.0]
    assert report.included == 1


def test_opposing_records_cancel_but_edge_remains():
    records = [make_record(0, "Ada", "Bo", "Cooperative"),
               make_record(1, "Bo", "Ada", "Adversarial")]
    graph, report = build_graph(records, ATTRS)
    assert graph.n_edges == 1
    assert graph.w.tolist() == [0.0]
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
    assert graph.w.tolist() == [1.0]


def test_self_pair_excluded_and_counted():
    nx = pytest.importorskip("networkx")

    pairs = [("Ada", "Bo"), ("Bo", "Cy"), ("Ada", "Cy"), ("Cy", "Dee"), ("Bo", "Dee")]
    records = [make_record(i, a, b, "Neutral") for i, (a, b) in enumerate(pairs)]
    records.append(make_record(len(pairs), "Ada", " ada ", "Cooperative"))
    graph, report = build_graph(records, ATTRS)
    assert report.excluded_self_pairs == 1
    assert report.included == len(pairs)
    assert not np.any(graph.u == graph.v)
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


def test_every_party_analysis_counts_the_same_records():
    # The political fixture plus one record of each kind that no party
    # analysis counts, and one undated record, which only the trends leave out.
    records, attrs = fixtures.political_records_fixture()
    n = len(records)
    attrs = dict(attrs, zed={"name": "Zed"})  # a person without a party
    a, b = (value["name"] for value in list(attrs.values())[:2])
    records += [make_record(900, a, b, None),
                make_record(901, a, b, "Neutral", year=None),
                make_record(902, a, "Nemo", "Neutral"),
                make_record(903, a, "Zed", "Neutral"),
                make_record(904, a, f" {a.upper()} ", "Neutral")]
    _, report = build_graph(records, attrs)
    assert (report.included, report.excluded_untyped, report.excluded_no_party,
            report.excluded_self_pairs) == (n + 1, 1, 2, 1)
    totals = type_party_totals(records, attrs)
    assert sum(sum(kinds.values()) for kinds in totals.values()) == report.included
    dated = [r for r in records if r.time_year is not None]
    for bin_size in ("decade", "year"):
        series = trend_ratios(records, attrs, bin_size)
        assert sum(row.total for row in series.bins) == build_graph(dated, attrs)[1].included == n


def test_untyped_record_excluded():
    rec = make_record(0, "Ada", "Bo", None)
    graph, report = build_graph([rec], ATTRS)
    assert report.excluded_untyped == 1
    assert graph.n_edges == 0


def _assert_stored_in_order(g):
    """Edge e joins u[e] < v[e], the pairs rise strictly, and every end is a node."""
    assert g.u.dtype == g.v.dtype == np.int64 and g.w.dtype == np.float64
    assert len(g.u) == len(g.v) == len(g.w) == g.n_edges
    pairs = list(zip(g.u.tolist(), g.v.tolist()))
    assert all(0 <= i < j < g.n_nodes for i, j in pairs)
    assert pairs == sorted(set(pairs))


def test_every_graph_is_stored_in_edge_order():
    records, attrs = fixtures.political_records_fixture()
    graphs = [build_graph(records, attrs)[0], build_graph(records, attrs, (1970, 1990))[0]]
    table = RecordTable.from_records(records)
    for cumulative in (False, True):
        graphs += [g for *_, g in polarnet._window_graphs(table, attrs, cumulative)]
    fixture = fixtures.null_model_fixture()
    graphs += [fixture, *(randomize_null(g, seed) for g in graphs[:2] + [fixture]
                          for seed in (0, 1, 2**63 + 5))]
    assert len(graphs) == 2 + 2 * 13 + 1 + 3 * 3
    for g in graphs:
        _assert_stored_in_order(g)


@pytest.mark.parametrize("u, v, reason", [
    ([0, 2], [1, 2], "edge 1 (2, 2) is a loop"),
    ([0, 0], [1, 1], "edge 1 (0, 1) repeats a pair"),
    ([0, 0], [2, 1], "edge 1 (0, 1) is out of order"),
    ([1, 0], [2, 2], "edge 1 (0, 2) is out of order"),
    ([1], [0], "edge 0 (1, 0) is out of order"),
    ([0], [3], "edge 0 (0, 3) names no node"),
])
def test_signed_graph_refuses_a_loop_a_repeated_pair_and_an_unsorted_edge(u, v, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        SignedGraph(list("abc"), {}, u, v, [1.0] * len(u))


def test_a_mapping_with_a_pair_in_both_orders_is_refused():
    graph = SignedGraph.from_mapping(list("abc"), {}, {(2, 0): 1.0, (1, 0): 2.0})
    assert _columns(graph) == ([0, 0], [1, 2], [2.0, 1.0])
    with pytest.raises(ValueError, match=re.escape("edge 1 (0, 1) repeats a pair")):
        SignedGraph.from_mapping(list("abc"), {}, {(0, 1): 1.0, (1, 0): 2.0})


# ---------------------------------------------------------------------------
# modularity

def _modularity_oracle(graph: SignedGraph, partition):
    """Direct double-sum over the dense matrix, scalar arithmetic only."""
    n = graph.n_nodes
    a = [[0.0] * n for _ in range(n)]
    for i, j, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
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
    keep = ~((g.u == 3) & (g.v == 4))  # drop the bridge
    g = SignedGraph(g.nodes, g.node_attrs, g.u[keep], g.v[keep], g.w[keep])
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
    g2 = SignedGraph.from_mapping(
        [g.nodes[old] for old in perm], g.node_attrs,
        {(remap[i], remap[j]): w for i, j, w in zip(*_columns(g))})
    assert modularity(g2, part) == pytest.approx(q, abs=1e-12)


def test_modularity_scale_invariant_for_positive_weights():
    g = two_clique_graph(5)
    part = g.party_partition()
    q = modularity(g, part)
    for lam in (0.5, 3.0, 17.0):
        g2 = SignedGraph(list(g.nodes), g.node_attrs, g.u, g.v, lam * g.w)
        assert modularity(g2, part) == pytest.approx(q, abs=1e-12)


def test_zero_total_weight_is_degenerate():
    g = SignedGraph.from_mapping(["a", "b", "c", "d"], {x: {"party": "R"} for x in "abcd"},
                                 {(0, 1): 2.0, (2, 3): -2.0})
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
    base_w = np.sort(g.w)
    for seed in range(20):
        null = randomize_null(g, seed=seed)
        assert np.array_equal(null.degree_sequence(), base_deg)
        assert np.array_equal(np.sort(null.w), base_w)
        assert null.nodes == g.nodes


def test_null_deterministic_per_seed_and_varied_across_seeds():
    g = fixtures.random_signed_graph(20, 0.25, seed=8, weights=(1.0, 2.0))
    a = randomize_null(g, seed=5)
    b = randomize_null(g, seed=5)
    assert a == b
    rng = random.Random(0)
    differing = 0
    pairs = 0
    for _ in range(100):
        s1, s2 = rng.randrange(10**6), rng.randrange(10**6)
        if s1 == s2:
            continue
        pairs += 1
        if _pairs(randomize_null(g, seed=s1)) != _pairs(randomize_null(g, seed=s2)):
            differing += 1
    assert differing / pairs >= 0.99


def test_unswappable_graph_permutes_weights():
    g = SignedGraph.from_mapping(["a", "b"], {"a": {}, "b": {}}, {(0, 1): 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the null's edges are the only signal
        null = randomize_null(g, seed=0)
    assert null == g


def test_null_is_uniform_over_the_graphs_with_the_degree_sequence():
    # A kite: its degree sequence admits 54 simple graphs, with 22 to 28
    # valid swap proposals each. A chain that counts only accepted swaps
    # weights each graph by that number: it reads 130.6 at these 10,000
    # seeds, but 83.4, a pass, at 5,000, hence the sample size.
    kite = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    g = SignedGraph.from_mapping(list("abcdef"), {x: {} for x in "abcdef"},
                                 dict.fromkeys(kite, 1.0))
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
        counts[_pairs(randomize_null(g, int(seed)))] += 1
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
    g = SignedGraph.from_mapping(["a", "b", "c", "d"], {x: {"party": "R"} for x in "abcd"},
                                 {(0, 1): 1.0, (2, 3): 1.0})
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
    parties = [tuple(attrs.get(normalize_surface(name), {}).get("party")
                     for name in (r.person1, r.person2)) for r in records]
    rows = [(r.time_year // step * step, pair, r.interaction_type)
            for r, pair in zip(records, parties) if None not in pair]
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
    assert record_distances([rec], ATTRS) == [None]


def test_record_distance_uses_attr_birthplaces():
    rec = make_record(0, "Ada", "Bo", "Neutral", lat=42.0, lon=-71.0)
    (got,) = record_distances([rec], ATTRS)
    want = haversine_km(42.0, -71.0, 42.0, -71.0) + haversine_km(
        42.0, -71.0, 30.0, -97.0)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_record_distances_equal_one_call_per_record_bit_for_bit(seed):
    # Few places, shared by many records and people, some of them missing;
    # integer, negative-zero and subnormal coordinates included.
    rng = random.Random(seed)
    spots = [(rng.uniform(-89, 89), rng.uniform(-179, 179)) for _ in range(5)]
    spots += [(0.0, -0.0), (-0.0, 0.0), (12, -70), (5e-324, 1.0)]
    names = [f"Person {i}" for i in range(12)]
    attrs = {normalize_surface(name): {"party": "Republican"} for name in names}
    for key in attrs:
        if rng.random() < 0.8:
            attrs[key]["birthplace"] = list(rng.choice(spots))
    records = []
    for i in range(300):
        p1, p2 = sorted(rng.sample(names, 2))
        lat, lon = rng.choice(spots) if rng.random() < 0.85 else (None, None)
        records.append(make_record(i, p1, p2, "Neutral", lat=lat, lon=lon))
    want = []
    for rec in records:
        bp1 = attrs[normalize_surface(rec.person1)].get("birthplace")
        bp2 = attrs[normalize_surface(rec.person2)].get("birthplace")
        location = None if rec.lat is None else (float(rec.lat), float(rec.lon))
        want.append(interaction_distance(location, bp1, bp2))
    got = record_distances(records, attrs)
    assert [d is None for d in got] == [d is None for d in want]
    assert 0 < sum(d is None for d in want) < len(want)
    assert [float.hex(d) for d in got if d is not None] == [
        float.hex(d) for d in want if d is not None]


# ---------------------------------------------------------------------------
# graph statistics

def _graph_from_edges(n, pairs, weight=1.0):
    return SignedGraph.from_mapping([f"n{i}" for i in range(n)],
                                    {f"n{i}": {"party": "R"} for i in range(n)},
                                    dict.fromkeys(pairs, weight))


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
    ref.add_weighted_edges_from((i, j, abs(w)) for i, j, w in zip(*_columns(g)))
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
    assert weights == set(g.w.tolist())


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
    steps = polarnet.STEP_FACTOR * g.n_edges
    rates = [accel.rewire_edges(g.u, g.v, g.w, g.n_nodes, steps, int(seed))[3] / steps
             for seed in sample_seeds(0, 50)]
    assert report.accept_rate == np.mean(rates)
    assert report.q_original == modularity(g, part, signed_mode=signed_mode)
    assert report.mu == pytest.approx(np.mean(qs), rel=1e-9, abs=1e-12)
    assert report.sigma == pytest.approx(np.std(qs, ddof=1), rel=1e-9)
