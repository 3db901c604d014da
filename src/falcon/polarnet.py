"""Weighted signed interaction networks and polarization statistics.

Typed interaction records become a party-attributed signed graph
(Adversarial -2, Cooperative +2, Neutral +1, summed per pair). Polarization
is the z-score of the party-partition modularity against a null ensemble of
degree-preserving edge rewirings with the original weight multiset permuted
onto the rewired edges. Trend ratios, great-circle interaction distances,
and basic graph statistics (clustering, power-law exponent, PageRank)
support the time-series analyses.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import accel
from .extract import InteractionRecord
from .ingest import load_name_table, normalize_surface

TYPE_WEIGHTS = {"Adversarial": -2.0, "Cooperative": 2.0, "Neutral": 1.0}
# Each null sample runs STEP_FACTOR * m swap steps, m being the edge count.
STEP_FACTOR = 10
# A polarization row is scored only from this many edges up.
MIN_EDGES = 2
# Verbatim modularity divides by the signed total weight. Without negative
# weights |Q| <= 1; a scored verbatim row beyond that bound has positive and
# negative weights that nearly cancel, and its row says so.
VERBATIM_Q_BOUND = 1.0
VERBATIM_Q_REASON = "verbatim |q| > 1: signed weights nearly cancel; see --signed-mode gomez"
# PageRank damping, L1 convergence tolerance and iteration cap.
PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_ITERATIONS = 10000


class DegenerateGraphError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Graph construction

@dataclass
class SignedGraph:
    nodes: list[str]
    node_attrs: dict[str, dict]
    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_arrays(self):
        keys = sorted(self.edges)
        u = np.array([k[0] for k in keys], dtype=np.int64)
        v = np.array([k[1] for k in keys], dtype=np.int64)
        w = np.array([self.edges[k] for k in keys], dtype=np.float64)
        return u, v, w

    def degree_sequence(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        for (i, j) in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def total_weight(self) -> float:
        return float(sum(self.edges.values()))

    def party_partition(self) -> dict[str, str]:
        return {node: self.node_attrs[node].get("party", "?") for node in self.nodes}


@dataclass
class BuildReport:
    included: int = 0
    excluded_no_party: int = 0
    excluded_untyped: int = 0
    excluded_out_of_window: int = 0
    excluded_self_pairs: int = 0  # both people normalise to one node


def load_node_attrs(path) -> dict[str, dict]:
    """Person name -> attributes plus ``name``, keys normalized for lookup."""
    return {norm: dict(value, name=name)
            for norm, (name, value) in load_name_table(path).items()}


def _included_pairs(records, node_attrs, report: BuildReport,
                    time_window: tuple[int, int] | None = None):
    """(record, normalized pair, type weight) of each record a graph includes;
    ``report`` counts the rest."""
    for rec in records:
        if rec.interaction_type not in TYPE_WEIGHTS:
            report.excluded_untyped += 1
            continue
        if time_window is not None:
            if rec.time_year is None or not (
                    time_window[0] <= rec.time_year <= time_window[1]):
                report.excluded_out_of_window += 1
                continue
        k1, k2 = normalize_surface(rec.person1), normalize_surface(rec.person2)
        if k1 == k2:
            report.excluded_self_pairs += 1
            continue
        if k1 not in node_attrs or k2 not in node_attrs:
            report.excluded_no_party += 1
            continue
        if "party" not in node_attrs[k1] or "party" not in node_attrs[k2]:
            report.excluded_no_party += 1
            continue
        report.included += 1
        yield rec, ((k1, k2) if k1 <= k2 else (k2, k1)), TYPE_WEIGHTS[rec.interaction_type]


def _graph_from_pairs(pair_weights: dict, node_attrs: dict[str, dict]) -> SignedGraph:
    nodes = sorted({k for pair in pair_weights for k in pair})
    index = {node: i for i, node in enumerate(nodes)}
    graph = SignedGraph(nodes=nodes, node_attrs={n: node_attrs[n] for n in nodes})
    for (k1, k2), weight in pair_weights.items():
        graph.edges[(index[k1], index[k2])] = weight
    return graph


def build_graph(records: Sequence[InteractionRecord], node_attrs: dict[str, dict],
                time_window: tuple[int, int] | None = None) -> tuple[SignedGraph, BuildReport]:
    """Aggregate typed records into a signed graph over attributed people.

    Per-pair weights are the sum of the mapped type weights across all
    records in the window. Zero-sum pairs keep their edge: they still carry
    a structural tie. A record whose two people normalise to the same key
    is dropped: the graph has no loops.
    """
    report = BuildReport()
    pair_weights: dict[tuple[str, str], float] = {}
    for _, pair, weight in _included_pairs(records, node_attrs, report, time_window):
        pair_weights[pair] = pair_weights.get(pair, 0.0) + weight
    return _graph_from_pairs(pair_weights, node_attrs), report


def _window_graphs(records: Sequence[InteractionRecord], node_attrs: dict[str, dict],
                   cumulative: bool):
    """``(year, window, graph)`` for each year with a dated record: the
    graph of ``build_graph`` over that year, or over every year up to it,
    from one pass over the records. The type weights are small integers, so
    a pair's weight sums exactly in any order."""
    dated = [rec for rec in records if rec.time_year is not None]
    by_year: defaultdict = defaultdict(dict)  # year -> pair -> summed weight
    for rec, pair, weight in _included_pairs(dated, node_attrs, BuildReport()):
        pairs = by_year[rec.time_year]
        pairs[pair] = pairs.get(pair, 0.0) + weight
    years = sorted({rec.time_year for rec in dated})
    upto: dict[tuple[str, str], float] = {}
    for year in years:
        pairs = by_year.get(year, {})
        if cumulative:
            for pair, weight in pairs.items():
                upto[pair] = upto.get(pair, 0.0) + weight
            pairs = upto
        window = (years[0], year) if cumulative else (year, year)
        yield year, window, _graph_from_pairs(pairs, node_attrs)


# ---------------------------------------------------------------------------
# Modularity

def _partition_array(graph: SignedGraph, partition: dict[str, str]):
    missing = [n for n in graph.nodes if n not in partition]
    if missing:
        raise ValueError(f"partition missing {len(missing)} nodes, e.g. {missing[0]!r}")
    labels = sorted(set(partition[n] for n in graph.nodes))
    label_index = {lab: i for i, lab in enumerate(labels)}
    comm = np.array([label_index[partition[n]] for n in graph.nodes], dtype=np.int64)
    return comm, len(labels)


def modularity(graph: SignedGraph, partition: dict[str, str],
               signed_mode: str = "verbatim") -> float:
    """Weighted Newman modularity for the given node partition.

    ``verbatim`` (default) applies the formula directly to the signed
    weights; ``gomez`` evaluates positive and negative parts separately and
    combines them weighted by their strength shares.
    """
    if graph.n_edges == 0:
        raise DegenerateGraphError("degenerate graph: no edges")
    comm, n_comms = _partition_array(graph, partition)
    if signed_mode == "verbatim" and graph.total_weight() == 0.0:
        raise DegenerateGraphError("degenerate graph: total weight is zero")
    u, v, w = graph.edge_arrays()
    return _edge_modularity(u, v, w, comm, graph.n_nodes, n_comms, signed_mode)


def _edge_modularity(u, v, w, comm, n_nodes: int, n_comms: int, signed_mode: str,
                     lane=None, n_lanes: int = 1):
    """Modularity of one edge list, or of ``n_lanes`` edge lists at once given
    the ``lane`` of each edge (laid out as ``accel.modularity_edges`` takes
    them); scores the original graph and every null sample."""
    if lane is None:
        return float(_edge_modularity(u, v, w, comm, n_nodes, n_comms, signed_mode,
                                      np.zeros(len(u), dtype=np.int64))[0])
    if signed_mode == "verbatim":
        return accel.modularity_edges(u, v, w, comm, n_nodes, n_comms, lane, n_lanes)
    if signed_mode != "gomez":
        raise ValueError(f"unknown signed_mode {signed_mode!r}")
    pos = w > 0
    neg = w < 0
    w_pos = np.bincount(lane[pos], weights=w[pos], minlength=n_lanes)
    w_neg = np.bincount(lane[neg], weights=-w[neg], minlength=n_lanes)
    if np.any(w_pos + w_neg == 0.0):
        raise DegenerateGraphError("degenerate graph: no weighted edges")
    with np.errstate(divide="ignore", invalid="ignore"):  # a lane with no such edge
        q_pos = np.where(w_pos != 0, accel.modularity_edges(
            u[pos], v[pos], w[pos], comm, n_nodes, n_comms, lane[pos], n_lanes), 0.0)
        q_neg = np.where(w_neg != 0, accel.modularity_edges(
            u[neg], v[neg], -w[neg], comm, n_nodes, n_comms, lane[neg], n_lanes), 0.0)
    return (w_pos * q_pos - w_neg * q_neg) / (w_pos + w_neg)


# ---------------------------------------------------------------------------
# Null model

def randomize_null(graph: SignedGraph, seed: int) -> SignedGraph:
    """``STEP_FACTOR * m`` steps of the double-edge-swap chain, a rejected
    swap counting as a step, plus a uniform permutation of the original
    weight multiset onto the rewired edge set; deterministic under ``seed``.
    A graph where no swap is possible comes back weight-permuted.

    This is the reference null sample: ``standardized_modularity`` draws the
    same samples without building a graph for each.
    """
    m = graph.n_edges
    u, v, w = graph.edge_arrays()
    u2, v2, w2, _ = accel.rewire_edges(u, v, w, graph.n_nodes, STEP_FACTOR * m, seed)
    null = SignedGraph(nodes=list(graph.nodes), node_attrs=graph.node_attrs)
    for i in range(m):
        a, b = int(u2[i]), int(v2[i])
        key = (a, b) if a < b else (b, a)
        null.edges[key] = float(w2[i])
    return null


@dataclass
class ModularityReport:
    """``accept_rate`` is the mean over the null samples of accepted swaps
    over steps; a rate near 0 means the chain rarely left the graph it
    started from."""
    q_original: float
    n_samples: int
    mu: float
    sigma: float
    z: float
    master_seed: int
    accept_rate: float

    def to_json(self) -> dict:
        return asdict(self)


def sample_seeds(master_seed: int, n: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)


def standardized_modularity(windows: Sequence[tuple[SignedGraph, dict[str, str]]],
                            n_samples: int = 1000, master_seed: int = 0,
                            signed_mode: str = "verbatim") -> list:
    """Per ``(graph, partition)`` window, the z-score of its modularity
    against the rewired null ensemble, every sample scored in the same
    ``signed_mode``: a :class:`ModularityReport`, or the
    :class:`DegenerateGraphError` that stops it.

    Each sample is that of :func:`randomize_null` under its seed. A null in
    which no sample made a swap only permutes the weights (the swap chain
    can be stuck on small graphs; Fosdick et al. 2018) and is degenerate,
    whatever the spread of its scores.

    The null samples of every window are lanes of one
    ``accel.rewire_ensemble``, all windows under the same seeds, and each
    group of lanes it yields is scored in one lane-offset modularity call."""
    if n_samples < 2:
        raise ValueError("standardized modularity needs at least 2 null samples")
    results: list = []
    scored, specs, comms = [], [], []  # per window with a q: result index, arrays, comm
    for graph, partition in windows:
        try:
            results.append(modularity(graph, partition, signed_mode=signed_mode))
        except DegenerateGraphError as exc:
            results.append(exc)
            continue
        u, v, w = graph.edge_arrays()
        scored.append(len(results) - 1)
        specs.append((u, v, w, graph.n_nodes, STEP_FACTOR * len(u)))
        comms.append(_partition_array(graph, partition))
    if not scored:
        return results
    m = np.array([len(spec[0]) for spec in specs])
    n = np.array([spec[3] for spec in specs])
    n_comms = max(c for _, c in comms)  # community slots per lane
    qs = np.empty((len(scored), n_samples))
    accepted = np.empty((len(scored), n_samples), dtype=np.int64)
    seeds = sample_seeds(master_seed, n_samples).tolist()
    lanes = [(j, seed) for j in range(len(scored)) for seed in seeds]
    for idx, u2, v2, w2, acc in accel.rewire_ensemble(specs, lanes):
        win = idx // n_samples
        lane_n, lane_m, lane_ids = n[win], m[win], np.arange(len(idx))
        shift = np.repeat(np.cumsum(lane_n) - lane_n, lane_m)  # lane offsets of node ids
        comm = (np.concatenate([comms[j][0] for j in win.tolist()])
                + np.repeat(lane_ids * n_comms, lane_n))
        qs.flat[idx] = _edge_modularity(u2 + shift, v2 + shift, w2, comm, int(lane_n.sum()),
                                        n_comms, signed_mode, np.repeat(lane_ids, lane_m),
                                        len(idx))
        accepted.flat[idx] = acc
    for j, i in enumerate(scored):
        mu = float(np.mean(qs[j]))
        sigma = float(np.std(qs[j], ddof=1))
        if not accepted[j].any():
            results[i] = DegenerateGraphError("null made no swap: weights permuted only")
        elif sigma == 0.0 or bool(np.all(qs[j] == qs[j][0])):
            results[i] = DegenerateGraphError("degenerate null distribution: sigma is zero")
        else:
            q = results[i]
            results[i] = ModularityReport(
                q_original=q, n_samples=n_samples, mu=mu, sigma=sigma,
                z=(q - mu) / sigma, master_seed=master_seed,
                accept_rate=float(np.mean(accepted[j] / specs[j][4])))
    return results


# ---------------------------------------------------------------------------
# Trend ratios

@dataclass
class TrendBin:
    bin_start: int
    total: int
    inter_party: int
    inter_share: float | None
    type_shares: dict


@dataclass
class TrendSeries:
    bin_size: int
    bins: list[TrendBin] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bin", "total", "inter_party", "inter_share",
                         "adversarial_share", "cooperative_share", "neutral_share"])
        for row in self.bins:
            shares = row.type_shares
            writer.writerow([
                row.bin_start, row.total, row.inter_party,
                "" if row.inter_share is None else f"{row.inter_share:.6f}",
                *("" if shares.get(t) is None else f"{shares[t]:.6f}"
                  for t in ("Adversarial", "Cooperative", "Neutral")),
            ])
        return buf.getvalue()


def _record_parties(rec: InteractionRecord, node_attrs: dict[str, dict]):
    """The parties of a record's two people, or None if either has no party or
    both are one person (a self-pair, which :func:`build_graph` leaves out too)."""
    k1, k2 = normalize_surface(rec.person1), normalize_surface(rec.person2)
    a1, a2 = node_attrs.get(k1), node_attrs.get(k2)
    if k1 == k2 or not a1 or not a2 or "party" not in a1 or "party" not in a2:
        return None
    return a1["party"], a2["party"]


def trend_ratios(records: Sequence[InteractionRecord], node_attrs: dict[str, dict],
                 bin_size: str = "decade") -> TrendSeries:
    """Per-bin inter-party share plus type shares among inter-party records.

    Bins span the observed year range; bins without interactions report
    null ratios rather than zero.
    """
    if bin_size not in ("decade", "year"):
        raise ValueError(f"unknown bin size {bin_size!r}")
    step = 10 if bin_size == "decade" else 1
    totals: Counter = Counter()  # bin -> usable records
    inter: defaultdict = defaultdict(Counter)  # bin -> inter-party records per type
    for rec in records:
        parties = _record_parties(rec, node_attrs)
        if parties is None or rec.time_year is None:
            continue
        if rec.interaction_type not in TYPE_WEIGHTS:
            continue
        bin_start = rec.time_year // step * step
        totals[bin_start] += 1
        if parties[0] != parties[1]:
            inter[bin_start][rec.interaction_type] += 1

    series = TrendSeries(bin_size=step)
    if not totals:
        return series
    for bin_start in range(min(totals), max(totals) + 1, step):
        total = totals[bin_start]
        types = inter[bin_start]
        n_inter = sum(types.values())
        series.bins.append(TrendBin(
            bin_start=bin_start, total=total, inter_party=n_inter,
            inter_share=(n_inter / total) if total else None,
            type_shares={t: (types[t] / n_inter if n_inter else None)
                         for t in TYPE_WEIGHTS}))
    return series


def type_party_totals(records: Sequence[InteractionRecord],
                      node_attrs: dict[str, dict]) -> dict:
    """Intra-/inter-party record counts per interaction type."""
    totals = {t: {"intra": 0, "inter": 0} for t in TYPE_WEIGHTS}
    for rec in records:
        parties = _record_parties(rec, node_attrs)
        if parties is None or rec.interaction_type not in TYPE_WEIGHTS:
            continue
        kind = "inter" if parties[0] != parties[1] else "intra"
        totals[rec.interaction_type][kind] += 1
    return totals


# ---------------------------------------------------------------------------
# Distances

EARTH_RADIUS_KM = 6371.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a 6371 km sphere."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def interaction_distance(location: tuple[float, float] | None,
                         birthplace1: tuple[float, float] | None,
                         birthplace2: tuple[float, float] | None) -> float | None:
    """Sum of great-circle legs from the interaction location to both
    participants' birthplaces; None when any point is ungeocoded."""
    if location is None or birthplace1 is None or birthplace2 is None:
        return None
    return (haversine_km(location[0], location[1], birthplace1[0], birthplace1[1])
            + haversine_km(location[0], location[1], birthplace2[0], birthplace2[1]))


def record_distance(rec: InteractionRecord, node_attrs: dict[str, dict]) -> float | None:
    if rec.lat is None or rec.lon is None:
        return None
    a1 = node_attrs.get(normalize_surface(rec.person1), {})
    a2 = node_attrs.get(normalize_surface(rec.person2), {})
    bp1 = a1.get("birthplace")
    bp2 = a2.get("birthplace")
    return interaction_distance(
        (rec.lat, rec.lon),
        tuple(bp1) if bp1 else None,
        tuple(bp2) if bp2 else None)


# ---------------------------------------------------------------------------
# Graph statistics

@dataclass
class GraphStats:
    degree_histogram: dict
    clustering: float
    alpha: float | None
    alpha_k_min: int
    alpha_tail_size: int
    pagerank: dict

    def to_json(self) -> dict:
        return {"degree_histogram": {str(k): v for k, v in
                                     sorted(self.degree_histogram.items())},
                "clustering": self.clustering,
                "alpha": self.alpha, "alpha_k_min": self.alpha_k_min,
                "alpha_tail_size": self.alpha_tail_size,
                "pagerank": self.pagerank}


def fit_power_law(degrees: Sequence[int], k_min: int = 2) -> tuple[float | None, int]:
    """Discrete maximum-likelihood exponent over degrees >= k_min:
    alpha = 1 + n / sum(ln(k_i / (k_min - 0.5))).
    """
    if k_min < 1:
        raise ValueError("k_min must be at least 1")
    tail = [k for k in degrees if k >= k_min]
    if not tail:
        return None, 0
    denom = sum(math.log(k / (k_min - 0.5)) for k in tail)
    if denom == 0.0:
        return None, len(tail)
    return 1.0 + len(tail) / denom, len(tail)


def pagerank(graph: SignedGraph) -> dict[str, float]:
    """Power iteration on absolute edge weights; dangling mass spread uniformly."""
    n = graph.n_nodes
    if n == 0:
        return {}
    u, v, w = graph.edge_arrays()
    # Each edge (a, b) feeds b from a, then a from b, as interleaved entries.
    ends = np.stack([u, v], 1).ravel()
    other_ends = np.stack([v, u], 1).ravel()
    aw = np.repeat(np.abs(w), 2)
    strength = np.bincount(ends, weights=aw, minlength=n)
    rank = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_ITERATIONS):
        share = np.divide(rank, strength, out=np.zeros_like(rank),
                          where=strength > 0)
        spread = np.bincount(other_ends, weights=share[ends] * aw, minlength=n)
        dangling = rank[strength == 0].sum()
        new_rank = (1 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * (spread + dangling / n)
        if np.abs(new_rank - rank).sum() < PAGERANK_TOL:
            rank = new_rank
            break
        rank = new_rank
    return {graph.nodes[i]: float(rank[i]) for i in range(n)}


def graph_stats(graph: SignedGraph, k_min: int = 2) -> GraphStats:
    """Degree histogram, global clustering, power-law exponent, PageRank."""
    if graph.n_nodes == 0:
        raise ValueError("graph_stats needs a non-empty graph")
    degrees = graph.degree_sequence()
    histogram: dict[int, int] = {}
    for k in degrees:
        histogram[int(k)] = histogram.get(int(k), 0) + 1

    neighbours = [set() for _ in range(graph.n_nodes)]
    for (i, j) in graph.edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    # Every triangle is seen once from each of its three edges.
    triangles = sum(len(neighbours[i] & neighbours[j]) for (i, j) in graph.edges) / 3
    triads = float(sum(k * (k - 1) / 2 for k in degrees))
    clustering = 3.0 * triangles / triads if triads else 0.0

    alpha, tail = fit_power_law([int(k) for k in degrees], k_min=k_min)
    return GraphStats(degree_histogram=histogram, clustering=clustering,
                      alpha=alpha, alpha_k_min=k_min, alpha_tail_size=tail,
                      pagerank=pagerank(graph))


# ---------------------------------------------------------------------------
# Time series and exports

def polarization_series(records: Sequence[InteractionRecord],
                        node_attrs: dict[str, dict],
                        n_samples: int = 1000, master_seed: int = 0,
                        cumulative: bool = False,
                        signed_mode: str = "verbatim") -> list[dict]:
    """Per-year (or cumulative-to-year) standardized modularity rows.

    Years whose graph has fewer than ``MIN_EDGES`` edges or whose null
    degenerates (including a null that made no swap) produce a row with
    ``q`` and ``z`` null and a reason, never a silent gap. A scored row
    carries its null's ``accept_rate`` (accepted swaps over steps). A
    verbatim row with |q| > ``VERBATIM_Q_BOUND`` keeps its q and z and gets
    ``VERBATIM_Q_REASON``: its signed total weight is near zero, and the
    Gómez, Jensen & Arenas (2009) split (``signed_mode="gomez"``) applies.
    """
    if n_samples < 2:
        raise ValueError("standardized modularity needs at least 2 null samples")
    rows: list[dict] = []
    windows = []  # (row, graph) of each window with enough edges to score
    for year, window, graph in _window_graphs(records, node_attrs, cumulative):
        row = {"year": year, "window_start": window[0], "n_nodes": graph.n_nodes,
               "n_edges": graph.n_edges, "q": None, "z": None, "accept_rate": None,
               "reason": None}
        rows.append(row)
        if graph.n_edges < MIN_EDGES:
            row["reason"] = "too few edges"
        else:
            windows.append((row, graph))
    reports = standardized_modularity([(g, g.party_partition()) for _, g in windows],
                                      n_samples, master_seed, signed_mode)
    for (row, _), report in zip(windows, reports):
        if isinstance(report, DegenerateGraphError):
            row["reason"] = str(report)
            continue
        row["q"] = report.q_original
        row["z"] = report.z
        row["accept_rate"] = report.accept_rate
        if signed_mode == "verbatim" and abs(report.q_original) > VERBATIM_Q_BOUND:
            row["reason"] = VERBATIM_Q_REASON
    return rows


def series_to_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["year", "window_start", "n_nodes", "n_edges", "q", "z", "accept_rate",
                     "reason"])
    for row in rows:
        writer.writerow([
            row["year"], row["window_start"], row["n_nodes"], row["n_edges"],
            "" if row["q"] is None else f"{row['q']:.9f}",
            "" if row["z"] is None else f"{row['z']:.6f}",
            "" if row["accept_rate"] is None else f"{row['accept_rate']:.6f}",
            row["reason"] or "",
        ])
    return buf.getvalue()


def edges_csv(graph: SignedGraph) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["person1", "person2", "weight"])
    for (i, j) in sorted(graph.edges):
        writer.writerow([graph.nodes[i], graph.nodes[j], graph.edges[(i, j)]])
    return buf.getvalue()


def to_gexf(graph: SignedGraph) -> str:
    """Minimal GEXF 1.2 document with party attributes and signed weights,
    consumable by external layout tools."""
    from xml.sax.saxutils import quoteattr

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">',
        '  <graph defaultedgetype="undirected">',
        '    <attributes class="node">',
        '      <attribute id="0" title="party" type="string"/>',
        '    </attributes>',
        '    <nodes>',
    ]
    for i, node in enumerate(graph.nodes):
        party = graph.node_attrs.get(node, {}).get("party", "")
        lines.append(f'      <node id="{i}" label={quoteattr(node)}>')
        lines.append(f'        <attvalues><attvalue for="0" value={quoteattr(party)}/>'
                     f'</attvalues>')
        lines.append('      </node>')
    lines.append('    </nodes>')
    lines.append('    <edges>')
    for eid, (i, j) in enumerate(sorted(graph.edges)):
        weight = graph.edges[(i, j)]
        lines.append(f'      <edge id="{eid}" source="{i}" target="{j}" '
                     f'weight="{weight}"/>')
    lines.append('    </edges>')
    lines.append('  </graph>')
    lines.append('</gexf>')
    return "\n".join(lines) + "\n"
