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
from array import array
from dataclasses import asdict, dataclass, field
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np

from . import accel
from .extract import _NUMBER, INTERACTION_TYPES, InteractionRecord, _record_columns
from .ingest import iter_jsonl, load_name_table, normalize_surface

TYPE_WEIGHTS = dict(zip(INTERACTION_TYPES, (-2.0, 2.0, 1.0)))
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
# Records as columns

# The year column's marker of an undated record; a year is above it.
NO_YEAR = np.iinfo(np.int64).min
_TYPE_CODES = {t: i for i, t in enumerate(INTERACTION_TYPES)}
_CODE_WEIGHTS = np.array([TYPE_WEIGHTS[t] for t in INTERACTION_TYPES])


@dataclass
class RecordTable:
    """Typed interaction records as columns, one row per record in input order.

    ``person1``/``person2`` index ``keys``, the sorted normalised names of the
    people. ``year`` is ``NO_YEAR`` for an undated record. ``type_code``
    indexes ``INTERACTION_TYPES``; -1 marks an untyped record (no type, or
    another string). ``lat``/``lon`` are NaN where missing. ``state`` indexes
    ``states``, -1 where missing. ``record_id`` is kept for ``distance``.
    """
    keys: list[str]
    person1: np.ndarray
    person2: np.ndarray
    year: np.ndarray
    type_code: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    states: list[str]
    state: np.ndarray
    record_id: list[str]

    def __len__(self) -> int:
        return len(self.record_id)

    @classmethod
    def from_records(cls, records: Iterable[InteractionRecord]) -> "RecordTable":
        """The table of ``records``, through the per-row checks of
        :func:`load_record_table`."""
        builder = _TableBuilder()
        for rec in records:
            builder.add(rec.to_json())
        return builder.table()

    def in_state(self, state: str) -> np.ndarray:
        """Mask of the records geocoded to ``state``."""
        if state not in self.states:
            return np.zeros(len(self), dtype=bool)
        return self.state == self.states.index(state)

    def take(self, mask: np.ndarray) -> "RecordTable":
        """The rows where ``mask`` holds, over the same keys and states."""
        return RecordTable(
            keys=self.keys, person1=self.person1[mask], person2=self.person2[mask],
            year=self.year[mask], type_code=self.type_code[mask], lat=self.lat[mask],
            lon=self.lon[mask], states=self.states, state=self.state[mask],
            record_id=list(compress(self.record_id, mask.tolist())))


Records = Union[RecordTable, Sequence[InteractionRecord]]


class _TableBuilder:
    """Appends one record object per ``add``: it checks the value of every
    column the table keeps (:func:`~falcon.extract._record_columns`) and
    interns each person surface and state."""

    def __init__(self):
        self.surfaces: dict[str, int] = {}  # person surface -> id in first-seen order
        self.states: dict[str, int] = {}
        self.person1, self.person2 = array("i"), array("i")
        self.year = array("q")
        self.type_code = array("b")
        self.lat, self.lon = array("d"), array("d")
        self.state = array("i")
        self.record_id: list[str] = []

    def add(self, obj: dict) -> None:
        record_id, person1, person2, year, itype, lat, lon, state = _record_columns(obj)
        surfaces = self.surfaces
        self.person1.append(surfaces.setdefault(person1, len(surfaces)))
        self.person2.append(surfaces.setdefault(person2, len(surfaces)))
        self.year.append(NO_YEAR if year is None else year)
        self.type_code.append(_TYPE_CODES.get(itype, -1))
        self.lat.append(math.nan if lat is None else lat)
        self.lon.append(math.nan if lon is None else lon)
        self.state.append(-1 if state is None else self.states.setdefault(state, len(self.states)))
        self.record_id.append(record_id)

    def table(self) -> RecordTable:
        """The table; ``normalize_surface`` runs once per distinct surface."""
        norms = [normalize_surface(surface) for surface in self.surfaces]
        keys = sorted(set(norms))
        index = {key: i for i, key in enumerate(keys)}
        key_of = np.array([index[norm] for norm in norms], dtype=np.int32)
        return RecordTable(
            keys=keys, person1=key_of[np.frombuffer(self.person1, dtype=np.int32)],
            person2=key_of[np.frombuffer(self.person2, dtype=np.int32)],
            year=np.frombuffer(self.year, dtype=np.int64),
            type_code=np.frombuffer(self.type_code, dtype=np.int8),
            lat=np.frombuffer(self.lat), lon=np.frombuffer(self.lon),
            states=list(self.states), state=np.frombuffer(self.state, dtype=np.int32),
            record_id=self.record_id)


def load_record_table(path) -> RecordTable:
    """The typed records of a JSONL file as a :class:`RecordTable`.

    A line that is not a record object, lacks a required key, or holds a
    value of the wrong type in a kept column raises
    ``ValueError("path:line: reason")``.
    """
    builder = _TableBuilder()
    for _ in iter_jsonl(path, builder.add):
        pass
    return builder.table()


def _as_table(records: Records) -> RecordTable:
    return records if isinstance(records, RecordTable) else RecordTable.from_records(records)


# ---------------------------------------------------------------------------
# Graph construction

def _canonical_edges(a, b, w):
    """The edges ``(a, b, w)`` as ``(u, v, w)`` with ``u < v``, sorted by ``(u, v)``."""
    u, v = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((v, u))
    return u[order], v[order], w[order]


@dataclass
class SignedGraph:
    """Nodes and the edges as three columns: edge e joins nodes ``u[e] < v[e]``
    with weight ``w[e]``, sorted by ``(u, v)``, no pair twice. Construction
    refuses a graph that breaks this."""
    nodes: list[str]
    node_attrs: dict[str, dict]
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u, self.v = (np.asarray(x, dtype=np.int64) for x in (self.u, self.v))
        self.w = np.asarray(self.w, dtype=np.float64)
        u, v, n = self.u, self.v, self.n_nodes
        if not len(u) == len(v) == len(self.w):
            raise ValueError("edge columns differ in length")
        step = np.diff(u * n + v, prepend=-1)  # the pair codes rise along sorted edges
        for bad, what in (((np.minimum(u, v) < 0) | (np.maximum(u, v) >= n), "names no node"),
                          (u == v, "is a loop"), ((u > v) | (step < 0), "is out of order"),
                          (step == 0, "repeats a pair")):
            if bad.any():
                e = int(np.argmax(bad))
                raise ValueError(f"edge {e} ({u[e]}, {v[e]}) {what}")

    @classmethod
    def from_mapping(cls, nodes: list[str], node_attrs: dict[str, dict],
                     edges: dict[tuple[int, int], float]) -> "SignedGraph":
        """The graph of a ``{(i, j): w}`` mapping, each pair in either order."""
        ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        w = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
        return cls(nodes, node_attrs, *_canonical_edges(ends[:, 0], ends[:, 1], w))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedGraph) and self.nodes == other.nodes
                and self.node_attrs == other.node_attrs
                and all(map(np.array_equal, (self.u, self.v, self.w), (other.u, other.v, other.w))))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.u)

    def degree_sequence(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.u, self.v]), minlength=self.n_nodes)

    def total_weight(self) -> float:
        return float(self.w.sum())

    def party_partition(self) -> dict[str, str]:
        return {node: self.node_attrs[node].get("party", "?") for node in self.nodes}


@dataclass
class BuildReport:
    included: int = 0
    excluded_no_party: int = 0
    excluded_untyped: int = 0
    excluded_out_of_window: int = 0
    excluded_self_pairs: int = 0  # both people normalise to one node


def _is_point(value) -> bool:
    return (type(value) is list and len(value) == 2
            and type(value[0]) in _NUMBER and type(value[1]) in _NUMBER)


_ATTR_CHECKS = (("party", lambda value: type(value) is str, "a string"),
                ("birthplace", _is_point, "two finite numbers"))


def load_node_attrs(path) -> dict[str, dict]:
    """Person name -> attributes plus ``name``, keys normalized for lookup.
    A ``party`` that is not a string, or a ``birthplace`` that is not two
    numbers, raises ``ValueError("path: reason")``; the decoder refuses a
    number that is not finite."""
    return {norm: dict(value, name=name)
            for norm, (name, value) in load_name_table(path, _ATTR_CHECKS).items()}


def _included(table: RecordTable, node_attrs: dict[str, dict], report: BuildReport,
              time_window: tuple[int, int] | None = None):
    """``(mask, party)``: the mask of the records that every party analysis
    counts (typed, in the window, two distinct people, both with a party),
    and each person's party code (-1 without a party). ``report`` counts the
    rest under the first condition each record fails, in that order."""
    codes: dict = {}
    party = np.array([codes.setdefault(attrs["party"], len(codes))
                      if "party" in (attrs := node_attrs.get(key, {})) else -1
                      for key in table.keys], dtype=np.int64)
    conditions = [("excluded_untyped", table.type_code >= 0)]
    if time_window is not None:
        year = table.year
        conditions.append(("excluded_out_of_window", (year != NO_YEAR)
                           & (year >= time_window[0]) & (year <= time_window[1])))
    conditions += [("excluded_self_pairs", table.person1 != table.person2),
                   ("excluded_no_party",
                    (party[table.person1] >= 0) & (party[table.person2] >= 0))]
    mask = np.ones(len(table), dtype=bool)
    left = len(table)
    for name, holds in conditions:
        mask &= holds
        kept = int(np.count_nonzero(mask))
        setattr(report, name, getattr(report, name) + left - kept)
        left = kept
    report.included += left
    return mask, party


def _graph(table: RecordTable, rows, node_attrs: dict[str, dict]) -> SignedGraph:
    """The graph of the included ``rows`` (a mask or indexes): one edge per
    pair of people, weighted by the sum of its records' type weights, nodes
    and edges in sorted order. The weights are small integers, so each sum
    is exact in any order."""
    a, b = table.person1[rows], table.person2[rows]
    n = len(table.keys)
    pairs, pair_of = np.unique(np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b),
                               return_inverse=True)
    weights = np.bincount(pair_of, weights=_CODE_WEIGHTS[table.type_code[rows]],
                          minlength=len(pairs))
    people, ends = np.unique(np.concatenate([pairs // n, pairs % n]), return_inverse=True)
    nodes = [table.keys[i] for i in people.tolist()]
    return SignedGraph(nodes=nodes, node_attrs={k: node_attrs[k] for k in nodes},
                       u=ends[:len(pairs)], v=ends[len(pairs):], w=weights)


def build_graph(records: Records, node_attrs: dict[str, dict],
                time_window: tuple[int, int] | None = None) -> tuple[SignedGraph, BuildReport]:
    """Aggregate typed records into a signed graph over attributed people.

    Per-pair weights are the sum of the mapped type weights across all
    records in the window. Zero-sum pairs keep their edge: they still carry
    a structural tie. A record whose two people normalise to the same key
    is dropped: the graph has no loops.
    """
    table = _as_table(records)
    report = BuildReport()
    included, _ = _included(table, node_attrs, report, time_window)
    return _graph(table, included, node_attrs), report


def _window_graphs(table: RecordTable, node_attrs: dict[str, dict], cumulative: bool):
    """``(year, window, graph)`` for each year with a dated record: the
    graph of ``build_graph`` over that year, or over every year up to it.
    The included dated records are sorted by year once, so each window is a
    run of them (a prefix when cumulative)."""
    included, _ = _included(table, node_attrs, BuildReport())
    dated = table.year != NO_YEAR
    years = np.unique(table.year[dated]).tolist()
    rows = np.flatnonzero(included & dated)
    rows = rows[np.argsort(table.year[rows], kind="stable")]
    ends = np.searchsorted(table.year[rows], years, side="right").tolist()
    starts = [0] * len(ends) if cumulative else [0, *ends[:-1]]
    for year, start, end in zip(years, starts, ends):
        window = (years[0], year) if cumulative else (year, year)
        yield year, window, _graph(table, rows[start:end], node_attrs)


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
    return float(_edge_modularity(graph.u, graph.v, graph.w, comm, graph.n_nodes, n_comms,
                                  signed_mode, np.zeros(graph.n_edges, dtype=np.int64), 1)[0])


def _edge_modularity(u, v, w, comm, n_nodes: int, n_comms: int, signed_mode: str,
                     lane, n_lanes: int):
    """Modularity of ``n_lanes`` edge lists at once given the ``lane`` of each
    edge (laid out as ``accel.modularity_edges`` takes them); scores the
    original graph (one lane) and every null sample."""
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
    u2, v2, w2, _ = accel.rewire_edges(graph.u, graph.v, graph.w, graph.n_nodes,
                                       STEP_FACTOR * graph.n_edges, seed)
    return SignedGraph(list(graph.nodes), graph.node_attrs, *_canonical_edges(u2, v2, w2))


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
        scored.append(len(results) - 1)
        specs.append((graph.u, graph.v, graph.w, graph.n_nodes, STEP_FACTOR * graph.n_edges))
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
                         *(f"{t.lower()}_share" for t in INTERACTION_TYPES)])
        for row in self.bins:
            shares = row.type_shares
            writer.writerow([
                row.bin_start, row.total, row.inter_party,
                "" if row.inter_share is None else f"{row.inter_share:.6f}",
                *("" if shares.get(t) is None else f"{shares[t]:.6f}"
                  for t in INTERACTION_TYPES),
            ])
        return buf.getvalue()


def trend_ratios(records: Records, node_attrs: dict[str, dict],
                 bin_size: str = "decade") -> TrendSeries:
    """Per-bin inter-party share plus type shares among inter-party records,
    over the dated records that :func:`build_graph` includes.

    Bins span the observed year range; bins without interactions report
    null ratios rather than zero.
    """
    if bin_size not in ("decade", "year"):
        raise ValueError(f"unknown bin size {bin_size!r}")
    step = 10 if bin_size == "decade" else 1
    table = _as_table(records)
    included, party = _included(table, node_attrs, BuildReport())
    rows = included & (table.year != NO_YEAR)
    series = TrendSeries(bin_size=step)
    if not rows.any():
        return series
    bins = table.year[rows] // step
    first = int(bins.min())
    bins -= first
    n_bins = int(bins.max()) + 1
    inter = party[table.person1[rows]] != party[table.person2[rows]]
    n_types = len(INTERACTION_TYPES)
    by_type = np.bincount(bins[inter] * n_types + table.type_code[rows][inter],
                          minlength=n_bins * n_types).reshape(n_bins, n_types)
    totals = np.bincount(bins, minlength=n_bins)
    for i, (total, types) in enumerate(zip(totals.tolist(), by_type.tolist())):
        n_inter = sum(types)
        series.bins.append(TrendBin(
            bin_start=(first + i) * step, total=total, inter_party=n_inter,
            inter_share=(n_inter / total) if total else None,
            type_shares={t: (count / n_inter if n_inter else None)
                         for t, count in zip(INTERACTION_TYPES, types)}))
    return series


def type_party_totals(records: Records, node_attrs: dict[str, dict]) -> dict:
    """Intra-/inter-party counts per interaction type of the records that
    :func:`build_graph` includes."""
    table = _as_table(records)
    included, party = _included(table, node_attrs, BuildReport())
    inter = party[table.person1[included]] != party[table.person2[included]]
    counts = np.bincount(table.type_code[included] * 2 + inter,
                         minlength=2 * len(INTERACTION_TYPES)).tolist()
    return {t: {"intra": counts[2 * i], "inter": counts[2 * i + 1]}
            for i, t in enumerate(INTERACTION_TYPES)}


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


def record_distances(records: Records, node_attrs: dict[str, dict]) -> list[float | None]:
    """Per record, :func:`interaction_distance` from its location to both
    people's ``birthplace``; None where any of the three is missing. A leg
    depends only on its two points, so each distinct (location, birthplace)
    leg is computed once with :func:`haversine_km`, and each record adds its
    two legs in :func:`interaction_distance`'s order: every distance has the
    bits of one call per record."""
    table = _as_table(records)
    birthplaces = [node_attrs.get(key, {}).get("birthplace") for key in table.keys]
    placed = np.array([bool(bp) for bp in birthplaces], dtype=bool)
    computed = np.flatnonzero(~np.isnan(table.lat) & ~np.isnan(table.lon)
                              & placed[table.person1] & placed[table.person2])
    distances: list[float | None] = [None] * len(table)
    if not len(computed):
        return distances
    # each distinct point by its bits: the records' locations, the people's birthplaces
    locations, location = np.unique(
        np.stack([table.lat[computed], table.lon[computed]], axis=1).view(np.int64),
        axis=0, return_inverse=True)
    places, place = np.unique(
        np.array([bp if bp else (np.nan, np.nan) for bp in birthplaces], dtype=float)
        .view(np.int64), axis=0, return_inverse=True)
    locations, places = locations.view(float).tolist(), places.view(float).tolist()
    legs, leg = np.unique(np.concatenate([
        location.ravel() * len(places) + place.ravel()[table.person1[computed]],
        location.ravel() * len(places) + place.ravel()[table.person2[computed]]]),
        return_inverse=True)
    lengths = np.array([haversine_km(*locations[code // len(places)], *places[code % len(places)])
                        for code in legs.tolist()])
    for i, distance in zip(computed.tolist(),
                           (lengths[leg[:len(computed)]] + lengths[leg[len(computed):]]).tolist()):
        distances[i] = distance
    return distances


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
    u, v, w = graph.u, graph.v, graph.w
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

    edges = list(zip(graph.u.tolist(), graph.v.tolist()))
    neighbours = [set() for _ in range(graph.n_nodes)]
    for (i, j) in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    # Every triangle is seen once from each of its three edges.
    triangles = sum(len(neighbours[i] & neighbours[j]) for (i, j) in edges) / 3
    triads = float(sum(k * (k - 1) / 2 for k in degrees))
    clustering = 3.0 * triangles / triads if triads else 0.0

    alpha, tail = fit_power_law([int(k) for k in degrees], k_min=k_min)
    return GraphStats(degree_histogram=histogram, clustering=clustering,
                      alpha=alpha, alpha_k_min=k_min, alpha_tail_size=tail,
                      pagerank=pagerank(graph))


# ---------------------------------------------------------------------------
# Time series and exports

def polarization_series(records: Records,
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
    for year, window, graph in _window_graphs(_as_table(records), node_attrs, cumulative):
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
    for i, j, weight in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
        writer.writerow([graph.nodes[i], graph.nodes[j], weight])
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
    for eid, (i, j, weight) in enumerate(zip(graph.u.tolist(), graph.v.tolist(),
                                            graph.w.tolist())):
        lines.append(f'      <edge id="{eid}" source="{i}" target="{j}" '
                     f'weight="{weight}"/>')
    lines.append('    </edges>')
    lines.append('  </graph>')
    lines.append('</gexf>')
    return "\n".join(lines) + "\n"
