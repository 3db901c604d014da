"""The null-model kernels: degree-preserving rewiring and edge-list modularity.

``rewire_edges`` is the null-model sampler: a double-edge-swap chain run for
a fixed number of steps, a rejected swap counting as a step.
``rewire_ensemble`` draws many such samples, of one graph or of several, as
lanes of one call, and ``modularity_edges`` scores one edge list, or many
at once, under a node partition. The rewiring draws from splitmix64 (Steele,
Lea & Flood 2014), which is counter-based: draw *i* under seed *s* is
``mix(s + i * gamma)``, so blocks of draws, of one stream or of one stream
per lane, are computed in NumPy rather than one at a time (Salmon et al.
2011). The rewiring's adjacency is a flat byte table of n² bytes per lane,
entry ``a * n + d`` for the pair (a, d). Outputs are deterministic per seed
and pinned by the golden digests in ``tests/test_accel.py``.
"""

from __future__ import annotations

import numpy as np

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MULT1 = 0xBF58476D1CE4E5B9
_SM_MULT2 = 0x94D049BB133111EB
_SEED_MASK = 0x7FFFFFFFFFFFFFFF  # the stream of every seed depends on this mask
# The draws of at most this many steps are held at once.
_BLOCK_STEPS = 512
# Lockstep lanes draw the numbers of this many steps at once.
_LANE_BLOCK_STEPS = 64
# The lanes of one ensemble group hold about this many bytes at most (see
# _lane_bytes), and a group of at least LOCKSTEP_LANES lanes steps in
# lockstep; a smaller one runs rewire_edges lane by lane. Both were picked by
# measurement (see CHANGES.md): on one graph, lockstep beats rewire_edges
# from about 56 lanes at n=20 and from fewer at n=37 and n=100; on the
# README fixture's --cumulative run, 8 MB was as fast as 16 MB with 12 MB
# less peak memory, and 2 MB was slower by half.
# Together they keep graphs of more than about 350 nodes on rewire_edges.
ENSEMBLE_BUDGET = 8 << 20
LOCKSTEP_LANES = 64

# There is no compiled path; kept because benchmark results record it.
NUMBA_ACTIVE = False


def modularity_edges(u, v, w, comm, n_nodes, n_comms, lane, n_lanes):
    """Q = s_in/2m - sum_c (S_c/2m)^2 over the signed strength k.

    Scores ``n_lanes`` graphs in one call, given ``lane``, the lane of each
    edge, and returns their Qs: ``u`` and ``v`` index one table of
    ``n_nodes`` nodes that holds every lane's nodes, and ``comm`` maps a node
    of lane l to community ``l * n_comms + c``. Every sum is a ``bincount``,
    which adds in input order, so a lane's Q does not depend on the lanes
    scored with it.
    """
    k = np.bincount(np.stack([u, v], 1).ravel(), weights=np.repeat(w, 2),
                    minlength=n_nodes)
    m2 = 2.0 * np.bincount(lane, weights=w, minlength=n_lanes)
    inside = comm[u] == comm[v]
    q = 2.0 * np.bincount(lane[inside], weights=w[inside], minlength=n_lanes) / m2
    strength = np.bincount(comm, weights=k, minlength=n_lanes * n_comms)
    for s in strength.reshape(n_lanes, n_comms).T:
        q -= (s / m2) ** 2
    return q


def _splitmix(seed, start, count):
    """Outputs ``start+1 .. start+count`` of the splitmix64 stream of ``seed``;
    given arrays of seeds and starts, one row per stream."""
    z = np.add.outer(np.asarray(start, dtype=np.uint64),
                     np.arange(1, count + 1, dtype=np.uint64))
    z *= np.uint64(_SM_GAMMA)
    z += np.asarray(seed, dtype=np.uint64)[..., None]  # uint64 arithmetic wraps modulo 2**64
    z ^= z >> np.uint64(30)
    z *= np.uint64(_SM_MULT1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_SM_MULT2)
    z ^= z >> np.uint64(31)
    return z


def rewire_edges(u, v, w, n_nodes, steps, seed):
    """Double-edge-swap chain of ``steps`` steps, then a Fisher-Yates shuffle
    of the weights.

    Each step draws two edge indices and, unless they coincide, a flip bit,
    and proposes that swap. A rejected proposal is a step that keeps the
    current graph (Fosdick et al. 2018), so the chain's stationary
    distribution is uniform over the simple graphs with the degree sequence
    of ``(u, v)``. Returns the rewired ``(u2, v2, w2)`` and the accepted
    swap count.
    """
    seed = int(seed) & _SEED_MASK
    m, n = u.shape[0], int(n_nodes)
    uu, vv = u.tolist(), v.tolist()
    adj = bytearray(n * n)
    for a, b in zip(uu, vv):
        adj[a * n + b] = adj[b * n + a] = 1

    drawn = accepted = 0
    for start in range(0, steps if m >= 2 else 0, _BLOCK_STEPS):
        # A step uses at most 3 draws. Draws are counter-based, so a block
        # starts at the first unused draw, and the block size changes no
        # output.
        block = min(_BLOCK_STEPS, steps - start)
        z = _splitmix(seed, drawn, 3 * block)
        edge, flip, i = (z % np.uint64(m)).tolist(), (z & np.uint64(1)).tolist(), 0
        for _ in range(block):
            e1, e2 = edge[i], edge[i + 1]
            if e1 == e2:
                i += 2
                continue
            a, b = uu[e1], vv[e1]
            if flip[i + 2]:
                c, d = vv[e2], uu[e2]
            else:
                c, d = uu[e2], vv[e2]
            i += 3
            an, cn = a * n, c * n
            if a == d or c == b or adj[an + d] or adj[cn + b]:
                continue
            bn, dn = b * n, d * n
            adj[an + b] = adj[bn + a] = adj[cn + d] = adj[dn + c] = 0
            adj[an + d] = adj[dn + a] = adj[cn + b] = adj[bn + c] = 1
            uu[e1], vv[e1] = a, d
            uu[e2], vv[e2] = c, b
            accepted += 1
        drawn += i

    bounds = np.arange(m, 1, -1, dtype=np.uint64)
    perm = list(range(m))
    for top, j in zip(range(m - 1, 0, -1),
                      (_splitmix(seed, drawn, len(bounds)) % bounds).tolist()):
        perm[top], perm[j] = perm[j], perm[top]

    return (np.array(uu, dtype=np.int64), np.array(vv, dtype=np.int64),
            w[np.array(perm, dtype=np.int64)], accepted)


def _lane_bytes(n_nodes, m):
    """Bytes a lockstep lane holds: its adjacency table, its edge arrays and
    shuffle draws, and one block of step draws with their temporaries."""
    return n_nodes * n_nodes + 96 * m + 40 * 3 * _LANE_BLOCK_STEPS


def _steps_run(graph):
    """The steps ``rewire_edges`` runs on ``graph``: none below two edges."""
    return int(graph[4]) if len(graph[0]) >= 2 else 0


def _ragged_arange(lengths):
    """``0 .. n-1`` for each n of ``lengths``, concatenated."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) - np.repeat(starts, lengths)


def rewire_ensemble(graphs, lanes):
    """Many null samples in one call, each one lane.

    ``graphs`` holds ``(u, v, w, n_nodes, steps)`` tuples, the arguments of
    :func:`rewire_edges` but the seed, and ``lanes`` the ``(graph index,
    seed)`` of each sample. Lanes are ordered by step count, longest first,
    and cut into groups of at most ``ENSEMBLE_BUDGET`` bytes (one lane at
    least). A group of ``LOCKSTEP_LANES`` lanes or more advances all its
    lanes one step at a time in NumPy; a smaller one calls ``rewire_edges``
    for each lane. Either way a lane's outputs equal ``rewire_edges`` on its
    graph and seed, bit for bit.

    Yields one tuple per group: the indices of its lanes in ``lanes``, then
    their ``u2``, ``v2`` and ``w2`` concatenated in that order, and their
    accepted counts.
    """
    steps = np.array([_steps_run(g) for g in graphs], dtype=np.int64)
    size = [_lane_bytes(int(g[3]), len(g[0])) for g in graphs]
    lane_graph = np.array([g for g, _ in lanes], dtype=np.int64)
    group, held = [], 0
    for i in np.argsort(-steps[lane_graph], kind="stable").tolist():
        lane_size = size[lanes[i][0]]
        if group and held + lane_size > ENSEMBLE_BUDGET:
            yield _run_group(graphs, lanes, group)
            group, held = [], 0
        group.append(i)
        held += lane_size
    if group:
        yield _run_group(graphs, lanes, group)


def _run_group(graphs, lanes, group):
    idx = np.array(group, dtype=np.int64)
    if len(group) >= LOCKSTEP_LANES:
        return (idx, *_lockstep([graphs[lanes[i][0]] for i in group],
                                [lanes[i][1] for i in group]))
    outs = [rewire_edges(*graphs[g], seed) for g, seed in (lanes[i] for i in group)]
    return (idx, *(np.concatenate([o[k] for o in outs]) for k in range(3)),
            np.array([o[3] for o in outs], dtype=np.int64))


def _lockstep(gs, seeds):
    """``rewire_edges`` of each lane ``(gs[l], seeds[l])``, all lanes at once;
    ``gs`` is ordered by step count, longest first, so that the lanes still
    stepping are always a prefix.

    A lane's edges are stored flat, endpoint ``2e`` and ``2e + 1`` of its
    edge e, after those of the lanes before it, and its adjacency table
    after theirs. The table's diagonal is set: a proposal that would make
    a loop, or whose two edges coincide, then finds its new pair present
    and is rejected like one that would make a multi-edge.
    """
    n_lanes = len(gs)
    seed = np.array([int(s) & _SEED_MASK for s in seeds], dtype=np.uint64)
    m = np.array([len(g[0]) for g in gs], dtype=np.int64)
    n = np.array([int(g[3]) for g in gs], dtype=np.int64)
    steps = [_steps_run(g) for g in gs]
    first = np.cumsum(m) - m  # each lane's first edge
    base = np.cumsum(n * n) - n * n  # each lane's adjacency table
    ends = np.empty(2 * m.sum(), dtype=np.int64)
    ends[0::2] = np.concatenate([g[0] for g in gs])
    ends[1::2] = np.concatenate([g[1] for g in gs])
    rows = ends * np.repeat(n, 2 * m) + np.repeat(base, 2 * m)  # each endpoint's table row
    adj = np.zeros((n * n).sum(), dtype=bool)
    adj[rows[0::2] + ends[1::2]] = adj[rows[1::2] + ends[0::2]] = True
    adj[np.repeat(base, n) + _ragged_arange(n) * np.repeat(n + 1, n)] = True

    drawn = np.zeros(n_lanes, dtype=np.uint64)
    accepted = np.zeros(n_lanes, dtype=np.int64)
    width = 3 * _LANE_BLOCK_STEPS  # a step uses at most 3 draws
    active = n_lanes
    for start in range(0, steps[0], _LANE_BLOCK_STEPS):
        while steps[active - 1] <= start:
            active -= 1
        # The block's draws of each active lane, one row per lane: ``slot``
        # maps a draw to the slot of the first endpoint of the edge it
        # picks, ``flip`` to its low bit (both below 2**63, so their uint64
        # bits read as int64). A step reads two slots and, unless they
        # coincide, one flip.
        flip = _splitmix(seed[:active], drawn[:active], width)
        slot = (flip % m[:active, None].astype(np.uint64)).view(np.int64)
        slot *= 2
        slot += 2 * first[:active, None]
        slot = slot.ravel()
        flip &= np.uint64(1)
        flip = flip.view(np.int64).ravel()
        row_start = np.arange(active) * width
        at = row_start.copy()  # each lane's next draw
        k = active
        for step in range(start, min(start + _LANE_BLOCK_STEPS, steps[0])):
            while steps[k - 1] <= step:
                k -= 1
            p = at[:k]
            e1, e2 = slot[p], slot[p + 1]
            coincide = e1 == e2
            c_at = e2 + flip[p + 2]  # the slot of c; d is its partner, c_at ^ 1
            p += 3
            p -= coincide
            b_at, d_at = e1 + 1, c_at ^ 1
            b, d = ends[b_at], ends[d_at]
            an, cn = rows[e1], rows[c_at]
            ok = ~(adj[an + d] | adj[cn + b])
            accepted[:k] += ok
            ok = np.flatnonzero(ok)
            if not ok.size:
                continue
            a, b, c, d = ends[e1[ok]], b[ok], ends[c_at[ok]], d[ok]
            b_at, e2 = b_at[ok], e2[ok]
            an, bn, cn, dn = an[ok], rows[b_at], cn[ok], rows[d_at[ok]]
            adj[an + b] = adj[bn + a] = adj[cn + d] = adj[dn + c] = False
            adj[an + d] = adj[dn + a] = adj[cn + b] = adj[bn + c] = True
            # (a, b), (c, d) become (a, d), (c, b), as in rewire_edges
            ends[b_at], rows[b_at] = d, dn
            ends[e2], rows[e2] = c, cn
            e2 += 1
            ends[e2], rows[e2] = b, bn
        drawn[:active] += (at - row_start).astype(np.uint64)
        del slot, flip  # before the next block's are drawn

    # Fisher-Yates, one column at a time over the lanes with that column:
    # column t swaps the lane's entry m-1-t with its draw modulo m-t.
    order = np.argsort(-m, kind="stable")
    om, ofirst = m[order], first[order]
    cols = int(om[0]) - 1
    perm = _ragged_arange(m)
    if cols > 0:
        bounds = np.maximum(om[:, None] - np.arange(cols), 1).astype(np.uint64)
        pick = _splitmix(seed[order], drawn[order], cols)
        pick %= bounds
        pick = pick.view(np.int64)
        pick += ofirst[:, None]
        top = ofirst + om - 1
        k = n_lanes
        for t in range(cols):
            while om[k - 1] < t + 2:
                k -= 1
            x, y = top[:k] - t, pick[:k, t]
            px = perm[x]
            perm[x] = perm[y]
            perm[y] = px
    w2 = np.concatenate([g[2] for g in gs])[np.repeat(first, m) + perm]
    return ends[0::2].copy(), ends[1::2].copy(), w2, accepted
