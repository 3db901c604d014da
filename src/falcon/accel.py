"""The null-model kernels: degree-preserving rewiring and edge-list modularity.

``rewire_edges`` is the null-model sampler, called once per null sample of a
standardized modularity report: a double-edge-swap chain run for a fixed
number of steps, a rejected swap counting as a step. ``modularity_edges``
scores an edge list under a node partition. The rewiring draws from
splitmix64 (Steele, Lea & Flood 2014), which is counter-based: draw *i*
under seed *s* is ``mix(s + i * gamma)``, so blocks of draws are computed in
NumPy rather than one at a time. The rewiring's adjacency is a flat byte
table of n² bytes, entry ``a * n + d`` for the pair (a, d): the size of an
(n, n) bool array, but read and written as plain ints rather than NumPy
scalars. Outputs are deterministic per seed and pinned by the golden digests
in ``tests/test_accel.py``.
"""

from __future__ import annotations

import numpy as np

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MULT1 = 0xBF58476D1CE4E5B9
_SM_MULT2 = 0x94D049BB133111EB
_SEED_MASK = 0x7FFFFFFFFFFFFFFF  # the stream of every seed depends on this mask
# The draws of at most this many steps are held at once.
_BLOCK_STEPS = 512

# There is no compiled path; kept because benchmark results record it.
NUMBA_ACTIVE = False


def modularity_edges(u, v, w, comm, n_nodes, n_comms):
    """Q = s_in/2m - sum_c (S_c/2m)^2 over the signed strength k."""
    k = np.bincount(np.stack([u, v], 1).ravel(), weights=np.repeat(w, 2),
                    minlength=n_nodes)
    m2 = k.sum()
    q = 2.0 * w[comm[u] == comm[v]].sum() / m2
    for s in np.bincount(comm, weights=k, minlength=n_comms):
        q -= (s / m2) ** 2
    return q


def _splitmix(seed, start, count):
    """Outputs ``start+1 .. start+count`` of the splitmix64 stream of ``seed``."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_SM_GAMMA)
    z += np.uint64(seed)  # uint64 array arithmetic wraps modulo 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MULT1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MULT2)
    return z ^ (z >> np.uint64(31))


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
