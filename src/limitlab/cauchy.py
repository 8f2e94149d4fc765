"""Hierarchical product with a strictly lower-triangular Cauchy matrix.

``lower_matvec(v, x, y)`` returns

    out[j] = sum_{i < j} v[i] / (x[j] - y[i])

for y strictly increasing and x[j] > y[j-1], so that every denominator is
positive.  It is a one-dimensional fast multipole scheme (Greengard & Rokhlin
1987; Dutt, Gu & Rokhlin 1996) in numpy, vectorised per tree level:

- Indices are cut into leaves of ``LEAF`` consecutive entries, and leaves
  into a dyadic tree of index blocks.
- Near field: each leaf is one dense LEAF x 2 LEAF block, its left
  neighbour followed by its own leaf, applied by one batched ``matmul``.  A
  ghost leaf (y = -inf, v = 0) stands before leaf 0, and a constant mask adds
  +inf on and above the diagonal of the own leaf, so those entries divide
  to 0.
- Far field: every block carries charges, the sum of its v[i] times the
  Lagrange basis at y[i] on ``ORDER`` Chebyshev points spanning its
  y-range.  Charges are formed at the leaves and passed up the tree; the
  passing is exact, since a parent's basis is a polynomial of degree
  ORDER - 1.  At each level a target leaf meets the standard 1-D interaction
  list, the children of its parent's left neighbour and of its parent that
  are not its own neighbour, and sums the charges against 1/(x[j] - node).
  Each of the two lists names a target leaf at most once, so it adds into
  ``out`` directly.
- Index separation is not value separation: where y is concave
  (y = i^gamma, gamma < 1) the first blocks are wide in y.  A target leaf and
  source block with (min x - centre) < ``SEPARATION`` * half-width are pushed
  down to the source block's two children, and at the leaf level summed
  densely.  A target can meet several pushed-down blocks, so these pairs,
  and only these, add into ``out`` through ``np.add.at``.

Error budget.  On a source block with centre c and half-width h, the
Chebyshev interpolant of 1/(x - y) at r = (x - c)/h has relative error at
most 4 (r + 1) rho^-ORDER / (sqrt(r^2 - 1) (1 - 1/rho)) with
rho = r + sqrt(r^2 - 1).  Far-field pairs have r >= SEPARATION = 3, which at
ORDER = 20 bounds each far-field term to 3.4e-15 relative.  For v >= 0 every
term is positive, so the same bound, plus round-off, holds for each out[j].

Every temporary is cut into tiles of at most ``_SLICE`` float64 values
(512 KiB), so memory stays flat in n and the two or three arrays a step holds
at once stay in a 2 MiB L2 cache.  A tile groups whole leaves or whole
pairs, so out[j] gets the same terms in the same order at any tile size.
Cost: O(n LEAF) near field and O(n ORDER log(n / LEAF)) far field.  For the
power kernel at n = 1e4 (1e5), each out[j] takes 2 LEAF = 128 near-field
entries and 160 (260) far-field entries, at about 4.0 (3.8) and 5.0 (4.8) ns
each on a 2-core x86-64 host with 2 MiB of L2 per core; a bare subtract and
divide costs about 2 ns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LEAF", "ORDER", "SEPARATION", "lower_matvec"]

# Leaf size: the dense near field costs 2 LEAF per entry, the far field
# ORDER per entry and level; 64 balances the two at ORDER = 20.
LEAF = 64
# Chebyshev points per block, and the separation r = (x - c)/h that a far-field
# pair needs: together they bound each far-field term to 3.4e-15 relative.
ORDER = 20
SEPARATION = 3.0
# Floats per temporary tile.  Median ms of one matvec, power kernel alpha = 2,
# tile sizes interleaved in one process, the range over two sweeps, on a
# 2-core x86-64 host with 2 MiB of L2 per core:
#   tile      2^14       2^15       2^16       2^17       2^18
#   n = 2e3   3.3-4.2    3.4-4.0    3.8-3.9    3.8-4.0    3.9-4.2
#   n = 1e4   19.3-20.2  17.6-18.6  16.8-18.3  18.6-19.9  21.6-22.5
#   n = 1e5   242-252    212-213    194-206    211-229    240-251
# At 2^16 a near-field tile is 8 leaves, so n <= 512 still runs as one tile.
_SLICE = 1 << 16

_THETA = (2 * np.arange(ORDER) + 1) * np.pi / (2 * ORDER)
_NODES = np.cos(_THETA)  # Chebyshev points of the first kind on [-1, 1]
_BARY = (-1.0) ** np.arange(ORDER) * np.sin(_THETA)  # their barycentric weights
# +inf where a near-field window column is not strictly left of the target row
_MASK = np.where(np.arange(2 * LEAF) >= np.arange(LEAF, 2 * LEAF)[:, None], np.inf, 0.0)


def _lagrange(u: np.ndarray) -> np.ndarray:
    """L[..., k]: the k-th Lagrange basis polynomial on _NODES at u."""
    d = u[..., None] - _NODES
    if not d.all():
        d[d == 0.0] = 1e-300  # u on a node: the basis there is 1, the others 0
    np.divide(_BARY, d, out=d)
    d /= d.sum(axis=-1, keepdims=True)
    return d


def _windows(flat: np.ndarray) -> np.ndarray:
    """Read-only view whose row b is leaves b and b + 1 of a flat array of whole leaves."""
    s = flat.strides[0]
    return np.lib.stride_tricks.as_strided(flat, (flat.size // LEAF - 1, 2 * LEAF), (LEAF * s, s), writeable=False)


def _slices(count: int, per_item: int):
    step = max(1, _SLICE // per_item)
    for start in range(0, count, step):
        yield slice(start, min(count, start + step))


def _interval(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half-width of [lo, hi]; a one-point block gets a sliver of width."""
    c = (hi + lo) / 2
    return c, np.maximum((hi - lo) / 2, 1e-12 * np.abs(c) + 1e-300)


def lower_matvec(v: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[j] = sum_{i<j} v[i] / (x[j] - y[i]) for equal-length 1-D arrays."""
    n = v.size
    nl = -(-n // LEAF)
    pad = nl * LEAF - n
    # flat copies led by a ghost leaf (y = -inf, v = 0); the padding (x = inf, v = 0) adds no term
    vg = np.concatenate([np.zeros(LEAF), v, np.zeros(pad)])
    yg = np.concatenate([np.full(LEAF, -np.inf), y, np.repeat(y[-1:], pad)])
    X = np.concatenate([x, np.full(pad, np.inf)]).reshape(nl, LEAF)
    Y, V = yg[LEAF:].reshape(nl, LEAF), vg[LEAF:].reshape(nl, LEAF)
    out = np.empty((nl, LEAF))

    # near field: leaf b against the window [leaf b - 1, leaf b]; the ghost and
    # the +inf mask on and above the diagonal divide to 0
    Yw, Vw = _windows(yg), _windows(vg)
    for s in _slices(nl, 2 * LEAF * LEAF):
        d = X[s, :, None] - Yw[s, None, :]
        d += _MASK
        np.reciprocal(d, out=d)
        out[s] = np.matmul(d, Vw[s, :, None])[..., 0]
    if nl < 3:
        return out.ravel()[:n]
    leaves = np.arange(nl)

    # upward pass: (centre, half-width, charges) of every block, level by level
    c, h = _interval(Y[:, 0], Y[:, -1])
    W = np.empty((nl, ORDER))
    for s in _slices(nl, LEAF * ORDER):
        W[s] = np.einsum("bik,bi->bk", _lagrange((Y[s] - c[s, None]) / h[s, None]), V[s])
    tree = [(c, h, W)]
    while (nl - 1) >> len(tree) >= 2:
        c, h, W = tree[-1]
        half = c.size // 2  # a last block without a sibling is never a source
        pc, ph = _interval(c[0 : 2 * half : 2] - h[0 : 2 * half : 2], c[1 : 2 * half : 2] + h[1 : 2 * half : 2])
        PW = np.zeros((half, ORDER))
        for child in (0, 1):
            cc, ch, cw = c[child : 2 * half : 2], h[child : 2 * half : 2], W[child : 2 * half : 2]
            for s in _slices(half, ORDER * ORDER):
                nodes = cc[s, None] + ch[s, None] * _NODES
                PW[s] += np.einsum("bkl,bk->bl", _lagrange((nodes - pc[s, None]) / ph[s, None]), cw[s])
        tree.append((pc, ph, PW))

    # downward pass: interaction lists, pairs too close in value go to the children
    xmin = X.min(axis=1)
    near_b = near_a = np.empty(0, dtype=int)
    for level in range(len(tree) - 1, -1, -1):
        c, h, W = tree[level]
        J = leaves >> level
        even, odd = J >= 2, (J >= 3) & (J % 2 == 1)
        pushed = (np.concatenate([near_b, near_b]), np.concatenate([2 * near_a, 2 * near_a + 1]))
        # a regular list names each target leaf at most once; pushed pairs may repeat one
        lists = [(leaves[even], J[even] - 2, True), (leaves[odd], J[odd] - 3, True), (*pushed, False)]
        near = []
        for b, a, unique in lists:
            far = xmin[b] - c[a] >= SEPARATION * h[a]
            fb, fa = b[far], a[far]
            for s in _slices(fb.size, LEAF * ORDER):
                k = X[fb[s], :, None] - (c[fa[s], None] + h[fa[s], None] * _NODES)[:, None, :]
                np.reciprocal(k, out=k)
                f = np.matmul(k, W[fa[s], :, None])[..., 0]
                if unique:
                    out[fb[s]] += f
                else:
                    np.add.at(out, fb[s], f)
            near.append((b[~far], a[~far]))
        near_b, near_a = (np.concatenate(z) for z in zip(*near))

    # pairs pushed down to the leaves are summed densely
    for s in _slices(near_b.size, LEAF * LEAF):
        k = 1.0 / (X[near_b[s], :, None] - Y[near_a[s], None, :])
        np.add.at(out, near_b[s], np.matmul(k, V[near_a[s], :, None])[..., 0])
    return out.ravel()[:n]
