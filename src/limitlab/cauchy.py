"""Hierarchical product with a strictly lower-triangular Cauchy matrix.

``lower_matvec(v, x, y)`` returns

    out[j] = sum_{i < j} v[i] / (x[j] - y[i])

for y strictly increasing and x[j] > y[j-1], so that every denominator is
positive.  It is a one-dimensional fast multipole scheme (Greengard & Rokhlin
1987; Dutt, Gu & Rokhlin 1996) in numpy, vectorised per tree level:

- Indices are cut into leaves of ``LEAF`` consecutive entries, and leaves
  into a dyadic tree of index blocks.
- Near field: each leaf's own strictly lower block and the full block of its
  left neighbour are summed densely.
- Far field: every block carries charges, the sum of its v[i] times the
  Lagrange basis at y[i] on ``ORDER`` Chebyshev points spanning its
  y-range.  Charges are formed at the leaves and passed up the tree; the
  passing is exact, since a parent's basis is a polynomial of degree
  ORDER - 1.  At each level a target leaf meets the standard 1-D interaction
  list, the children of its parent's left neighbour and of its parent that
  are not its own neighbour, and sums the charges against 1/(x[j] - node).
- Index separation is not value separation: where y is concave
  (y = i^gamma, gamma < 1) the first blocks are wide in y.  A target leaf and
  source block with (min x - centre) < ``SEPARATION`` * half-width are pushed
  down to the source block's two children, and at the leaf level summed
  densely.

Error budget.  On a source block with centre c and half-width h, the
Chebyshev interpolant of 1/(x - y) at r = (x - c)/h has relative error at
most 4 (r + 1) rho^-ORDER / (sqrt(r^2 - 1) (1 - 1/rho)) with
rho = r + sqrt(r^2 - 1).  Far-field pairs have r >= SEPARATION = 3, which at
ORDER = 20 bounds each far-field term to 3.4e-15 relative.  For v >= 0 every
term is positive, so the same bound, plus round-off, holds for each out[j].

Every temporary is cut into slices of at most ``_SLICE`` float64 values
(2 MiB), so memory stays flat in n.  Cost: O(n LEAF) near field and
O(n ORDER log(n / LEAF)) far field.
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
_SLICE = 1 << 18

_THETA = (2 * np.arange(ORDER) + 1) * np.pi / (2 * ORDER)
_NODES = np.cos(_THETA)  # Chebyshev points of the first kind on [-1, 1]
_BARY = (-1.0) ** np.arange(ORDER) * np.sin(_THETA)  # their barycentric weights


def _lagrange(u: np.ndarray) -> np.ndarray:
    """L[..., k]: the k-th Lagrange basis polynomial on _NODES at u."""
    d = u[..., None] - _NODES
    d[d == 0.0] = 1e-300  # u on a node: the basis there is 1, the others 0
    w = _BARY / d
    return w / w.sum(axis=-1, keepdims=True)


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
    V = np.pad(np.asarray(v, dtype=float), (0, pad)).reshape(nl, LEAF)
    X = np.pad(np.asarray(x, dtype=float), (0, pad), constant_values=np.inf).reshape(nl, LEAF)
    Y = np.pad(np.asarray(y, dtype=float), (0, pad), mode="edge").reshape(nl, LEAF)
    out = np.zeros((nl, LEAF))

    def dense(b, a, mask=None):
        """out[b] += block(b, a) @ V[a] for leaf pairs (b, a)."""
        for s in _slices(b.size, LEAF * LEAF):
            d = X[b[s], :, None] - Y[a[s], None, :]
            k = 1.0 / d if mask is None else np.divide(1.0, d, out=np.zeros_like(d), where=mask)
            np.add.at(out, b[s], np.einsum("brc,bc->br", k, V[a[s]]))

    leaves = np.arange(nl)
    dense(leaves, leaves, np.tri(LEAF, k=-1, dtype=bool))
    dense(leaves[1:], leaves[:-1])
    if nl < 3:
        return out.ravel()[:n]

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
        b = np.concatenate([leaves[even], leaves[odd], near_b, near_b])
        a = np.concatenate([J[even] - 2, J[odd] - 3, 2 * near_a, 2 * near_a + 1])
        far = xmin[b] - c[a] >= SEPARATION * h[a]
        fb, fa = b[far], a[far]
        for s in _slices(fb.size, LEAF * ORDER):
            nodes = c[fa[s], None] + h[fa[s], None] * _NODES
            k = 1.0 / (X[fb[s], :, None] - nodes[:, None, :])
            np.add.at(out, fb[s], np.einsum("brk,bk->br", k, W[fa[s]]))
        near_b, near_a = b[~far], a[~far]
    dense(near_b, near_a)
    return out.ravel()[:n]
