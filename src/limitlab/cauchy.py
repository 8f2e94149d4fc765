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
  ghost leaf (v = 0) stands before leaf 0 and padding (v = 0) fills the last
  leaf; +inf is added on and above the diagonal of the own leaf, over the
  ghost and over the padding rows, so those entries divide to 0.
- Far field: every block carries charges, the sum of its v[i] times the
  Lagrange basis at y[i] on ``ORDER`` Chebyshev points spanning its
  y-range.  Charges are formed at the leaves and passed up the tree; the
  passing is exact, since a parent's basis is a polynomial of degree
  ORDER - 1.  At each level a target leaf meets the standard 1-D interaction
  list, the children of its parent's left neighbour and of its parent that
  are not its own neighbour.  Each of the two lists names a target leaf at
  most once, so it adds into the leaf directly.
- Local values: from ``_LOCAL_LEAVES`` leaves on, a leaf also carries ORDER
  Chebyshev points spanning its x-range [min x, max x] (x need not be
  monotone), centre c_b and half-width h_b.  A far pair with
  c_b - (c + h) >= SEPARATION * h_b adds its charges against
  1/(x node - y node) into the leaf's local values, one ORDER x ORDER
  product (multipole to local); the leaf sums its local values against the
  Lagrange basis at each x[j] once, at the end.  Other far pairs sum the
  charges against 1/(x[j] - y node) at every target.  Every difference to a
  node is taken through the centres, (x[j] - c) - h t_l or
  (c_b - c) + h_b t_k - h t_l, so it carries no rounding of the order of
  ulp(x) / (x - y).
- Index separation is not value separation: where y is concave
  (y = i^gamma, gamma < 1) the first blocks are wide in y.  A target leaf and
  source block with (min x - centre) < ``SEPARATION`` * half-width are pushed
  down to the source block's two children, and at the leaf level summed
  densely.  A target can meet several pushed-down blocks, so these pairs,
  and only these, add into ``out`` through ``np.add.at``, and never through
  local values.

Error budget.  On an interval with centre c and half-width h, the Chebyshev
interpolant of 1/(x - y) in y at r = (x - c)/h has relative error at most
eps(r) = 4 (r + 1) rho^-ORDER / (sqrt(r^2 - 1) (1 - 1/rho)) with
rho = r + sqrt(r^2 - 1), and by symmetry so has the interpolant in x.  Far
pairs have r >= SEPARATION = 3 on the source side, and eps(3) = 3.4e-15 at
ORDER = 20 bounds each term summed at the targets.  A pair through local
values is interpolated on both sides, each at r >= 3: the x-side error of
each source node's term, at most (r + 1)/(r - 1) = 2 times the true term,
is carried through the source-side basis, whose Lebesgue constant is below
2.91, so each term is off by at most (1 + 2 * 2.91) eps(3) = 2.3e-14
relative.  For v >= 0 every term is positive, so that bound, plus
round-off, holds for each out[j].  Measured against a long-double dense sum
at n = 2e4, with v uniform on [0, 1): at most 7.3e-16 relative over the
power, scale and branching kernels of the tests and y = i^gamma down to
gamma = 0.02.

Kernel blocks.  Every outer difference a - b that forms a block
(near-field windows and pushed pairs, the bases' u - t_k, multipole-to-local
and per-target blocks) is one rank-2 product [a, 1] @ [1; -b]
(``_difference``).  Each entry
a * 1 + 1 * (-b) is two exact products and one rounded sum, so it has the
bits of the subtraction, also at zero differences (u on a node) and at any
BLAS thread count.  A broadcast subtraction pays numpy's fixed cost on every
short inner loop (20 nodes, a 128-wide window); the product forms a whole
leaf's or pair's block in one call.  Its operands are kept finite, since a
BLAS flag from inf would reach numpy: the ghost and the padding hold finite
values, masked after the product, and a partial last leaf takes no local
values.  At n = 1e4 (1e5), power alpha = 2, forming the blocks takes 4.3
(34) ms of one matvec as products against 7.1 (54) ms as broadcasts; all the
reciprocals take 2.2 (23) ms.

Every temporary is cut into tiles of at most ``_SLICE`` float64 values
(512 KiB), so memory stays flat in n and the two or three arrays a step holds
at once stay in a 2 MiB L2 cache.  A tile groups whole leaves or whole
pairs, so out[j] gets the same terms in the same order at any tile size.
Cost: O(n LEAF) near field and O(n ORDER log(n / LEAF)) far field.  For the
power kernel alpha = 2 at n = 1e4 (1e5), each out[j] takes 2 LEAF = 128
near-field entries and 72 (101) far-field entries, the multipole-to-local
and local evaluation shares included (160 (260) without local values), at
about 0.78 (0.67) us per row in all on a 2-core x86-64 host with 2 MiB of L2
per core; branching with B = 0.5 takes 126 (152) far-field entries and 0.99
(0.81) us per row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LEAF", "ORDER", "SEPARATION", "lower_matvec"]

# Leaf size: the dense near field costs 2 LEAF per entry, the far field
# ORDER per entry and level; 64 balances the two at ORDER = 20.
LEAF = 64
# Chebyshev points per block, and the separation r = (x - c)/h that a far-field
# pair needs: together they bound each interpolation to 3.4e-15 relative.
ORDER = 20
SEPARATION = 3.0
# Floats per temporary tile.  Median ms of one matvec, power kernel alpha = 2,
# tile sizes interleaved in one process, the range over two sweeps, on a
# 2-core x86-64 host with 2 MiB of L2 per core:
#   tile      2^14       2^15       2^16       2^17       2^18
#   n = 2e3   2.16-2.24  2.03-2.12  1.92-2.00  2.09-2.18  2.16-2.26
#   n = 1e4   8.72-9.69  7.77-7.94  7.39-7.59  8.72-9.08  9.75-10.19
#   n = 1e5   89.0-91.8  75.2-76.0  69.5-74.3  72.7-76.0  102-108
# At 2^16 a near-field tile is 8 leaves, so n <= 512 still runs as one tile.
_SLICE = 1 << 16
# Leaves from which far pairs may go through local values.  Median ms of one
# matvec with / without, 25 interleaved pairs, same host, power alpha = 2,
# branching B = 0.5, scale gamma = 3: 24 leaves 1.59/1.68, 2.25/2.30, 1.97/1.92;
# 32 leaves 2.29/2.40, 2.89/2.93, 2.32/2.35; 48 leaves 3.01/3.44, 3.69/3.88, 2.95/3.21.
_LOCAL_LEAVES = 32

_THETA = (2 * np.arange(ORDER) + 1) * np.pi / (2 * ORDER)
_NODES = np.cos(_THETA)  # Chebyshev points of the first kind on [-1, 1]
_BARY = (-1.0) ** np.arange(ORDER) * np.sin(_THETA)  # their barycentric weights
# +inf where a near-field window column is not strictly left of the target row
_MASK = np.where(np.arange(2 * LEAF) >= np.arange(LEAF, 2 * LEAF)[:, None], np.inf, 0.0)


def _difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., :, None] - b[..., None, :] for finite a and b, as the product [a, 1] @ [1; -b].

    Each entry a * 1 + 1 * (-b) has two exact products and one rounding, so it
    has the subtraction's bits.
    """
    p = np.ones(a.shape + (2,))
    p[..., 0] = a
    q = np.ones(b.shape[:-1] + (2, b.shape[-1]))
    np.negative(b, out=q[..., 1, :])
    return np.matmul(p, q)


def _basis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, s): r[..., k] = 1 / (u - _NODES[k]) and s = r @ _BARY.

    The k-th Lagrange basis polynomial at u is _BARY[k] r[..., k] / s, so a sum
    against the basis takes one more product.
    """
    d = _difference(u.ravel(), _NODES).reshape(u.shape + (ORDER,))
    if not d.all():
        d[d == 0.0] = 1e-30  # u on a node: its term outweighs the others by 1e27
    np.reciprocal(d, out=d)
    return d, d @ _BARY


def _charges(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W[..., k] = sum_i v[..., i] times the k-th Lagrange basis polynomial at u[..., i]."""
    r, s = _basis(u)
    return np.matmul((v / s)[..., None, :], r)[..., 0, :] * _BARY


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
    # flat copies led by a ghost leaf (v = 0) and padded to whole leaves (v = 0);
    # every value is finite, so it can be a product's operand
    vg = np.concatenate([np.zeros(LEAF), v, np.zeros(pad)])
    yg = np.concatenate([np.repeat(y[:1], LEAF), y, np.repeat(y[-1:], pad)])
    X = np.concatenate([x, np.repeat(x[-1:], pad)]).reshape(nl, LEAF)
    Y, V = yg[LEAF:].reshape(nl, LEAF), vg[LEAF:].reshape(nl, LEAF)
    out = np.empty((nl, LEAF))

    # near field: leaf b against the window [leaf b - 1, leaf b]; +inf on and
    # above the diagonal, over the ghost and over the padding rows divides to 0
    Yw, Vw = _windows(yg), _windows(vg)
    for s in _slices(nl, 2 * LEAF * LEAF):
        d = _difference(X[s], Yw[s])
        d += _MASK
        if s.start == 0:
            d[0, :, :LEAF] = np.inf
        if s.stop == nl:
            d[-1, LEAF - pad :] = np.inf
        np.reciprocal(d, out=d)
        out[s] = np.matmul(d, Vw[s, :, None])[..., 0]
    if nl < 3:
        return out.ravel()[:n]
    leaves = np.arange(nl)

    # upward pass: (centre, half-width, charges) of every block, level by level
    c, h = _interval(Y[:, 0], Y[:, -1])
    W = np.empty((nl, ORDER))
    for s in _slices(nl, LEAF * ORDER):
        W[s] = _charges((Y[s] - c[s, None]) / h[s, None], V[s])
    tree = [(c, h, W)]
    while (nl - 1) >> len(tree) >= 2:
        c, h, W = tree[-1]
        half = c.size // 2  # a last block without a sibling is never a source
        pc, ph = _interval(c[0 : 2 * half : 2] - h[0 : 2 * half : 2], c[1 : 2 * half : 2] + h[1 : 2 * half : 2])
        PW = np.zeros((half, ORDER))
        for child in (0, 1):
            cc, ch, cw = c[child : 2 * half : 2], h[child : 2 * half : 2], W[child : 2 * half : 2]
            for s in _slices(half, ORDER * ORDER):
                PW[s] += _charges(((cc[s] - pc[s])[:, None] + ch[s, None] * _NODES) / ph[s, None], cw[s])
        tree.append((pc, ph, PW))

    # downward pass: interaction lists, pairs too close in value go to the children;
    # a far pair that is also far from the target leaf's x-range adds into the
    # leaf's local values at ORDER Chebyshev points spanning that range
    xmin = X.min(axis=1)
    local = nl >= _LOCAL_LEAVES
    if local:
        hx = np.maximum((X.max(axis=1) - xmin) / 2, 1e-12 * np.abs(xmin) + 1e-300)
        if pad:
            hx[-1] = np.inf  # a partial leaf fails the local test: its far field is summed per target
        cx, L = xmin + hx, np.zeros((nl, ORDER))
    near_b = near_a = np.empty(0, dtype=int)
    for level in range(len(tree) - 1, -1, -1):
        c, h, W = tree.pop()
        J = leaves >> level
        even, odd = J >= 2, (J >= 3) & (J % 2 == 1)
        pushed = (np.concatenate([near_b, near_b]), np.concatenate([2 * near_a, 2 * near_a + 1]))
        # a regular list names each target leaf at most once; pushed pairs may repeat one
        lists = [(leaves[even], J[even] - 2, True), (leaves[odd], J[odd] - 3, True), (*pushed, False)]
        near = []
        for b, a, unique in lists:
            far = xmin[b] - c[a] >= SEPARATION * h[a]
            near.append((b[~far], a[~far]))
            if local and unique:
                # centre of the leaf's range minus (c + h) is at least SEPARATION * hx
                m2l = far & (xmin[b] - (c[a] + h[a]) >= (SEPARATION - 1) * hx[b])
                lb, la = b[m2l], a[m2l]
                for s in _slices(lb.size, ORDER * ORDER):
                    k = _difference(hx[lb[s], None] * _NODES, h[la[s], None] * _NODES)
                    k += (cx[lb[s]] - c[la[s]])[:, None, None]
                    np.reciprocal(k, out=k)
                    L[lb[s]] += np.matmul(k, W[la[s], :, None])[..., 0]
                far &= ~m2l
            fb, fa = b[far], a[far]
            for s in _slices(fb.size, LEAF * ORDER):
                k = _difference(X[fb[s]] - c[fa[s], None], h[fa[s], None] * _NODES)
                np.reciprocal(k, out=k)
                f = np.matmul(k, W[fa[s], :, None])[..., 0]
                if unique:
                    out[fb[s]] += f
                else:
                    np.add.at(out, fb[s], f)
        near_b, near_a = (np.concatenate(z) for z in zip(*near))
    del c, h, W  # the leaf charges: freed before the last tiles keeps the peak down

    # pairs pushed down to the leaves are summed densely
    for s in _slices(near_b.size, LEAF * LEAF):
        k = _difference(X[near_b[s]], Y[near_a[s]])
        np.reciprocal(k, out=k)
        np.add.at(out, near_b[s], np.matmul(k, V[near_a[s], :, None])[..., 0])

    # each leaf evaluates its local values once, at its own targets
    if local:
        lb = np.flatnonzero(L.any(axis=1))
        for s in _slices(lb.size, LEAF * ORDER):
            r, q = _basis((X[lb[s]] - cx[lb[s], None]) / hx[lb[s], None])
            out[lb[s]] += np.matmul(r, (L[lb[s]] * _BARY)[..., None])[..., 0] / q
    return out.ravel()[:n]
