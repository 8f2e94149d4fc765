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
(near-field windows and pushed pairs, the bases' u - t_k and per-target
blocks) is one rank-2 product [a, 1] @ [1; -b] (``_difference``).  Each entry
a * 1 + 1 * (-b) is two exact products and one rounded sum, so it has the
bits of the subtraction, also at zero differences (u on a node) and at any
BLAS thread count.  A multipole-to-local block, (hx t_l - h t_m) + (cx - c),
is one rank-3 product [hx t_l, 1, 1] @ [1; -h t_m; cx - c] (``_m2l``): its
three products are exact and BLAS adds the k terms in order, so each entry
has the bits of the subtraction followed by ``+= cx - c``, with no second
pass.  ``test_rank3_difference_has_the_bits_of_the_subtraction_then_the_shift``
pins that order at 1 and 2 BLAS threads, on inputs where the three groupings
of the sum differ.  A per-target block stays rank-2: its shift x[j] - c lies
on the (pairs, LEAF) operand, not on the block.  A broadcast subtraction pays
numpy's fixed cost on every short inner loop (20 nodes, a 128-wide window);
the product forms a whole leaf's or pair's block in one call.  Its operands
are kept finite, since a BLAS flag from inf would reach numpy: the ghost and
the padding hold finite values, masked after the product, and a partial last
leaf takes no local values.  Median ms of one formed product, power
alpha = 2, by ``tests/matvec_split.py`` on the 2-core host of the figures
below: at n = 1e4 (1e5) forming takes 5.7 (51) of 6.9 (64) ms, and the
multipole-to-local blocks 1.0 (14.4) of it, against 1.2 (18.6) as a rank-2
product and a second pass.

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

Plan and apply.  Only the products depend on v.  Every other array a
product uses is a block, formed from (x, y) alone: the leaf layout, the
near-field windows, the charge and M2M bases, the tree's centres and
half-widths, each level's interaction lists split into multipole-to-local,
per-target and pushed pairs, the multipole-to-local, per-target and
pushed-pair kernels, the set of leaves with local values (every leaf that
met a multipole-to-local pair) and their local bases.  ``_Plan.apply(v)``
forms each through ``_Plan._block``, in the same order at every product.
``lower_matvec`` is ``_Plan(x, y).apply(v)``: a plan for a single product
keeps nothing, so each block is formed in its tile and freed, with the peak
of a product without a plan and 15-30 us more Python per product (4-9% at
n = 200 and 500, 1-3% from n = 5000 on).  A Psi table of order m applies one
plan m - 1 times (``multisum``).  Its first product keeps each block that
fits in what is left of ``_KEEP`` = 2^20 floats (8 MiB, 16 tiles); a later
product reads the kept blocks and forms the others again.  A kept block is
the array the first product formed and used, so each product has the bytes
of a ``lower_matvec`` call at any budget, tile size and BLAS thread count.
A whole plan is 200-290 floats per entry, the near field's 2 LEAF included,
so the budget holds it up to n of about 4000, and past that memory stays
bounded: a whole plan at n = 1e6 would be 2 GB.  Median ms of one product,
formed / kept, same host, power alpha = 2, branching B = 0.5, scale
d = 3 (gamma = 1): 0.23 / 0.05 at n = 200, 0.47-0.52 / 0.10-0.12 at
n = 500, and 3.7-6.0 / 1.4-3.2 at n = 5000, where the budget holds all
but 2-10 of 53-59 blocks (the last formed: local bases, then pushed pairs).
"""

from __future__ import annotations

import numpy as np

__all__ = ["LEAF", "lower_matvec"]

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
# Floats a plan for several products may keep: 8 MiB, 16 tiles (see "Plan and apply").
_KEEP = 16 * _SLICE
# Leaves from which far pairs may go through local values.  Median ms of one
# matvec with / without, 25 interleaved pairs, same host, power alpha = 2,
# branching B = 0.5, scale d = 3 (gamma = 1): 24 leaves 1.59/1.68, 2.25/2.30,
# 1.97/1.92; 32 leaves 2.29/2.40, 2.89/2.93, 2.32/2.35; 48 leaves 3.01/3.44,
# 3.69/3.88, 2.95/3.21.
_LOCAL_LEAVES = 32

_THETA = (2 * np.arange(ORDER) + 1) * np.pi / (2 * ORDER)
_NODES = np.cos(_THETA)  # Chebyshev points of the first kind on [-1, 1]
_BARY = (-1.0) ** np.arange(ORDER) * np.sin(_THETA)  # their barycentric weights
# +inf where a near-field window column is not strictly left of the target row
_MASK = np.where(np.arange(2 * LEAF) >= np.arange(LEAF, 2 * LEAF)[:, None], np.inf, 0.0)


def _difference(a: np.ndarray, b: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """a[..., :, None] - b[..., None, :] (+ shift[..., None, None]) for finite operands, as one product.

    Without a shift the product is [a, 1] @ [1; -b]: each entry a * 1 + 1 * (-b)
    has two exact products and one rounding, so it has the subtraction's bits.
    A shift, one value per block, is a third term, [a, 1, 1] @ [1; -b; shift]:
    three exact products added in order, (a - b) + shift, with the two
    roundings of a subtraction followed by ``+=``.
    """
    k = 2 if shift is None else 3
    p = np.empty(a.shape + (k,))
    p[..., 0] = a
    for j in range(1, k):  # a column at a time: p[..., 1:] would fill 2 floats per inner loop
        p[..., j] = 1.0
    q = np.empty(b.shape[:-1] + (k, b.shape[-1]))
    q[..., 0, :] = 1.0
    np.negative(b, out=q[..., 1, :])
    if shift is not None:
        q[..., 2, :] = shift[..., None]
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


def _charges(basis: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """W[..., k] = sum_i v[..., i] times the k-th Lagrange basis polynomial at u[..., i], with basis = _basis(u)."""
    r, s = basis
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


def _floats(block) -> int:
    """Floats held by a block: an array, or a tuple of blocks and Nones."""
    if isinstance(block, tuple):
        return sum(map(_floats, block))
    return 0 if block is None else block.nbytes // 8


def _layout(x: np.ndarray, y: np.ndarray, nl: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """x padded to whole leaves, shape (nl, LEAF), and y led by a ghost leaf and padded.

    The ghost and the padding repeat an end value, so every entry is finite
    and can be a product's operand.
    """
    yg = np.concatenate([np.repeat(y[:1], LEAF), y, np.repeat(y[-1:], pad)])
    return np.concatenate([x, np.repeat(x[-1:], pad)]).reshape(nl, LEAF), yg


def _near(X: np.ndarray, Yw: np.ndarray, first: bool, pad: int) -> np.ndarray:
    """Near-field reciprocals of a tile of leaves against their windows [leaf b - 1, leaf b].

    +inf on and above the diagonal, over the ghost (``first``: the tile holds
    leaf 0) and over the ``pad`` padding rows of the tile's last leaf divides to 0.
    """
    d = _difference(X, Yw)
    d += _MASK
    if first:
        d[0, :, :LEAF] = np.inf
    if pad:
        d[-1, LEAF - pad :] = np.inf
    return np.reciprocal(d, out=d)


def _geometry(X: np.ndarray, Y: np.ndarray, pad: int):
    """(levels, xmin, hx, cx): (centre, half-width) of every block by level, and the leaves' x-ranges.

    hx and cx, the half-width and centre of each leaf's x-range, are None below
    ``_LOCAL_LEAVES`` leaves, where no pair goes through local values.
    """
    nl = X.shape[0]
    levels = [_interval(Y[:, 0], Y[:, -1])]
    while (nl - 1) >> len(levels) >= 2:
        c, h = levels[-1]
        half = c.size // 2  # a last block without a sibling is never a source
        levels.append(_interval(c[0 : 2 * half : 2] - h[0 : 2 * half : 2], c[1 : 2 * half : 2] + h[1 : 2 * half : 2]))
    xmin = X.min(axis=1)
    if nl < _LOCAL_LEAVES:
        return tuple(levels), xmin, None, None
    hx = np.maximum((X.max(axis=1) - xmin) / 2, 1e-12 * np.abs(xmin) + 1e-300)
    if pad:
        hx[-1] = np.inf  # a partial leaf fails the local test: its far field is summed per target
    return tuple(levels), xmin, hx, xmin + hx


def _pairs(level: int, c: np.ndarray, h: np.ndarray, near, xmin: np.ndarray, hx):
    """The pairs (target leaf, source block) of one level, split by how they are summed.

    Returns one (m2l leaves, m2l blocks, far leaves, far blocks) per list (the
    even and odd interaction lists, then the pairs pushed down from the level
    above, ``near``), and the pairs too close in value, which go to the
    children.  A far pair that is also far from the target leaf's x-range
    goes through local values; a pushed pair never does.
    """
    leaves = np.arange(xmin.size)
    J = leaves >> level
    even, odd = J >= 2, (J >= 3) & (J % 2 == 1)
    near_b, near_a = near
    pushed = (np.concatenate([near_b, near_b]), np.concatenate([2 * near_a, 2 * near_a + 1]))
    lists = [(leaves[even], J[even] - 2, True), (leaves[odd], J[odd] - 3, True), (*pushed, False)]
    split, closer, empty = [], [], leaves[:0]
    for b, a, unique in lists:
        far = xmin[b] - c[a] >= SEPARATION * h[a]
        closer.append((b[~far], a[~far]))
        lb = la = empty
        if hx is not None and unique:
            # centre of the leaf's range minus (c + h) is at least SEPARATION * hx
            m2l = far & (xmin[b] - (c[a] + h[a]) >= (SEPARATION - 1) * hx[b])
            lb, la = b[m2l], a[m2l]
            far &= ~m2l
        split.append((lb, la, b[far], a[far]))
    return (*split, tuple(np.concatenate(z) for z in zip(*closer)))


def _m2l(hx: np.ndarray, cx: np.ndarray, h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Multipole-to-local blocks 1/(x node - y node) of pairs (leaf x-range (cx, hx), source block (c, h)).

    Each pair's block is one rank-3 product [hx t_l, 1, 1] @ [1; -h t_m; cx - c],
    inverted in place: no second pass adds the centres' offset, and each entry
    has the bits of (hx t_l - h t_m) + (cx - c) (see "Kernel blocks").
    """
    return _inverse_difference(hx[:, None] * _NODES, h[:, None] * _NODES, cx - c)


def _inverse_difference(a: np.ndarray, b: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """1 / (a[..., :, None] - b[..., None, :] (+ shift[..., None, None])), through ``_difference``."""
    d = _difference(a, b, shift)
    return np.reciprocal(d, out=d)


class _Plan:
    """The product v -> out of ``lower_matvec`` for one (x, y), keeping the blocks that do not depend on v.

    ``apply`` forms every such block through ``_block``, in the same order
    at every product.  The first product keeps each block that fits in what
    is left of the budget, ``_KEEP`` floats when the plan is for more than
    one product and none for a single one; a later product reads the kept
    blocks and forms the others again.  A block's bytes do not depend on
    whether it was kept, so neither do the products'.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, products: int = 1):
        self.x, self.y = x, y
        self._room = _KEEP
        # the i-th block a product forms, or None where it did not fit; a single product keeps no list
        self._kept = [] if products > 1 else None
        self._next = 0

    def _block(self, form):
        """The next block: the kept one, or ``form()``, kept by the first product if it fits."""
        if self._kept is None:
            return form()
        i = self._next
        self._next += 1
        if i < len(self._kept):
            held = self._kept[i]
            return form() if held is None else held
        block = form()
        size = _floats(block)
        fits = size <= self._room
        self._room -= size if fits else 0
        self._kept.append(block if fits else None)
        return block

    def apply(self, v: np.ndarray) -> np.ndarray:
        """out[j] = sum_{i<j} v[i] / (x[j] - y[i]); v has the length of x and y."""
        self._next = 0
        block = self._block
        n = v.size
        nl = -(-n // LEAF)
        pad = nl * LEAF - n
        X, yg = block(lambda: _layout(self.x, self.y, nl, pad))
        Y, Yw = yg[LEAF:].reshape(nl, LEAF), _windows(yg)
        vg = np.concatenate([np.zeros(LEAF), v, np.zeros(pad)])  # a ghost leaf and padding, v = 0
        V, Vw = vg[LEAF:].reshape(nl, LEAF), _windows(vg)
        out = np.empty((nl, LEAF))

        # near field: leaf b against the window [leaf b - 1, leaf b]
        for s in _slices(nl, 2 * LEAF * LEAF):
            d = block(lambda: _near(X[s], Yw[s], s.start == 0, pad if s.stop == nl else 0))
            out[s] = np.matmul(d, Vw[s, :, None])[..., 0]
        if nl < 3:
            return out.ravel()[:n]
        levels, xmin, hx, cx = block(lambda: _geometry(X, Y, pad))

        # upward pass: the charges of every block, level by level
        c, h = levels[0]
        W = np.empty((nl, ORDER))
        for s in _slices(nl, LEAF * ORDER):
            W[s] = _charges(block(lambda: _basis((Y[s] - c[s, None]) / h[s, None])), V[s])
        charges = [W]
        for (c, h), (pc, ph) in zip(levels, levels[1:]):
            half = pc.size
            PW = np.zeros((half, ORDER))
            for child in (0, 1):
                cc, ch, cw = c[child : 2 * half : 2], h[child : 2 * half : 2], W[child : 2 * half : 2]
                for s in _slices(half, ORDER * ORDER):
                    basis = block(lambda: _basis(((cc[s] - pc[s])[:, None] + ch[s, None] * _NODES) / ph[s, None]))
                    PW[s] += _charges(basis, cw[s])
            charges.append(PW)
            W = PW

        # downward pass: far pairs sum their charges at each target, or add them
        # into the target leaf's local values; pairs too close in value go to the children
        local = hx is not None
        if local:
            L, touched = np.zeros((nl, ORDER)), np.zeros(nl, dtype=bool)  # local values, and the leaves that take them
        near = (np.empty(0, dtype=int), np.empty(0, dtype=int))
        for level in range(len(levels) - 1, -1, -1):
            (c, h), W = levels[level], charges.pop()
            *lists, near = block(lambda: _pairs(level, c, h, near, xmin, hx))
            # a regular list names each target leaf at most once; pushed pairs may repeat one
            for (lb, la, fb, fa), unique in zip(lists, (True, True, False)):
                if lb.size:
                    touched[lb] = True
                    for s in _slices(lb.size, ORDER * ORDER):
                        k = block(lambda: _m2l(hx[lb[s]], cx[lb[s]], h[la[s]], c[la[s]]))
                        L[lb[s]] += np.matmul(k, W[la[s], :, None])[..., 0]
                for s in _slices(fb.size, LEAF * ORDER):
                    k = block(lambda: _inverse_difference(X[fb[s]] - c[fa[s], None], h[fa[s], None] * _NODES))
                    f = np.matmul(k, W[fa[s], :, None])[..., 0]
                    if unique:
                        out[fb[s]] += f
                    else:
                        np.add.at(out, fb[s], f)
        del W  # the leaf charges: freed before the last tiles keeps the peak down

        # pairs pushed down to the leaves are summed densely
        near_b, near_a = near
        for s in _slices(near_b.size, LEAF * LEAF):
            k = block(lambda: _inverse_difference(X[near_b[s]], Y[near_a[s]]))
            np.add.at(out, near_b[s], np.matmul(k, V[near_a[s], :, None])[..., 0])

        # each leaf that met a multipole-to-local pair evaluates its local values once, at its own targets
        if local:
            lb = block(lambda: np.flatnonzero(touched))
            for s in _slices(lb.size, LEAF * ORDER):
                r, q = block(lambda: _basis((X[lb[s]] - cx[lb[s], None]) / hx[lb[s], None]))
                out[lb[s]] += np.matmul(r, (L[lb[s]] * _BARY)[..., None])[..., 0] / q
        return out.ravel()[:n]


def lower_matvec(v: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[j] = sum_{i<j} v[i] / (x[j] - y[i]) for equal-length 1-D arrays."""
    return _Plan(x, y).apply(v)
