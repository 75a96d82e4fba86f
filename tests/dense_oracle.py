"""Brute-force reference pipeline for cross-checking the sparse one.

Everything here is deliberately naive: matrices are lists of 0/1 ints,
elimination is schoolbook row reduction, and induced ranks on homology
are computed from full cycle/boundary spaces each time instead of the
coset bookkeeping the library uses.  The only shared inputs are the
public complex interface (generators, bidegree, d) and the tower-count
identity, so a bug in the bit-packed path cannot hide here.  The
truncation order k is an argument, as it is of the library's read-offs:
entries whose power of u reaches k are dropped here.
"""

import functools
from typing import Dict, List, Tuple

from khbn.homology import ModuleDecomp


def dense_rref(rows: List[List[int]]) -> Tuple[int, List[int], List[List[int]]]:
    """Row reduce in place-ish; returns (rank, pivot columns, reduced rows)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def dense_rank(rows: List[List[int]]) -> int:
    return dense_rref(rows)[0]


def dense_kernel(rows: List[List[int]], ncols: int) -> List[List[int]]:
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]
    rank, pivots, red = dense_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, p in enumerate(pivots):
            if red[r][free]:
                v[p] = 1
        basis.append(v)
    return basis


def span_rank(vectors: List[List[int]]) -> int:
    live = [v for v in vectors if any(v)]
    return dense_rank(live) if live else 0


def _layout(C, k: int):
    """Flat F2 basis (generator index, u power < k) per degree, grouped by
    the quantum grading of the pair."""
    by_degree: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
    for i in C.degrees():
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for gidx, g in enumerate(C.generators[i]):
            for p in range(k):
                groups.setdefault(C.bidegree(g, p)[1], []).append((gidx, p))
        by_degree[i] = groups
    return by_degree


def _block(C, k: int, layout, i: int, j: int) -> List[List[int]]:
    """Dense matrix of d between the (i, j) and (i+1, j) flat bases."""
    src = layout.get(i, {}).get(j, [])
    tgt = layout.get(i + 1, {}).get(j, [])
    tgt_pos = {gp: r for r, gp in enumerate(tgt)}
    rows = [[0] * len(src) for _ in tgt]
    mat = C.d(i)
    for col, (g, p) in enumerate(src):
        for (h, g2), e in mat.entries.items():
            if g2 != g:
                continue
            for b in range(k - p):
                if e.coeff(b) and (h, p + b) in tgt_pos:
                    rows[tgt_pos[(h, p + b)]][col] ^= 1
    return rows


def _u_image(k: int, layout, i: int, j: int, s: int,
             vectors: List[List[int]]) -> List[List[int]]:
    """Push flat vectors at (i, j) through u^s into the (i, j-2s) basis."""
    src = layout.get(i, {}).get(j, [])
    tgt = layout.get(i, {}).get(j - 2 * s, [])
    tgt_pos = {gp: r for r, gp in enumerate(tgt)}
    out = []
    for v in vectors:
        w = [0] * len(tgt)
        for col, bit in enumerate(v):
            if not bit:
                continue
            g, p = src[col]
            if p + s < k and (g, p + s) in tgt_pos:
                w[tgt_pos[(g, p + s)]] ^= 1
        out.append(w)
    return out


def dense_decomp(C, k: int) -> ModuleDecomp:
    """Module decomposition of H(C) over F2[u]/u^k computed with no
    sparsity anywhere."""
    layout = _layout(C, k)
    cycles: Dict[Tuple[int, int], List[List[int]]] = {}
    bounds: Dict[Tuple[int, int], List[List[int]]] = {}
    bidegrees = sorted((i, j) for i in layout for j in layout[i])
    for (i, j) in bidegrees:
        dim = len(layout[i][j])
        cycles[(i, j)] = dense_kernel(_block(C, k, layout, i, j), dim)
        back = _block(C, k, layout, i - 1, j)
        bounds[(i, j)] = [list(col) for col in zip(*back)] if back and back[0] else []

    @functools.lru_cache(maxsize=None)
    def h_rank(i: int, j: int, s: int) -> int:
        """Rank of u^s: H_{i,j} -> H_{i,j-2s}, from raw spaces (each rank
        once; the multiplicities below ask for most of them twice)."""
        if (i, j) not in cycles:
            return 0
        if s == 0:
            return (span_rank(cycles[(i, j)])
                    - span_rank(bounds.get((i, j), [])))
        if s >= k:
            return 0
        lower = bounds.get((i, j - 2 * s), [])
        pushed = _u_image(k, layout, i, j, s, cycles[(i, j)])
        return span_rank(pushed + lower) - span_rank(lower)

    table: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (i, j) in bidegrees:
        for t in range(1, k + 1):
            m_t = ((h_rank(i, j, t - 1) - h_rank(i, j, t))
                   - (h_rank(i, j + 2, t) - h_rank(i, j + 2, t + 1)))
            assert m_t >= 0, (i, j, t)
            if m_t:
                table.setdefault((i, j), {})[t] = m_t
    return ModuleDecomp(k, table)
