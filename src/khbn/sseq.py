"""Spectral sequence of a finite filtered F2 complex, and the u-adic
filtration of the cube complex with its pages read off the barcode.

Filtration is increasing, F_p = span of basis vectors with level <= p, and
the differential preserves every F_p (equivalently, never raises the level
of a basis vector).  Pages use the classical subquotients

    E_r^{p,i} = Z_r^{p,i} / (Z_{r-1}^{p-1,i} + d Z_{r-1}^{p+r-1,i-1}),
    Z_r^{p,i} = { x in F_p C^i : dx in F_{p-r} },

so d_r drops the filtration index by r.  For the u-adic filtration of the
cube truncated at u^k, level(g, u^p) = k-1-p: the u-free quotient sits on
top and the page-0 differential is the Khovanov one on each layer.  k is
an argument of the read-offs, u_adic_filtration(C, k) and
u_adic_pages(C, k), so one build serves every k.

The u-adic pages come from the barcode of C (homology._barcode), which
splits C over F2[u] into free towers and pairs: u_adic_pages counts
elements and drops each pair's elements at the page its gap fixes, with no
linear algebra.  filtration_pages computes the pages of any filtered
complex from the Z_r kernels below; it is the oracle the read-off is
tested against.

E_infty is the page at depth+1 (the filtration is bounded), and it must
match the graded pieces of the image filtration on homology; that
filtration is computed honestly from cycle spans: a torsion class can be
representable deeper in u than its tower position suggests, so the
associated graded is not a function of the module decomposition alone.
The E_infty check therefore shares no code with the barcode.

d is stored as column bitmasks, the format of the cube's slices.  Z_r^{p,i}
is the kernel of the level <= p columns of d with only the rows above level
p - r kept, from one tagged column reduction (ringalg.kernel) whose kernel
vectors are bitmasks over the original columns.  The E_infty check needs
the cycles of every F_p at once, and reads them off one tagged reduction
per degree with the columns taken in level order: the kernel vectors found
up to a level-p column span the cycles of F_p (the standard persistence
argument, Zomorodian-Carlsson, DCG 2005).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .khcube import GradedComplex
from .homology import ModuleDecomp, _barcode, _layer_cols, _layers
from .ringalg import Echelon, _apply, kernel

__all__ = [
    "FilteredComplex",
    "PageTable",
    "u_adic_filtration",
    "u_adic_pages",
    "filtration_pages",
    "verify_einfty_gr",
    "FiltrationViolation",
]


class FiltrationViolation(AssertionError):
    pass


def _above(levels: List[int], floor: int) -> int:
    """Bitmask of the basis vectors whose level is above floor."""
    mask = 0
    for r, lv in enumerate(levels):
        if lv > floor:
            mask |= 1 << r
    return mask


class FilteredComplex:
    """Finite F2 complex with a level per basis vector.

    d[i] maps degree i to i+1 as a list of dims[i] columns: column c is
    the image of basis vector c, a bitmask over the basis of degree i+1
    (bit r = row r).  A degree without d[i] maps to zero.  quantum is an
    optional tag recording which quantum grading this complex was sliced
    from.
    """

    __slots__ = ("dims", "d", "levels", "quantum")

    def __init__(self, dims: Dict[int, int], d: Dict[int, List[int]],
                 levels: Dict[int, List[int]], quantum: Optional[int] = None):
        self.dims = dict(dims)
        self.d = dict(d)
        self.levels = {i: list(v) for i, v in levels.items()}
        self.quantum = quantum
        for i, dim in self.dims.items():
            if len(self.levels.get(i, ())) != dim:
                raise FiltrationViolation(f"levels missing at degree {i}")
        for i, cols in self.d.items():
            if (len(cols) != self.dims.get(i, 0)
                    or any(v >> self.dims.get(i + 1, 0) for v in cols)):
                raise FiltrationViolation(f"matrix shape mismatch at degree {i}")
            lv_in = self.levels.get(i, [])
            lv_out = self.levels.get(i + 1, [])
            above = {lv: _above(lv_out, lv) for lv in set(lv_in)}
            for c, v in enumerate(cols):
                bad = v & above[lv_in[c]]
                if bad:
                    r = (bad & -bad).bit_length() - 1
                    raise FiltrationViolation(
                        f"d raises level at degree {i}: {lv_in[c]} -> {lv_out[r]}")

    def degrees(self) -> List[int]:
        return sorted(self.dims)

    def level_range(self) -> Tuple[int, int]:
        all_levels = [l for v in self.levels.values() for l in v]
        if not all_levels:
            return (0, 0)
        return min(all_levels), max(all_levels)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def cycles(self, i: int, p: int, floor: int) -> List[int]:
        """Basis of {x in F_p C^i : dx in F_floor}: the kernel of the
        level <= p columns of d[i], with only the rows above floor kept."""
        if i not in self.dims:
            return []
        lv = self.levels.get(i, [])
        if i not in self.d:
            return [1 << c for c in range(len(lv)) if lv[c] <= p]
        mask = _above(self.levels.get(i + 1, []), floor)
        return kernel((c, v & mask) for c, v in enumerate(self.d[i])
                      if lv[c] <= p)[0]


class PageTable:
    """Dimensions of E_r at (filtration p, complementary q = i - p)."""

    __slots__ = ("pages", "r_stab", "depth", "quantum")

    def __init__(self, pages: List[Dict[Tuple[int, int], int]], r_stab: int,
                 depth: int, quantum: Optional[int] = None):
        self.pages = pages
        self.r_stab = r_stab
        self.depth = depth
        self.quantum = quantum

    def einfty(self) -> Dict[Tuple[int, int], int]:
        return self.pages[-1]

    def page_total(self, r: int) -> int:
        return sum(self.pages[r].values())

    def __repr__(self) -> str:
        return (f"PageTable(pages={len(self.pages)}, r_stab={self.r_stab},"
                f" E_inf total={self.page_total(len(self.pages) - 1)})")


def u_adic_filtration(C: GradedComplex, k: int) -> Dict[int, FilteredComplex]:
    """One filtered complex per quantum degree j of C truncated at u^k: the
    k-layer slices at (i, j), with layer p (the elements u^p g) at level
    k-1-p."""
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    size, cols = C.slices
    js = sorted({j - 2 * p for (_, j) in size for p in range(k)})
    out: Dict[int, FilteredComplex] = {}
    for j in js:
        dims: Dict[int, int] = {}
        levels: Dict[int, List[int]] = {}
        for i in C.degrees():
            layers = _layers(size, i, j, k)
            if any(layers):
                dims[i] = sum(layers)
                levels[i] = [k - 1 - p for p, n in enumerate(layers)
                             for _ in range(n)]
        d = {i: _layer_cols(size, cols, i, j, k) for i in dims if i + 1 in dims}
        out[j] = FilteredComplex(dims, d, levels, quantum=j)
    return out


def filtration_pages(F: FilteredComplex, r_max: Optional[int] = None) -> PageTable:
    """Pages E_0 .. E_{r_max}; default r_max = depth + 1, which is E_infty
    for a bounded filtration.  Stabilization is the first r whose page
    equals the next one."""
    lo, hi = F.level_range()
    depth = hi - lo
    if r_max is None:
        r_max = depth + 1
    zcache: Dict[Tuple[int, int, int], List[int]] = {}

    def Z(r: int, p: int, i: int) -> List[int]:
        # basis of {x in F_p C^i : dx in F_{p-r}}; r = -1 means all of F_p.
        # Every floor p - r at or above p gives all of F_p, and every floor
        # below lo the cycles in F_p, so the floor is clamped to [lo-1, p]
        if p < lo:
            return []
        key = (i, p, min(max(p - r, lo - 1), p))
        if key not in zcache:
            zcache[key] = F.cycles(*key)
        return zcache[key]

    pages: List[Dict[Tuple[int, int], int]] = []
    positions = sorted((i, p) for i in F.degrees()
                       for p in range(lo, hi + 1))
    for r in range(r_max + 1):
        page: Dict[Tuple[int, int], int] = {}
        for i, p in positions:
            znum = Z(r, p, i)
            if not znum:
                continue
            den = Echelon(Z(r - 1, p - 1, i))
            if i - 1 in F.d:
                d_prev = F.d[i - 1]
                for x in Z(r - 1, p + r - 1, i - 1):
                    den.add(_apply(d_prev, x))
            # the denominator sits inside Z_r, so the subquotient dimension
            # is a plain difference
            dim = len(znum) - den.dim
            if dim < 0:
                raise AssertionError("page denominator escaped its numerator")
            if dim:
                page[(p, i - p)] = dim
        pages.append(page)
    # pages are pointwise non-increasing, so matching the final page means
    # every intermediate page matches too; comparing merely consecutive
    # pages would stop early when d_0 vanishes but a later d_r does not
    r_stab = len(pages) - 1
    for r in range(len(pages)):
        if pages[r] == pages[-1]:
            r_stab = r
            break
    for r in range(len(pages) - 1):
        for key, dim in pages[r + 1].items():
            if dim > pages[r].get(key, 0):
                raise AssertionError(f"page dimensions grew at {key}, r={r + 1}")
    return PageTable(pages, r_stab, depth, quantum=F.quantum)


def u_adic_pages(C: GradedComplex, k: int,
                 bars: Optional[Tuple[list, list]] = None) -> Dict[int, PageTable]:
    """The PageTable of every quantum slice of u_adic_filtration(C, k),
    read off the barcode of C (homology._barcode, or bars when the caller
    has it already).

    Over F2[u] the barcode splits C into free generators g and pairs
    d x = u^a y.  The splitting is F2[u]-linear, so it keeps the u-adic
    filtration and the pages split with it.  The element u^m g of a
    generator at (i, q_g) sits in the slice j = q_g - 2m at level k-1-m.
    For a pair and every m with m + a < k, d_a joins u^m x (level k-1-m)
    to u^(m+a) y (level k-1-m-a), and both are gone from E_(a+1) on; every
    other element survives to E_infty.
    """
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    free, pairs = _barcode(C) if bars is None else bars
    e0: Dict[int, Dict[Tuple[int, int], int]] = {}
    # slice -> page index -> the positions losing one dimension there
    gone: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
    gens = (free + [(i, qx) for i, qx, _ in pairs]
            + [(i + 1, qy) for i, _, qy in pairs])
    for i, q in gens:
        for m in range(k):
            page = e0.setdefault(q - 2 * m, {})
            key = (k - 1 - m, i - k + 1 + m)
            page[key] = page.get(key, 0) + 1
    for i, qx, qy in pairs:
        a = (qy - qx) // 2
        for m in range(k - a):
            p = k - 1 - m
            gone.setdefault(qx - 2 * m, {}).setdefault(a + 1, []).extend(
                ((p, i - p), (p - a, i + 1 - p + a)))
    out: Dict[int, PageTable] = {}
    for j in sorted(e0):
        page = e0[j]
        levels = [p for p, _ in page]
        depth = max(levels) - min(levels)
        pages = [page]
        for r in range(1, depth + 2):
            page = dict(page)
            for key in gone.get(j, {}).get(r, ()):
                page[key] -= 1
                if not page[key]:
                    del page[key]
            pages.append(page)
        r_stab = next(r for r, page in enumerate(pages) if page == pages[-1])
        out[j] = PageTable(pages, r_stab, depth, quantum=j)
    return out


class GrReport:
    __slots__ = ("passed", "mismatches", "checked")

    def __init__(self, passed, mismatches, checked):
        self.passed = passed
        self.mismatches = mismatches
        self.checked = checked

    def __repr__(self):
        return (f"GrReport(passed={self.passed}, checked={self.checked},"
                f" mismatches={self.mismatches})")


def verify_einfty_gr(F: FilteredComplex, M: ModuleDecomp,
                     table: Optional[PageTable] = None) -> GrReport:
    """E_infty of F against the graded pieces of the image filtration on
    homology, position by position, plus the total per (i, quantum) against
    the module decomposition's F2 dimension."""
    if table is None:
        table = filtration_pages(F)
    einf = dict(table.einfty())
    lo, hi = F.level_range()
    mismatches = []
    checked = 0
    mdims = M.f2_dimensions()

    for i in F.degrees():
        # One reduction of d[i]'s columns in level order: a column of level
        # p that reduces to zero leaves as its tag a cycle of F_p, built
        # from columns of level <= p only, and those cycles found up to
        # level p span the cycles of F_p.  A cycle found at level p that is
        # independent of the image and of the cycles before it adds one to
        # gr_p H = F_p H / F_(p-1) H.
        lv = F.levels[i]
        d = F.d.get(i, [0] * len(lv))
        cols = Echelon()
        hom = Echelon(F.d.get(i - 1, ()))
        gr: Dict[int, int] = {}
        for c in sorted(range(len(lv)), key=lv.__getitem__):
            v, tag = cols.reduce_tagged(d[c], 1 << c)
            if v:
                cols.add(v, tag)
            elif hom.add(tag):
                gr[lv[c]] = gr.get(lv[c], 0) + 1
        for p in range(lo, hi + 1):
            got, want = einf.pop((p, i - p), 0), gr.get(p, 0)
            checked += 1
            if want != got:
                mismatches.append(((p, i - p), got, want))
        if F.quantum is not None:
            total = sum(gr.values())
            want = mdims.get((i, F.quantum), 0)
            checked += 1
            if total != want:
                mismatches.append((("total", i, F.quantum), total, want))
    for key, dim in einf.items():
        if dim:
            mismatches.append((key, dim, 0))
    return GrReport(not mismatches, mismatches, checked)
