"""Bigraded homology of the cube complex as a module over F2[u]/u^k,
plus the Euler identity and the u-coefficient exact triangle.

Every entry of the differential, from a generator g to a generator h, is
the single power u^((q_h - q_g)/2) of the quantum degrees.  So the complex
is the Rees module of its u = 1 specialisation, filtered by quantum degree,
and its cyclic decomposition is a persistence barcode (Turner,
arXiv:math/0411225; Zomorodian-Carlsson, DCG 2005).  One column reduction
at u = 1 pairs the generators, and the towers of F2[u]/u^k are read off the
pairs and the unpaired generators for any k, from one build.

The exact triangle is checked on its own, on one build, read as the
slices of d that khcube keeps: its u^0 part d0 and its u^1 part d1, quantum
slice by quantum slice.  The Khovanov complex is d0 on each slice, and BN2
at (i, j) is the two-layer slice S(i, j) + u S(i, j+2).  Explicit cycle
representatives carry the maps of the triangle: u is a bit shift, setting
u = 0 a bit mask, and the connecting map applies d1.  The kernels, and the
class of a cycle in its representatives, come from tagged ringalg.Echelon
reductions.  The maps at each node of the triangle are lists of columns,
column c the class of the c-th cycle as a bitmask over the target's
representatives: a rank is the dim of their Echelon, and a composition
is zero when the outgoing map's _apply kills every incoming column.
That check shares no code with the barcode; the u-adic
filtration in sseq, on which its E_infty check runs, uses the same slices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .laurent import Laurent
from .linkdiag import Diagram
from .khcube import GradedComplex, InhomogeneousEntry, build_complex
from .ringalg import Echelon, LiftFailure, _apply, kernel

__all__ = [
    "ModuleDecomp",
    "bigraded_homology",
    "euler_characteristic",
    "connecting_map",
    "verify_triangle",
    "LiftFailure",
    "InhomogeneousEntry",
]


class ModuleDecomp:
    """Multiplicities of cyclic summands F2[u]/u^t, keyed by the bidegree
    (i,j) of the summand's generator (its top quantum degree)."""

    __slots__ = ("k", "table")

    def __init__(self, k: int, table: Dict[Tuple[int, int], Dict[int, int]]):
        self.k = k
        self.table = {bd: {t: m for t, m in mults.items() if m}
                      for bd, mults in table.items()}
        self.table = {bd: mults for bd, mults in self.table.items() if mults}

    def f2_dimensions(self) -> Dict[Tuple[int, int], int]:
        """F2 dimension at every bidegree, towers spread along quantum -2 steps."""
        dims: Dict[Tuple[int, int], int] = {}
        for (i, j), mults in self.table.items():
            for t, m in mults.items():
                for p in range(t):
                    bd = (i, j - 2 * p)
                    dims[bd] = dims.get(bd, 0) + m
        return {bd: d for bd, d in dims.items() if d}

    def total_dimension(self) -> int:
        return sum(t * m for mults in self.table.values()
                   for t, m in mults.items())

    def shift_quantum(self, delta: int) -> "ModuleDecomp":
        return ModuleDecomp(self.k, {(i, j + delta): dict(m)
                                     for (i, j), m in self.table.items()})

    def direct_sum(self, other: "ModuleDecomp") -> "ModuleDecomp":
        if self.k != other.k:
            raise ValueError("summands live over different rings")
        table = {bd: dict(m) for bd, m in self.table.items()}
        for bd, mults in other.table.items():
            dst = table.setdefault(bd, {})
            for t, m in mults.items():
                dst[t] = dst.get(t, 0) + m
        return ModuleDecomp(self.k, table)

    def to_json(self) -> Dict[str, Dict[str, int]]:
        return {f"{i},{j}": {str(t): m for t, m in sorted(mults.items())}
                for (i, j), mults in sorted(self.table.items())}

    @staticmethod
    def from_json(k: int, obj: Dict[str, Dict[str, int]]) -> "ModuleDecomp":
        table = {}
        for key, mults in obj.items():
            i, j = (int(x) for x in key.split(","))
            table[(i, j)] = {int(t): m for t, m in mults.items()}
        return ModuleDecomp(k, table)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModuleDecomp) and self.k == other.k
                and self.table == other.table)

    def __repr__(self) -> str:
        parts = []
        for (i, j), mults in sorted(self.table.items()):
            for t, m in sorted(mults.items()):
                tag = f"F2[u]/u^{t}" if t > 1 else "F2"
                parts.append(f"({i},{j}):{tag}" + (f"x{m}" if m > 1 else ""))
        return "ModuleDecomp(" + ", ".join(parts) + ")"


def _barcode(C: GradedComplex) -> Tuple[List[Tuple[int, int]],
                                        List[Tuple[int, int, int]]]:
    """Persistence pairing of C at u = 1, filtered by quantum degree.

    In each degree the generators are ordered by quantum degree, highest
    first (slice by slice), and the columns of d are reduced left to right;
    the low of a column is its lowest-quantum row.  Degrees run upwards,
    so a generator that is already the low of a reduced column of d_(i-1)
    is skipped: its own column reduces to zero (clearing, Chen-Kerber).
    Returns the unpaired
    generators as (i, q) and the pairs as (i, q_x, q_y): x at (i, q_x) with
    d x = u^a y over F2[u] after the reduction, y at (i+1, q_y),
    a = (q_y - q_x)/2.
    """
    size, cols = C.slices
    keys = sorted(size, key=lambda key: (key[0], -key[1]))
    offset: Dict[Tuple[int, int], int] = {}  # slice -> its first position
    quantum: Dict[int, List[int]] = {}  # per degree, in filtration order
    for i, j in keys:
        qs = quantum.setdefault(i, [])
        offset[(i, j)] = len(qs)
        qs += [j] * size[(i, j)]
    paired: Dict[int, set] = {i: set() for i in quantum}
    owners: Dict[int, Dict[int, int]] = {i: {} for i in quantum}
    pairs: List[Tuple[int, int, int]] = []
    for i, j in keys:
        owner = owners[i]  # low -> reduced column with that low
        at0 = offset.get((i + 1, j), 0)
        at1 = offset.get((i + 1, j + 2), 0)
        for s, (d0, d1) in enumerate(zip(*cols[(i, j)])):
            if offset[(i, j)] + s in paired[i]:
                continue  # clearing: a low of d_(i-1) reduces to zero
            col = d0 << at0 | d1 << at1
            while col:
                low = col.bit_length() - 1
                if low not in owner:
                    owner[low] = col
                    pairs.append((i, j, quantum[i + 1][low]))
                    paired[i].add(offset[(i, j)] + s)
                    paired[i + 1].add(low)
                    break
                col ^= owner[low]
    free = [(i, q) for i, qs in sorted(quantum.items())
            for pos, q in enumerate(qs) if pos not in paired[i]]
    return free, pairs


def bigraded_homology(C: Optional[GradedComplex], k: int,
                      bars: Optional[Tuple[list, list]] = None) -> ModuleDecomp:
    """Homology of C over F2[u]/u^k as multiplicities of cyclic u-towers
    per bidegree.

    Read off the barcode at truncation order k (_barcode(C), or bars when
    the caller has it already, in which case C may be None): an unpaired
    generator at (i, q) is a tower of length k topped there; a pair
    (i, q_x, q_y) with a = (q_y - q_x)/2 >= 1 gives two towers of length
    min(a, k), topped at (i+1, q_y) and at (i, q_x - 2 max(k - a, 0)); a
    pair with a = 0 gives nothing.
    """
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    free, pairs = _barcode(C) if bars is None else bars
    table: Dict[Tuple[int, int], Dict[int, int]] = {}

    def tower(i: int, j: int, t: int) -> None:
        mults = table.setdefault((i, j), {})
        mults[t] = mults.get(t, 0) + 1

    for i, q in free:
        tower(i, q, k)
    for i, qx, qy in pairs:
        a = (qy - qx) // 2
        if a:
            tower(i + 1, qy, min(a, k))
            tower(i, qx - 2 * max(k - a, 0), min(a, k))
    return ModuleDecomp(k, table)


def euler_characteristic(M: ModuleDecomp) -> Laurent:
    """Sum over bidegrees of (-1)^i dim_F2 q^j."""
    return Laurent((j, d if i % 2 == 0 else -d)
                   for (i, j), d in M.f2_dimensions().items())


# ---------------------------------------------------------------------------
# the u^0 and u^1 parts of d, quantum slice by quantum slice (C.slices, as
# khcube._assemble writes them)

def _layers(size, i: int, j: int, k: int) -> List[int]:
    """|S(i, j+2p)| for the layers p = 0..k-1 of the k-layer slice at (i, j)."""
    return [size.get((i, j + 2 * p), 0) for p in range(k)]


def _layer_cols(size, cols, i: int, j: int, k: int) -> List[int]:
    """d from the k-layer slice at (i, j) to the one at (i+1, j), as
    columns (bitmasks over the target slice).

    Layer p holds u^p g for every g in S(i, j+2p), so every element of the
    slice has quantum degree j.  d0 maps a layer to itself, d1 maps layer p
    to layer p+1, and the d1 image of the last layer is u^k = 0.  The k = 1
    slices form the Khovanov complex over F2, the k = 2 slices BN2.
    """
    tgt = _layers(size, i + 1, j, k)
    shift = [sum(tgt[:p]) for p in range(k + 1)]
    out: List[int] = []
    for p in range(k):
        d0, d1 = cols.get((i, j + 2 * p), ((), ()))
        if p + 1 < k:
            out += [a << shift[p] | b << shift[p + 1] for a, b in zip(d0, d1)]
        else:
            out += [a << shift[p] for a in d0]
    return out


# ---------------------------------------------------------------------------
# exact triangle

class TriangleReport:
    __slots__ = ("passed", "nodes", "failures")

    def __init__(self, passed, nodes, failures):
        self.passed = passed
        self.nodes = nodes
        self.failures = failures

    def __repr__(self):
        return (f"TriangleReport(passed={self.passed}, nodes={len(self.nodes)},"
                f" failures={self.failures})")


def _slice_homology(size, cols, k: int):
    """Homology of every nonempty k-layer slice, keyed by (i, j): the
    representative cycles (bitmasks over the slice) and an Echelon of the
    boundaries plus the representatives, representative r tagged by bit r,
    whose coords read the class of a cycle off in them."""
    keys = sorted({(i, j - 2 * p) for (i, j) in size for p in range(k)})
    reduced = {key: kernel(enumerate(_layer_cols(size, cols, *key, k)))
               for key in keys}
    out: Dict[Tuple[int, int], Tuple[List[int], Echelon]] = {}
    for i, j in keys:
        cosets = Echelon(reduced[(i - 1, j)][1] if (i - 1, j) in reduced else ())
        reps: List[int] = []
        for z in reduced[(i, j)][0]:
            if cosets.add(z, 1 << len(reps)):
                reps.append(z)
        out[(i, j)] = (reps, cosets)
    return out


def _classes(H, key: Tuple[int, int], cycles: List[int]) -> List[int]:
    """Column c is the class of cycles[c] in the homology H at key, as a
    bitmask over its representatives."""
    cosets = H.get(key, ((), None))[1]
    if cosets is None:
        return [0] * len(cycles)
    return [cosets.coords(z) for z in cycles]


def _delta(size, cols, kh) -> Dict[Tuple[int, int], List[int]]:
    """delta: Kh^{i,j} -> Kh^{i+1,j+2} on every Khovanov slice, as columns.
    A d0-cycle z lifts to itself in the k = 2 complex, where dz = u d1 z;
    so delta z is the class of d1 z."""
    out: Dict[Tuple[int, int], List[int]] = {}
    for (i, j), (zs, _) in kh.items():
        d1 = cols[(i, j)][1]
        out[(i, j)] = _classes(kh, (i + 1, j + 2), [_apply(d1, z) for z in zs])
    return out


def connecting_map(C: GradedComplex) -> Dict[Tuple[int, int], List[int]]:
    """Bockstein-type map Kh^{i,j} -> Kh^{i+1,j+2} of the u-coefficient
    sequence, read off the slices of C: Khovanov homology is the homology
    of its u^0 part d0, and delta applies its u^1 part d1 to d0-cycles
    (see _delta)."""
    size, cols = C.slices
    return _delta(size, cols, _slice_homology(size, cols, 1))


def verify_triangle(D: Diagram, basepoint: Optional[int] = None) -> TriangleReport:
    """Exactness of ... -> Kh^{i,j+2} -u-> BN2^{i,j} -> Kh^{i,j} -> Kh^{i+1,j+2} -> ...

    built from the chain-level sequence 0 -> C1{2} -u-> C2 -> C1 -> 0 on
    one build, split into d0 and d1 per quantum slice: Kh is the homology
    of the 1-layer slices and BN2 that of the 2-layer slices.  u
    shifts a cycle of S(i, j+2) into layer 1 of the slice at (i, j), the
    projection keeps layer 0, and delta applies d1.  Checked node by node
    as explicit maps, not just dimensions: each map is a list of columns,
    the classes of the images of the source's representatives.  The
    complex is reduced at the marked arc basepoint when one is given.
    """
    size, cols = build_complex(D, basepoint).slices
    kh = _slice_homology(size, cols, 1)
    bn = _slice_homology(size, cols, 2)
    delta = _delta(size, cols, kh)

    def reps(H, i: int, j: int) -> List[int]:
        return H.get((i, j), ((), None))[0]

    def dim(H, i: int, j: int) -> int:
        return len(reps(H, i, j))

    def iota(i: int, j: int) -> List[int]:
        # Kh^{i,j+2} -> BN^{i,j}: multiply representatives by u
        shift = size.get((i, j), 0)
        return _classes(bn, (i, j), [z << shift for z in reps(kh, i, j + 2)])

    def pi(i: int, j: int) -> List[int]:
        # BN^{i,j} -> Kh^{i,j}: delete u
        mask = (1 << size.get((i, j), 0)) - 1
        return _classes(kh, (i, j), [x & mask for x in reps(bn, i, j)])

    bds = {bd for H in (kh, bn) for bd, (reps, _) in H.items() if reps}
    support = set()
    for (i, j) in bds:
        support.add((i, j))
        support.add((i, j - 2))
        support.add((i - 1, j - 2))
        support.add((i + 1, j + 2))
        support.add((i, j + 2))
    nodes = []
    failures = []

    def check(name, i, j, incoming: List[int], outgoing: List[int], dim_node: int):
        # columns over the node's representatives come in, and outgoing has
        # one column per representative
        comp_zero = not any(_apply(outgoing, c) for c in incoming)
        rk_in = Echelon(incoming).dim
        rk_out = Echelon(outgoing).dim
        ok = comp_zero and (rk_in + rk_out == dim_node)
        nodes.append((name, i, j, dim_node, rk_in, rk_out, ok))
        if not ok:
            failures.append((name, i, j, dim_node, rk_in, rk_out))

    for (i, j) in sorted(support):
        dim_bn = dim(bn, i, j)
        dim_kh = dim(kh, i, j)
        if dim_bn:
            check("BN", i, j, iota(i, j), pi(i, j), dim_bn)
        if dim_kh:
            inc = pi(i, j)
            out = delta.get((i, j), [0] * dim_kh)
            check("Kh", i, j, inc, out, dim_kh)
            # third node type: Kh^{i,j} as target of the connecting map
            inc2 = delta.get((i - 1, j - 2), [])
            out2 = iota(i, j - 2)
            check("Kh-post", i, j, inc2, out2, dim_kh)
    return TriangleReport(not failures, nodes, failures)
