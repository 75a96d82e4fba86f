"""Bigraded homology of the cube complex as a module over F2[u]/u^k,
plus the Euler identity and the u-coefficient exact triangle.

Every entry of the differential, from a generator g to a generator h, is
the single power u^((q_h - q_g)/2) of the quantum degrees.  So the complex
is the Rees module of its u = 1 specialisation, filtered by quantum degree,
and its cyclic decomposition is a persistence barcode (Turner,
arXiv:math/0411225; Zomorodian-Carlsson, DCG 2005).  One column reduction
at u = 1 pairs the generators, and the towers of F2[u]/u^k are read off the
pairs and the unpaired generators.

The exact triangle is checked on its own: the complex is flattened to F2
per bidegree, and explicit cycle representatives carry the maps of the
triangle.  That check shares no code with the barcode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .laurent import Laurent
from .linkdiag import Diagram
from .khcube import GradedComplex, build_complex
from .ringalg import F2Mat, f2_rank

__all__ = [
    "ModuleDecomp",
    "HomologyBasis",
    "bigraded_homology",
    "euler_characteristic",
    "connecting_map",
    "verify_triangle",
    "LiftFailure",
    "InhomogeneousEntry",
]


class LiftFailure(RuntimeError):
    pass


class InhomogeneousEntry(AssertionError):
    """An entry of d is not the single power of u that the quantum
    degrees of its two generators fix."""


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


class _CosetBasis:
    """Echelon basis with combination tracking, for quotient coordinates.

    Image vectors enter with empty tags; representative r enters tagged by
    bit r.  coords(v) returns the tag bitmask of v's class.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: List[Tuple[int, int]] = []  # (vector, tag), vector != 0

    def _reduce(self, v: int, tag: int) -> Tuple[int, int]:
        for w, t in self.rows:
            if v & (w & -w):
                v ^= w
                tag ^= t
        return v, tag

    def add(self, v: int, tag: int) -> bool:
        v, tag = self._reduce(v, tag)
        if v == 0:
            return False
        self.rows.append((v, tag))
        self.rows.sort(key=lambda wt: wt[0] & -wt[0])
        return True

    def coords(self, v: int) -> int:
        v, tag = self._reduce(v, 0)
        if v != 0:
            raise LiftFailure("vector not in the tracked span")
        return tag


class HomologyBasis:
    """Chosen per-bidegree homology data of one GradedComplex.

    reps[(i,j)] is the list of representative cycles (bitmasks over the
    flat (generator, u_power) basis at (i,j)); cosets[(i,j)] reads the
    class of a cycle off in those representatives.
    """

    __slots__ = ("C", "flat_basis", "flat_index", "reps", "cosets")

    def __init__(self, C, flat_basis, flat_index, reps, cosets):
        self.C = C
        self.flat_basis = flat_basis
        self.flat_index = flat_index
        self.reps: Dict[Tuple[int, int], List[int]] = reps
        self.cosets: Dict[Tuple[int, int], _CosetBasis] = cosets

    def dim(self, i: int, j: int) -> int:
        return len(self.reps.get((i, j), ()))

    def bidegrees(self) -> List[Tuple[int, int]]:
        return sorted(bd for bd, r in self.reps.items() if r)


def _flatten_blocks(C: GradedComplex):
    """Per degree: flat bases keyed by quantum grading, and the block
    matrices of d between matching quantum gradings."""
    k = C.k
    flat_basis: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
    flat_index: Dict[int, Dict[Tuple[int, int], int]] = {}
    for i in C.degrees():
        byj: Dict[int, List[Tuple[int, int]]] = {}
        for gidx, g in enumerate(C.generators[i]):
            for p in range(k):
                byj.setdefault(C.bidegree(g, p)[1], []).append((gidx, p))
        flat_basis[i] = byj
        flat_index[i] = {}
        for j, basis in byj.items():
            for pos, gp in enumerate(basis):
                flat_index[i][gp] = pos
    blocks: Dict[Tuple[int, int], F2Mat] = {}
    for i in C.degrees():
        tgt = flat_basis.get(i + 1, {})
        data: Dict[int, List[int]] = {
            j: [0] * len(tgt.get(j, ())) for j in flat_basis[i]}
        mat = C.d(i)
        for (h, g), e in mat.entries.items():
            jg = C.bidegree(C.generators[i][g], 0)[1]
            for b in range(k):
                if not e.coeff(b):
                    continue
                for p in range(k - b):
                    j = jg - 2 * p
                    row = flat_index[i + 1].get((h, p + b))
                    if row is None:
                        continue
                    col = flat_index[i][(g, p)]
                    data[j][row] |= 1 << col
        for j, rows in data.items():
            blocks[(i, j)] = F2Mat(len(rows), len(flat_basis[i][j]), rows)
    return flat_basis, flat_index, blocks


def _block_ranks(blocks):
    """kernel/image bases of every boundary block, one elimination each."""
    out = {}
    for key, m in blocks.items():
        r = f2_rank(m)
        out[key] = (r.kernel_basis, r.image_basis)
    return out


def _homology_basis(C: GradedComplex) -> HomologyBasis:
    flat_basis, flat_index, blocks = _flatten_blocks(C)
    pre = _block_ranks(blocks)
    reps: Dict[Tuple[int, int], List[int]] = {}
    cosets: Dict[Tuple[int, int], _CosetBasis] = {}
    for (i, j) in sorted(pre):
        cb = _CosetBasis()
        for v in pre.get((i - 1, j), ((), ()))[1]:
            cb.add(v, 0)
        chosen: List[int] = []
        for v in pre[(i, j)][0]:
            if cb.add(v, 1 << len(chosen)):
                chosen.append(v)
        reps[(i, j)] = chosen
        cosets[(i, j)] = cb
    return HomologyBasis(C, flat_basis, flat_index, reps, cosets)


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _barcode(C: GradedComplex) -> Tuple[List[Tuple[int, int]],
                                        List[Tuple[int, int, int]]]:
    """Persistence pairing of C at u = 1, filtered by quantum degree.

    In each degree the generators are ordered by quantum degree, highest
    first, and the columns of d are reduced left to right; the low of a
    column is its lowest-quantum row.  Returns the unpaired generators as
    (i, q) and the pairs as (i, q_x, q_y): x at (i, q_x) with d x = u^a y
    over F2[u] after the reduction, y at (i+1, q_y), a = (q_y - q_x)/2.
    Asserts that every entry of d is exactly u^a for its two generators.
    At k = 1 the u-entries are truncated away, and the pairing is that of
    the Khovanov complex over F2.
    """
    quantum: Dict[int, List[int]] = {}  # per degree, in filtration order
    where: Dict[int, Dict[int, int]] = {}  # generator index -> filtration position
    for i in C.degrees():
        qs = [C.bidegree(g)[1] for g in C.generators[i]]
        order = sorted(range(len(qs)), key=lambda n: -qs[n])
        quantum[i] = [qs[n] for n in order]
        where[i] = {n: pos for pos, n in enumerate(order)}
    paired: Dict[int, set] = {i: set() for i in quantum}
    pairs: List[Tuple[int, int, int]] = []
    for i in C.degrees():
        cols = [0] * len(quantum[i])
        for (h, g), e in C.d(i).entries.items():
            x, y = where[i][g], where[i + 1][h]
            a, odd = divmod(quantum[i + 1][y] - quantum[i][x], 2)
            if odd or a < 0 or e.bits != 1 << a:
                raise InhomogeneousEntry(
                    f"d entry {e!r} at degree {i} is not u^(dq/2)")
            cols[x] |= 1 << y
        owner: Dict[int, int] = {}  # low -> reduced column with that low
        for x, col in enumerate(cols):
            while col:
                low = col.bit_length() - 1
                if low not in owner:
                    owner[low] = col
                    pairs.append((i, quantum[i][x], quantum[i + 1][low]))
                    paired[i].add(x)
                    paired[i + 1].add(low)
                    break
                col ^= owner[low]
    free = [(i, q) for i in C.degrees() for pos, q in enumerate(quantum[i])
            if pos not in paired[i]]
    return free, pairs


def bigraded_homology(C: GradedComplex) -> ModuleDecomp:
    """Homology of C as multiplicities of cyclic u-towers per bidegree.

    Read off the barcode at truncation order k: an unpaired generator at
    (i, q) is a tower of length k topped there; a pair (i, q_x, q_y) with
    a = (q_y - q_x)/2 >= 1 gives two towers of length min(a, k), topped at
    (i+1, q_y) and at (i, q_x - 2 max(k - a, 0)); a pair with a = 0 gives
    nothing.
    """
    k = C.k
    free, pairs = _barcode(C)
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
    total = Laurent()
    for (i, j), d in M.f2_dimensions().items():
        total = total + Laurent({j: (d if i % 2 == 0 else -d)})
    return total


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


def connecting_map(C2: GradedComplex,
                   H1: Optional[HomologyBasis] = None) -> Dict[Tuple[int, int], F2Mat]:
    """Bockstein-type map Kh^{i,j} -> Kh^{i+1,j+2} from the u-coefficient
    sequence: lift a Khovanov cycle into the k=2 complex, apply d (the
    image is divisible by u), divide by u, read off the class.

    Needs C2 built with k=2; the Khovanov side is its u=0 specialization.
    """
    if C2.k != 2:
        raise ValueError("connecting map defined for k=2 complexes")
    if H1 is None:
        H1 = _homology_basis(
            build_complex(C2.D, 1, C2.reduced, C2.basepoint, force=True))
    C1 = H1.C
    out: Dict[Tuple[int, int], F2Mat] = {}
    for (i, j), zs in H1.reps.items():
        tgt = H1.reps.get((i + 1, j + 2), [])
        m = F2Mat(len(tgt), len(zs))
        if zs and tgt:
            basis = H1.flat_basis[i][j]
            d2 = C2.d(i)
            idx2 = {g: t for t, g in enumerate(C2.generators.get(i, []))}
            by_col: Dict[int, List[int]] = {}
            for (r, cc), e in d2.entries.items():
                if e.coeff(1):
                    by_col.setdefault(cc, []).append(r)
            for col, z in enumerate(zs):
                # lift: same generators, u^0 coefficients; apply d over k=2
                image: Dict[int, int] = {}
                for pos in _bits(z):
                    g, p = basis[pos]
                    if p != 0:
                        raise LiftFailure("Khovanov flat basis has u-power 0 only")
                    gen = C1.generators[i][g]
                    for r in by_col.get(idx2[gen], ()):
                        image[r] = image.get(r, 0) ^ 1
                w = 0
                for r, bit in image.items():
                    if bit:
                        gen2 = C2.generators[i + 1][r]
                        g1 = H1.C.index[i + 1][gen2]
                        w |= 1 << H1.flat_index[i + 1][(g1, 0)]
                tags = H1.cosets[(i + 1, j + 2)].coords(w)
                for row in _bits(tags):
                    m.set(row, col, 1)
        out[(i, j)] = m
    return out


def verify_triangle(D: Diagram, reduced: bool = False,
                    basepoint: Optional[int] = None) -> TriangleReport:
    """Exactness of ... -> Kh^{i,j+2} -u-> BN2^{i,j} -> Kh^{i,j} -> Kh^{i+1,j+2} -> ...

    built from the chain-level sequence 0 -> C1 -u-> C2 -> C1 -> 0;
    checked node by node as explicit matrices, not just dimensions.
    """
    C2 = build_complex(D, 2, reduced, basepoint, force=True)
    C1 = build_complex(D, 1, reduced, basepoint, force=True)
    H2 = _homology_basis(C2)
    H1 = _homology_basis(C1)
    delta = connecting_map(C2, H1)

    def iota(i: int, j: int) -> F2Mat:
        # Kh^{i,j+2} -> BN^{i,j}: multiply representatives by u
        src = H1.reps.get((i, j + 2), [])
        tgt = H2.reps.get((i, j), [])
        m = F2Mat(len(tgt), len(src))
        if src and (i, j) in H2.cosets:
            basis = H1.flat_basis[i][j + 2]
            for col, z in enumerate(src):
                w = 0
                for pos in _bits(z):
                    g, p = basis[pos]
                    gen = C1.generators[i][g]
                    g2 = H2.C.index[i][gen]
                    w |= 1 << H2.flat_index[i][(g2, p + 1)]
                tags = H2.cosets[(i, j)].coords(w)
                for row in _bits(tags):
                    m.set(row, col, 1)
        return m

    def pi(i: int, j: int) -> F2Mat:
        # BN^{i,j} -> Kh^{i,j}: delete u
        src = H2.reps.get((i, j), [])
        tgt = H1.reps.get((i, j), [])
        m = F2Mat(len(tgt), len(src))
        if src and (i, j) in H1.cosets:
            basis = H2.flat_basis[i][j]
            for col, z in enumerate(src):
                w = 0
                for pos in _bits(z):
                    g, p = basis[pos]
                    if p == 0:
                        gen = C2.generators[i][g]
                        g1 = H1.C.index[i][gen]
                        w |= 1 << H1.flat_index[i][(g1, 0)]
                tags = H1.cosets[(i, j)].coords(w)
                for row in _bits(tags):
                    m.set(row, col, 1)
        return m

    bds = set(H1.bidegrees()) | set(H2.bidegrees())
    support = set()
    for (i, j) in bds:
        support.add((i, j))
        support.add((i, j - 2))
        support.add((i - 1, j - 2))
        support.add((i + 1, j + 2))
        support.add((i, j + 2))
    nodes = []
    failures = []

    def check(name, i, j, incoming: F2Mat, outgoing: F2Mat, dim_node: int):
        comp_zero = outgoing.mul(incoming).is_zero() if incoming.cols and outgoing.rows else True
        rk_in = f2_rank(incoming).rank if incoming.cols else 0
        rk_out = f2_rank(outgoing).rank if outgoing.cols else 0
        ok = comp_zero and (rk_in + rk_out == dim_node)
        nodes.append((name, i, j, dim_node, rk_in, rk_out, ok))
        if not ok:
            failures.append((name, i, j, dim_node, rk_in, rk_out))

    for (i, j) in sorted(support):
        dim_bn = H2.dim(i, j)
        dim_kh = H1.dim(i, j)
        if dim_bn:
            check("BN", i, j, iota(i, j), pi(i, j), dim_bn)
        if dim_kh:
            inc = pi(i, j)
            out = delta.get((i, j), F2Mat(H1.dim(i + 1, j + 2), dim_kh))
            check("Kh", i, j, inc, out, dim_kh)
            # third node type: Kh^{i,j} as target of the connecting map
            inc2 = delta.get((i - 1, j - 2), F2Mat(dim_kh, H1.dim(i - 1, j - 2)))
            out2 = iota(i, j - 2)
            check("Kh-post", i, j, inc2, out2, dim_kh)
    return TriangleReport(not failures, nodes, failures)
