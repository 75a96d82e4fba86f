"""Bigraded homology of the cube complex as a module over F2[u]/u^k,
plus the Euler identity and the u-coefficient exact triangle.

The complex is flattened to F2 per bidegree: basis vectors are (generator,
u_power) pairs, u acting as the shift (g,p) -> (g,p+1).  Homology is
computed blockwise, the induced u-endomorphism is read off on chosen cycle
representatives, and the cyclic-module decomposition comes from ranks of
powers of u, cross-checked against the ungraded Jordan-type count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .laurent import Laurent
from .linkdiag import Diagram
from .khcube import GradedComplex, build_complex
from .ringalg import F2Mat, f2_rank, nilpotent_block_multiplicities

__all__ = [
    "ModuleDecomp",
    "HomologyBasis",
    "bigraded_homology",
    "euler_characteristic",
    "connecting_map",
    "verify_triangle",
    "LiftFailure",
    "ExactnessFailure",
]


class LiftFailure(RuntimeError):
    pass


class ExactnessFailure(AssertionError):
    pass


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
    flat (generator, u_power) basis at (i,j)); umaps[(i,j)] is the matrix
    of u from (i,j) to (i,j-2) in those bases.
    """

    __slots__ = ("C", "flat_basis", "flat_index", "reps", "cosets", "umaps")

    def __init__(self, C, flat_basis, flat_index, reps, cosets, umaps):
        self.C = C
        self.flat_basis = flat_basis
        self.flat_index = flat_index
        self.reps: Dict[Tuple[int, int], List[int]] = reps
        self.cosets: Dict[Tuple[int, int], _CosetBasis] = cosets
        self.umaps: Dict[Tuple[int, int], F2Mat] = umaps

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
    k = C.k
    pre = _block_ranks(blocks)
    reps: Dict[Tuple[int, int], List[int]] = {}
    cosets: Dict[Tuple[int, int], _CosetBasis] = {}
    all_bd = set()
    for i in C.degrees():
        for j in flat_basis[i]:
            all_bd.add((i, j))
    for (i, j) in sorted(all_bd):
        dim = len(flat_basis[i][j])
        if (i, j) in pre:
            kern = pre[(i, j)][0]
        else:
            kern = f2_rank(F2Mat(0, dim)).kernel_basis
        image: List[int] = list(pre.get((i - 1, j), ((), ()))[1])
        cb = _CosetBasis()
        for v in image:
            cb.add(v, 0)
        chosen: List[int] = []
        for v in kern:
            if cb.add(v, 1 << len(chosen)):
                chosen.append(v)
        reps[(i, j)] = chosen
        cosets[(i, j)] = cb
    umaps: Dict[Tuple[int, int], F2Mat] = {}
    for (i, j), chosen in reps.items():
        src_dim = len(chosen)
        tgt = reps.get((i, j - 2), [])
        m = F2Mat(len(tgt), src_dim)
        if src_dim and (i, j - 2) in cosets:
            basis = flat_basis[i][j]
            for col, z in enumerate(chosen):
                w = 0
                for pos in _bits(z):
                    g, p = basis[pos]
                    if p + 1 < k:
                        w |= 1 << flat_index[i][(g, p + 1)]
                tags = cosets[(i, j - 2)].coords(w)
                for row in _bits(tags):
                    m.set(row, col, 1)
        umaps[(i, j)] = m
    return HomologyBasis(C, flat_basis, flat_index, reps, cosets, umaps)


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def bigraded_homology(C: GradedComplex) -> ModuleDecomp:
    """Homology of C as multiplicities of cyclic u-towers per bidegree.

    With r_s(i,j) = rank of u^s out of H_{i,j}, the number of length-t
    towers topped at (i,j) is
        m_t(i,j) = [r_{t-1}(i,j) - r_t(i,j)] - [r_t(i,j+2) - r_{t+1}(i,j+2)],
    cross-checked against the ungraded block count of the full nilpotent
    u-endomorphism in each homological degree.
    """
    H = _homology_basis(C)
    k = C.k
    ranks: Dict[Tuple[int, int, int], int] = {}
    dims: Dict[Tuple[int, int], int] = {bd: len(r) for bd, r in H.reps.items()}

    def rank_power(i: int, j: int, s: int) -> int:
        if (i, j) not in dims or dims[(i, j)] == 0:
            return 0
        if s == 0:
            return dims[(i, j)]
        if s >= k:
            return 0
        key = (i, j, s)
        if key not in ranks:
            m = F2Mat.identity(dims[(i, j)])
            for step in range(s):
                m = H.umaps.get((i, j - 2 * step),
                                F2Mat(0, m.rows)).mul(m)
                if m.rows == 0:
                    break
            ranks[key] = f2_rank(m).rank if m.rows else 0
        return ranks[key]

    table: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (i, j) in dims:
        for t in range(1, k + 1):
            m_t = ((rank_power(i, j, t - 1) - rank_power(i, j, t))
                   - (rank_power(i, j + 2, t) - rank_power(i, j + 2, t + 1)))
            if m_t < 0:
                raise AssertionError(f"negative multiplicity at {(i, j)}, t={t}")
            if m_t:
                table.setdefault((i, j), {})[t] = m_t
    decomp = ModuleDecomp(k, table)
    _cross_check_blocks(H, decomp)
    if decomp.f2_dimensions() != {bd: d for bd, d in dims.items() if d}:
        raise AssertionError("tower spread disagrees with homology dimensions")
    return decomp


def _cross_check_blocks(H: HomologyBasis, decomp: ModuleDecomp) -> None:
    """Ungraded check: per homological degree, assemble the block-diagonal
    u-matrix on all of H_i and count Jordan-type blocks independently."""
    k = H.C.k
    degrees = sorted({i for (i, _) in H.reps})
    for i in degrees:
        js = sorted((j for (ii, j) in H.reps if ii == i and H.reps[(ii, j)]),
                    reverse=True)
        if not js:
            continue
        offset: Dict[int, int] = {}
        total = 0
        for j in js:
            offset[j] = total
            total += len(H.reps[(i, j)])
        N = F2Mat(total, total)
        for j in js:
            m = H.umaps[(i, j)]
            if j - 2 not in offset and not m.is_zero():
                raise AssertionError("u lands outside recorded support")
            for c in range(m.cols):
                for r in range(m.rows):
                    if m.get(r, c):
                        N.set(offset[j - 2] + r, offset[j] + c, 1)
        expected = nilpotent_block_multiplicities(N, k)
        got = {t: 0 for t in range(1, k + 1)}
        for (ii, _), mults in decomp.table.items():
            if ii == i:
                for t, m in mults.items():
                    got[t] = got.get(t, 0) + m
        for t in range(1, k + 1):
            if expected.get(t, 0) != got.get(t, 0):
                raise AssertionError(
                    f"graded decomposition disagrees with block count at i={i}")


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
    C1 = build_complex(C2.D, 1, C2.reduced, C2.basepoint, force=True)
    if H1 is None:
        H1 = _homology_basis(C1)
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
