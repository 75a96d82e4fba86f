"""Exact arithmetic in F2[u]/u^k and sparse/bit-packed linear algebra over F2.

RingElem and SparseMat record a complex's d entry by entry, over
F2[u]/u^2, which holds the cube's entries u^0 and u^1 exactly and is the
cover model's ring F2[Q]/Q^2.  Only khcube's assembler writes them for
the two builders; the edge maps return (mask, power) pairs, and the
reference assemblies of the tests sum into SparseMats.  A matrix over F2 is a list of
column bitmasks, which _apply applies to a vector.  Echelon is the
package's incremental GF(2) eliminator on bitmask vectors: its rows can
carry tags, so one column reduction gives a kernel (kernel) and coords reads
quotient coordinates off it.  The spectral-sequence pages, the E_inf = gr
check and the homology of the exact triangle's slices all run on it.  F2Mat
and f2_rank serve the triangle's node maps, matrices of classes whose ranks
decide exactness; nilpotent_block_multiplicities counts the Jordan blocks of
a nilpotent F2 operator from the ranks of its powers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "RingElem",
    "SparseMat",
    "F2Mat",
    "RankResult",
    "f2_rank",
    "nilpotent_block_multiplicities",
    "Echelon",
    "LiftFailure",
    "kernel",
    "NotNilpotentAtOrderK",
    "DimensionMismatch",
]


class DimensionMismatch(ValueError):
    pass


class NotNilpotentAtOrderK(ValueError):
    pass


class RingElem:
    """Element of F2[u]/u^k; bit b of `bits` is the coefficient of u^b."""

    __slots__ = ("k", "bits")

    def __init__(self, k: int, bits: int = 0):
        if k < 1:
            raise ValueError("truncation order k must be >= 1")
        self.k = k
        self.bits = bits & ((1 << k) - 1)

    @staticmethod
    def one(k: int) -> "RingElem":
        return RingElem(k, 1)

    @staticmethod
    def u_power(k: int, p: int) -> "RingElem":
        return RingElem(k, 1 << p if 0 <= p < k else 0)

    def __add__(self, other: "RingElem") -> "RingElem":
        if self.k != other.k:
            raise DimensionMismatch("mixed truncation orders")
        return RingElem(self.k, self.bits ^ other.bits)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if self.k != other.k:
            raise DimensionMismatch("mixed truncation orders")
        a, b, acc = self.bits, other.bits, 0
        while a:
            lsb = a & -a
            acc ^= b << (lsb.bit_length() - 1)
            a ^= lsb
        return RingElem(self.k, acc)

    def coeff(self, p: int) -> int:
        return (self.bits >> p) & 1 if 0 <= p < self.k else 0

    @property
    def is_unit(self) -> bool:
        return bool(self.bits & 1)

    def __bool__(self) -> bool:
        return bool(self.bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingElem) and (self.k, self.bits) == (other.k, other.bits)

    def __hash__(self) -> int:
        return hash((self.k, self.bits))

    def __repr__(self) -> str:
        if not self.bits:
            return "0"
        terms = []
        for p in range(self.k):
            if (self.bits >> p) & 1:
                terms.append("1" if p == 0 else ("u" if p == 1 else f"u^{p}"))
        return "+".join(terms)


class SparseMat:
    """Sparse rows x cols matrix over F2[u]/u^k; absent entries are zero."""

    __slots__ = ("rows", "cols", "k", "entries")

    def __init__(self, rows: int, cols: int, k: int,
                 entries: Dict[Tuple[int, int], RingElem] | None = None):
        self.rows = rows
        self.cols = cols
        self.k = k
        self.entries: Dict[Tuple[int, int], RingElem] = {}
        if entries:
            for (r, c), e in entries.items():
                self.add_to(r, c, e)

    def add_to(self, r: int, c: int, e: RingElem) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DimensionMismatch(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        cur = self.entries.get((r, c))
        new = cur + e if cur is not None else e
        if new:
            self.entries[(r, c)] = new
        elif cur is not None:
            del self.entries[(r, c)]

    def get(self, r: int, c: int) -> RingElem:
        return self.entries.get((r, c), RingElem(self.k))

    def mul(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows or self.k != other.k:
            raise DimensionMismatch("incompatible product")
        # coefficients as bit strings while summing; RingElems at the end
        by_row: Dict[int, List[Tuple[int, int]]] = {}
        for (r, c), e in other.entries.items():
            by_row.setdefault(r, []).append((c, e.bits))
        mask = (1 << self.k) - 1
        acc: Dict[Tuple[int, int], int] = {}  # nonzero sums only
        for (r, c), e in self.entries.items():
            a = e.bits
            for c2, b in by_row.get(c, ()):
                prod, x = 0, a
                while x:
                    lsb = x & -x
                    prod ^= b << (lsb.bit_length() - 1)
                    x ^= lsb
                v = (acc.pop((r, c2), 0) ^ prod) & mask
                if v:
                    acc[(r, c2)] = v
        out = SparseMat(self.rows, other.cols, self.k)
        out.entries = {key: RingElem(self.k, v) for key, v in acc.items()}
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparseMat)
                and (self.rows, self.cols, self.k) == (other.rows, other.cols, other.k)
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"SparseMat({self.rows}x{self.cols}, k={self.k}, nnz={len(self.entries)})"


class F2Mat:
    """Dense bit-packed matrix over F2; row r is an int with bit c per column."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            if len(data) != rows:
                raise DimensionMismatch("row count mismatch")
            mask = (1 << cols) - 1
            self.data = [x & mask for x in data]

    @staticmethod
    def identity(n: int) -> "F2Mat":
        return F2Mat(n, n, [1 << i for i in range(n)])

    def set(self, r: int, c: int, v: int) -> None:
        if v & 1:
            self.data[r] |= 1 << c
        else:
            self.data[r] &= ~(1 << c)

    def get(self, r: int, c: int) -> int:
        return (self.data[r] >> c) & 1

    def mul(self, other: "F2Mat") -> "F2Mat":
        if self.cols != other.rows:
            raise DimensionMismatch("incompatible product")
        out = []
        orows = other.data
        for a in self.data:
            acc = 0
            x = a
            while x:
                lsb = x & -x
                acc ^= orows[lsb.bit_length() - 1]
                x ^= lsb
            out.append(acc)
        return F2Mat(self.rows, other.cols, out)

    def apply(self, v: int) -> int:
        """Matrix times column vector (bit r of result = row r dot v)."""
        out = 0
        for r, row in enumerate(self.data):
            if (row & v).bit_count() & 1:
                out |= 1 << r
        return out

    def is_zero(self) -> bool:
        return not any(self.data)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, F2Mat)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.data == other.data)

    def __repr__(self) -> str:
        return f"F2Mat({self.rows}x{self.cols})"


class RankResult:
    __slots__ = ("rank", "kernel_basis", "image_basis", "rref", "pivots")

    def __init__(self, rank: int, kernel_basis: List[int], image_basis: List[int],
                 rref: "F2Mat", pivots: List[int]):
        self.rank = rank
        self.kernel_basis = kernel_basis
        self.image_basis = image_basis
        self.rref = rref
        self.pivots = pivots


def f2_rank(M: F2Mat) -> RankResult:
    """Rank, kernel basis, image basis and RREF of M, deterministically.

    Kernel vectors live in the column space (bit c per column); image
    vectors are the original pivot columns (bit r per row).
    """
    rr, pivots = _rref(M.data, M.cols)
    rank = len(pivots)
    pivot_set = set(pivots)
    piv_row = {c: rr[i] for i, c in enumerate(pivots)}
    kernel: List[int] = []
    for c in range(M.cols):
        if c in pivot_set:
            continue
        v = 1 << c
        bit = 1 << c
        for p in pivots:
            if piv_row[p] & bit:
                v |= 1 << p
        kernel.append(v)
    image = [0] * rank
    for r, row in enumerate(M.data):
        for t, c in enumerate(pivots):
            if (row >> c) & 1:
                image[t] |= 1 << r
    # rank-nullity, asserted on every call
    assert rank + len(kernel) == M.cols
    return RankResult(rank, kernel, image, F2Mat(rank, M.cols, rr), pivots)


def _rref(rows: List[int], cols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form of bit-packed rows (bit c = column c).

    Pivot rule: leftmost pivot column first, lowest-index available row.
    Returns the nonzero RREF rows (in pivot order) and the pivot columns.
    """
    work = list(rows)
    n = len(work)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        bit = 1 << c
        pr = -1
        for i in range(r, n):
            if work[i] & bit:
                pr = i
                break
        if pr < 0:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        for i in range(n):
            if i != r and work[i] & bit:
                work[i] ^= prow
        pivots.append(c)
        r += 1
    return work[:r], pivots


def nilpotent_block_multiplicities(N: F2Mat, k: int) -> Dict[int, int]:
    """Jordan-block multiplicities of a nilpotent operator with N^k = 0.

    Returns {j: m_j} for j = 1..k where m_j counts cyclic summands
    F2[u]/u^j, via m_j = rank(N^(j-1)) - 2 rank(N^j) + rank(N^(j+1)).
    """
    if N.rows != N.cols:
        raise DimensionMismatch("nilpotent operator must be square")
    d = N.rows
    ranks = [d]
    P = F2Mat.identity(d)
    for _ in range(k + 1):
        P = N.mul(P)
        ranks.append(f2_rank(P).rank)
    if ranks[k] != 0:
        raise NotNilpotentAtOrderK(f"N^{k} has rank {ranks[k]}")
    out: Dict[int, int] = {}
    for j in range(1, k + 1):
        m = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
        if m < 0:
            raise AssertionError("negative block multiplicity")
        out[j] = m
    if sum(j * m for j, m in out.items()) != d:
        raise AssertionError("block multiplicities do not reconstruct the dimension")
    return out


def _bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _apply(cols: List[int], x: int) -> int:
    """The F2 matrix with these columns applied to the vector x."""
    out = 0
    while x:
        low = x & -x
        out ^= cols[low.bit_length() - 1]
        x ^= low
    return out


class LiftFailure(RuntimeError):
    """A vector lies outside the span it was to be written in."""


class Echelon:
    """Incremental GF(2) echelon basis keyed by lowest set bit.

    A row may carry a tag, a bitmask that records which combination of
    tagged inputs it is: reducing a vector XORs the tags of the rows used
    into its own.  So kernels come out of a column reduction (column c
    tagged by bit c; a column that reduces to 0 leaves its tag as a kernel
    vector), and coords(v) reads off the combination of tagged inputs that
    v equals modulo the untagged ones.
    """

    __slots__ = ("pivots", "tags")

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: Dict[int, int] = {}
        self.tags: Dict[int, int] = {}  # nonzero tags only, by pivot
        for v in vectors:
            self.add(v)

    def reduce_tagged(self, v: int, tag: int = 0) -> Tuple[int, int]:
        """Reduce v, and XOR the tags of the rows used into tag."""
        piv, tags = self.pivots, self.tags
        while v:
            p = (v & -v).bit_length() - 1
            row = piv.get(p)
            if row is None:
                break
            v ^= row
            tag ^= tags.get(p, 0)
        return v, tag

    def add(self, v: int, tag: int = 0) -> int:
        """Reduce v; if independent, insert it with its reduced tag and
        return the reduced vector, else return 0."""
        v, tag = self.reduce_tagged(v, tag)
        if v:
            p = (v & -v).bit_length() - 1
            self.pivots[p] = v
            if tag:
                self.tags[p] = tag
        return v

    def coords(self, v: int) -> int:
        """The tag of v: the combination of tagged inputs that v equals
        modulo the untagged ones.  LiftFailure if v is off the span."""
        v, tag = self.reduce_tagged(v)
        if v:
            raise LiftFailure("vector not in the tracked span")
        return tag

    def reduce(self, v: int) -> int:
        return self.reduce_tagged(v)[0]

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self.pivots)


def kernel(columns: Iterable[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    """Kernel basis and image basis of the F2 matrix whose column c is v,
    for the pairs (c, v), by one tagged column reduction.  Kernel vectors
    are bitmasks over the c's."""
    ech = Echelon()
    out: List[int] = []
    for c, v in columns:
        v, tag = ech.reduce_tagged(v, 1 << c)
        if v:
            ech.add(v, tag)
        else:
            out.append(tag)
    return out, list(ech.pivots.values())
