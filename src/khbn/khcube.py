"""The cube of resolutions and its chain complex over F2[u]/u^k.

Circles of each resolution carry v_plus or v_minus; the edge maps are

    merge: (v+,v+) -> v+   (v+,v-) -> v-   (v-,v+) -> v-   (v-,v-) -> u v-
    split: v+ -> v+ v- + v- v+ + u v+ v+   v- -> v- v-

At k=1 the u terms die and this is the Khovanov complex.  Gradings:
i = |state| - n_minus and j = (#plus - #minus) - 2 u_power + |state|
+ n_plus - 2 n_minus, so u has bidegree (0,-2) in (i,j) order.

The reduced complex is the quotient killing every generator whose pointed
circle carries v_minus; that span is a subcomplex, which the builder
asserts rather than assumes.

build_complex resolves each of the 2^n states once.  A generator is a
state plus a label bitmask, and each edge's merge or split comes from the
resolutions at its two ends (linkdiag._classify_edge), so no edge resolves
anything again.  Each entry of d is written once.  d^2 = 0 is checked on
every build as two facts: d^2 = 0 over F2 on the untruncated columns at
u = 1, and every entry equal to u^((q_h - q_g)/2).  Together they give
d^2 = 0 over F2[u], hence at every k.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .linkdiag import (Diagram, Merge, Split, _arc_positions, _classify_edge,
                       resolve)
from .ringalg import RingElem, SparseMat

__all__ = [
    "Generator",
    "GradedComplex",
    "apply_edge_map",
    "build_complex",
    "verify_d_squared",
    "BasepointMissing",
    "SubcomplexViolation",
    "ResourceLimit",
]

MINUS = 1
PLUS = 0


class BasepointMissing(ValueError):
    pass


class SubcomplexViolation(AssertionError):
    pass


class ResourceLimit(RuntimeError):
    pass


class Generator:
    """One free-module basis element: a state plus a per-circle label.

    labels[n] is the label of the n-th circle of the resolution at `state`
    (circles ordered by canonical id); 1 means v_minus.
    """

    __slots__ = ("state", "labels")

    def __init__(self, state: Sequence[int], labels: Sequence[int]):
        self.state = tuple(state)
        self.labels = tuple(labels)

    def sort_key(self):
        return (self.state, self.labels)

    def __eq__(self, other):
        return (isinstance(other, Generator) and self.state == other.state
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.state, self.labels))

    def __repr__(self):
        lab = "".join("-" if b else "+" for b in self.labels)
        return f"Gen({''.join(map(str, self.state))}|{lab})"


class GradedComplex:
    """Chain complex of free F2[u]/u^k modules indexed by homological degree."""

    __slots__ = ("D", "k", "reduced", "basepoint", "generators", "differential",
                 "circle_ids")

    def __init__(self, D, k, reduced, basepoint, generators, differential,
                 circle_ids):
        self.D = D
        self.k = k
        self.reduced = reduced
        self.basepoint = basepoint
        self.generators: Dict[int, List[Generator]] = generators
        self.differential: Dict[int, SparseMat] = differential
        self.circle_ids: Dict[Tuple[int, ...], Tuple[int, ...]] = circle_ids

    def degrees(self) -> List[int]:
        return sorted(self.generators)

    def bidegree(self, g: Generator, u_power: int = 0) -> Tuple[int, int]:
        D = self.D
        w = sum(g.state)
        i = w - D.n_minus
        minus = sum(g.labels)
        plus = len(g.labels) - minus
        j = (plus - minus) - 2 * u_power + w + D.n_plus - 2 * D.n_minus
        return i, j

    def rank(self, i: int) -> int:
        return len(self.generators.get(i, ()))

    def d(self, i: int) -> SparseMat:
        return self.differential.get(
            i, SparseMat(self.rank(i + 1), self.rank(i), self.k))


def apply_edge_map(kind, labeling: Dict[int, int], k: int,
                   bystander_map: Dict[int, int]) -> List[Tuple[Dict[int, int], RingElem]]:
    """TQFT edge map on one labeling (circle id -> 0/1, 1 for v_minus).

    Returns the formal sum as (labeling, coefficient) pairs; zero
    coefficients are dropped (u^k = 0 truncation happens in RingElem).
    """
    base = {bystander_map[c]: v for c, v in labeling.items() if c in bystander_map}
    one = RingElem.one(k)
    u = RingElem.u_power(k, 1)
    out: List[Tuple[Dict[int, int], RingElem]] = []
    if isinstance(kind, Merge):
        la, lb = labeling[kind.src_a], labeling[kind.src_b]
        coeff = u if (la, lb) == (MINUS, MINUS) else one
        lab = dict(base)
        lab[kind.dst] = MINUS if (la or lb) else PLUS
        if coeff:
            out.append((lab, coeff))
    elif isinstance(kind, Split):
        src = labeling[kind.src]
        if src == MINUS:
            lab = dict(base)
            lab[kind.dst_a] = MINUS
            lab[kind.dst_b] = MINUS
            out.append((lab, one))
        else:
            for va, vb, coeff in ((PLUS, MINUS, one), (MINUS, PLUS, one),
                                  (PLUS, PLUS, u)):
                if not coeff:
                    continue
                lab = dict(base)
                lab[kind.dst_a] = va
                lab[kind.dst_b] = vb
                out.append((lab, coeff))
    else:
        raise TypeError(f"unclassified edge kind: {kind!r}")
    return out


def _labelings(c: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """(bitmask, label tuple) of the 2^c labelings of c circles, in the
    order of the label tuples."""
    return sorted(((m, tuple((m >> t) & 1 for t in range(c)))
                   for m in range(1 << c)), key=lambda ml: ml[1])


def _edge_images(merge: bool, src, dst, bystanders,
                 mask: int) -> List[Tuple[int, int]]:
    """The edge map of _classify_edge's (merge, src, dst, bystanders) on one
    label mask (bit t: v_minus on circle t), untruncated: (mask, u power)."""
    base = 0
    for f, t in bystanders:
        if (mask >> f) & 1:
            base |= 1 << t
    if merge:
        la, lb = (mask >> src[0]) & 1, (mask >> src[1]) & 1
        return [(base | ((la | lb) << dst[0]), la & lb)]
    da, db = 1 << dst[0], 1 << dst[1]
    if (mask >> src[0]) & 1:
        return [(base | da | db, 0)]
    return [(base | db, 0), (base | da, 0), (base, 1)]


def build_complex(D: Diagram, k: int, reduced: bool = False,
                  basepoint: Optional[int] = None,
                  force: bool = False) -> GradedComplex:
    """Assemble the full complex; asserts d*d = 0 before returning.

    Each state is resolved once; a generator is built as (state, label
    bitmask), and every edge map is read off the two resolutions of its
    ends.  Above 14 crossings the cube is refused unless force is set.
    """
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    if D.n > 14 and not force:
        raise ResourceLimit(
            f"{D.n} crossings: the full cube has {1 << D.n} vertices;"
            " pass force to proceed")
    bp = basepoint if basepoint is not None else D.basepoint_arc
    if reduced and bp is None:
        raise BasepointMissing("reduced complex needs a basepoint arc")
    if bp is not None and bp not in D.arcs:
        raise BasepointMissing(f"arc {bp} does not occur in the diagram")
    n = D.n
    states = [tuple((bits >> c) & 1 for c in range(n)) for bits in range(1 << n)]
    ids: List[Tuple[int, ...]] = []   # sorted circle ids per state
    pos: List[bytes] = []             # arc -> position in ids, per state
    for s in states:
        r = resolve(D, s, bp)
        ids.append(r.circle_ids)
        pos.append(_arc_positions(r))
    # position of the pointed circle, or None when no generator is killed
    pointed = [p[bp] if reduced else None for p in pos]
    q_shift = D.n_plus - 2 * D.n_minus

    labelings: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
    generators: Dict[int, List[Generator]] = {}
    quantum: Dict[int, List[int]] = {}
    first: List[int] = [0] * len(states)   # index of the state's first generator
    local: List[Dict[int, int]] = [{} for _ in states]  # kept mask -> offset
    for b in sorted(range(len(states)), key=states.__getitem__):
        c = len(ids[b])
        if c not in labelings:
            labelings[c] = _labelings(c)
        pp = pointed[b]
        kept = [(m, lab) for m, lab in labelings[c] if pp is None or not lab[pp]]
        w = sum(states[b])
        i = w - D.n_minus
        gens = generators.setdefault(i, [])
        qs = quantum.setdefault(i, [])
        first[b] = len(gens)
        local[b] = {m: t for t, (m, _) in enumerate(kept)}
        for _, lab in kept:
            gens.append(Generator(states[b], lab))
            qs.append(c - 2 * sum(lab) + w + q_shift)

    differential: Dict[int, SparseMat] = {
        i: SparseMat(len(generators.get(i + 1, ())), len(gens), k)
        for i, gens in generators.items()}
    # the untruncated columns at u = 1, split by the power of u of the entry
    cols = {i: ([0] * len(gens), [0] * len(gens))
            for i, gens in generators.items()}
    elem = [RingElem.u_power(k, p) for p in range(min(k, 2))]
    for b, s in enumerate(states):
        i = sum(s) - D.n_minus
        entries = differential[i].entries
        by_power = cols[i]
        for cr in range(n):
            if s[cr]:
                continue
            t = b | (1 << cr)
            edge = _classify_edge(D.crossings[cr], ids[b], pos[b], ids[t], pos[t])
            pp, pt = pointed[b], pointed[t]
            if pp is not None and pp in edge[1]:
                # the killed span must be a subcomplex, else the quotient
                # is not a complex: a v_minus at the basepoint stays there
                for m, _ in _edge_images(*edge, 1 << pp):
                    if not (m >> pt) & 1:
                        raise SubcomplexViolation(
                            f"killed generator leaks at state {s}, crossing {cr}")
            # the rows of one edge lie in the block of state t; the columns
            # are filled a block at a time, shifted to its first row
            row0, rows = first[t], local[t]
            for mask, off in local[b].items():
                col = first[b] + off
                block = [0, 0]
                for m, p in _edge_images(*edge, mask):
                    if pt is not None and (m >> pt) & 1:
                        continue  # quotient projection: killed terms vanish
                    r = rows[m]
                    if ((block[0] | block[1]) >> r) & 1:
                        raise SubcomplexViolation(
                            f"entry ({row0 + r}, {col}) of degree {i} written twice")
                    block[p] |= 1 << r
                    if p < k:
                        entries[(row0 + r, col)] = elem[p]
                for p, part in enumerate(block):
                    if part:
                        by_power[p][col] |= part << row0

    _check_u1(quantum, cols)
    circle_ids = dict(zip(states, ids))
    return GradedComplex(D, k, reduced, bp, generators, differential, circle_ids)


def _check_u1(quantum: Dict[int, List[int]],
              cols: Dict[int, Sequence[List[int]]]) -> None:
    """d^2 = 0 over F2[u], checked at u = 1 on the untruncated columns.

    quantum[i][g] is the quantum degree of generator g of degree i, and
    cols[i][p][g] the bitmask of the rows of degree i+1 that d meets from g
    with the entry u^p.  Every entry must be u^((q_h - q_g)/2).  Then every
    entry of d^2 is a sum of equal powers of u, so d^2 vanishes over F2[u],
    and at every k, exactly when it vanishes at u = 1.  The truncated
    matrices would not do: at k = 2 two u-entries compose to a u^2 path that
    truncation drops, so the parity of a count at u = 1 can be wrong there.
    Raises SubcomplexViolation naming the first degree that fails.
    """
    at_one: Dict[int, List[int]] = {}
    for i in sorted(cols):
        bitsets: Dict[int, bytearray] = {}  # quantum degree -> rows there
        above = quantum.get(i + 1, ())
        for h, q in enumerate(above):
            if q not in bitsets:
                bitsets[q] = bytearray((len(above) + 7) // 8)
            bitsets[q][h >> 3] |= 1 << (h & 7)
        rows_at = {q: int.from_bytes(bs, "little") for q, bs in bitsets.items()}
        qs = quantum[i]
        for p, by_gen in enumerate(cols[i]):
            for g, col in enumerate(by_gen):
                if col and col & rows_at.get(qs[g] + 2 * p, 0) != col:
                    raise SubcomplexViolation(
                        f"d entry u^{p} at degree {i}, generator {g}"
                        " is not u^(dq/2)")
        merged = [0] * len(qs)
        for by_gen in cols[i]:
            for g, col in enumerate(by_gen):
                merged[g] |= col
        at_one[i] = merged
    for i, by_gen in at_one.items():
        nxt = at_one.get(i + 1)
        if nxt is None:
            continue
        for g, col in enumerate(by_gen):
            acc = 0
            while col:
                low = col & -col
                acc ^= nxt[low.bit_length() - 1]
                col ^= low
            if acc:
                raise SubcomplexViolation(
                    f"d squared nonzero at degree {i}, generator {g}")


class DSquaredReport:
    __slots__ = ("passed", "failures")

    def __init__(self, passed, failures):
        self.passed = passed
        self.failures = failures

    def __repr__(self):
        return f"DSquaredReport(passed={self.passed}, failures={self.failures})"


def verify_d_squared(C: GradedComplex) -> DSquaredReport:
    """Check every consecutive product d_{i+1} d_i = 0; reports offenders
    by (degree, first nonzero bidegree)."""
    failures = []
    for i in C.degrees():
        if i + 1 not in C.differential:
            continue
        prod = C.d(i + 1).mul(C.d(i))
        if not prod.is_zero():
            (r, c), _ = next(iter(sorted(prod.entries.items())))
            g = C.generators[i][c]
            failures.append((i, C.bidegree(g)))
    return DSquaredReport(not failures, failures)
