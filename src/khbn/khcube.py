"""The cube of resolutions and its chain complex over F2[u].

Circles of each resolution carry v_plus or v_minus; the edge maps are

    merge: (v+,v+) -> v+   (v+,v-) -> v-   (v-,v+) -> v-   (v-,v-) -> u v-
    split: v+ -> v+ v- + v- v+ + u v+ v+   v- -> v- v-

At u = 0 this is the Khovanov complex.  Gradings: i = |state| - n_minus
and j = (#plus - #minus) - 2 u_power + |state| + n_plus - 2 n_minus, so u
has bidegree (0,-2) in (i,j) order.

The reduced complex is the quotient killing every generator whose pointed
circle carries v_minus; that span is a subcomplex, which the builder
asserts rather than assumes.

One cube walk and one assembler serve this cube and the cover model in
brcover.  _walk resolves each of the 2^n states once, and each edge's
merge or split comes from the resolutions at its two ends
(linkdiag._classify_edge), so no edge resolves anything again.  _assemble
takes each state's kept generators (a state plus a label bitmask here) and
each edge's images; an image that its target state does not keep
vanishes, which is the reduced quotient.  Each entry of d is written
once, untruncated: every entry is u^0 or u^1, as the quantum degrees of
its two generators fix, so one build is the complex over F2[u] and the
truncation order k is an argument of the read-offs
(homology.bigraded_homology, sseq.u_adic_filtration).
At assembly d is read once into its u^0 part d0 and its u^1 part d1,
quantum slice by quantum slice (_u_slices), and every read-off and the
d^2 check use these slices.  d^2 = 0 is checked on every build over F2[u]:
d0 d0 = 0, d0 d1 + d1 d0 = 0 and d1 d1 = 0, hence d^2 = 0 at every k.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .linkdiag import (Diagram, Merge, Split, _arc_positions, _classify_edge,
                       resolve)
from .ringalg import RingElem, SparseMat, _apply

__all__ = [
    "Generator",
    "GradedComplex",
    "apply_edge_map",
    "build_complex",
    "verify_d_squared",
    "BasepointMissing",
    "InhomogeneousEntry",
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


class InhomogeneousEntry(AssertionError):
    """An entry of d is not the single power of u that the quantum
    degrees of its two generators fix."""


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
    """Chain complex of free F2[u] modules indexed by homological degree.

    A generator of state s sits in degree |s| - offset, where offset is
    n_minus, or 0 for the cover model.  generators and differential record
    the basis and d entry by entry, as
    RingElems of F2[u]/u^2, which holds the entries u^0 and u^1 exactly.
    slices = (size, cols) is d as _u_slices splits it; every read-off uses
    the slices.
    """

    __slots__ = ("D", "reduced", "offset", "generators", "differential",
                 "slices")

    def __init__(self, D, reduced, offset, generators, differential, slices):
        self.D = D
        self.reduced = reduced
        self.offset = offset
        self.generators: Dict[int, List[Generator]] = generators
        self.differential: Dict[int, SparseMat] = differential
        self.slices = slices

    def degrees(self) -> List[int]:
        return sorted(self.generators)

    def bidegree(self, g: Generator, u_power: int = 0) -> Tuple[int, int]:
        D = self.D
        w = sum(g.state)
        minus = sum(g.labels)
        plus = len(g.labels) - minus
        j = (plus - minus) - 2 * u_power + w + D.n_plus - 2 * D.n_minus
        return w - self.offset, j

    def rank(self, i: int) -> int:
        return len(self.generators.get(i, ()))

    def d(self, i: int) -> SparseMat:
        return self.differential.get(
            i, SparseMat(self.rank(i + 1), self.rank(i), 2))


def apply_edge_map(kind, labeling: Dict[int, int], k: int,
                   bystander_map: Dict[int, int]) -> List[Tuple[Dict[int, int], RingElem]]:
    """TQFT edge map on one labeling (circle id -> 0/1, 1 for v_minus).

    Returns the formal sum as (labeling, coefficient) pairs; zero
    coefficients are dropped (u^k = 0 truncation happens in RingElem).
    No builder calls it: the cube and the cover model's check run
    _edge_images.  It is the reference TQFT map of tests/cube_reference.py
    and tests/test_khcube.py.
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


def _labelings(c: int, kill: Optional[int]) -> List[Tuple[int, Tuple[int, ...]]]:
    """(bitmask, label tuple) of the labelings of c circles that put v_plus
    at position kill (all 2^c when kill is None), in label tuple order."""
    return sorted(((m, tuple((m >> t) & 1 for t in range(c)))
                   for m in range(1 << c) if kill is None or not (m >> kill) & 1),
                  key=lambda ml: ml[1])


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


def _walk(D: Diagram, bp: Optional[int]):
    """Resolve each of the 2^n states once.  Returns, indexed by state
    bits, the states, their circle counts and the positions of their pointed
    circles (None without a basepoint), and an iterator over the edges as
    (from bits, crossing, to bits, _classify_edge's edge)."""
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
    pointed = [p[bp] if bp is not None else None for p in pos]
    edges = ((b, c, b | 1 << c,
              _classify_edge(D.crossings[c], ids[b], pos[b],
                             ids[b | 1 << c], pos[b | 1 << c]))
             for b in range(1 << n) for c in range(n) if not (b >> c) & 1)
    return states, [len(i) for i in ids], pointed, edges


def _assemble(D: Diagram, offset: int, states, kept, edges, fault):
    """The generators, d and its slices of a complex on the cube.

    kept[b] lists the generators of state b in order, as (key, label
    tuple); edges yields (from bits, to bits, images), images(key) being
    the edge's images of one key as (key, u power).  A generator of state
    s sits in degree |s| - offset.  Each entry of d is written once, and a
    second write raises fault; an image whose key the target state does
    not keep vanishes, which is the projection onto a quotient.
    """
    q_shift = D.n_plus - 2 * D.n_minus
    generators: Dict[int, List[Generator]] = {}
    quantum: Dict[int, List[int]] = {}
    first: List[int] = [0] * len(states)   # index of the state's first generator
    local: List[Dict[int, int]] = [{} for _ in states]  # kept key -> offset
    for b in sorted(range(len(states)), key=states.__getitem__):
        w = sum(states[b])
        gens = generators.setdefault(w - offset, [])
        qs = quantum.setdefault(w - offset, [])
        first[b] = len(gens)
        local[b] = {m: t for t, (m, _) in enumerate(kept[b])}
        for _, lab in kept[b]:
            gens.append(Generator(states[b], lab))
            qs.append(len(lab) - 2 * sum(lab) + w + q_shift)

    differential: Dict[int, SparseMat] = {
        i: SparseMat(len(generators.get(i + 1, ())), len(gens), 2)
        for i, gens in generators.items()}
    elem = (RingElem.one(2), RingElem.u_power(2, 1))
    for b, t, images in edges:
        entries = differential[sum(states[b]) - offset].entries
        # the rows of one edge lie in the block of state t
        row0, rows = first[t], local[t]
        for key, off in local[b].items():
            col = first[b] + off
            for m, p in images(key):
                row = rows.get(m)
                if row is None:
                    continue  # state t does not keep m: the quotient drops it
                at = (row0 + row, col)
                if at in entries:
                    raise fault(f"entry {at} of d from state {states[b]}"
                                " written twice")
                entries[at] = elem[p]
    return generators, differential, _u_slices(quantum, differential)


def build_complex(D: Diagram, reduced: bool = False,
                  basepoint: Optional[int] = None,
                  force: bool = False, walk=None) -> GradedComplex:
    """Assemble the full complex over F2[u]; asserts d*d = 0 before
    returning.

    Each state is resolved once (_walk; a caller that has walked the cube
    at the same basepoint passes its walk), a generator is a state plus a
    label bitmask, and every edge map is read off the two resolutions of
    its ends.  Above 14 crossings the cube is refused unless force is set.
    """
    if D.n > 14 and not force:
        raise ResourceLimit(
            f"{D.n} crossings: the full cube has {1 << D.n} vertices;"
            " pass force to proceed")
    bp = basepoint if basepoint is not None else D.basepoint_arc
    if reduced and bp is None:
        raise BasepointMissing("reduced complex needs a basepoint arc")
    states, circles, pointed, edges = walk or _walk(D, bp)
    # position of the pointed circle, or None when no generator is killed
    killed = pointed if reduced else [None] * len(states)
    labelings = {key: _labelings(*key) for key in set(zip(circles, killed))}

    def images():
        for b, cr, t, edge in edges:
            pp, pt = killed[b], killed[t]
            if pp is not None and pp in edge[1]:
                # the killed span must be a subcomplex, else the quotient
                # is not a complex: a v_minus at the basepoint stays there
                for m, _ in _edge_images(*edge, 1 << pp):
                    if not (m >> pt) & 1:
                        raise SubcomplexViolation(
                            f"killed generator leaks at state {states[b]},"
                            f" crossing {cr}")
            yield b, t, partial(_edge_images, *edge)

    C = GradedComplex(D, reduced, D.n_minus, *_assemble(
        D, D.n_minus, states,
        [labelings[key] for key in zip(circles, killed)],
        images(), SubcomplexViolation))
    report = verify_d_squared(C)
    if not report.passed:
        raise SubcomplexViolation(f"d squared nonzero at {report.failures[0]}")
    return C


def _u_slices(quantum: Dict[int, List[int]],
              differential: Dict[int, SparseMat]):
    """d read once and split into its u^0 part d0 and its u^1 part d1.

    quantum[i][g] is the quantum degree of generator g of degree i, and
    S(i, j) lists the generators of degree i at quantum j, in generator
    order.  Returns size[(i, j)] = |S(i, j)| and cols[(i, j)] = (d0, d1),
    where d0[s] and d1[s] are the images of the s-th generator of S(i, j)
    as bitmasks over the positions of S(i+1, j) and of S(i+1, j+2).  Every
    entry must be u^0 or u^1, as its two quantum degrees fix; any other
    entry raises InhomogeneousEntry.
    """
    slot: Dict[int, List[Tuple[int, int]]] = {}  # generator -> (j, position)
    size: Dict[Tuple[int, int], int] = {}
    for i, qs in quantum.items():
        slot[i] = []
        for j in qs:
            s = size.get((i, j), 0)
            size[(i, j)] = s + 1
            slot[i].append((j, s))
    cols = {key: ([0] * n, [0] * n) for key, n in size.items()}
    for i, mat in differential.items():
        src = [(j, cols[(i, j)], s) for j, s in slot[i]]
        tgt = [(j, 1 << r) for j, r in slot.get(i + 1, ())]
        for (h, g), e in mat.entries.items():
            j, parts, s = src[g]
            jh, bit = tgt[h]
            if e.bits != _UNIT_AT.get(jh - j):
                raise InhomogeneousEntry(
                    f"d entry {e!r} at degree {i} is not u^0 or u^1 = u^(dq/2)")
            parts[(jh - j) >> 1][s] |= bit
    return size, cols


# the bits of the entry u^(dq/2) for a quantum step dq of 0 or 2
_UNIT_AT = {0: 0b01, 2: 0b10}


class DSquaredReport:
    __slots__ = ("passed", "failures")

    def __init__(self, passed, failures):
        self.passed = passed
        self.failures = failures

    def __repr__(self):
        return f"DSquaredReport(passed={self.passed}, failures={self.failures})"


def verify_d_squared(C, order: int = 3) -> DSquaredReport:
    """d^2 = 0 modulo u^order, on the slices of C.

    With d = d0 + u d1, d^2 = d0 d0 + u (d1 d0 + d0 d1) + u^2 d1 d1, and
    its three parts map S(i, j) to S(i+2, j), S(i+2, j+2) and S(i+2, j+4).
    order 3 checks all three, which is d^2 = 0 over F2[u] and so at every
    k; order 2 checks d^2 = 0 over F2[u]/u^2.  Reports each failing slice
    as (degree, its bidegree).
    """
    size, cols = C.slices
    # d from S(i, j) into S(i+1, j) + S(i+1, j+2): the u^1 rows sit above
    # the u^0 rows, so applying it twice stacks the parts of d^2 as layers
    both = {(i, j): [a | b << size.get((i + 1, j), 0) for a, b in zip(*parts)]
            for (i, j), parts in cols.items()}
    failures = []
    for (i, j), (a0, a1) in sorted(cols.items()):
        layers = [size.get((i + 2, j + 2 * p), 0) for p in range(order)]
        mask = (1 << sum(layers)) - 1
        e0, e1 = both.get((i + 1, j), ()), both.get((i + 1, j + 2), ())
        for x0, x1 in zip(a0, a1):
            if (_apply(e0, x0) ^ _apply(e1, x1) << layers[0]) & mask:
                failures.append((i, (i, j)))
                break
    return DSquaredReport(not failures, failures)
