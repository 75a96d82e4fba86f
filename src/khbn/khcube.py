"""The cube of resolutions and its chain complex over F2[u].

Circles of each resolution carry v_plus or v_minus; the edge maps are

    merge: (v+,v+) -> v+   (v+,v-) -> v-   (v-,v+) -> v-   (v-,v-) -> u v-
    split: v+ -> v+ v- + v- v+ + u v+ v+   v- -> v- v-

At u = 0 this is the Khovanov complex.  Gradings: i = |state| - n_minus
and j = (#plus - #minus) - 2 u_power + |state| + n_plus - 2 n_minus, so u
has bidegree (0,-2) in (i,j) order.

The complex is reduced exactly when a marked arc is given: it is then the
quotient killing every generator whose pointed circle (the circle through
the marked arc) carries v_minus; that span is a subcomplex, which the
builder asserts rather than assumes.  The crossing-count guard is the
command line's, not the builder's.

One cube walk and one assembler serve this cube and the cover model in
brcover.  _walk resolves each of the 2^n states once, and each edge's
merge or split comes from the resolutions at its two ends
(linkdiag._classify_edge), so no edge resolves anything again.  _assemble
takes each state's kept generators (a state plus a label bitmask here) and
each edge's images; an image that its target state does not keep
vanishes, which is the reduced quotient.  Every entry of d is u^0 or u^1,
as the quantum degrees of its two generators fix, so one build is the
complex over F2[u] and the truncation order k is an argument of the
read-offs (homology.bigraded_homology, sseq.u_adic_filtration).
d is written straight into its u^0 part d0 and its u^1 part d1, quantum
slice by quantum slice.  An edge map depends only on its signature: the
edge in circle positions and the kept generators at its two ends.  So each
distinct edge map becomes one block in state-local coordinates (_block),
and every edge with that signature adds the block at the slice offsets of
its two ends.  The homogeneity check (an image's u power is half its
quantum step), the repeated-write check and the reduced cube's subcomplex
check run once per block, when it is made.  d^2 = 0 is checked on every
build over F2[u]: d0 d0 = 0, d0 d1 + d1 d0 = 0 and d1 d1 = 0, hence
d^2 = 0 at every k.
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
]

MINUS = 1
PLUS = 0


class BasepointMissing(ValueError):
    pass


class SubcomplexViolation(AssertionError):
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
    n_minus, or 0 for the cover model.  generators lists the basis per
    degree, and slices = (size, cols) holds d as _assemble writes it: its
    u^0 part d0 and its u^1 part d1, quantum slice by quantum slice.  Every
    read-off and the d^2 check use the slices.  d(i) and differential read
    the slices back into SparseMats of F2[u]/u^2 entries when called; the
    library itself never does.
    """

    __slots__ = ("D", "offset", "generators", "slices")

    def __init__(self, D, offset, generators, slices):
        self.D = D
        self.offset = offset
        self.generators: Dict[int, List[Generator]] = generators
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

    def _slots(self, i: int) -> List[Tuple[int, int]]:
        """(quantum degree, position in its slice) of each generator of
        degree i."""
        count: Dict[int, int] = {}
        out = []
        for g in self.generators.get(i, ()):
            j = self.bidegree(g)[1]
            out.append((j, count.get(j, 0)))
            count[j] = out[-1][1] + 1
        return out

    def d(self, i: int) -> SparseMat:
        """d from degree i to i+1, read back from the slices."""
        cols = self.slices[1]
        row = {jr: h for h, jr in enumerate(self._slots(i + 1))}
        elem = (RingElem.one(2), RingElem.u_power(2, 1))
        entries = {}
        for g, (j, s) in enumerate(self._slots(i)):
            for p, part in enumerate(cols[(i, j)]):
                x = part[s]
                while x:
                    low = x & -x
                    entries[(row[(j + 2 * p, low.bit_length() - 1)], g)] = elem[p]
                    x ^= low
        mat = SparseMat(self.rank(i + 1), self.rank(i), 2)
        mat.entries = entries  # distinct and nonzero by construction
        return mat

    @property
    def differential(self) -> Dict[int, SparseMat]:
        return {i: self.d(i) for i in self.generators}


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
        r = resolve(D, s)
        ids.append(r.circle_ids)
        pos.append(_arc_positions(r))
    pointed = [p[bp] if bp is not None else None for p in pos]
    edges = ((b, c, b | 1 << c,
              _classify_edge(D.crossings[c], ids[b], pos[b],
                             ids[b | 1 << c], pos[b | 1 << c]))
             for b in range(1 << n) for c in range(n) if not (b >> c) & 1)
    return states, [len(i) for i in ids], pointed, edges


def _layout(kept) -> Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]:
    """Where a state's kept generators sit in their quantum slices: the count
    of each quantum label offset len(lab) - 2 sum(lab), and each local key's
    (offset, rank among the generators of that offset), in kept order."""
    count: Dict[int, int] = {}
    rank: Dict[int, Tuple[int, int]] = {}
    for key, lab in kept:
        ql = len(lab) - 2 * sum(lab)
        rank[key] = (ql, count.get(ql, 0))
        count[ql] = rank[key][1] + 1
    return count, rank


def _block(src, tgt, images, fault, where):
    """One edge map in state-local coordinates, as groups (source offset,
    target offset, u power, [(source rank, bitmask over target ranks)]).

    src and tgt are the ranks of _layout at the two ends.  An image that
    the target does not keep vanishes, which is the projection onto a
    quotient.  Every edge between two states is its own entry set, so an
    image written twice can only come from one edge map: it raises fault.
    An image whose u power is not half its quantum step raises
    InhomogeneousEntry; the quantum step of an image (ql to qt) is
    qt + 1 - ql, as the target state has one more 1-smoothing.
    """
    groups: Dict[Tuple[int, int, int], Dict[int, int]] = {}
    for key, (ql, s) in src.items():
        seen = set()
        for m, p in images(key):
            hit = tgt.get(m)
            if hit is None:
                continue  # the target does not keep m: the quotient drops it
            if m in seen:
                raise fault(f"edge map {where} writes image {m} of {key} twice")
            seen.add(m)
            qt, r = hit
            if p not in (0, 1) or qt + 1 - ql != 2 * p:
                raise InhomogeneousEntry(
                    f"edge map {where}: image u^{p} {m} of {key} is not"
                    " u^0 or u^1 = u^(dq/2)")
            rows = groups.setdefault((ql, qt, p), {})
            rows[s] = rows.get(s, 0) | 1 << r
    return [(ql, qt, p, list(rows.items()))
            for (ql, qt, p), rows in groups.items()]


def _assemble(D: Diagram, offset: int, states, keys, kept, edges, edge_map,
              fault):
    """The generators and the d0/d1 slices of a complex on the cube.

    keys[b] is the key of state b's kept generators, and kept[key] lists
    them in order as (local key, label tuple); edges yields (from bits,
    crossing, to bits, edge) and edge_map(edge, from key, to key) returns
    the edge's images of one local key as (local key, u power).  A
    generator of state s sits in degree |s| - offset.  An edge map depends
    only on that signature, so each distinct one becomes one block
    (_block, which runs the checks), and every edge adds its block at the
    slice offsets of its two ends.  The slices are size[(i, j)] = |S(i, j)|
    and cols[(i, j)] = (d0, d1), where S(i, j) lists the generators of
    degree i at quantum j in generator order, and d0[s], d1[s] are the
    images of its s-th generator as bitmasks over the positions of
    S(i+1, j) and of S(i+1, j+2).
    """
    q_shift = D.n_plus - 2 * D.n_minus
    layout = {key: _layout(kept[key]) for key in set(keys)}
    generators: Dict[int, List[Generator]] = {}
    size: Dict[Tuple[int, int], int] = {}
    first: List[Dict[int, int]] = [{} for _ in states]  # offset -> slice position
    for b in sorted(range(len(states)), key=states.__getitem__):
        w = sum(states[b])
        generators.setdefault(w - offset, []).extend(
            Generator(states[b], lab) for _, lab in kept[keys[b]])
        at = first[b]
        for ql, n in layout[keys[b]][0].items():
            at[ql] = size.get((w - offset, ql + w + q_shift), 0)
            size[(w - offset, ql + w + q_shift)] = at[ql] + n
    cols = {key: ([0] * n, [0] * n) for key, n in size.items()}

    blocks = {}
    for b, _, t, edge in edges:
        sig = (edge, keys[b], keys[t])
        block = blocks.get(sig)
        if block is None:
            block = blocks[sig] = _block(
                layout[sig[1]][1], layout[sig[2]][1], edge_map(*sig), fault,
                f"{states[b]} -> {states[t]}")
        w = sum(states[b])
        i, j0 = w - offset, w + q_shift
        src, tgt = first[b], first[t]
        for ql, qt, p, rows in block:
            col, o, sh = cols[(i, ql + j0)][p], src[ql], tgt[qt]
            for s, mask in rows:
                col[o + s] |= mask << sh
    return generators, (size, cols)


def build_complex(D: Diagram, basepoint: Optional[int] = None,
                  walk=None) -> GradedComplex:
    """Assemble the full complex over F2[u], reduced at the marked arc
    basepoint when one is given; asserts d*d = 0 before returning.

    Each state is resolved once (_walk; a caller that has walked the cube
    at the same basepoint passes its walk), a generator is a state plus a
    label bitmask, and every edge map is read off the two resolutions of
    its ends.
    """
    states, circles, pointed, edges = walk or _walk(D, basepoint)
    # position of the pointed circle, or None when no generator is killed
    keys = list(zip(circles, pointed))
    kept = {key: _labelings(*key) for key in set(keys)}

    def edge_map(edge, key_from, key_to):
        pp, pt = key_from[1], key_to[1]
        if pp is not None and pp in edge[1]:
            # the killed span must be a subcomplex, else the quotient is not
            # a complex: a v_minus at the basepoint stays there.  This
            # depends only on the signature, so it runs once per block.
            for m, _ in _edge_images(*edge, 1 << pp):
                if not (m >> pt) & 1:
                    raise SubcomplexViolation(
                        f"killed generator leaks across edge {edge}")
        return partial(_edge_images, *edge)

    C = GradedComplex(D, D.n_minus, *_assemble(
        D, D.n_minus, states, keys, kept, edges, edge_map,
        SubcomplexViolation))
    report = verify_d_squared(C)
    if not report.passed:
        raise SubcomplexViolation(f"d squared nonzero at {report.failures[0]}")
    return C


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
    by_degree: Dict[int, List[int]] = {}
    for i, j in sorted(cols):
        by_degree.setdefault(i, []).append(j)
    failures = []
    for i, js in sorted(by_degree.items()):
        # d from S(i+1, j) into S(i+2, j) + S(i+2, j+2), for degree i+1
        # only: the u^1 rows sit above the u^0 rows, so applying it after
        # degree i's d stacks the parts of d^2 as layers
        both = {j: [a | b << size.get((i + 2, j), 0) for a, b in zip(*cols[(i + 1, j)])]
                for j in by_degree.get(i + 1, ())}
        for j in js:
            a0, a1 = cols[(i, j)]
            layers = [size.get((i + 2, j + 2 * p), 0) for p in range(order)]
            mask = (1 << sum(layers)) - 1
            e0, e1 = both.get(j, ()), both.get(j + 2, ())
            for x0, x1 in zip(a0, a1):
                if (_apply(e0, x0) ^ _apply(e1, x1) << layers[0]) & mask:
                    failures.append((i, (i, j)))
                    break
    return DSquaredReport(not failures, failures)
