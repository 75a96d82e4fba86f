"""Combinatorial model of the first page of the branched-double-cover
surgery spectral sequence, and its machine-checked identification with the
reduced u-truncated cube complex at k=2.

Each full smoothing contributes the exterior algebra on one class gamma_i
per non-pointed circle, tensored with F2[Q]/Q^2 (rank 2^{circles-1}).  A
monomial is a bitmask over the non-pointed circles in circle id order.
Edge maps, with xi running over monomials in the untouched classes:

  merge of non-pointed a,b into c:
      xi -> xi, g_a xi -> g_c xi, g_b xi -> g_c xi, g_a g_b xi -> Q g_c xi
  merge of the pointed circle with b:
      xi -> xi, g_b xi -> 0
  split of non-pointed a into a1, a2:
      xi -> g_a1 xi + g_a2 xi + Q xi,   g_a xi -> g_a1 g_a2 xi
  split of the pointed circle, new circle s:
      xi -> g_s xi + Q xi

edge_map_brcover gives the images of one monomial as (mask, Q power)
pairs, read off the circle positions of linkdiag._classify_edge and the
pointed position at each end, as khcube._edge_images does for the cube.

The homological grading here is the raw cube weight |state|.  The
dictionary phi sends a monomial to the label mask (bit t: v_minus on
circle t) that inserts a v_plus bit at the pointed position: v_minus
sits exactly on the circles named in the monomial, the pointed circle
carries v_plus, and Q matches u.  Quantum grading on this side is defined
as the pullback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .khcube import (BasepointMissing, InhomogeneousEntry, verify_d_squared,
                     _edge_images, _u_slices)
from .linkdiag import Diagram, _arc_positions, _classify_edge, resolve
from .ringalg import RingElem, SparseMat

__all__ = [
    "VertexGroup",
    "E1Complex",
    "BrGen",
    "edge_map_brcover",
    "build_e1_complex",
    "phi",
    "verify_theorem_main",
    "DSquaredFailure",
    "StateMismatch",
]


class DSquaredFailure(AssertionError):
    """The model's d is not a differential: an entry is written twice, or
    d^2 != 0 over F2[Q]/Q^2."""


class StateMismatch(ValueError):
    pass


class VertexGroup:
    """Exterior-algebra data of one smoothing: `pointed` is the position of
    the pointed circle in the sorted circle ids, and monomials are bitmasks
    over the other circles."""

    __slots__ = ("state", "circle_ids", "pointed", "rank")

    def __init__(self, state, circle_ids, pointed):
        self.state = tuple(state)
        self.circle_ids = tuple(circle_ids)
        if pointed not in circle_ids:
            raise StateMismatch("pointed circle missing from resolution")
        self.pointed = self.circle_ids.index(pointed)
        self.rank = 1 << (len(circle_ids) - 1)

    def __repr__(self):
        return (f"VertexGroup(state={self.state}, circles={self.circle_ids},"
                f" pointed at {self.pointed})")


class BrGen:
    """Basis monomial of one vertex group, tagged by its state."""

    __slots__ = ("state", "mask")

    def __init__(self, state, mask):
        self.state = tuple(state)
        self.mask = mask

    def sort_key(self):
        return (self.state, self.mask)

    def __eq__(self, other):
        return (isinstance(other, BrGen) and self.state == other.state
                and self.mask == other.mask)

    def __hash__(self):
        return hash((self.state, self.mask))

    def __repr__(self):
        return f"BrGen({''.join(map(str, self.state))}|{self.mask:b})"


class E1Complex:
    """Total complex of the model, graded by raw cube weight.

    The homology code reads only `slices`, the u^0/u^1 parts of d that
    the constructor reads off the entries (khcube._u_slices).  generators,
    differential (SparseMats over F2[Q]/Q^2), d(), degrees() and
    bidegree() record the same complex generator by generator, for the
    dense oracle and the tests.
    """

    __slots__ = ("D", "basepoint", "vertices", "generators", "differential",
                 "slices")

    def __init__(self, D, basepoint, vertices, generators, differential):
        self.D = D
        self.basepoint = basepoint
        self.vertices: Dict[Tuple[int, ...], VertexGroup] = vertices
        self.generators: Dict[int, List[BrGen]] = generators
        self.differential: Dict[int, SparseMat] = differential
        self.slices = _u_slices(
            {w: [self.bidegree(g)[1] for g in gens]
             for w, gens in generators.items()}, differential)

    def degrees(self) -> List[int]:
        return sorted(self.generators)

    def rank(self, w: int) -> int:
        return len(self.generators.get(w, ()))

    def d(self, w: int) -> SparseMat:
        return self.differential.get(
            w, SparseMat(self.rank(w + 1), self.rank(w), 2))

    def bidegree(self, g: BrGen, qpow: int = 0) -> Tuple[int, int]:
        V = self.vertices[g.state]
        c = len(V.circle_ids)
        size = bin(g.mask).count("1")
        w = sum(g.state)
        j = (c - 2 * size) - 2 * qpow + w + self.D.n_plus - 2 * self.D.n_minus
        return w, j


def _bit(x: int, pointed: int) -> int:
    """The monomial bit of the non-pointed circle at position x."""
    return 1 << (x - (x > pointed))


def edge_map_brcover(edge, p_from: int, p_to: int,
                     mask: int) -> List[Tuple[int, int]]:
    """The model's edge map on one monomial: its images as (mask, Q power).

    edge is _classify_edge's (merge, src, dst, bystanders) in circle
    positions, and p_from, p_to are the pointed positions at its two ends.
    """
    merge, src, dst, bystanders = edge
    base = 0
    for f, t in bystanders:
        if f != p_from and mask & _bit(f, p_from):
            base |= _bit(t, p_to)
    if merge:
        if p_from in src:
            other = src[0] + src[1] - p_from
            return [] if mask & _bit(other, p_from) else [(base, 0)]  # g_b xi -> 0
        ga, gb = (mask & _bit(x, p_from) != 0 for x in src)
        if not (ga or gb):
            return [(base, 0)]
        return [(base | _bit(dst[0], p_to), int(ga and gb))]
    if src[0] == p_from:
        new = dst[0] + dst[1] - p_to
        return [(base | _bit(new, p_to), 0), (base, 1)]
    b1, b2 = _bit(dst[0], p_to), _bit(dst[1], p_to)
    if mask & _bit(src[0], p_from):
        return [(base | b1 | b2, 0)]
    return [(base | b1, 0), (base | b2, 0), (base, 1)]


def phi(mask: int, pointed: int) -> int:
    """Monomial -> label mask of the reduced cube generator: a v_plus bit
    inserted at the pointed position."""
    low = mask & ((1 << pointed) - 1)
    return low | (mask ^ low) << 1


def _cube(D: Diagram, bp: int):
    """Every state's vertex group, indexed by state bits, and an iterator
    over the edges as (from bits, crossing, to bits, _classify_edge's edge),
    by state, then by crossing.  Each state is resolved once."""
    n = D.n
    groups: List[VertexGroup] = []
    pos: List[bytes] = []
    for bits in range(1 << n):
        r = resolve(D, tuple((bits >> c) & 1 for c in range(n)), bp)
        groups.append(VertexGroup(r.state, r.circle_ids, r.pointed_circle))
        pos.append(_arc_positions(r))
    edges = ((b, c, b | 1 << c,
              _classify_edge(D.crossings[c], groups[b].circle_ids, pos[b],
                             groups[b | 1 << c].circle_ids, pos[b | 1 << c]))
             for b in range(1 << n) for c in range(n) if not (b >> c) & 1)
    return groups, edges


def _images(groups: List[VertexGroup], b: int, t: int, edge):
    """The images of every monomial of state b under the edge to state t."""
    pf, pt = groups[b].pointed, groups[t].pointed
    return [edge_map_brcover(edge, pf, pt, mask)
            for mask in range(groups[b].rank)]


def _assemble(D: Diagram, bp: int, groups: List[VertexGroup],
              edges) -> E1Complex:
    """The model's total complex from its vertex groups and an iterable of
    (from bits, to bits, images), images[mask] being the edge's images of
    one monomial.  Generators run in state order, so an entry's column is
    its state's block start plus the monomial mask.  Each entry is written
    once; asserts d^2 = 0 over F2[Q]/Q^2."""
    generators: Dict[int, List[BrGen]] = {}
    first = [0] * len(groups)   # index of the state's first generator
    for b in sorted(range(len(groups)), key=lambda b: groups[b].state):
        V = groups[b]
        gens = generators.setdefault(sum(V.state), [])
        first[b] = len(gens)
        gens.extend(BrGen(V.state, mask) for mask in range(V.rank))
    differential: Dict[int, SparseMat] = {
        w: SparseMat(len(generators.get(w + 1, ())), len(gens), 2)
        for w, gens in generators.items()}
    elem = (RingElem.one(2), RingElem.u_power(2, 1))
    for b, t, images in edges:
        entries = differential[sum(groups[b].state)].entries
        for col, terms in enumerate(images, first[b]):
            for m, p in terms:
                key = (first[t] + m, col)
                if key in entries:
                    raise DSquaredFailure(
                        f"entry {key} of the model's d from state"
                        f" {groups[b].state} written twice")
                entries[key] = elem[p]
    C = E1Complex(D, bp, {V.state: V for V in groups}, generators,
                  differential)
    report = verify_d_squared(C, order=2)
    if not report.passed:
        raise DSquaredFailure(f"model differential fails d^2=0: {report.failures}")
    return C


def build_e1_complex(D: Diagram, basepoint: Optional[int] = None) -> E1Complex:
    """All 2^n vertex groups and the n 2^(n-1) edge maps; asserts d^2 = 0."""
    bp = basepoint if basepoint is not None else D.basepoint_arc
    if bp is None:
        raise BasepointMissing("the model is pointed; pick a basepoint arc")
    groups, edges = _cube(D, bp)
    return _assemble(D, bp, groups, ((b, t, _images(groups, b, t, edge))
                                     for b, _, t, edge in edges))


class TheoremReport:
    __slots__ = ("passed", "edges_checked", "chain_failures", "module_failures",
                 "brcover_decomp", "bn_decomp")

    def __init__(self, passed, edges_checked, chain_failures, module_failures,
                 brcover_decomp, bn_decomp):
        self.passed = passed
        self.edges_checked = edges_checked
        self.chain_failures = chain_failures
        self.module_failures = module_failures
        self.brcover_decomp = brcover_decomp
        self.bn_decomp = bn_decomp

    def __repr__(self):
        return (f"TheoremReport(passed={self.passed},"
                f" edges={self.edges_checked},"
                f" chain_failures={self.chain_failures},"
                f" module_failures={self.module_failures})")


def verify_theorem_main(D: Diagram, basepoint: Optional[int] = None) -> TheoremReport:
    """Two independent checks of the identification:

    (a) phi intertwines every edge map with the reduced k=2 cube edge map:
        on each monomial, the model's images pushed through phi equal the
        cube's images (khcube._edge_images) of its phi, less those with
        v_minus on the pointed circle, which the reduced quotient drops;
    (b) the homologies, computed separately on each side, agree as module
        decompositions after re-indexing the cube side by raw weight
        (i + n_minus).
    """
    from .homology import bigraded_homology, ModuleDecomp
    from .khcube import build_complex

    bp = basepoint if basepoint is not None else D.basepoint_arc
    if bp is None:
        raise BasepointMissing("the model is pointed; pick a basepoint arc")
    chain_failures = []
    edges = 0
    groups, cube_edges = _cube(D, bp)

    def compared():
        # each model edge map, once checked against the cube's through phi
        nonlocal edges
        for b, c, t, edge in cube_edges:
            edges += 1
            pf, pt = groups[b].pointed, groups[t].pointed
            images = _images(groups, b, t, edge)
            for mask, model in enumerate(images):
                cube = [(m, p) for m, p in _edge_images(*edge, phi(mask, pf))
                        if not (m >> pt) & 1]
                if sorted((phi(m, pt), p) for m, p in model) != sorted(cube):
                    chain_failures.append((groups[b].state, c))
                    break
            yield b, t, images

    try:
        E1 = _assemble(D, bp, groups, compared())
    except (InhomogeneousEntry, DSquaredFailure) as e:
        # a broken model map need not give a graded complex; no module to compare
        return TheoremReport(False, edges, chain_failures, [(None, str(e), None)],
                             None, None)
    M_model = bigraded_homology(E1, 2)
    C = build_complex(D, reduced=True, basepoint=bp, force=True)
    M_bn = bigraded_homology(C, 2)
    shift = ModuleDecomp(2, {(i + D.n_minus, j): dict(m)
                             for (i, j), m in M_bn.table.items()})
    module_failures = []
    keys = set(M_model.table) | set(shift.table)
    for bd in sorted(keys):
        if M_model.table.get(bd) != shift.table.get(bd):
            module_failures.append((bd, M_model.table.get(bd),
                                    shift.table.get(bd)))
    passed = not chain_failures and not module_failures
    return TheoremReport(passed, edges, chain_failures, module_failures,
                         M_model, M_bn)
