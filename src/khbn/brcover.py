"""Combinatorial model of the first page of the branched-double-cover
surgery spectral sequence, and its machine-checked identification with the
reduced u-truncated cube complex at k=2.

Each full smoothing contributes the exterior algebra on one class gamma_i
per non-pointed circle, tensored with F2[Q]/Q^2 (rank 2^{circles-1}).  Edge
maps, with xi running over monomials in the untouched classes:

  merge of non-pointed a,b into c:
      xi -> xi, g_a xi -> g_c xi, g_b xi -> g_c xi, g_a g_b xi -> Q g_c xi
  merge of the pointed circle with b:
      xi -> xi, g_b xi -> 0
  split of non-pointed a into a1, a2:
      xi -> g_a1 xi + g_a2 xi + Q xi,   g_a xi -> g_a1 g_a2 xi
  split of the pointed circle, new circle s:
      xi -> g_s xi + Q xi

The homological grading here is the raw cube weight |state|.  The
dictionary phi sends a monomial to the labeled-circle generator carrying
v_minus exactly on the circles named in it (the pointed circle always
carries v_plus) with Q matching u; quantum grading on this side is defined
as the pullback.  The non-pointed split map factors as a plain wedge with
the new class followed by an involutive change of basis on the target;
both factors are exposed for testing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .khcube import (Generator, BasepointMissing, InhomogeneousEntry,
                     verify_d_squared, apply_edge_map, _u_slices, MINUS, PLUS)
from .linkdiag import (Diagram, EdgeTransition, Merge, Split, _arc_positions,
                       _transition, resolve)
from .ringalg import RingElem, SparseMat

__all__ = [
    "VertexGroup",
    "E1Complex",
    "BrGen",
    "edge_map_brcover",
    "edge_map_raw_split",
    "split_change_of_basis",
    "build_e1_complex",
    "phi",
    "verify_theorem_main",
    "UnclassifiedEdge",
    "DSquaredFailure",
    "StateMismatch",
    "ChainMapFailure",
    "ModuleMismatch",
]


class UnclassifiedEdge(ValueError):
    pass


class DSquaredFailure(AssertionError):
    pass


class StateMismatch(ValueError):
    pass


class ChainMapFailure(AssertionError):
    pass


class ModuleMismatch(AssertionError):
    pass


class VertexGroup:
    """Exterior-algebra data of one smoothing: monomials are bitmasks over
    the sorted non-pointed circle ids."""

    __slots__ = ("state", "circle_ids", "pointed", "nonpointed", "rank")

    def __init__(self, state, circle_ids, pointed):
        self.state = tuple(state)
        self.circle_ids = tuple(circle_ids)
        if pointed not in circle_ids:
            raise StateMismatch("pointed circle missing from resolution")
        self.pointed = pointed
        self.nonpointed = tuple(c for c in circle_ids if c != pointed)
        self.rank = 1 << len(self.nonpointed)
        if self.rank != 1 << (len(circle_ids) - 1):
            raise AssertionError("rank must be 2^(circles-1)")

    def mask_of(self, circles) -> int:
        m = 0
        for c in circles:
            m |= 1 << self.nonpointed.index(c)
        return m

    def circles_of(self, mask: int) -> Tuple[int, ...]:
        return tuple(c for t, c in enumerate(self.nonpointed) if (mask >> t) & 1)

    def __repr__(self):
        return (f"VertexGroup(state={self.state}, pointed={self.pointed},"
                f" gammas={self.nonpointed})")


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

    Quacks like khcube.GradedComplex enough for the homology machinery:
    degrees(), generators, d(), bidegree(), and the slices of d, which the
    constructor reads off the entries (khcube._u_slices).
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


def _carried(V_from: VertexGroup, V_to: VertexGroup, skip,
             t: EdgeTransition) -> List[Tuple[int, int]]:
    """(from bit, to bit) of every class whose circle the edge carries along."""
    return [(1 << f, 1 << V_to.nonpointed.index(t.bystander_map[c]))
            for f, c in enumerate(V_from.nonpointed) if c not in skip]


def _transport(carried: List[Tuple[int, int]], mask: int) -> int:
    out = 0
    for f, t in carried:
        if mask & f:
            out |= t
    return out


def edge_map_brcover(t: EdgeTransition, V_from: VertexGroup,
                     V_to: VertexGroup) -> SparseMat:
    """Matrix of the model's edge map over F2[Q]/Q^2 (columns indexed by
    V_from monomial masks, rows by V_to masks)."""
    one = RingElem.one(2)
    q = RingElem.u_power(2, 1)
    mat = SparseMat(V_to.rank, V_from.rank, 2)
    kind = t.kind
    if isinstance(kind, Merge):
        a, b, c = kind.src_a, kind.src_b, kind.dst
        carried = _carried(V_from, V_to, (a, b), t)
        pointed_involved = V_from.pointed in (a, b)
        if pointed_involved:
            g_other = V_from.mask_of((b if V_from.pointed == a else a,))
        else:
            g_a, g_b = V_from.mask_of((a,)), V_from.mask_of((b,))
            g_c = V_to.mask_of((c,))
        for mask in range(V_from.rank):
            base = _transport(carried, mask)
            if pointed_involved:
                if mask & g_other:
                    continue  # g_b xi -> 0
                mat.add_to(base, mask, one)
            else:
                ga, gb = mask & g_a, mask & g_b
                if not ga and not gb:
                    mat.add_to(base, mask, one)
                else:
                    mat.add_to(base | g_c, mask, q if (ga and gb) else one)
    elif isinstance(kind, Split):
        a, d1, d2 = kind.src, kind.dst_a, kind.dst_b
        carried = _carried(V_from, V_to, (a,), t)
        if V_from.pointed == a:
            g_new = V_to.mask_of((d2 if V_to.pointed == d1 else d1,))
        else:
            g_a = V_from.mask_of((a,))
            b1, b2 = V_to.mask_of((d1,)), V_to.mask_of((d2,))
        for mask in range(V_from.rank):
            base = _transport(carried, mask)
            if V_from.pointed == a:
                mat.add_to(base | g_new, mask, one)
                mat.add_to(base, mask, q)
            else:
                if mask & g_a:
                    mat.add_to(base | b1 | b2, mask, one)
                else:
                    mat.add_to(base | b1, mask, one)
                    mat.add_to(base | b2, mask, one)
                    mat.add_to(base, mask, q)
    else:
        raise UnclassifiedEdge(f"edge kind {kind!r}")
    return mat


def edge_map_raw_split(t: EdgeTransition, V_from: VertexGroup,
                       V_to: VertexGroup) -> SparseMat:
    """The un-rotated split map: transport the old classes and wedge with
    the new circle's class.  The circle keeping arc `a` of the crossing
    inherits the old name; the other one is the new class."""
    kind = t.kind
    if not isinstance(kind, Split):
        raise UnclassifiedEdge("raw map defined for splits only")
    one = RingElem.one(2)
    a, d1, d2 = kind.src, kind.dst_a, kind.dst_b
    mat = SparseMat(V_to.rank, V_from.rank, 2)
    carried = _carried(V_from, V_to, (a,), t)
    for mask in range(V_from.rank):
        base = _transport(carried, mask)
        if V_from.pointed == a:
            new = d2 if V_to.pointed == d1 else d1
            mat.add_to(base | V_to.mask_of((new,)), mask, one)
        else:
            out = base | V_to.mask_of((d2,))
            if mask & V_from.mask_of((a,)):
                out |= V_to.mask_of((d1,))
            mat.add_to(out, mask, one)
    return mat


def split_change_of_basis(t: EdgeTransition, V_to: VertexGroup) -> SparseMat:
    """Involutive change of basis on the split target that rotates the raw
    wedge map into the model's split map: monomials containing the new
    class but not the old one pick up the old-class and Q terms."""
    kind = t.kind
    if not isinstance(kind, Split):
        raise UnclassifiedEdge("change of basis defined for splits only")
    one = RingElem.one(2)
    q = RingElem.u_power(2, 1)
    mat = SparseMat(V_to.rank, V_to.rank, 2)
    if V_to.pointed in (kind.dst_a, kind.dst_b):
        new = kind.dst_b if V_to.pointed == kind.dst_a else kind.dst_a
        b_new = 1 << V_to.nonpointed.index(new)
        for mask in range(V_to.rank):
            mat.add_to(mask, mask, one)
            if mask & b_new:
                mat.add_to(mask ^ b_new, mask, q)
    else:
        b_old = 1 << V_to.nonpointed.index(kind.dst_a)
        b_new = 1 << V_to.nonpointed.index(kind.dst_b)
        for mask in range(V_to.rank):
            if (mask & b_new) and not (mask & b_old):
                mat.add_to(mask, mask, one)
                mat.add_to((mask ^ b_new) | b_old, mask, one)
                mat.add_to(mask ^ b_new, mask, q)
            else:
                mat.add_to(mask, mask, one)
    return mat


def _cube(D: Diagram, bp: int):
    """Every state's vertex group, and an iterator over the edges as
    (crossing, transition), by state, then by crossing.  Each state is
    resolved once; the transitions are made as the iterator reaches them."""
    n = D.n
    states = [tuple((bits >> c) & 1 for c in range(n)) for bits in range(1 << n)]
    vertices: Dict[Tuple[int, ...], VertexGroup] = {}
    pos: List[bytes] = []
    for s in states:
        r = resolve(D, s, bp)
        vertices[s] = VertexGroup(s, r.circle_ids, r.pointed_circle)
        pos.append(_arc_positions(r))
    ends = list(vertices.values())
    transitions = ((c, _transition(D, c, ends[b], pos[b],
                                   ends[b | 1 << c], pos[b | 1 << c]))
                   for b, s in enumerate(states) for c in range(n) if not s[c])
    return vertices, transitions


def _assemble(D: Diagram, bp: int, vertices: Dict[Tuple[int, ...], VertexGroup],
              edges) -> E1Complex:
    """The model's total complex from its vertex groups and an iterable of
    (transition, edge matrix); asserts d^2 = 0 over F2[Q]/Q^2."""
    generators: Dict[int, List[BrGen]] = {}
    for s, V in vertices.items():
        bucket = generators.setdefault(sum(s), [])
        for mask in range(V.rank):
            bucket.append(BrGen(s, mask))
    for w in generators:
        generators[w].sort(key=BrGen.sort_key)
    index = {w: {g: t for t, g in enumerate(gens)}
             for w, gens in generators.items()}
    differential: Dict[int, SparseMat] = {
        w: SparseMat(len(generators.get(w + 1, ())), len(gens), 2)
        for w, gens in generators.items()}
    for t, emap in edges:
        w = sum(t.from_state)
        col0 = index[w][BrGen(t.from_state, 0)]
        row0 = index[w + 1][BrGen(t.to_state, 0)]
        mat = differential[w]
        for (r_, c_), e in emap.entries.items():
            mat.add_to(row0 + r_, col0 + c_, e)
    C = E1Complex(D, bp, vertices, generators, differential)
    report = verify_d_squared(C, order=2)
    if not report.passed:
        raise DSquaredFailure(f"model differential fails d^2=0: {report.failures}")
    return C


def build_e1_complex(D: Diagram, basepoint: Optional[int] = None) -> E1Complex:
    """All 2^n vertex groups and the n 2^(n-1) edge maps; asserts d^2 = 0."""
    bp = basepoint if basepoint is not None else D.basepoint_arc
    if bp is None:
        raise BasepointMissing("the model is pointed; pick a basepoint arc")
    vertices, transitions = _cube(D, bp)
    return _assemble(D, bp, vertices, (
        (t, edge_map_brcover(t, vertices[t.from_state], vertices[t.to_state]))
        for _, t in transitions))


def phi(V: VertexGroup, mask: int) -> Generator:
    """Monomial -> labeled-circle generator: v_minus on named circles,
    v_plus elsewhere (the pointed circle in particular); labels follow
    V.circle_ids order, matching the cube complex convention."""
    named = set(V.circles_of(mask))
    labels = tuple(MINUS if cid in named else PLUS for cid in V.circle_ids)
    return Generator(V.state, labels)


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

    (a) phi intertwines every edge map with the reduced k=2 cube edge map,
        compared entry by entry as matrices;
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
    vertices, transitions = _cube(D, bp)

    def compared():
        # each model edge map, once checked against the pulled-back cube map
        nonlocal edges
        for c, t in transitions:
            V_from, V_to = vertices[t.from_state], vertices[t.to_state]
            edges += 1
            model = edge_map_brcover(t, V_from, V_to)
            # conjugate the reduced cube edge map through phi
            pulled = SparseMat(V_to.rank, V_from.rank, 2)
            for mask in range(V_from.rank):
                g = phi(V_from, mask)
                labeling = dict(zip(V_from.circle_ids, g.labels))
                for lab, coeff in apply_edge_map(t.kind, labeling, 2,
                                                 t.bystander_map):
                    if lab[V_to.pointed] == MINUS:
                        continue  # reduced quotient
                    named = tuple(cid for cid in V_to.nonpointed
                                  if lab[cid] == MINUS)
                    pulled.add_to(V_to.mask_of(named), mask, coeff)
            if not (model == pulled):
                chain_failures.append((t.from_state, c))
            yield t, model

    try:
        E1 = _assemble(D, bp, vertices, compared())
    except InhomogeneousEntry as e:
        # a broken model map need not respect the grading; no module to compare
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
