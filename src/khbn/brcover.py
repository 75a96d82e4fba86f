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

The model is pointed, so build_e1_complex and verify_theorem_main take
the marked arc whose circle is the pointed one in every smoothing.
build_e1_complex runs khcube's cube walk and assembler with the monomials
as keys and edge_map_brcover as the edge map, so the model is a
khcube.GradedComplex at grading offset 0, and its generators carry the
label tuples of phi.  verify_theorem_main builds the model and the
reduced cube at the same arc from one walk.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

from .khcube import (GradedComplex, InhomogeneousEntry, _assemble,
                     _edge_images, _walk, build_complex, verify_d_squared)
from .linkdiag import Diagram

__all__ = [
    "edge_map_brcover",
    "build_e1_complex",
    "phi",
    "verify_theorem_main",
    "DSquaredFailure",
]


class DSquaredFailure(AssertionError):
    """The model's d is not a differential: an entry is written twice, or
    d^2 != 0 over F2[Q]/Q^2."""


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


def _monomials(c: int, pointed: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """(monomial, label tuple of its phi) of the 2^(c-1) monomials of a
    smoothing with c circles, in monomial order."""
    return [(mask, tuple((phi(mask, pointed) >> t) & 1 for t in range(c)))
            for mask in range(1 << (c - 1))]


def build_e1_complex(D: Diagram, basepoint: int, walk=None) -> GradedComplex:
    """All 2^n vertex groups and the n 2^(n-1) edge maps, graded by raw
    cube weight; asserts d^2 = 0 over F2[Q]/Q^2.

    A generator is a state and the label tuple of phi of its monomial, in
    the order (state, monomial).  The cube is walked once (khcube._walk; a
    caller that has walked it at this basepoint passes its walk).
    """
    states, circles, pointed, edges = walk or _walk(D, basepoint)
    keys = list(zip(circles, pointed))

    def edge_map(edge, key_from, key_to):
        return partial(edge_map_brcover, edge, key_from[1], key_to[1])

    C = GradedComplex(D, True, 0, *_assemble(
        D, 0, states, keys, {key: _monomials(*key) for key in set(keys)},
        edges, edge_map, DSquaredFailure))
    report = verify_d_squared(C, order=2)
    if not report.passed:
        raise DSquaredFailure(f"model differential fails d^2=0: {report.failures}")
    return C


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


def verify_theorem_main(D: Diagram, basepoint: int) -> TheoremReport:
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

    states, circles, pointed, edges = _walk(D, basepoint)
    edges = list(edges)
    walk = states, circles, pointed, edges
    chain_failures = []
    for b, c, t, edge in edges:
        pf, pt = pointed[b], pointed[t]
        for mask in range(1 << (circles[b] - 1)):
            model = edge_map_brcover(edge, pf, pt, mask)
            cube = [(m, p) for m, p in _edge_images(*edge, phi(mask, pf))
                    if not (m >> pt) & 1]
            if sorted((phi(m, pt), p) for m, p in model) != sorted(cube):
                chain_failures.append((states[b], c))
                break
    try:
        E1 = build_e1_complex(D, basepoint, walk)
    except (InhomogeneousEntry, DSquaredFailure) as e:
        # a broken model map need not give a graded complex; no module to compare
        return TheoremReport(False, len(edges), chain_failures,
                             [(None, str(e), None)], None, None)
    M_model = bigraded_homology(E1, 2)
    C = build_complex(D, basepoint, walk)
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
    return TheoremReport(passed, len(edges), chain_failures, module_failures,
                         M_model, M_bn)
