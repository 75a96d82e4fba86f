import pytest

from cube_reference import (BRAID_8, VertexGroup, differing_arcs,
                            reference_e1)
from khbn.brcover import (build_e1_complex, edge_map_brcover, phi,
                          verify_theorem_main)
from khbn.homology import ModuleDecomp, bigraded_homology
from khbn.khcube import BasepointMissing, build_complex, verify_d_squared
from khbn.linkdiag import (Merge, Split, _arc_positions, _classify_edge,
                           edge_transition, from_braid, load_link_table,
                           parse_pd, resolve)
from khbn.ringalg import RingElem, SparseMat

TABLE = load_link_table()


def diagram(name):
    return parse_pd(TABLE[name][0])


def all_edges(D, bp):
    """Every edge as (crossing, edge_transition's transition, the vertex
    groups at its two ends, _classify_edge's edge in circle positions)."""
    states = [tuple((b >> c) & 1 for c in range(D.n))
              for b in range(1 << D.n)]
    groups, pos = {}, {}
    for s in states:
        r = resolve(D, s)
        groups[s] = VertexGroup(r, bp)
        pos[s] = _arc_positions(r)
    for s in states:
        for c in range(D.n):
            if s[c] == 0:
                t = edge_transition(D, s, c)
                V_from, V_to = groups[s], groups[t.to_state]
                yield c, t, V_from, V_to, _classify_edge(
                    D.crossings[c], V_from.circle_ids, pos[s],
                    V_to.circle_ids, pos[t.to_state])


def model_matrix(edge, V_from, V_to):
    """The model's edge map as a matrix over F2[Q]/Q^2 (columns indexed
    by V_from monomial masks, rows by V_to masks)."""
    mat = SparseMat(V_to.rank, V_from.rank, 2)
    for mask in range(V_from.rank):
        for m, p in edge_map_brcover(edge, V_from.pointed, V_to.pointed, mask):
            mat.add_to(m, mask, RingElem.u_power(2, p))
    return mat


# The factorised oracle of the split map: the non-pointed split is a plain
# wedge with the new class followed by an involutive change of basis on
# the target.  It names circles by id, through edge_transition.

def pointed_id(V):
    return V.circle_ids[V.pointed]


def mask_of(V, circles):
    nonpointed = [c for t, c in enumerate(V.circle_ids) if t != V.pointed]
    m = 0
    for c in circles:
        m |= 1 << nonpointed.index(c)
    return m


def _carried(V_from, V_to, skip, t):
    """(from bit, to bit) of every class whose circle the edge carries along."""
    return [(mask_of(V_from, (c,)), mask_of(V_to, (t.bystander_map[c],)))
            for c in V_from.circle_ids if c != pointed_id(V_from) and c not in skip]


def _transport(carried, mask):
    out = 0
    for f, t in carried:
        if mask & f:
            out |= t
    return out


def edge_map_raw_split(t, V_from, V_to):
    """The un-rotated split map: transport the old classes and wedge with
    the new circle's class.  The circle keeping arc `a` of the crossing
    inherits the old name; the other one is the new class."""
    kind = t.kind
    if not isinstance(kind, Split):
        raise ValueError("raw map defined for splits only")
    one = RingElem.one(2)
    a, d1, d2 = kind.src, kind.dst_a, kind.dst_b
    mat = SparseMat(V_to.rank, V_from.rank, 2)
    carried = _carried(V_from, V_to, (a,), t)
    for mask in range(V_from.rank):
        base = _transport(carried, mask)
        if pointed_id(V_from) == a:
            new = d2 if pointed_id(V_to) == d1 else d1
            mat.add_to(base | mask_of(V_to, (new,)), mask, one)
        else:
            out = base | mask_of(V_to, (d2,))
            if mask & mask_of(V_from, (a,)):
                out |= mask_of(V_to, (d1,))
            mat.add_to(out, mask, one)
    return mat


def split_change_of_basis(t, V_to):
    """Involutive change of basis on the split target that rotates the raw
    wedge map into the model's split map: monomials containing the new
    class but not the old one pick up the old-class and Q terms."""
    kind = t.kind
    if not isinstance(kind, Split):
        raise ValueError("change of basis defined for splits only")
    one = RingElem.one(2)
    q = RingElem.u_power(2, 1)
    mat = SparseMat(V_to.rank, V_to.rank, 2)
    if pointed_id(V_to) in (kind.dst_a, kind.dst_b):
        new = kind.dst_b if pointed_id(V_to) == kind.dst_a else kind.dst_a
        b_new = mask_of(V_to, (new,))
        for mask in range(V_to.rank):
            mat.add_to(mask, mask, one)
            if mask & b_new:
                mat.add_to(mask ^ b_new, mask, q)
    else:
        b_old = mask_of(V_to, (kind.dst_a,))
        b_new = mask_of(V_to, (kind.dst_b,))
        for mask in range(V_to.rank):
            if (mask & b_new) and not (mask & b_old):
                mat.add_to(mask, mask, one)
                mat.add_to((mask ^ b_new) | b_old, mask, one)
                mat.add_to(mask ^ b_new, mask, q)
            else:
                mat.add_to(mask, mask, one)
    return mat


def test_vertex_group_rank():
    D = diagram("trefoil_L")
    for s in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        r = resolve(D, s)
        V = VertexGroup(r, 1)
        assert V.rank == 1 << (len(r.circle_ids) - 1)
        assert 1 in r.circles[V.pointed]


def test_kink_model_ranks():
    C = build_e1_complex(diagram("kink_pos"), 1)
    assert {w: C.rank(w) for w in C.degrees()} == {0: 2, 1: 1}
    C = build_e1_complex(diagram("kink_neg"), 1)
    assert {w: C.rank(w) for w in C.degrees()} == {0: 1, 1: 2}


def test_phi_is_a_graded_bijection():
    D = diagram("figure8")
    for s in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
        V = VertexGroup(resolve(D, s), D.arcs[0])
        p = V.pointed
        labels = [phi(mask, p) for mask in range(V.rank)]
        assert all(not (m >> p) & 1 for m in labels)
        # one v_minus per class of the monomial
        assert all(bin(m).count("1") == bin(mask).count("1")
                   for mask, m in enumerate(labels))
        reduced = {m for m in range(1 << len(V.circle_ids)) if not (m >> p) & 1}
        assert len(set(labels)) == V.rank and set(labels) == reduced


def test_split_edges_factor_through_rotation():
    for name in ("trefoil_L", "figure8"):
        D = diagram(name)
        bp = D.arcs[0]
        found = 0
        for _, t, V_from, V_to, edge in all_edges(D, bp):
            if not isinstance(t.kind, Split):
                continue
            found += 1
            model = model_matrix(edge, V_from, V_to)
            raw = edge_map_raw_split(t, V_from, V_to)
            cob = split_change_of_basis(t, V_to)
            assert cob.mul(raw) == model, (name, t.to_state)
        assert found > 0


def test_change_of_basis_is_an_involution():
    D = diagram("figure8")
    bp = D.arcs[0]
    for _, t, V_from, V_to, edge in all_edges(D, bp):
        if not isinstance(t.kind, Split):
            continue
        cob = split_change_of_basis(t, V_to)
        sq = cob.mul(cob)
        assert all(r == c and e.is_unit for (r, c), e in sq.entries.items())
        assert len(sq.entries) == cob.rows


def test_raw_map_rejects_merges():
    D = diagram("trefoil_L")
    for _, t, V_from, V_to, edge in all_edges(D, 1):
        if isinstance(t.kind, Merge):
            with pytest.raises(ValueError):
                edge_map_raw_split(t, V_from, V_to)
            with pytest.raises(ValueError):
                split_change_of_basis(t, V_to)
            break


def test_model_needs_basepoint():
    D = diagram("trefoil_L")
    for check in (build_e1_complex, verify_theorem_main):
        with pytest.raises(BasepointMissing, match="arc 99 does not occur"):
            check(D, 99)


def test_trefoil_model_homology():
    D = diagram("trefoil_L")
    C = build_e1_complex(D, 1)
    assert verify_d_squared(C).passed
    M = bigraded_homology(C, 2)
    assert M == ModuleDecomp.from_json(2, {
        "0,-9": {"1": 1}, "1,-5": {"1": 1}, "3,-1": {"2": 1}})
    # same table as the reduced deformation, re-indexed by raw weight
    B = bigraded_homology(build_complex(D, 1), 2)
    assert M == ModuleDecomp(2, {(i + D.n_minus, j): dict(m)
                                 for (i, j), m in B.table.items()})


def test_identification_small_links():
    for name in ("unknot", "kink_pos", "kink_neg", "trefoil_L", "trefoil_R",
                 "hopf_pos", "figure8", "whitehead"):
        D = diagram(name)
        rep = verify_theorem_main(D, D.arcs[0])
        assert rep.passed, (name, rep)
        assert rep.edges_checked == D.n * (1 << (D.n - 1)) if D.n else True


def test_e1_builder_matches_reference_assembly():
    """Generator order and every entry of the model's d, against the direct
    assembly through edge_transition (tests/cube_reference.py), at every
    arc of the small entries and at two arcs of a braid whose pointed
    circles differ, where blocks shared across edges are keyed apart."""
    cases = []
    for name, (pd, _) in sorted(TABLE.items()):
        D = parse_pd(pd)
        if D.n <= 6:
            cases.append((name, D, D.arcs if D.n <= 5 else D.arcs[:1]))
    D = from_braid(*BRAID_8)
    cases.append(("braid", D, differing_arcs(D)))
    for name, D, arcs in cases:
        for bp in arcs:
            C = build_e1_complex(D, bp)
            got = ({w: [g.sort_key() for g in gens]
                    for w, gens in C.generators.items()},
                   {w: (m.rows, m.cols,
                        {key: e.bits for key, e in m.entries.items()})
                    for w, m in C.differential.items()})
            assert got == reference_e1(D, bp), (name, bp)


def test_identification_sees_a_broken_map(monkeypatch):
    import khbn.brcover as br
    real = br.edge_map_brcover

    def merge_q_flipped(edge, p_from, p_to, mask):
        images = real(edge, p_from, p_to, mask)
        if edge[0] and images:
            (m, p), *rest = images
            images = [(m, 1 - p), *rest]
        return images

    def split_q_dropped(edge, p_from, p_to, mask):
        images = real(edge, p_from, p_to, mask)
        if not edge[0] and p_from not in edge[1]:
            images = [(m, p) for m, p in images if p == 0]
        return images

    def merges(edge, V_from):
        return edge[0]

    def nonpointed_splits(edge, V_from):
        return not edge[0] and V_from.pointed not in edge[1]

    for tampered, touched, name in ((merge_q_flipped, merges, "hopf_pos"),
                                    (split_q_dropped, nonpointed_splits,
                                     "figure8")):
        D = diagram(name)
        hit = {(t.from_state, c) for c, t, V_from, _, edge in all_edges(D, 1)
               if touched(edge, V_from)}
        assert hit, name
        monkeypatch.setattr(br, "edge_map_brcover", tampered)
        rep = br.verify_theorem_main(D, 1)
        assert not rep.passed, name
        assert set(rep.chain_failures) == hit, name
