import pytest

from cube_reference import reference_e1
from khbn.brcover import (BrGen, E1Complex, UnclassifiedEdge, VertexGroup,
                          build_e1_complex, edge_map_brcover,
                          edge_map_raw_split, phi, split_change_of_basis,
                          verify_theorem_main)
from khbn.homology import ModuleDecomp, bigraded_homology
from khbn.khcube import BasepointMissing, PLUS, build_complex, verify_d_squared
from khbn.linkdiag import (Merge, Split, edge_transition, load_link_table,
                           parse_pd, resolve)

TABLE = load_link_table()


def diagram(name):
    return parse_pd(TABLE[name][0])


def all_edges(D, bp):
    states = [tuple((b >> c) & 1 for c in range(D.n))
              for b in range(1 << D.n)]
    groups = {}
    for s in states:
        r = resolve(D, s, bp)
        groups[s] = VertexGroup(s, r.circle_ids, r.pointed_circle)
    for s in states:
        for c in range(D.n):
            if s[c] == 0:
                yield edge_transition(D, s, c), groups[s], groups


def test_vertex_group_rank():
    D = diagram("trefoil_L")
    for s in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        r = resolve(D, s, 1)
        V = VertexGroup(s, r.circle_ids, r.pointed_circle)
        assert V.rank == 1 << (len(r.circle_ids) - 1)
        assert V.pointed not in V.nonpointed


def test_kink_model_ranks():
    C = build_e1_complex(diagram("kink_pos"), 1)
    assert {w: C.rank(w) for w in C.degrees()} == {0: 2, 1: 1}
    C = build_e1_complex(diagram("kink_neg"), 1)
    assert {w: C.rank(w) for w in C.degrees()} == {0: 1, 1: 2}


def test_phi_is_a_graded_bijection():
    D = diagram("figure8")
    for s in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
        r = resolve(D, s, D.arcs[0])
        V = VertexGroup(s, r.circle_ids, r.pointed_circle)
        seen = set()
        for mask in range(V.rank):
            g = phi(V, mask)
            assert g.labels[V.circle_ids.index(V.pointed)] == PLUS
            seen.add(g)
        assert len(seen) == V.rank


def test_split_edges_factor_through_rotation():
    for name in ("trefoil_L", "figure8"):
        D = diagram(name)
        bp = D.arcs[0]
        found = 0
        for t, V_from, groups in all_edges(D, bp):
            if not isinstance(t.kind, Split):
                continue
            found += 1
            V_to = groups[t.to_state]
            model = edge_map_brcover(t, V_from, V_to)
            raw = edge_map_raw_split(t, V_from, V_to)
            cob = split_change_of_basis(t, V_to)
            assert cob.mul(raw) == model, (name, t.to_state)
        assert found > 0


def test_change_of_basis_is_an_involution():
    D = diagram("figure8")
    bp = D.arcs[0]
    for t, V_from, groups in all_edges(D, bp):
        if not isinstance(t.kind, Split):
            continue
        cob = split_change_of_basis(t, groups[t.to_state])
        sq = cob.mul(cob)
        assert all(r == c and e.is_unit for (r, c), e in sq.entries.items())
        assert len(sq.entries) == cob.rows


def test_raw_map_rejects_merges():
    D = diagram("trefoil_L")
    for t, V_from, groups in all_edges(D, 1):
        if isinstance(t.kind, Merge):
            with pytest.raises(UnclassifiedEdge):
                edge_map_raw_split(t, V_from, groups[t.to_state])
            with pytest.raises(UnclassifiedEdge):
                split_change_of_basis(t, groups[t.to_state])
            break


def test_model_needs_basepoint():
    with pytest.raises(BasepointMissing):
        build_e1_complex(diagram("trefoil_L"))


def test_trefoil_model_homology():
    D = diagram("trefoil_L")
    C = build_e1_complex(D, 1)
    assert verify_d_squared(C).passed
    M = bigraded_homology(C, 2)
    assert M == ModuleDecomp.from_json(2, {
        "0,-9": {"1": 1}, "1,-5": {"1": 1}, "3,-1": {"2": 1}})
    # same table as the reduced deformation, re-indexed by raw weight
    B = bigraded_homology(build_complex(D, reduced=True, basepoint=1), 2)
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
    assembly through edge_transition (tests/cube_reference.py)."""
    for name, (pd, _) in sorted(TABLE.items()):
        D = parse_pd(pd)
        if D.n > 6:
            continue
        C = build_e1_complex(D, D.arcs[0])
        got = ({w: [g.sort_key() for g in gens]
                for w, gens in C.generators.items()},
               {w: (m.rows, m.cols, {key: e.bits for key, e in m.entries.items()})
                for w, m in C.differential.items()})
        assert got == reference_e1(D, D.arcs[0]), name


def test_identification_sees_a_broken_map(monkeypatch):
    import khbn.brcover as br
    real = br.edge_map_brcover

    def tampered(t, V_from, V_to):
        m = real(t, V_from, V_to)
        if isinstance(t.kind, Merge) and m.entries:
            (r, c), _ = next(iter(m.entries.items()))
            m.add_to(r, c, br.RingElem.u_power(2, 1))
        return m

    monkeypatch.setattr(br, "edge_map_brcover", tampered)
    rep = br.verify_theorem_main(diagram("hopf_pos"), 1)
    assert not rep.passed
    assert rep.chain_failures
