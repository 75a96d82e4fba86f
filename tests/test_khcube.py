import random
from types import SimpleNamespace

import pytest

import khbn.brcover as brcover
import khbn.khcube as khcube
import khbn.linkdiag as linkdiag
from cube_reference import BRAID_8, differing_arcs, reference_complex
from khbn.khcube import (BasepointMissing, Generator, InhomogeneousEntry,
                         MINUS, PLUS, _assemble, apply_edge_map,
                         build_complex, verify_d_squared)
from khbn.linkdiag import Merge, Split, from_braid, load_link_table, parse_pd

TREFOIL = "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]"


def terms(kind, labeling, k, bystanders=None):
    return apply_edge_map(kind, labeling, k, bystanders or {})


def test_merge_table():
    m = Merge(1, 2, 1)
    for k in (2, 3):
        assert terms(m, {1: PLUS, 2: PLUS}, k) == [({1: PLUS}, type(
            terms(m, {1: PLUS, 2: PLUS}, k)[0][1]).one(k))]
        for la, lb in ((PLUS, MINUS), (MINUS, PLUS)):
            [(lab, c)] = terms(m, {1: la, 2: lb}, k)
            assert lab == {1: MINUS} and c.is_unit
        [(lab, c)] = terms(m, {1: MINUS, 2: MINUS}, k)
        assert lab == {1: MINUS}
        assert c.coeff(1) == 1 and not c.is_unit
    # at k=1 the u term is truncated away entirely
    assert terms(m, {1: MINUS, 2: MINUS}, 1) == []


def test_split_table():
    s = Split(1, 1, 2)
    [(lab, c)] = terms(s, {1: MINUS}, 2)
    assert lab == {1: MINUS, 2: MINUS} and c.is_unit
    got = terms(s, {1: PLUS}, 2)
    labs = sorted((tuple(sorted(l.items())), e.coeff(0), e.coeff(1))
                  for l, e in got)
    assert labs == [
        (((1, PLUS), (2, MINUS)), 1, 0),
        (((1, PLUS), (2, PLUS)), 0, 1),
        (((1, MINUS), (2, PLUS)), 1, 0),
    ] or len(got) == 3
    assert len(terms(s, {1: PLUS}, 1)) == 2


def test_bystanders_ride_along():
    m = Merge(1, 2, 1)
    [(lab, _)] = terms(m, {1: PLUS, 2: MINUS, 7: MINUS}, 2, {7: 9})
    assert lab == {1: MINUS, 9: MINUS}


def test_unknot_complexes():
    D = parse_pd("U")
    C = build_complex(D)
    assert C.degrees() == [0]
    assert C.rank(0) == 2
    assert C.d(0).is_zero()
    R = build_complex(D, 1)
    assert R.rank(0) == 1
    [g] = R.generators[0]
    for p in (0, 1, 2):
        assert R.bidegree(g, p) == (0, 1 - 2 * p)


def test_trefoil_gradings_and_ranks():
    D = parse_pd(TREFOIL)
    C = build_complex(D)
    assert C.degrees() == [-3, -2, -1, 0]
    # rank over the ring: sum over states of 2^(circle count)
    ranks = {i: C.rank(i) for i in C.degrees()}
    assert ranks == {-3: 8, -2: 12, -1: 6, 0: 4}
    g = Generator((0, 0, 0), (PLUS, PLUS, PLUS))
    i, j = C.bidegree(g)
    assert (i, j) == (-3, -3)
    assert C.bidegree(g, 1) == (-3, -5)
    R = build_complex(D, 1)
    assert {i: R.rank(i) for i in R.degrees()} == {-3: 4, -2: 6, -1: 3, 0: 2}


def test_differential_is_quantum_homogeneous():
    D = from_braid([1, -2, 1, -2], 3)
    C = build_complex(D)
    powers = set()
    for i in C.degrees():
        mat = C.d(i)
        for (h, g), e in mat.entries.items():
            src_j = C.bidegree(C.generators[i][g])[1]
            [b] = [b for b in range(2) if e.coeff(b)]
            powers.add(b)
            tgt = C.bidegree(C.generators[i + 1][h], b)
            assert tgt == (i + 1, src_j)
    # the one build keeps the u entries that a k = 1 truncation would drop
    assert powers == {0, 1}


def test_k1_is_k2_without_u():
    # the Khovanov complex, which the exact triangle and every k = 1
    # read-off take from the one build, is its u^0 part: the direct
    # assembly truncated at k = 1 has the same generators and exactly the
    # build's u^0 entries
    diagrams = [("braid 1,1,1", from_braid([1, 1, 1], 2))]
    for name, (pd, _) in sorted(load_link_table().items()):
        D = parse_pd(pd)
        if D.n <= 6:
            diagrams.append((name, D))
    for name, D in diagrams:
        for bp in (None, D.arcs[0]):
            C = build_complex(D, bp)
            gens, diff = reference_complex(D, 1, bp)
            assert {i: [g.sort_key() for g in C.generators[i]]
                    for i in C.degrees()} == gens, (name, bp)
            for i, m in C.differential.items():
                kept = {key: 1 for key, e in m.entries.items() if e.coeff(0)}
                assert (m.rows, m.cols, kept) == diff[i], (name, bp, i)
            # the u^0 slices hold the same entries
            size, cols = C.slices
            assert sum(bin(x).count("1") for d0, _ in cols.values()
                       for x in d0) == sum(
                           len(entries) for _, _, entries in diff.values())


def test_d_squared_random_braids():
    rng = random.Random(71)
    trials = 0
    while trials < 12:
        strands = rng.randrange(2, 4)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(2, 6))]
        if set(abs(x) for x in word) != set(range(1, strands)):
            continue
        trials += 1
        D = from_braid(word, strands)
        for bp in (None, D.arcs[0]):
            C = build_complex(D, bp)
            assert verify_d_squared(C).passed, (word, bp)


def test_reduced_works_at_every_basepoint():
    D = parse_pd(TREFOIL)
    for arc in D.arcs:
        C = build_complex(D, arc)
        assert verify_d_squared(C).passed
        assert sum(C.rank(i) for i in C.degrees()) == 15


def test_reduced_rank_is_half():
    for name in ("figure8", "hopf_pos", "whitehead"):
        D = parse_pd(load_link_table()[name][0])
        full = build_complex(D)
        half = build_complex(D, D.arcs[0])
        for i in full.degrees():
            assert full.rank(i) == 2 * half.rank(i)


def test_basepoint_must_be_an_arc():
    D = parse_pd(TREFOIL)
    with pytest.raises(BasepointMissing):
        build_complex(D, 99)


def test_builder_matches_reference_assembly():
    """Generator order and every entry of d, against the direct assembly
    through edge_transition and apply_edge_map (tests/cube_reference.py).
    The builder makes one block per distinct edge map, keyed by the edge
    and the kept generators at its ends; every arc of the small entries
    and two arcs of the braid whose pointed circles differ would catch a
    block reused where its key is too loose."""
    cases = []
    for name, (pd, _) in sorted(load_link_table().items()):
        D = parse_pd(pd)
        if D.n <= 7:
            arcs = D.arcs if D.n <= 5 else D.arcs[:1]
            cases.append((name, D, [None] + list(arcs)))
    D = from_braid(*BRAID_8)
    cases.append(("braid", D, [None, *differing_arcs(D)]))
    for name, D, arcs in cases:
        for bp in arcs:
            C = build_complex(D, bp)
            got = ({i: [g.sort_key() for g in gens]
                    for i, gens in C.generators.items()},
                   {i: (m.rows, m.cols,
                        {key: e.bits for key, e in m.entries.items()})
                    for i, m in C.differential.items()})
            # every entry is u^0 or u^1, so k = 2 truncates nothing
            assert got == reference_complex(D, 2, bp), (name, bp)


def test_builders_resolve_each_state_once(monkeypatch):
    # every module that holds resolve counts into one total, so a builder
    # cannot resolve a state again through another module's name for it
    calls = [0]
    real = linkdiag.resolve

    def resolve_counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    def no_edge_transition(*args, **kwargs):
        raise AssertionError("a builder called edge_transition")

    for module in (linkdiag, khcube, brcover):
        if hasattr(module, "resolve"):
            monkeypatch.setattr(module, "resolve", resolve_counted)
        monkeypatch.setattr(module, "edge_transition", no_edge_transition,
                            raising=False)
    for D in (parse_pd("U"), parse_pd(TREFOIL), from_braid([1, -2, 1, -2, 3], 4)):
        for bp in (None, D.arcs[0]):
            calls[0] = 0
            build_complex(D, bp)
            assert calls[0] == 1 << D.n
        calls[0] = 0
        brcover.build_e1_complex(D, D.arcs[0])
        assert calls[0] == 1 << D.n
        # the model and the reduced cube of the identification share one walk
        calls[0] = 0
        assert brcover.verify_theorem_main(D, D.arcs[0]).passed
        assert calls[0] == 1 << D.n


def slice_check(quantum, entries, order=3):
    """verify_d_squared on a hand-made complex: quantum degrees per degree
    and the entries of d as {degree: {(row, col): u power}}, written into
    (size, cols) slices as the builder lays them out."""
    slot, size = {}, {}
    for i, qs in quantum.items():
        for g, j in enumerate(qs):
            slot[(i, g)] = (j, size.get((i, j), 0))
            size[(i, j)] = slot[(i, g)][1] + 1
    cols = {key: ([0] * n, [0] * n) for key, n in size.items()}
    for i, block in entries.items():
        for (h, g), p in block.items():
            j, s = slot[(i, g)]
            jh, r = slot[(i + 1, h)]
            assert jh == j + 2 * p, "hand-made entries must be homogeneous"
            cols[(i, j)][p][s] |= 1 << r
    return verify_d_squared(SimpleNamespace(slices=(size, cols)), order)


def test_d_squared_check_fails_loudly():
    # degrees 0..2, one generator each, all at quantum 0: d0 d0 g = x
    rep = slice_check({0: [0], 1: [0], 2: [0]}, {0: {(0, 0): 0}, 1: {(0, 0): 0}})
    assert not rep.passed and rep.failures == [(0, (0, 0))]
    # a square commutes: g -> h1 + h2 -> 2x = 0
    assert slice_check({0: [0], 1: [0, 0], 2: [0]},
                       {0: {(0, 0): 0, (1, 0): 0},
                        1: {(0, 0): 0, (0, 1): 0}}).passed
    # two u-entries compose to u^2 x: zero over F2[u]/u^2, as the cover
    # model is checked, but not over F2[u], as the cube is
    quantum = {1: [0], 2: [2], 3: [4]}
    entries = {1: {(0, 0): 1}, 2: {(0, 0): 1}}
    rep = slice_check(quantum, entries)
    assert not rep.passed and rep.failures == [(1, (1, 0))]
    assert slice_check(quantum, entries, order=2).passed


class EdgeFault(AssertionError):
    pass


def assemble_one_edge(images):
    """_assemble on a one-crossing cube, state 0 with one circle and state 1
    with two, all generators kept, and the hand-made edge map images."""
    D = SimpleNamespace(n_plus=0, n_minus=0)
    kept = {1: [(m, (m,)) for m in range(2)],
            2: [(m, (m & 1, m >> 1)) for m in range(4)]}
    return _assemble(D, 0, [(0,), (1,)], [1, 2], kept, [(0, 0, 1, "edge")],
                     lambda edge, key_from, key_to: images, EdgeFault)


def test_writer_refuses_a_bad_edge_map():
    # the split, as _edge_images gives it, assembles: v+ -> v+v- + v-v+ + u v+v+
    split = {0: [(2, 0), (1, 0), (0, 1)], 1: [(3, 0)]}
    size, cols = assemble_one_edge(split.__getitem__)[1]
    assert cols[(0, 1)] == ([0b11], [0b1]) and cols[(0, -1)] == ([0b1], [0])
    # v+ -> v+v+ is a quantum step of 2, which needs u^1, not u^0
    with pytest.raises(InhomogeneousEntry):
        assemble_one_edge({0: [(0, 0)], 1: []}.__getitem__)
    # v- -> u^2 v+v+ matches its step of 4, but u^2 is in neither slice
    with pytest.raises(InhomogeneousEntry):
        assemble_one_edge({0: [], 1: [(0, 2)]}.__getitem__)
    # one image written twice by the edge map raises the given fault
    with pytest.raises(EdgeFault, match="twice"):
        assemble_one_edge({0: [(1, 0), (1, 0)], 1: []}.__getitem__)
