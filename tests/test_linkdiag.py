import random

import pytest

from khbn.laurent import Laurent, Q, QINV
from khbn.linkdiag import (ArcMultiplicityError, Diagram, DiagramError,
                           LetterOutOfRange, MalformedSyntax,
                           NonPlanarOrInconsistentOrientation, Resolution,
                           edge_transition, from_braid, kauffman_jones,
                           load_link_table, mirror, parse_pd, render, resolve)

# Knot presentations and Jones polynomials (variable t) from the classical
# tables; the state sum must reproduce (q + q^-1) * V(t -> q^2).
KNOTS = {
    "3_1": ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],
            {-4: -1, -3: 1, -1: 1}),
    "4_1": ([[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]],
            {2: 1, -2: 1, 1: -1, -1: -1, 0: 1}),
    "5_2": ([[1, 4, 2, 5], [3, 8, 4, 9], [5, 10, 6, 1], [9, 6, 10, 7],
             [7, 2, 8, 3]],
            {-6: -1, -5: 1, -4: -1, -3: 2, -2: -1, -1: 1}),
    "6_3": ([[4, 2, 5, 1], [8, 4, 9, 3], [12, 9, 1, 10], [10, 5, 11, 6],
             [6, 11, 7, 12], [2, 8, 3, 7]],
            {3: -1, 2: 2, 1: -2, 0: 3, -1: -2, -2: 2, -3: -1}),
    "7_6": ([[1, 4, 2, 5], [3, 8, 4, 9], [5, 12, 6, 13], [9, 1, 10, 14],
             [13, 11, 14, 10], [11, 6, 12, 7], [7, 2, 8, 3]],
            {1: 1, 0: -2, -1: 3, -2: -3, -3: 4, -4: -3, -5: 2, -6: -1}),
    "8_10": ([[1, 4, 2, 5], [3, 8, 4, 9], [9, 15, 10, 14], [5, 13, 6, 12],
              [13, 7, 14, 6], [11, 1, 12, 16], [15, 11, 16, 10], [7, 2, 8, 3]],
             {6: -1, 5: 2, 4: -4, 3: 5, 2: -4, 1: 5, 0: -3, -1: 2, -2: -1}),
    "9_14": ([[1, 4, 2, 5], [5, 12, 6, 13], [3, 11, 4, 10], [11, 3, 12, 2],
              [13, 18, 14, 1], [9, 15, 10, 14], [7, 17, 8, 16], [15, 9, 16, 8],
              [17, 7, 18, 6]],
             {6: 1, 5: -2, 4: 3, 3: -5, 2: 6, 1: -6, 0: 6, -1: -4, -2: 3,
              -3: -1}),
}

UNKNOT_FACTOR = Q + QINV


def pd_text(quads):
    return "PD[" + ", ".join("X(%d,%d,%d,%d)" % tuple(q) for q in quads) + "]"


@pytest.mark.parametrize("name", sorted(KNOTS))
def test_state_sum_reproduces_jones_tables(name):
    quads, jones_t = KNOTS[name]
    D = parse_pd(pd_text(quads))
    want = Laurent({2 * e: c for e, c in jones_t.items()}) * UNKNOT_FACTOR
    assert kauffman_jones(D) == want


def test_unknot_and_kinks():
    assert kauffman_jones(parse_pd("U")) == UNKNOT_FACTOR
    for text, w in [("PD[X(1,1,2,2)]", 1), ("PD[X(1,2,2,1)]", -1)]:
        D = parse_pd(text)
        assert D.writhe == w
        assert kauffman_jones(D) == UNKNOT_FACTOR


def test_writhe_and_signs():
    D = parse_pd(pd_text(KNOTS["3_1"][0]))
    assert D.n == 3
    assert D.writhe == -3
    assert D.signs == (-1, -1, -1)
    assert D.component_count == 1


def test_mirror_involution_and_jones_inverse():
    for name in ("3_1", "4_1", "5_2"):
        D = parse_pd(pd_text(KNOTS[name][0]))
        M = mirror(D)
        assert M.writhe == -D.writhe
        assert mirror(M) == D
        assert kauffman_jones(M) == kauffman_jones(D).substitute_inverse()


def test_render_parse_roundtrip_table():
    for name, (text, comps) in sorted(load_link_table().items()):
        D = parse_pd(text)
        assert D.component_count == comps, name
        assert render(D) == text, name
        assert parse_pd(render(D)) == D, name


def test_relabeling_gives_same_canonical_form():
    base = KNOTS["3_1"][0]
    # rotate all arc labels by 2 mod 6; same diagram, different names
    rotated = [[(a + 1) % 6 + 1 for a in quad] for quad in base]
    assert parse_pd(pd_text(rotated)) == parse_pd(pd_text(base))


def test_resolutions_of_trefoil():
    D = parse_pd(pd_text(KNOTS["3_1"][0]))
    all0 = resolve(D, (0, 0, 0))
    all1 = resolve(D, (1, 1, 1))
    assert len(all0.circle_ids) == 3
    assert len(all1.circle_ids) == 2
    assert isinstance(all0, Resolution)
    # every edge out of the all-0 state merges two of the three circles
    kinds = []
    for c in range(3):
        t = edge_transition(D, (0, 0, 0), c)
        assert t.to_state == tuple(1 if x == c else 0 for x in range(3))
        kinds.append(type(t.kind).__name__)
    assert kinds == ["Merge", "Merge", "Merge"]


def test_unknot_resolution():
    D = parse_pd("U")
    r = resolve(D, ())
    assert len(r.circle_ids) == 1


def test_from_braid_closures():
    rt = from_braid([1, 1, 1], 2)
    assert rt.writhe == 3
    assert rt.component_count == 1
    assert kauffman_jones(rt) == kauffman_jones(
        parse_pd(pd_text(KNOTS["3_1"][0]))).substitute_inverse()
    hopf = from_braid([1, 1], 2)
    assert hopf.component_count == 2
    assert kauffman_jones(hopf) == Laurent({6: 1, 4: 1, 2: 1, 0: 1})
    assert from_braid([], 1).arcs == (1,)


def test_from_braid_random_roundtrip():
    rng = random.Random(402)
    for _ in range(80):
        strands = rng.randrange(2, 5)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(1, 7))]
        if set(abs(x) for x in word) != set(range(1, strands)):
            continue  # would close with a split unknot component
        D = from_braid(word, strands)
        assert D.writhe == sum(1 if x > 0 else -1 for x in word)
        assert parse_pd(render(D)) == D
        assert D.n == len(word)


def test_parse_errors():
    with pytest.raises(MalformedSyntax):
        parse_pd("PD[X(1,2,3)]")
    with pytest.raises(MalformedSyntax):
        parse_pd("nonsense")
    with pytest.raises(MalformedSyntax):
        parse_pd("PD[X(1,2,3,4) garbage]")
    with pytest.raises(ArcMultiplicityError):
        parse_pd("PD[X(1,1,1,2), X(2,3,3,4)]")
    # labels are normalized mod 2n, so X(3,3,4,4) is the kink X(1,1,2,2)
    assert parse_pd("PD[X(3,3,4,4)]") == parse_pd("PD[X(1,1,2,2)]")
    # a code whose corners close up into too few faces is not planar:
    # X(1,2,1,2) has one face where a planar crossing has three, and
    # X(1,2,3,4) reduces to it mod 2n
    for text in ("PD[X(1,2,1,2)]", "PD[X(1,2,3,4)]",
                 "PD[X(1,4,2,5), X(3,6,4,1), X(5,3,6,2)]"):
        with pytest.raises(NonPlanarOrInconsistentOrientation, match="planar"):
            parse_pd(text)
    # a projection in two pieces has two outer faces, and is planar
    assert parse_pd("PD[X(1,1,2,2), X(3,3,4,4)]").n == 2
    assert from_braid([1, 3], 4).component_count == 2


def test_braid_errors():
    with pytest.raises(LetterOutOfRange):
        from_braid([3], 2)
    with pytest.raises(DiagramError):
        from_braid([1], 3)  # strand 3 unused: closure not expressible
    with pytest.raises(DiagramError):
        from_braid([], 2)


def test_resolve_validates_state():
    D = parse_pd(pd_text(KNOTS["3_1"][0]))
    with pytest.raises(DiagramError):
        resolve(D, (0, 1))
    with pytest.raises(DiagramError):
        resolve(D, (0, 1, 2))


def test_diagram_is_hashable_value_object():
    D1 = parse_pd(pd_text(KNOTS["3_1"][0]))
    D2 = parse_pd(render(D1))
    assert D1 == D2 and hash(D1) == hash(D2)
    assert isinstance(D1, Diagram)
