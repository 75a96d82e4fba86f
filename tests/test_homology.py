import json
import os
import random

from dense_oracle import dense_decomp
import khbn.homology as homology
from khbn.brcover import build_e1_complex
from khbn.homology import (ModuleDecomp, _barcode, bigraded_homology,
                           euler_characteristic, verify_triangle)
from khbn.khcube import build_complex
from khbn.laurent import Laurent
from khbn.linkdiag import from_braid, kauffman_jones, load_link_table, parse_pd


def decomp(name, k, reduced=False):
    """Unreduced, or reduced at the first arc."""
    D = parse_pd(load_link_table()[name][0])
    return bigraded_homology(build_complex(D, D.arcs[0] if reduced else None), k)


def frozen(k, table):
    return ModuleDecomp.from_json(k, table)


def test_unknot_all_orders():
    for k in (1, 2, 3):
        assert decomp("unknot", k) == frozen(
            k, {"0,-1": {str(k): 1}, "0,1": {str(k): 1}})
        assert decomp("unknot", k, reduced=True) == frozen(
            k, {"0,1": {str(k): 1}})


def test_left_trefoil_tables():
    assert decomp("trefoil_L", 2) == frozen(2, {
        "-3,-11": {"1": 1}, "-3,-9": {"1": 1},
        "-2,-7": {"1": 1}, "-2,-5": {"1": 1},
        "0,-3": {"2": 1}, "0,-1": {"2": 1},
    })
    assert decomp("trefoil_L", 2, reduced=True) == frozen(2, {
        "-3,-9": {"1": 1}, "-2,-5": {"1": 1}, "0,-1": {"2": 1},
    })
    assert decomp("trefoil_L", 1).f2_dimensions() == {
        (-3, -9): 1, (-3, -7): 1, (-2, -7): 1, (-2, -5): 1,
        (0, -3): 1, (0, -1): 1,
    }


def test_mirror_flips_gradings():
    # over the field (k=1) the mirror flips both gradings on the nose
    L = decomp("trefoil_L", 1).f2_dimensions()
    R = decomp("trefoil_R", 1).f2_dimensions()
    assert R == {(-i, -j): d for (i, j), d in L.items()}
    # over F2[u]/u^2 duality shifts torsion summands, so freeze the table
    assert decomp("trefoil_R", 2) == frozen(2, {
        "0,1": {"2": 1}, "0,3": {"2": 1},
        "2,3": {"1": 1}, "2,5": {"1": 1},
        "3,7": {"1": 1}, "3,9": {"1": 1},
    })


def test_figure8_tables():
    assert decomp("figure8", 2) == frozen(2, {
        "-2,-7": {"1": 1}, "-2,-5": {"1": 1},
        "-1,-3": {"1": 1}, "-1,-1": {"1": 1},
        "0,-1": {"2": 1}, "0,1": {"2": 1},
        "1,-1": {"1": 1}, "1,1": {"1": 1},
        "2,3": {"1": 1}, "2,5": {"1": 1},
    })
    assert decomp("figure8", 2, reduced=True) == frozen(2, {
        "-2,-5": {"1": 1}, "-1,-1": {"1": 1}, "0,1": {"2": 1},
        "1,1": {"1": 1}, "2,5": {"1": 1},
    })


def test_hopf_and_whitehead_tables():
    assert decomp("hopf_pos", 2) == frozen(2, {
        "0,0": {"2": 1}, "0,2": {"2": 1},
        "2,4": {"2": 1}, "2,6": {"2": 1},
    })
    assert decomp("whitehead", 2, reduced=True) == frozen(2, {
        "-2,-4": {"1": 1}, "-1,0": {"1": 1}, "0,2": {"2": 2},
        "1,2": {"1": 1}, "2,4": {"1": 1}, "2,6": {"1": 1},
        "3,8": {"1": 1},
    })


def test_euler_matches_state_sum():
    table = load_link_table()
    for name in ("trefoil_L", "figure8", "hopf_pos", "knot_5_2",
                 "whitehead", "borromean"):
        D = parse_pd(table[name][0])
        jhat = kauffman_jones(D)
        C = build_complex(D)
        for k in (1, 2, 3):
            M = bigraded_homology(C, k)
            expect = jhat * Laurent({-2 * s: 1 for s in range(k)})
            assert euler_characteristic(M) == expect, (name, k)


def test_dense_reference_agrees():
    rng = random.Random(5150)
    table = load_link_table()
    names = ["unknot", "kink_neg", "trefoil_L", "hopf_neg", "figure8"]
    for name in names:
        D = parse_pd(table[name][0])
        k = rng.choice([1, 2, 3])
        for bp in (None, D.arcs[0]):
            C = build_complex(D, bp)
            assert bigraded_homology(C, k) == dense_decomp(C, k), \
                (name, k, bp)
    for name in ("trefoil_L", "figure8"):
        D = parse_pd(table[name][0])
        E1 = build_e1_complex(D, D.arcs[0])
        assert bigraded_homology(E1, 2) == dense_decomp(E1, 2), name


def test_one_build_reads_k4_like_the_dense_reference():
    # no other test reads k = 4; one build per flavour serves it
    for name, (pd, _) in sorted(load_link_table().items()):
        D = parse_pd(pd)
        if D.n > 6:
            continue
        for bp in (None, D.arcs[0]):
            C = build_complex(D, bp)
            assert bigraded_homology(C, 4) == dense_decomp(C, 4), \
                (name, bp)


def test_free_generators_count_components():
    # Turner: the u = 1 homology has rank 2^components, halved when reduced
    table = load_link_table()
    for name in sorted(table):
        D = parse_pd(table[name][0])
        free, _ = _barcode(build_complex(D))
        assert len(free) == 2 ** D.component_count, name
        free, _ = _barcode(build_complex(D, D.arcs[0]))
        assert len(free) == 2 ** (D.component_count - 1), name


def _assert_splits(D, arcs, label):
    """The direct unreduced module equals reduced (+) reduced{q-2} at each
    arc, for k = 1..4, each k read off one barcode per build."""
    full = _barcode(build_complex(D))
    for arc in arcs:
        red = _barcode(build_complex(D, arc))
        for k in (1, 2, 3, 4):
            M = bigraded_homology(None, k, red)
            assert bigraded_homology(None, k, full) == M.direct_sum(
                M.shift_quantum(-2)), (label, arc, k)


def test_unreduced_splits_as_two_shifted_copies():
    """Over F2 the Bar-Natan theory splits (Wigderson, arXiv:1501.03136;
    Shumakovitch, arXiv:math/0405474 at k = 1), which compute relies on for
    every unreduced report: every bundled entry, first and last arc."""
    table = load_link_table()
    for name in sorted(table):
        D = parse_pd(table[name][0])
        _assert_splits(D, (D.arcs[0], D.arcs[-1]), name)


def test_random_closures_split_at_module_level():
    """The same identity on 20 seeded braid closures on 3 to 5 strands,
    links among them, each using every generator."""
    rng = random.Random(1501)
    closures = []
    while len(closures) < 20:
        strands = rng.randrange(3, 6)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(strands, 10))]
        if set(abs(x) for x in word) == set(range(1, strands)):
            closures.append((word, strands))
    components = set()
    for word, strands in closures:
        D = from_braid(word, strands)
        components.add(D.component_count)
        _assert_splits(D, (D.arcs[0], D.arcs[-1]), (word, strands))
    assert 1 in components and max(components) > 1


def test_basepoint_does_not_matter():
    D = parse_pd(load_link_table()["figure8"][0])
    got = [bigraded_homology(build_complex(D, a), 2)
           for a in D.arcs]
    assert all(g == got[0] for g in got[1:])


def test_skein_triangle():
    table = load_link_table()
    for name in ("trefoil_L", "figure8", "hopf_pos", "whitehead"):
        D = parse_pd(table[name][0])
        rep = verify_triangle(D)
        assert rep.passed, (name, rep.failures)
        rep = verify_triangle(D, D.arcs[0])
        assert rep.passed, (name, rep.failures)


def test_triangle_sees_a_zero_connecting_map(monkeypatch):
    # trefoil_L has gap-1 bars, so delta is nonzero and exactness needs it
    real = homology._delta

    def zero(*args):
        return {key: [0] * len(m) for key, m in real(*args).items()}

    D = parse_pd(load_link_table()["trefoil_L"][0])
    assert any(any(m) for m in homology.connecting_map(
        build_complex(D)).values())
    monkeypatch.setattr(homology, "_delta", zero)
    rep = verify_triangle(D)
    assert not rep.passed
    assert {f[0] for f in rep.failures} & {"Kh", "Kh-post"}


def test_triangle_builds_one_cube(monkeypatch):
    calls = []
    real = homology.build_complex

    def counted(D, *args, **kwargs):
        C = real(D, *args, **kwargs)
        calls.append(C.reduced)
        return C

    monkeypatch.setattr(homology, "build_complex", counted)
    D = parse_pd(load_link_table()["figure8"][0])
    assert verify_triangle(D).passed
    assert calls == [False]
    assert verify_triangle(D, D.arcs[0]).passed
    assert calls == [False, True]


def test_decomp_roundtrip_and_sum():
    M = decomp("trefoil_L", 2, reduced=True)
    assert ModuleDecomp.from_json(2, M.to_json()) == M
    assert M.shift_quantum(4).shift_quantum(-4) == M
    S = M.direct_sum(M)
    assert S.total_dimension() == 2 * M.total_dimension()
    assert S.f2_dimensions() == {
        key: 2 * d for key, d in M.f2_dimensions().items()}


def test_random_closures_euler_identity():
    rng = random.Random(88)
    done = 0
    while done < 6:
        strands = rng.randrange(2, 4)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(1, 6))]
        if set(abs(x) for x in word) != set(range(1, strands)):
            continue
        done += 1
        D = from_braid(word, strands)
        jhat = kauffman_jones(D)
        M = bigraded_homology(build_complex(D), 2)
        assert euler_characteristic(M) == jhat * Laurent({0: 1, -2: 1})


def test_golden_decompositions():
    """Every bundled entry, unreduced and reduced at its first arc, k = 1..3,
    and the branched-cover E1 model at the first arc, against
    golden_decomp.json (captured with the rank-of-powers implementation that
    bigraded_homology had before the barcode reduction, on one truncated
    build per k).  Here one build per flavour serves every k."""
    with open(os.path.join(os.path.dirname(__file__), "golden_decomp.json")) as fh:
        golden = json.load(fh)
    table = load_link_table()
    assert sorted(golden) == sorted(table)
    for name, want in golden.items():
        D = parse_pd(table[name][0])
        arc = D.arcs[0]
        got = {"e1": bigraded_homology(build_e1_complex(D, arc), 2).to_json()}
        full = build_complex(D)
        reduced = build_complex(D, arc)
        for k in (1, 2, 3):
            got[f"k{k}"] = bigraded_homology(full, k).to_json()
            got[f"k{k}_reduced"] = bigraded_homology(reduced, k).to_json()
        assert got == want, name
