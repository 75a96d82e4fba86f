import json
import os
import random

import pytest

from khbn.homology import ModuleDecomp, bigraded_homology
from khbn.khcube import build_complex
from khbn.linkdiag import from_braid, load_link_table, parse_pd
from khbn.sseq import (FilteredComplex, FiltrationViolation, PageTable,
                       filtration_pages, u_adic_filtration, u_adic_pages,
                       verify_einfty_gr)


def two_step():
    """0 -> F2^2 -> F2^2 -> 0 with one level-preserving and one
    level-dropping arrow; the page count is forced."""
    return FilteredComplex(
        dims={0: 2, 1: 2},
        # column 1 (level 1) hits row 0 (level 0): it survives one page
        d={0: [0b00, 0b01], 1: [0, 0]},
        levels={0: [0, 1], 1: [0, 1]},
    )


def test_toy_page_progression():
    P = filtration_pages(two_step())
    assert P.page_total(0) == 4
    assert P.pages[0] == P.pages[1]
    assert sum(P.pages[-1].values()) == 2
    assert P.r_stab == 2
    assert P.einfty() == {(0, 0): 1, (1, 0): 1}


def test_zero_differential_stabilizes_immediately():
    F = FilteredComplex(dims={0: 3}, d={}, levels={0: [0, 1, 1]})
    P = filtration_pages(F)
    assert P.r_stab == 0
    assert P.page_total(0) == 3
    assert P.einfty() == {(0, 0): 1, (1, -1): 2}


def test_empty_degree_needs_no_levels():
    # a degree of dimension 0 may omit its levels entry
    F = FilteredComplex(dims={0: 2, 1: 0}, d={0: [0, 0]}, levels={0: [0, 1]})
    P = filtration_pages(F)
    assert P.page_total(0) == 2
    assert P.einfty() == {(0, 0): 1, (1, -1): 1}


def test_level_raising_rejected():
    with pytest.raises(FiltrationViolation):
        FilteredComplex(dims={0: 1, 1: 1}, d={0: [0b1]},
                        levels={0: [0], 1: [1]})


def test_shape_mismatch_rejected():
    with pytest.raises(FiltrationViolation):
        FilteredComplex(dims={0: 2, 1: 1}, d={0: [0, 0, 0]},
                        levels={0: [0, 0], 1: [0]})
    # a column with a bit at or past the target dimension
    with pytest.raises(FiltrationViolation):
        FilteredComplex(dims={0: 2, 1: 1}, d={0: [0b1, 0b10]},
                        levels={0: [0, 0], 1: [0]})


def test_trefoil_u_adic_pages():
    D = parse_pd(load_link_table()["trefoil_L"][0])
    C = build_complex(D, D.arcs[0])
    filt = u_adic_filtration(C, 2)
    # E_0 of each slice has the full chain dimension of that quantum strip
    flat_dim = sum(F.total_dim() for F in filt.values())
    assert flat_dim == 2 * sum(C.rank(i) for i in C.degrees())
    stable_totals = {}
    for j, F in sorted(filt.items()):
        P = filtration_pages(F)
        stable_totals[j] = P.page_total(len(P.pages) - 1)
    assert stable_totals == {-9: 1, -7: 0, -5: 1, -3: 1, -1: 1}


def test_page_totals_never_grow():
    rng = random.Random(314)
    done = 0
    while done < 8:
        strands = rng.randrange(2, 4)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(1, 5))]
        if set(abs(x) for x in word) != set(range(1, strands)):
            continue
        done += 1
        D = from_braid(word, strands)
        k = rng.choice([2, 3])
        C = build_complex(D)
        for F in u_adic_filtration(C, k).values():
            P = filtration_pages(F)
            totals = [P.page_total(r) for r in range(len(P.pages))]
            assert all(a >= b for a, b in zip(totals, totals[1:]))
            assert P.r_stab <= len(P.pages) - 1


def test_einfty_matches_associated_graded():
    table = load_link_table()
    for name in ("trefoil_L", "figure8", "hopf_pos"):
        D = parse_pd(table[name][0])
        C = build_complex(D)
        for k in (2, 3):
            M = bigraded_homology(C, k)
            for F in u_adic_filtration(C, k).values():
                rep = verify_einfty_gr(F, M)
                assert rep.passed, (name, k, F.quantum, rep.mismatches)


def test_gr_check_detects_corruption():
    D = parse_pd(load_link_table()["trefoil_L"][0])
    C = build_complex(D)
    M = bigraded_homology(C, 2)
    bad = M.to_json()
    bad["0,-1"] = {"1": 2}
    wrong = ModuleDecomp.from_json(2, bad)
    reports = [verify_einfty_gr(F, wrong)
               for F in u_adic_filtration(C, 2).values()]
    assert any(not rep.passed for rep in reports)
    failing = [rep for rep in reports if not rep.passed]
    assert all(rep.mismatches for rep in failing)


def test_gr_check_reduces_in_level_order():
    """Columns stored out of level order: degree 0 has levels [1, 0, 0] and
    d = [e, e, 0] into one level-0 vector e.  The cycles are c2 (level 0)
    and c0 + c1 (level 1), so gr H^0 has one class at each level; reducing
    in storage order would find c0 + c1 at the level-0 column c1 and put
    both classes at level 0."""
    F = FilteredComplex(dims={0: 3, 1: 1}, d={0: [0b1, 0b1, 0]},
                        levels={0: [1, 0, 0], 1: [0]})
    M = ModuleDecomp(1, {})
    assert verify_einfty_gr(F, M).passed
    assert filtration_pages(F).einfty() == {(0, 0): 1, (1, -1): 1}
    # against an empty E_infty every mismatch reports gr at its position
    rep = verify_einfty_gr(F, M, PageTable([{}], 0, 1))
    assert sorted((key, want) for key, _, want in rep.mismatches) == [
        ((0, 0), 1), ((1, -1), 1)]
    rep = verify_einfty_gr(F, M, PageTable([{(0, 0): 2}], 0, 1))
    assert sorted(rep.mismatches) == [((0, 0), 2, 1), ((1, -1), 0, 1)]


def _fields(P):
    return P.pages, P.r_stab, P.depth, P.quantum


def test_barcode_pages_match_filtration_pages():
    """The barcode read-off against the general-complex pages on every
    quantum slice of every bundled entry: unreduced at k = 1..4 and reduced
    at its first arc at k = 2, 3.  knot_9_14 and torus_2_8_R stop at k = 3
    unreduced: their k = 4 pages alone cost about two thirds as much as
    the rest of the test."""
    for name, (pd, _) in load_link_table().items():
        D = parse_pd(pd)
        top = 3 if name in ("knot_9_14", "torus_2_8_R") else 4
        for bp, ks in ((None, range(1, top + 1)), (D.arcs[0], (2, 3))):
            C = build_complex(D, bp)
            for k in ks:
                got = u_adic_pages(C, k)
                want = {j: filtration_pages(F)
                        for j, F in u_adic_filtration(C, k).items()}
                assert sorted(got) == sorted(want), (name, bp, k)
                for j, P in want.items():
                    assert _fields(got[j]) == _fields(P), (name, bp, k, j)


def _golden(P):
    """r_stab and the pages E_0 .. E_r_stab in golden_pages.json's form."""
    return {"r_stab": P.r_stab,
            "pages": [{f"{p},{q}": d for (p, q), d in page.items()}
                      for page in P.pages[:P.r_stab + 1]]}


def test_golden_pages():
    """Every bundled entry up to 8 crossings, unreduced at k = 2 and 3 and
    reduced at k = 2 at its first arc: r_stab and the pages E_0 .. E_r_stab
    of every quantum slice against golden_pages.json (captured with the
    F2Mat row-matrix implementation that filtration_pages had before it
    read bitmask columns, on one truncated build per k), from
    filtration_pages and from the barcode read-off.  Here one build per
    flavour serves every k."""
    with open(os.path.join(os.path.dirname(__file__), "golden_pages.json")) as fh:
        golden = json.load(fh)
    table = load_link_table()
    diagrams = {name: parse_pd(pd) for name, (pd, _) in table.items()}
    assert sorted(golden) == sorted(n for n, D in diagrams.items() if D.n <= 8)
    for name, want in golden.items():
        D = diagrams[name]
        full = build_complex(D)
        builds = {"k2": (full, 2),
                  "k2_reduced": (build_complex(D, D.arcs[0]), 2),
                  "k3": (full, 3)}
        got, read = {}, {}
        for flavour, (C, k) in builds.items():
            got[flavour] = {str(j): _golden(filtration_pages(F))
                            for j, F in u_adic_filtration(C, k).items()}
            read[flavour] = {str(j): _golden(P)
                             for j, P in u_adic_pages(C, k).items()}
        assert got == want, name
        assert read == want, name
