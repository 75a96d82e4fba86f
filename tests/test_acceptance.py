"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s; pytest's
own per-test verdicts carry the same information otherwise) and the timed
ones assert a wall-clock budget.

Check 01's target tower span was corrected from (1,-1) to (-1,-3).  The
published F2 Khovanov homology of the left trefoil (Bar-Natan,
arXiv:math/0201043; Shumakovitch, arXiv:math/0405474) has reduced Kh^0 = F2
at q = -1 only, and the exact triangle of 0 -> uC -> C -> C/u -> 0 with
uC = (C/u){-2} confines degree 0 of the k = 2 homology to q in {-1,-3}, so
no tower can reach q = 1.
"""

import time

from dense_oracle import dense_decomp
from khbn.brcover import verify_theorem_main
from khbn.cli import SAME_LINK_PAIRS
from khbn.homology import (bigraded_homology, euler_characteristic,
                           verify_triangle)
from khbn.khcube import build_complex, verify_d_squared
from khbn.laurent import Laurent
from khbn.linkdiag import kauffman_jones, load_link_table, parse_pd
from khbn.sseq import u_adic_filtration, verify_einfty_gr

TABLE = load_link_table()


def corpus(max_crossings=None):
    out = []
    for name in sorted(TABLE):
        D = parse_pd(TABLE[name][0])
        if max_crossings is None or D.n <= max_crossings:
            out.append((name, D))
    return out


def report(num, desc, ok, t0):
    mark = "PASS" if ok else "FAIL"
    print(f"[{num:02d}] {mark} ({time.perf_counter() - t0:.2f}s) {desc}")


def reduced_decomp(D, k, basepoint=None):
    bp = D.arcs[0] if basepoint is None else basepoint
    return bigraded_homology(build_complex(D, bp), k)


def test_01_trefoil_golden_table():
    t0 = time.perf_counter()
    D = parse_pd(TABLE["trefoil_L"][0])
    M = reduced_decomp(D, 2)
    elapsed = time.perf_counter() - t0
    towers = [(i, j) for (i, j), parts in M.table.items()
              for t, m in parts.items() if t == 2 for _ in range(m)]
    f2s = sorted((i, j) for (i, j), parts in M.table.items()
                 for t, m in parts.items() if t == 1 for _ in range(m))
    base_ok = (len(towers) == 1 and towers[0][0] == 0
               and f2s == [(-3, -9), (-2, -5)]
               and elapsed < 1.0)
    span = (towers[0][1], towers[0][1] - 2) if towers else None
    span_ok = span == (-1, -3)
    report(1, "reduced k=2 trefoil golden table", base_ok and span_ok, t0)
    assert base_ok, (towers, f2s, elapsed)
    assert span_ok, f"u-tower spans {span}, required (-1, -3)"


def test_02_euler_matches_bracket():
    t0 = time.perf_counter()
    shift = Laurent({0: 1, -2: 1})
    bad = []
    for name, D in corpus(8):
        M = bigraded_homology(build_complex(D), 2)
        if euler_characteristic(M) != kauffman_jones(D) * shift:
            bad.append(name)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(2, "chi of unreduced k=2 = (1+q^-2)*V, table <= 8 crossings", ok, t0)
    assert not bad, bad
    assert elapsed < 60.0, elapsed


def quantum_homogeneous(C):
    for i in C.degrees():
        mat = C.d(i)
        for (r, c), e in mat.entries.items():
            src_j = C.bidegree(C.generators[i][c])[1]
            for s in range(2):
                if e.coeff(s) and C.bidegree(
                        C.generators[i + 1][r], s)[1] != src_j:
                    return False
    return True


def test_03_differential_squares_to_zero():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus():
        for bp in (None, D.arcs[0]):
            C = build_complex(D, bp)
            if not (verify_d_squared(C).passed and quantum_homogeneous(C)):
                bad.append((name, bp))
    report(3, "d^2 = 0 over F2[u] (so at every k) and homogeneity, whole"
              " table, both flavours", not bad, t0)
    assert not bad, bad


def test_04_basepoint_independence():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus():
        if len(D.arcs) < 2:
            continue
        decs = [reduced_decomp(D, 2, basepoint=a) for a in D.arcs]
        if any(M != decs[0] for M in decs[1:]):
            bad.append(name)
    report(4, "reduced k=2 identical over every basepoint arc", not bad, t0)
    assert not bad, bad


def test_05_unreduced_splits():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus():
        full = bigraded_homology(build_complex(D), 2)
        red = reduced_decomp(D, 2)
        if full != red.direct_sum(red.shift_quantum(-2)):
            bad.append(name)
    report(5, "unreduced k=2 = reduced + reduced{-2}, whole table", not bad, t0)
    assert not bad, bad


def test_06_exact_triangle():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus():
        rep = verify_triangle(D)
        if not rep.passed:
            bad.append((name, rep.failures[:3]))
    report(6, "k=1 / k=2 long exact sequence exact at every node, whole"
              " table", not bad, t0)
    assert not bad, bad


def test_07_cover_model_identification():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus(8):
        picks = [D.arcs[0], D.arcs[len(D.arcs) // 2]]
        for a in dict.fromkeys(picks):
            rep = verify_theorem_main(D, a)
            if not rep.passed:
                bad.append((name, a))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    report(7, "cover model = reduced k=2 (chain level and homology),"
              " table <= 8 crossings, 2 basepoints", ok, t0)
    assert not bad, bad
    assert elapsed < 120.0, elapsed


def test_08_filtration_converges_to_gr():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus():
        C = build_complex(D)
        for k in (2, 3):
            M = bigraded_homology(C, k)
            for F in u_adic_filtration(C, k).values():
                rep = verify_einfty_gr(F, M)
                if not rep.passed:
                    bad.append((name, k, F.quantum))
    report(8, "u-adic E_inf = gr(homology), whole table, k in {2,3}",
           not bad, t0)
    assert not bad, bad


def test_09_reidemeister_pairs():
    t0 = time.perf_counter()
    bad = []
    for a, b in SAME_LINK_PAIRS:
        DA = parse_pd(TABLE[a][0])
        DB = parse_pd(TABLE[b][0])
        CA, CB = build_complex(DA), build_complex(DB)
        for k in (1, 2, 3):
            if bigraded_homology(CA, k) != bigraded_homology(CB, k):
                bad.append((a, b, k, "unreduced"))
            if reduced_decomp(DA, k) != reduced_decomp(DB, k):
                bad.append((a, b, k, "reduced"))
    report(9, "same-link pairs agree, k in {1,2,3}, both flavours",
           not bad, t0)
    assert not bad, bad


def test_10_dense_reference_pipeline():
    t0 = time.perf_counter()
    bad = []
    for name, D in corpus(7):
        for bp in (None, D.arcs[0]):
            C = build_complex(D, bp)
            if bigraded_homology(C, 2) != dense_decomp(C, 2):
                bad.append((name, bp))
    report(10, "sparse pipeline = dense reference, table <= 7 crossings",
           not bad, t0)
    assert not bad, bad
