import random

import pytest
from hypothesis import given, settings, strategies as st

from khbn.ringalg import (DimensionMismatch, Echelon, F2Mat, LiftFailure,
                          NotNilpotentAtOrderK, RingElem, SparseMat,
                          f2_rank, kernel, nilpotent_block_multiplicities)

from dense_oracle import dense_kernel, dense_rank


# ----------------------------------------------------------- ring elements

def naive_mul(a, b, k):
    """Schoolbook product of coefficient lists mod u^k."""
    out = [0] * k
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < k:
                out[i + j] ^= x & y
    return out


def coeffs(e, k):
    return [e.coeff(p) for p in range(k)]


@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_ring_elem_matches_naive_polynomials(k, xa, xb, xc):
    mask = (1 << k) - 1
    a, b, c = (RingElem(k, x & mask) for x in (xa, xb, xc))
    assert coeffs(a * b, k) == naive_mul(coeffs(a, k), coeffs(b, k), k)
    assert coeffs(a + b, k) == [x ^ y for x, y in zip(coeffs(a, k), coeffs(b, k))]
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == RingElem(k)


def test_ring_elem_units_and_powers():
    for k in (1, 2, 3, 4):
        one = RingElem.one(k)
        assert one.is_unit and one.coeff(0) == 1
        u = RingElem.u_power(k, 1)
        if k == 1:
            assert not u
        else:
            assert not u.is_unit
            acc = one
            for p in range(1, k):
                acc = acc * u
                assert acc == RingElem.u_power(k, p)
            assert not acc * u


# ------------------------------------------------------------ sparse mats

def rand_sparse(rng, rows, cols, k):
    m = SparseMat(rows, cols, k)
    for _ in range(rng.randrange(rows * cols + 1)):
        m.add_to(rng.randrange(rows), rng.randrange(cols),
                 RingElem(k, rng.randrange(1 << k)))
    return m


def naive_sparse_mul(a, b):
    assert a.cols == b.rows
    out = SparseMat(a.rows, b.cols, a.k)
    for r in range(a.rows):
        for c in range(b.cols):
            acc = RingElem(a.k)
            for m in range(a.cols):
                acc = acc + a.get(r, m) * b.get(m, c)
            if acc:
                out.add_to(r, c, acc)
    return out


def test_sparse_mul_matches_naive():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.choice([1, 2, 3])
        a = rand_sparse(rng, rng.randrange(1, 5), rng.randrange(1, 5), k)
        b = rand_sparse(rng, a.cols, rng.randrange(1, 5), k)
        assert a.mul(b) == naive_sparse_mul(a, b)


# ------------------------------------------------------------------ ranks

def unpack(rows_ints, cols):
    return [[(r >> c) & 1 for c in range(cols)] for r in rows_ints]


def row_apply(m, v):
    """F2Mat m times the column vector v, by row arithmetic on m.data."""
    return sum(((row & v).bit_count() & 1) << r for r, row in enumerate(m.data))


def in_span(ech, v):
    return ech.reduce_tagged(v)[0] == 0


@given(st.integers(0, 6), st.integers(1, 8), st.data())
@settings(max_examples=120)
def test_rank_matches_dense_oracle(nrows, ncols, data):
    rows = [data.draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]
    m = F2Mat(nrows, ncols, list(rows))
    res = f2_rank(m)
    dense = unpack(rows, ncols)
    assert res.rank == dense_rank(dense)
    assert res.rank + len(res.kernel_basis) == ncols
    for v in res.kernel_basis:
        assert row_apply(m, v) == 0
    assert len(res.image_basis) == res.rank
    want_kernel = dense_kernel(dense, ncols)
    assert len(want_kernel) == len(res.kernel_basis)


def test_rank_of_identity_and_zero():
    assert f2_rank(F2Mat.identity(5)).rank == 5
    z = f2_rank(F2Mat(3, 4))
    assert z.rank == 0 and len(z.kernel_basis) == 4


def test_echelon_membership():
    rng = random.Random(3)
    for _ in range(40):
        vecs = [rng.getrandbits(10) for _ in range(6)]
        ech = Echelon(vecs)
        m = F2Mat(len(vecs), 10, list(vecs))
        assert ech.dim == f2_rank(m).rank
        # every prefix XOR stays inside the span
        acc = 0
        for v in vecs:
            acc ^= v
            assert in_span(ech, acc)
        probe = rng.getrandbits(10)
        reduced = ech.reduce_tagged(probe)[0]
        assert in_span(ech, probe) == (reduced == 0)
        assert in_span(Echelon(vecs + [probe]), reduced)


def test_echelon_coords_rebuild_the_combination():
    """Untagged rows span a subspace B; tagged rows t_0, t_1, ... enter with
    tag bit r.  coords(v) names the t_r whose sum is v modulo B, and v off
    B + span(t) raises LiftFailure."""
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randrange(1, 14)
        base = [rng.getrandbits(n) for _ in range(rng.randrange(4))]
        ech = Echelon(base)
        reps = []
        for v in (rng.getrandbits(n) for _ in range(rng.randrange(6))):
            if ech.add(v, 1 << len(reps)):
                reps.append(v)
        span = Echelon(base + reps)
        for _ in range(10):
            v = rng.getrandbits(n)
            if not in_span(span, v):
                with pytest.raises(LiftFailure):
                    ech.coords(v)
                continue
            tag = ech.coords(v)
            w = v
            for r, rep in enumerate(reps):
                if tag >> r & 1:
                    w ^= rep
            assert in_span(Echelon(base), w)
        for r, rep in enumerate(reps):
            assert ech.coords(rep) == 1 << r


def test_kernel_matches_f2_rank():
    rng = random.Random(16)
    for _ in range(40):
        rows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        cols = [rng.getrandbits(rows) for _ in range(ncols)]
        kern, image = kernel(enumerate(cols))
        m = F2Mat(rows, ncols, [sum((cols[c] >> r & 1) << c for c in range(ncols))
                                for r in range(rows)])
        res = f2_rank(m)
        assert len(image) == res.rank
        assert len(kern) == ncols - res.rank
        assert Echelon(kern).dim == len(kern)
        for z in kern:
            assert row_apply(m, z) == 0
        assert all(in_span(Echelon(res.image_basis), v) for v in image)


# ----------------------------------------------------- block multiplicities

def random_invertible(rng, n):
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if f2_rank(F2Mat(n, n, list(rows))).rank == n:
            return F2Mat(n, n, rows)


def shift_block_matrix(sizes):
    """Direct sum of nilpotent shift blocks e_1 -> e_2 -> ... -> 0."""
    n = sum(sizes)
    rows = [0] * n
    base = 0
    for t in sizes:
        for s in range(t - 1):
            rows[base + s + 1] |= 1 << (base + s)
        base += t
    return F2Mat(n, n, rows)


def test_u_shift_is_one_block():
    # multiplication by u on F2[u]/u^3, basis 1, u, u^2: one shift block
    u = F2Mat(3, 3, [0b000, 0b001, 0b010])
    assert nilpotent_block_multiplicities(u, 3) == {1: 0, 2: 0, 3: 1}


def test_block_multiplicities_recover_construction():
    rng = random.Random(19)
    for _ in range(50):
        k = rng.choice([1, 2, 3, 4])
        sizes = [rng.randrange(1, k + 1) for _ in range(rng.randrange(1, 5))]
        n = shift_block_matrix(sizes)
        p = random_invertible(rng, n.rows)
        # conjugate: solve P X = N P column by column with the rref data
        q = p.mul(n).mul(_invert(p))
        got = nilpotent_block_multiplicities(q, k)
        want = {t: sizes.count(t) for t in range(1, k + 1)}
        assert got == want


def _invert(p: F2Mat) -> F2Mat:
    """Gauss-Jordan on the rows [p | 1]: the right half of the rref."""
    n = p.rows
    aug = F2Mat(n, 2 * n, [row | 1 << (n + r) for r, row in enumerate(p.data)])
    return F2Mat(n, n, [row >> n for row in f2_rank(aug).rref.data])


def test_invert_helper():
    rng = random.Random(23)
    for _ in range(20):
        p = random_invertible(rng, rng.randrange(1, 7))
        assert p.mul(_invert(p)).data == F2Mat.identity(p.rows).data


def test_not_nilpotent_raises():
    with pytest.raises(NotNilpotentAtOrderK):
        nilpotent_block_multiplicities(F2Mat.identity(2), 2)
    with pytest.raises(DimensionMismatch):
        nilpotent_block_multiplicities(F2Mat(2, 3), 2)

