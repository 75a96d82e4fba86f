"""The cube complexes assembled the direct way, as a reference for the
builders: resolve every state, classify every edge with
`linkdiag.edge_transition` (which resolves both of its ends again), and sum
the edge maps into `SparseMat` entries through generator index dicts.  The
cube pushes dict labelings through `khcube.apply_edge_map`; the cover model
turns the transition's circle ids into positions and pushes each monomial
through `brcover.edge_map_brcover`, keyed by (state, monomial) pairs, with
each smoothing's circles and pointed position held in a `VertexGroup`.

Each function returns (generator sort keys per degree, differential per
degree as (rows, cols, {(row, col): coefficient bits})).
"""

from khbn.brcover import edge_map_brcover, phi
from khbn.khcube import PLUS, Generator, apply_edge_map
from khbn.linkdiag import Merge, edge_transition, resolve
from khbn.ringalg import RingElem, SparseMat


# An 8-crossing 4-strand braid closure, drawn once with random.Random(8):
# large enough that many edges share one edge map, small enough for the
# reference assembly.
BRAID_8 = ([2, 2, 2, -1, -3, -2, 3, -3], 4)


def differing_arcs(D):
    """D.arcs[0] and the first arc whose pointed circle sits at another
    position in some state."""
    first = _pointed_positions(D, D.arcs[0])
    for arc in D.arcs[1:]:
        if _pointed_positions(D, arc) != first:
            return D.arcs[0], arc
    raise AssertionError("every arc points at the same circle positions")


def _pointed_positions(D, bp):
    return [pointed_position(resolve(D, s), bp) for s in _states(D.n)]


def pointed_position(r, arc):
    """Position, in the sorted circle ids of the resolution r, of the
    circle through the marked arc."""
    return next(t for t, circle in enumerate(r.circles) if arc in circle)


class VertexGroup:
    """Exterior-algebra data of one smoothing r pointed at arc: `pointed`
    is the position of the pointed circle in the sorted circle ids, and
    monomials are bitmasks over the other circles."""

    __slots__ = ("state", "circle_ids", "pointed", "rank")

    def __init__(self, r, arc):
        self.state = r.state
        self.circle_ids = r.circle_ids
        self.pointed = pointed_position(r, arc)
        self.rank = 1 << (len(r.circle_ids) - 1)


def _states(n):
    return [tuple((bits >> c) & 1 for c in range(n)) for bits in range(1 << n)]


def _flat(keys, differential):
    return (keys, {i: (m.rows, m.cols,
                       {key: e.bits for key, e in m.entries.items()})
                   for i, m in differential.items()})


def reference_complex(D, k, basepoint=None):
    """Reduced at the marked arc basepoint when one is given."""
    states = _states(D.n)
    circle_ids, pointed = {}, {}
    for s in states:
        r = resolve(D, s)
        circle_ids[s] = r.circle_ids
        if basepoint is not None:
            pointed[s] = pointed_position(r, basepoint)

    def keep(state, labels):
        return basepoint is None or labels[pointed[state]] == PLUS

    generators = {}
    for s in states:
        c = len(circle_ids[s])
        bucket = generators.setdefault(sum(s) - D.n_minus, [])
        for bits in range(1 << c):
            labels = tuple((bits >> t) & 1 for t in range(c))
            if keep(s, labels):
                bucket.append(Generator(s, labels))
    for gens in generators.values():
        gens.sort(key=Generator.sort_key)
    index = {i: {g: t for t, g in enumerate(gens)}
             for i, gens in generators.items()}
    differential = {}
    for i, gens in generators.items():
        mat = SparseMat(len(generators.get(i + 1, ())), len(gens), k)
        for col, g in enumerate(gens):
            labeling = dict(zip(circle_ids[g.state], g.labels))
            for c in range(D.n):
                if g.state[c]:
                    continue
                t = edge_transition(D, g.state, c)
                for lab, coeff in apply_edge_map(t.kind, labeling, k,
                                                 t.bystander_map):
                    labels = tuple(lab[cid] for cid in circle_ids[t.to_state])
                    if keep(t.to_state, labels):
                        h = Generator(t.to_state, labels)
                        mat.add_to(index[i + 1][h], col, coeff)
        differential[i] = mat
    return _flat({i: [g.sort_key() for g in gens]
                  for i, gens in generators.items()}, differential)


def reference_e1(D, basepoint):
    """The model keyed by (state, monomial), which fixes its generator
    order; a key is flattened to the state and the label tuple of phi of
    its monomial, as the builder's generators carry it."""
    states = _states(D.n)
    vertices = {}
    for s in states:
        vertices[s] = VertexGroup(resolve(D, s), basepoint)
    generators = {}
    for s, V in vertices.items():
        generators.setdefault(sum(s), []).extend(
            (s, mask) for mask in range(V.rank))
    for gens in generators.values():
        gens.sort()
    index = {w: {g: t for t, g in enumerate(gens)}
             for w, gens in generators.items()}
    differential = {w: SparseMat(len(generators.get(w + 1, ())), len(gens), 2)
                    for w, gens in generators.items()}
    for s in states:
        for c in range(D.n):
            if s[c]:
                continue
            t = edge_transition(D, s, c)
            V, W = vertices[s], vertices[t.to_state]
            at, to = V.circle_ids.index, W.circle_ids.index
            kind = t.kind
            if isinstance(kind, Merge):
                src, dst = (at(kind.src_a), at(kind.src_b)), (to(kind.dst),)
            else:
                src, dst = (at(kind.src),), (to(kind.dst_a), to(kind.dst_b))
            edge = (isinstance(kind, Merge), src, dst,
                    [(at(f), to(g)) for f, g in t.bystander_map.items()])
            w = sum(s)
            for mask in range(V.rank):
                col = index[w][(s, mask)]
                for m, p in edge_map_brcover(edge, V.pointed, W.pointed, mask):
                    differential[w].add_to(index[w + 1][(t.to_state, m)],
                                           col, RingElem.u_power(2, p))

    def labels(s, mask):
        V = vertices[s]
        return s, tuple((phi(mask, V.pointed) >> t) & 1
                        for t in range(len(V.circle_ids)))

    return _flat({w: [labels(*g) for g in gens]
                  for w, gens in generators.items()}, differential)
