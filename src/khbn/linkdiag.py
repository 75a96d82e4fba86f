"""Planar link diagrams: PD parsing, braid closures, resolutions, mirrors,
and the Kauffman-bracket Jones oracle.

Conventions (fixed here, used everywhere else):

* A crossing is a quadruple (a, b, c, d) of arc labels read counterclockwise
  starting from the incoming under-strand a; the under-strand leaves at c.
  The over-strand occupies slots b and d; its direction is that of its
  component, walked straight through every crossing (slot s to slot s+2)
  from any under-passage.  A component that never passes under lies on top
  and runs b to d at its lowest-index crossing when d = b + 1 (mod 2n), else
  d to b.  A crossing is positive when the over-strand enters at d and
  leaves at b, negative when it runs b to d.
* Arc labels are normalized mod 2n into 1..2n, then canonically relabeled so
  that equal diagrams print identically.
* In the resolution at a crossing, the 0-smoothing joins {a,b} and {c,d};
  the 1-smoothing joins {a,d} and {b,c}.
* The crossingless unknot is the literal `U`, modeled as one closed arc
  labeled 1.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .laurent import Laurent, Q, QINV

__all__ = [
    "Diagram",
    "Resolution",
    "EdgeTransition",
    "Merge",
    "Split",
    "parse_pd",
    "from_braid",
    "resolve",
    "edge_transition",
    "mirror",
    "kauffman_jones",
    "render",
    "load_link_table",
    "DiagramError",
    "MalformedSyntax",
    "ArcMultiplicityError",
    "NonPlanarOrInconsistentOrientation",
    "StateLengthMismatch",
    "CrossingAlreadyOne",
    "LetterOutOfRange",
]


class DiagramError(ValueError):
    pass


class MalformedSyntax(DiagramError):
    pass


class ArcMultiplicityError(DiagramError):
    pass


class NonPlanarOrInconsistentOrientation(DiagramError):
    pass


class StateLengthMismatch(DiagramError):
    pass


class CrossingAlreadyOne(DiagramError):
    pass


class LetterOutOfRange(DiagramError):
    pass


class Diagram:
    """Validated planar diagram; immutable after construction."""

    __slots__ = ("crossings", "signs", "n_plus", "n_minus",
                 "component_count", "components")

    def __init__(self, crossings, signs, components):
        self.crossings: Tuple[Tuple[int, int, int, int], ...] = tuple(crossings)
        self.signs: Tuple[int, ...] = tuple(signs)
        self.components: Tuple[Tuple[int, ...], ...] = tuple(components)
        self.component_count = len(self.components)
        self.n_plus = sum(1 for s in self.signs if s > 0)
        self.n_minus = sum(1 for s in self.signs if s < 0)

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def arcs(self) -> Tuple[int, ...]:
        return tuple(range(1, 2 * len(self.crossings) + 1)) if self.crossings else (1,)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Diagram)
                and self.crossings == other.crossings
                and self.signs == other.signs)

    def __hash__(self) -> int:
        return hash((self.crossings, self.signs))

    def __repr__(self) -> str:
        return f"Diagram({render(self)}, writhe={self.writhe})"


class Merge:
    __slots__ = ("src_a", "src_b", "dst")

    def __init__(self, src_a: int, src_b: int, dst: int):
        self.src_a, self.src_b, self.dst = src_a, src_b, dst

    def __repr__(self) -> str:
        return f"Merge({self.src_a},{self.src_b}->{self.dst})"


class Split:
    __slots__ = ("src", "dst_a", "dst_b")

    def __init__(self, src: int, dst_a: int, dst_b: int):
        self.src, self.dst_a, self.dst_b = src, dst_a, dst_b

    def __repr__(self) -> str:
        return f"Split({self.src}->{self.dst_a},{self.dst_b})"


class Resolution:
    """Circles of one full smoothing; ids are the minimal member arcs."""

    __slots__ = ("state", "circles", "circle_ids")

    def __init__(self, state, circles):
        self.state: Tuple[int, ...] = tuple(state)
        self.circles: Tuple[Tuple[int, ...], ...] = tuple(circles)
        self.circle_ids: Tuple[int, ...] = tuple(min(c) for c in self.circles)

    def __repr__(self) -> str:
        return f"Resolution(state={self.state}, circles={self.circle_ids})"


class EdgeTransition:
    __slots__ = ("from_state", "to_state", "kind", "bystander_map")

    def __init__(self, from_state, to_state, kind, bystander_map):
        self.from_state = tuple(from_state)
        self.to_state = tuple(to_state)
        self.kind = kind
        self.bystander_map: Dict[int, int] = dict(bystander_map)

    def __repr__(self) -> str:
        return f"EdgeTransition({self.from_state}->{self.to_state}, {self.kind})"


# ---------------------------------------------------------------------------
# construction and validation

_PD_RE = re.compile(r"^\s*PD\s*\[(.*)\]\s*$", re.S)
_X_RE = re.compile(r"X\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> Diagram:
    """Parse `PD[X(a,b,c,d), ...]` or the literal `U` into a Diagram.

    Labels are reduced mod 2n into 1..2n, validated (each arc exactly
    twice), oriented, signed, and canonically relabeled.
    """
    if text.strip() == "U":
        return Diagram((), (), ((1,),))
    m = _PD_RE.match(text)
    if not m:
        raise MalformedSyntax(f"not PD notation: {text!r}")
    body = m.group(1)
    quads = [tuple(int(g) for g in q) for q in _X_RE.findall(body)]
    leftover = _X_RE.sub("", body).replace(",", "").strip()
    if leftover or not quads:
        raise MalformedSyntax(f"unparsed content in PD body: {body!r}")
    return _build(quads)


def _build(quads: Sequence[Tuple[int, int, int, int]]) -> Diagram:
    n = len(quads)
    two_n = 2 * n
    quads = [tuple((x - 1) % two_n + 1 for x in q) for q in quads]
    ends = _ends(quads)
    for x in range(1, two_n + 1):
        times = len(ends.get(x, ()))
        if times != 2:
            raise ArcMultiplicityError(f"arc {x} appears {times} times, expected 2")
    _check_planar(quads, ends)
    _, components = _orient(quads, ends)
    quads = _canonical_quads(quads, components)
    # definitive orientation from the canonical labels; a relabeled copy of
    # the same diagram now rebuilds to an identical Diagram
    over_in, components = _orient(quads, _ends(quads))
    signs = [1 if oi == 3 else -1 for oi in over_in]
    return Diagram(quads, signs, components)


def _ends(quads: Sequence[Tuple[int, int, int, int]]
          ) -> Dict[int, List[Tuple[int, int]]]:
    """arc -> its ends, as (crossing, slot); twice for a valid code."""
    ends: Dict[int, List[Tuple[int, int]]] = {}
    for x, q in enumerate(quads):
        for slot, a in enumerate(q):
            ends.setdefault(a, []).append((x, slot))
    return ends


def _across(quads, ends, x: int, slot: int) -> Tuple[int, int]:
    """The other end of the arc in `slot` of crossing x."""
    a, b = ends[quads[x][slot]]
    return b if a == (x, slot) else a


def _check_planar(quads: Sequence[Tuple[int, int, int, int]], ends) -> None:
    """Euler's formula for the projection: V - E + F = 2 on each connected
    component, with V = n crossings and E = 2n arcs, so F = n + 2 (number
    of components).  Faces are cycles of crossing corners: the corner
    between slots i and i+1 continues at the other end of the arc in slot
    i+1.  A code with fewer faces does not embed in the plane."""
    n = len(quads)
    seen = set()
    faces = 0
    for start in itertools.product(range(n), range(4)):
        if start in seen:
            continue
        faces += 1
        x, i = start
        while (x, i) not in seen:
            seen.add((x, i))
            x, i = _across(quads, ends, x, (i + 1) % 4)
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for (x, _), (y, _) in ends.values():
        root[find(x)] = find(y)
    components = sum(1 for x in range(n) if find(x) == x)
    if faces != n + 2 * components:
        raise NonPlanarOrInconsistentOrientation(
            f"not planar: {faces} faces, where Euler's formula wants"
            f" {n + 2 * components}")


def _orient(quads: Sequence[Tuple[int, int, int, int]], ends
            ) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The over-in slot (1 or 3) per crossing, and the components as arc
    cycles in orientation order, each from its least arc, in order of it.

    Each component is one walk straight through every crossing it meets.
    Components that pass under are walked from an under-in slot 0, and
    entering a crossing at slot 2 is a conflict.  The rest lie on top: each
    runs b to d at its lowest-index crossing when d = b + 1 (mod 2n), else
    d to b.
    """
    n, two_n = len(quads), 2 * len(quads)
    over_in: List[Optional[int]] = [None] * n
    walked = set()
    components = []

    def walk(x: int, slot: int) -> None:
        arcs = []
        while quads[x][slot] not in walked:
            if slot == 2:
                raise NonPlanarOrInconsistentOrientation(
                    f"a component passes under in both directions: arc"
                    f" {quads[x][slot]} runs into the under-strand's"
                    f" outgoing slot of crossing {x + 1}")
            if slot % 2:
                over_in[x] = slot
            walked.add(quads[x][slot])
            arcs.append(quads[x][slot])
            x, slot = _across(quads, ends, x, slot ^ 2)
        least = arcs.index(min(arcs))
        components.append(tuple(arcs[least:] + arcs[:least]))

    for x in range(n):
        if quads[x][0] not in walked:
            walk(x, 0)
    for x in range(n):
        if over_in[x] is None:
            b, d = quads[x][1], quads[x][3]
            walk(x, 1 if d % two_n == (b + 1) % two_n else 3)
    return over_in, sorted(components)


def _canonical_quads(quads, components):
    """Deterministic relabeling to 1..2n preserving each component's cyclic
    order: minimize the sorted crossing list over start arcs and component
    orders (components capped at 6, ample for the bundled corpus)."""
    if len(components) > 6:
        return tuple(sorted(quads))
    best = None
    for order in itertools.permutations(range(len(components))):
        for starts in itertools.product(*(range(len(components[i])) for i in order)):
            relabel: Dict[int, int] = {}
            nxt = 1
            for i, st in zip(order, starts):
                comp = components[i]
                for k in range(len(comp)):
                    relabel[comp[(st + k) % len(comp)]] = nxt
                    nxt += 1
            new = sorted(tuple(relabel[x] for x in q) for q in quads)
            if best is None or new < best:
                best = new
    return tuple(best)


def render(D: Diagram) -> str:
    """Canonical PD text; parse_pd(render(D)) == D."""
    if not D.crossings:
        return "U"
    return "PD[" + ", ".join(f"X({a},{b},{c},{d})" for a, b, c, d in D.crossings) + "]"


def from_braid(word: Sequence[int], strands: int) -> Diagram:
    """Close a braid word into a Diagram.

    Letters are nonzero ints with 1 <= |letter| < strands; positive letters
    are positive crossings under the closure's downward orientation.
    """
    if strands < 1:
        raise DiagramError("strands must be >= 1")
    if not word:
        if strands == 1:
            return parse_pd("U")
        raise DiagramError(
            "empty word on >1 strands closes to split crossingless unknots,"
            " which PD notation cannot express")
    for letter in word:
        if letter == 0 or not 1 <= abs(letter) < strands:
            raise LetterOutOfRange(f"letter {letter} invalid for {strands} strands")
    used = {abs(letter) for letter in word}
    touched = set()
    for i in used:
        touched.add(i)
        touched.add(i + 1)
    if touched != set(range(1, strands + 1)):
        raise DiagramError("some strand has no crossings; its closure is a"
                           " split crossingless unknot, not expressible in PD")
    fresh = itertools.count(1)
    init = [next(fresh) for _ in range(strands)]
    cur = list(init)
    quads = []
    for letter in word:
        i = abs(letter) - 1
        x, y = cur[i], cur[i + 1]
        u_new, v_new = next(fresh), next(fresh)
        if letter > 0:
            quads.append((x, u_new, v_new, y))
        else:
            quads.append((y, x, u_new, v_new))
        cur[i], cur[i + 1] = u_new, v_new
    # closure: the bottom of each strand position is its top; every
    # position is touched, so no bottom label is also a top label
    close = {cur[p]: init[p] for p in range(strands)}
    # labels renumbered in order of first appearance
    relabel: Dict[int, int] = {}
    D = _build([tuple(relabel.setdefault(close.get(x, x), len(relabel) + 1)
                      for x in q) for q in quads])
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    ncycles = 0
    seen = set()
    for s in range(strands):
        if s in seen:
            continue
        ncycles += 1
        x = s
        while x not in seen:
            seen.add(x)
            x = perm[x]
    if ncycles != D.component_count:
        raise AssertionError("closure permutation disagrees with diagram components")
    return D


# ---------------------------------------------------------------------------
# resolutions

def _smoothing_pairs(q, bit):
    a, b, c, d = q
    return ((a, b), (c, d)) if bit == 0 else ((a, d), (b, c))


def resolve(D: Diagram, state: Sequence[int]) -> Resolution:
    """Circles of the full smoothing given by `state` (one bit per crossing)."""
    state = tuple(state)
    if len(state) != D.n:
        raise StateLengthMismatch(f"state length {len(state)} != {D.n} crossings")
    bad = [b for b in state if b not in (0, 1)]
    if bad:
        raise DiagramError(f"state entries must be 0 or 1, got {bad[0]}")
    if not D.crossings:
        return Resolution(state, ((1,),))
    edges: List[Tuple[int, int]] = []
    for q, bit in zip(D.crossings, state):
        edges.extend(_smoothing_pairs(q, bit))
    incident: Dict[int, List[int]] = {}
    for ei, (x, y) in enumerate(edges):
        incident.setdefault(x, []).append(ei)
        incident.setdefault(y, []).append(ei)
    circles = []
    visited_arcs = set()
    for start in D.arcs:
        if start in visited_arcs:
            continue
        cyc = []
        arc, edge = start, incident[start][0]
        while True:
            cyc.append(arc)
            visited_arcs.add(arc)
            x, y = edges[edge]
            arc = y if arc == x else x
            if arc == start:
                break
            e0, e1 = incident[arc]
            edge = e1 if edge == e0 else e0
        circles.append(tuple(cyc))
    circles.sort(key=min)
    return Resolution(state, circles)


def _circle_count(D: Diagram, state: Sequence[int]) -> int:
    """Circle count only, via union-find (cheaper than full traversal)."""
    if not D.crossings:
        return 1
    two_n = 2 * D.n
    parent = list(range(two_n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = two_n
    for q, bit in zip(D.crossings, state):
        for x, y in _smoothing_pairs(q, bit):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
                count -= 1
    return count


def _arc_positions(r: Resolution) -> bytes:
    """pos[arc] = index of the arc's circle in r.circle_ids (pos[0] unused)."""
    pos = bytearray(sum(len(c) for c in r.circles) + 1)
    for t, circle in enumerate(r.circles):
        for arc in circle:
            pos[arc] = t
    return bytes(pos)


def _classify_edge(quad, ids_from, pos_from, ids_to, pos_to):
    """Merge or split of the cube edge at the crossing `quad`, read off the
    resolutions at its two ends (sorted circle ids and arc -> position maps).

    Returns (merge, src, dst, bystanders) in circle positions: src are the
    circles of the from-state that the edge touches (arcs a and c of the
    crossing for a merge, the one circle for a split), dst those of the
    to-state (the merged circle; or the circles of arcs a and b), and
    bystanders pairs every other from-circle with its to-circle.
    """
    a, b, c, _ = quad
    pa, pc = pos_from[a], pos_from[c]
    if pa != pc:
        merge, src, dst = True, (pa, pc), (pos_to[a],)
    else:
        da, db = pos_to[a], pos_to[b]
        if da == db:
            raise AssertionError("split produced a single circle")
        merge, src, dst = False, (pa,), (da, db)
    # a bystander keeps its arcs, hence its min-arc id; both id lists are
    # sorted, so the bystanders pair up in order
    from_rest = [t for t in range(len(ids_from)) if t not in src]
    to_rest = [t for t in range(len(ids_to)) if t not in dst]
    if [ids_from[t] for t in from_rest] != [ids_to[t] for t in to_rest]:
        raise AssertionError("bystander circle changed arcs across the edge")
    return merge, src, dst, tuple(zip(from_rest, to_rest))


def edge_transition(D: Diagram, state: Sequence[int], crossing: int) -> EdgeTransition:
    """Classify the cube edge that flips `crossing` from 0 to 1."""
    state = tuple(state)
    if len(state) != D.n:
        raise StateLengthMismatch(f"state length {len(state)} != {D.n} crossings")
    if state[crossing] != 0:
        raise CrossingAlreadyOne(f"crossing {crossing} already resolved to 1")
    to_state = state[:crossing] + (1,) + state[crossing + 1:]
    before, after = resolve(D, state), resolve(D, to_state)
    ids_from, ids_to = before.circle_ids, after.circle_ids
    merge, src, dst, bystanders = _classify_edge(
        D.crossings[crossing], ids_from, _arc_positions(before),
        ids_to, _arc_positions(after))
    if merge:
        kind = Merge(ids_from[src[0]], ids_from[src[1]], ids_to[dst[0]])
    else:
        kind = Split(ids_from[src[0]], ids_to[dst[0]], ids_to[dst[1]])
    return EdgeTransition(state, to_state, kind,
                          {ids_from[f]: ids_to[t] for f, t in bystanders})


# ---------------------------------------------------------------------------
# mirror and the Jones oracle

def mirror(D: Diagram) -> Diagram:
    """Mirror image: over/under swap at every crossing.

    The quadruple is rotated so it again starts at the incoming under-strand
    (one step right for positive crossings, one step left for negative);
    signs flip and the 0/1 smoothings exchange.
    """
    quads = []
    for q, sign in zip(D.crossings, D.signs):
        a, b, c, d = q
        quads.append((d, a, b, c) if sign > 0 else (b, c, d, a))
    out = _build(quads)
    if (out.n_plus, out.n_minus) != (D.n_minus, D.n_plus):
        raise AssertionError("mirror did not flip the crossing signs")
    return out


def kauffman_jones(D: Diagram) -> Laurent:
    """Unnormalized Jones polynomial V(L) with V(unknot) = q + q^-1.

    Independent bracket oracle: the state sum
    V = (-1)^{n-} q^{n+ - 2 n-} * sum_s (-q)^{|s|} (q + q^-1)^{c(s)}
    evaluated over all 2^n smoothings with exact integer arithmetic.
    """
    loop = Q + QINV
    total = Laurent()
    n = D.n
    for bits in range(1 << n):
        state = tuple((bits >> i) & 1 for i in range(n))
        weight = sum(state)
        term = (loop ** _circle_count(D, state)).shift(weight)
        if weight & 1:
            term = term.scale(-1)
        total = total + term
    total = total.shift(D.n_plus - 2 * D.n_minus)
    if D.n_minus & 1:
        total = total.scale(-1)
    return total


# ---------------------------------------------------------------------------
# bundled link table

def load_link_table() -> Dict[str, Tuple[str, int]]:
    """Bundled table: name -> (PD text, component count)."""
    from importlib.resources import files

    out: Dict[str, Tuple[str, int]] = {}
    text = files("khbn.data").joinpath("links.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, pd, comps = line.split("\t")
        out[name] = (pd, int(comps))
    return out
