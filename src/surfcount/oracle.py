"""Exhaustive generation of rooted maps at tiny size.

A map with n edges on any compact surface, orientable or not, is a
triple of fixed-point-free involutions (s0, s1, s2) on 4n flags with
s0 s2 = s2 s0 fixed-point-free and the whole group acting transitively.
Vertices are the orbits of <s1, s2>, faces the orbits of <s0, s1>,
edges the orbits of <s0, s2> (quadruples).  A rooted map is such a
triple with one flag marked, up to relabelling.

The scan builds each rooted map exactly once, under a canonical
labelling.  Edge k owns flags 4k..4k+3 with s2 = x ^ 1 and s0 = x ^ 2,
the root flag is 0, and edge 0 is open from the start.  The generator
repeatedly takes the smallest flag x whose s1 is unset and pairs it
either with an unset flag of an edge already opened, or with flag 4k of
the next unopened edge k.  A branch that runs out of unset flags before
all n edges are open would leave a piece unreachable from the root and
is dropped; every other leaf is connected, since each edge is opened
through s1 from an earlier one.

Each leaf is exactly one rooted map.  Given a rooted map, the rule above
reads every label off the map itself: the root fixes edge 0's four
flags, and the s1-mate of the smallest unset flag either carries a label
already or starts the next edge, whose other flags follow through s0 and
s2.  So every rooted map is reached, by exactly one labelling.  Two
leaves that were the same rooted map would be related by a relabelling
that fixes flag 0 and commutes with s0, s1, s2.  It carries the rule's
choices on one leaf to its choices on the other, so it fixes every
label and the two leaves are equal: a rooted map has no automorphism
fixing its root but the identity (Tutte 1963).  Walsh and Lehman
("Counting rooted maps by genus I", 1972) build rooted maps the same
way.  The tallies are therefore rooted counts as they stand: no
symmetry factor and no division.

This module is ground truth for coefficients no published table prints
(the full vertex/face split); it is itself validated against the n = 1
and n = 2 rows before its higher output is trusted.  The number of
leaves grows super-exponentially (3, 24, 297, 4 896, 100 278 for
n = 1..5), so n <= MAX_EDGES is enforced.
"""

from __future__ import annotations

from .errors import IntegralityError

MAX_EDGES = 5


def _rooted_maps(n: int):
    """Yield s1 of each rooted map with n edges, once, canonically labelled.

    The same list is yielded every time: read it before the next step.
    """
    s1 = [-1] * (4 * n)

    def grow(x: int, opened: int):
        top = 4 * opened
        while x < top and s1[x] >= 0:
            x += 1
        if x == top:
            if opened == n:
                yield s1
            return
        for y in range(x + 1, top):
            if s1[y] < 0:
                s1[x], s1[y] = y, x
                yield from grow(x + 1, opened)
                s1[y] = -1
        if opened < n:
            s1[x], s1[top] = top, x
            yield from grow(x + 1, opened + 1)
            s1[top] = -1
        s1[x] = -1

    return grow(0, 1)


def _orbits(s1: list[int], mask: int):
    """Orbit labels and sizes of <s1, x -> x ^ mask> on the flags.

    Each orbit of two involutions is a cycle alternating between them,
    so one walk covers it.
    """
    labels = [-1] * len(s1)
    sizes = []
    for start in range(len(s1)):
        if labels[start] >= 0:
            continue
        k = len(sizes)
        size = 0
        x = start
        while labels[x] < 0:
            y = x ^ mask
            labels[x] = labels[y] = k
            size += 2
            x = s1[y]
        sizes.append(size)
    return labels, sizes


def scan(n: int) -> dict:
    """Single exhaustive pass over all rooted maps with n edges.

    Returns rooted counts for all three models at once:
      "maps":           {(vertices, faces): count}
      "bipartite":      {(black, white, faces): count}  (root vertex black)
      "triangulations": {g2: count}  (only when all faces have degree 3)
      "profiles":       {(vertices, sorted face degrees): count}
    """
    if not (1 <= n <= MAX_EDGES):
        raise ValueError(f"oracle supports 1 <= edges <= {MAX_EDGES}, got {n}")
    maps_tally: dict[tuple[int, int], int] = {}
    bip_tally: dict[tuple[int, int, int], int] = {}
    tri_tally: dict[int, int] = {}
    prof_tally: dict[tuple[int, tuple[int, ...]], int] = {}

    for s1 in _rooted_maps(n):
        vlab, vsizes = _orbits(s1, 1)
        _, fsizes = _orbits(s1, 2)
        v, f = len(vsizes), len(fsizes)
        g2 = 2 - v + n - f
        if g2 < 0:
            raise IntegralityError(f"negative genus at n={n}: v={v}, f={f}")
        key = (v, f)
        maps_tally[key] = maps_tally.get(key, 0) + 1

        degs = tuple(sorted(s // 2 for s in fsizes))
        pkey = (v, degs)
        prof_tally[pkey] = prof_tally.get(pkey, 0) + 1
        if n % 3 == 0 and all(d == 3 for d in degs):
            tri_tally[g2] = tri_tally.get(g2, 0) + 1

        # bipartite: colour the root vertex black and walk the edges in
        # label order; flag 4k shares its vertex with its s1-mate on an
        # earlier edge, so that end of edge k is always coloured already
        colors = [-1] * v
        colors[vlab[0]] = 0
        for k in range(0, 4 * n, 4):
            a, b = colors[vlab[k]], vlab[k + 2]
            if colors[b] < 0:
                colors[b] = 1 - a
            elif colors[b] == a:
                break
        else:
            blacks = colors.count(0)
            bkey = (blacks, v - blacks, f)
            bip_tally[bkey] = bip_tally.get(bkey, 0) + 1

    return {
        "maps": maps_tally,
        "bipartite": bip_tally,
        "triangulations": tri_tally,
        "profiles": prof_tally,
    }


def marked_face_coefficient(profiles: dict, n: int, degrees: tuple[int, ...]) -> dict:
    """Ground-truth series coefficient for ordered distinct marked faces.

    Given the profile tally of scan(n), returns {(u_exp, z_exp): Fraction}
    for the t^(2n) coefficient of the series marking ordered pairwise
    distinct faces with the given degree sequence.
    """
    from fractions import Fraction

    acc: dict[tuple[int, int], Fraction] = {}
    for (v, degs), cnt in profiles.items():
        avail = {}
        for d in degs:
            avail[d] = avail.get(d, 0) + 1
        ways = 1
        for d in degrees:
            have = avail.get(d, 0)
            ways *= have
            if not ways:
                break
            avail[d] = have - 1
        if ways:
            key = (v, len(degs) - len(degrees))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(cnt * ways, 4 * n)
    return acc


def oracle_count(n: int, filter: str | None = None) -> dict:
    """Rooted counts by (vertices, faces), optionally filtered by model.

    filter None   -> {(v, f): count}
    "bipartite"   -> {(black, white, faces): count}
    "triangulation" -> {g2: count} (requires n divisible by 3)
    """
    key = {None: "maps", "bipartite": "bipartite", "triangulation": "triangulations"}.get(filter)
    if key is None:
        raise ValueError(f"unknown filter {filter!r}")
    if key == "triangulations" and n % 3:
        raise ValueError("triangulations need an edge count divisible by 3")
    return scan(n)[key]


def oracle_count_bipartite(n: int) -> dict:
    return oracle_count(n, "bipartite")
