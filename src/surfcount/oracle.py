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
all n edges are open would leave a piece unreachable from the root, so
while edges are unopened the last two unset flags are never paired with
each other: that branch is not entered.  Every leaf is connected, since
each edge is opened through s1 from an earlier one.

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

The counts are kept up to date as the pairs are set, so a leaf reads
them off instead of walking the orbits.  While the map is built, the
s2 and s1 pairs split the flags into paths and cycles, the vertices
being the cycles, and the s0 and s1 pairs likewise for faces.  Every
flag whose s1 is unset ends a path, and each path end holds the
other end (and, for faces, the path's number of s0 pairs, that is the
face degree so far).  Pairing x with y either closes a cycle, when y
is the other end of x's path (one more vertex; a face whose degree is
pushed on a stack), or joins two paths, rewriting the entries at their
two far ends; the backtrack restores them.  The bipartite colouring
goes the same way: the root vertex is black, an edge k opened from
flag x gives flags 4k, 4k+1 the colour of x and 4k+2, 4k+3 the other
one, a pair of differently coloured flags is a conflict, and a vertex
that closes black adds one black vertex.  The map is bipartite exactly
when no pair conflicts.

The last pairing of a leaf is forced, so it is tallied where it is
found rather than made.  Once every edge is open and only two flags
are unset, x and its only possible mate y, every other flag is paired:
x and y are then the two ends of the one remaining vertex path and of
the one remaining face path (vend[x] = fend[x] = y).  Pairing them
closes one vertex and one face of degree flen[x]; it is a conflict
exactly when y's colour differs from x's, and the vertex closes black
when x is black.  That leaf's key is read off directly, with nothing
set and nothing restored, so no call is made for a finished map.

This module is ground truth for coefficients no published table prints
(the full vertex/face split, and at n = 6 the genus split); it is
itself validated against the n = 1 and n = 2 rows before its higher
output is trusted.  The number of leaves grows super-exponentially (3,
24, 297, 4 896, 100 278, 2 450 304 for n = 1..6), so n <= MAX_EDGES is
enforced.
"""

from __future__ import annotations

from .errors import IntegralityError

MAX_EDGES = 6


def _add(tally: dict, key, count: int) -> None:
    tally[key] = tally.get(key, 0) + count


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
    size = 4 * n
    paired = [False] * size
    # vend[x] / fend[x]: the other end of the vertex / face path that ends
    # at x; flen[x]: that face path's number of s0 pairs
    vend = [x ^ 1 for x in range(size)]
    fend = [x ^ 2 for x in range(size)]
    flen = [1] * size
    colour = [0, 0, 1, 1] + [0] * (size - 4)
    degs: list[int] = []
    # one tally over the leaves, keyed (vertices, black vertices or -1
    # when the colouring conflicts, face degrees in closing order); the
    # four tallies are folded from it after the scan
    leaves: dict[tuple[int, int, tuple[int, ...]], int] = {}

    def grow(x: int, opened: int, free: int, v: int, blacks: int, conflicts: int):
        # free counts the unset flags of the opened edges, never below two
        while paired[x]:
            x += 1
        a, c, cx = vend[x], fend[x], colour[x]
        if free == 2 and opened == n:
            # the forced last pairing with y = a = c: one vertex, one face
            black = -1 if conflicts or colour[a] != cx else blacks + (cx == 0)
            key = (v + 1, black, (*degs, flen[x]))
            leaves[key] = leaves.get(key, 0) + 1
            return
        top = 4 * opened
        # with two flags free, pairing them leaves edges unopened: dead
        for y in range(x + 1 if free > 2 else top, top + (opened < n)):
            if paired[y]:
                continue
            paired[y] = True
            if y == top:
                colour[y] = colour[y + 1] = cx
                colour[y + 2] = colour[y + 3] = 1 - cx
            if a == y:
                next_v, next_blacks = v + 1, blacks + (cx == 0)
            else:
                b = vend[y]
                vend[a], vend[b] = b, a
                next_v, next_blacks = v, blacks
            if c == y:
                degs.append(flen[x])
            else:
                d = fend[y]
                fend[c], fend[d] = d, c
                flen[c] = flen[d] = flen[x] + flen[y]
            grow(x + 1, opened + (y == top), free + (2 if y == top else -2),
                 next_v, next_blacks, conflicts + (colour[y] != cx))
            if a != y:
                vend[a], vend[b] = x, y
            if c == y:
                degs.pop()
            else:
                fend[c], fend[d] = x, y
                flen[c], flen[d] = flen[x], flen[y]
            paired[y] = False

    grow(0, 1, 4, 0, 0, 0)

    maps_tally: dict[tuple[int, int], int] = {}
    bip_tally: dict[tuple[int, int, int], int] = {}
    tri_tally: dict[int, int] = {}
    prof_tally: dict[tuple[int, tuple[int, ...]], int] = {}
    for (v, blacks, closed), count in leaves.items():
        f = len(closed)
        g2 = 2 - v + n - f
        if g2 < 0:
            raise IntegralityError(f"negative genus at n={n}: v={v}, f={f}")
        _add(maps_tally, (v, f), count)
        _add(prof_tally, (v, tuple(sorted(closed))), count)
        if n % 3 == 0 and all(d == 3 for d in closed):
            _add(tri_tally, g2, count)
        if blacks >= 0:
            _add(bip_tally, (blacks, v - blacks, f), count)

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
