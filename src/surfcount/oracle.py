"""Brute-force enumeration of rooted maps at tiny size.

A map with n edges on any compact surface, orientable or not, is a
triple of fixed-point-free involutions (s0, s1, s2) on 4n flags with
s0 s2 = s2 s0 fixed-point-free and the whole group acting transitively.
Vertices are the orbits of <s1, s2>, faces the orbits of <s0, s1>,
edges the orbits of <s0, s2> (quadruples).  The number of such labeled
triples is (4n-1)! times the number of rooted maps.

Each admissible pair (s0, s2) is a free action of the Klein four-group
on the flags, and all such actions are conjugate in the symmetric group;
the centralizer of one, K4 wr S_n, has order 4^n n!.  So the scan fixes
s2 = (0 1)(2 3)... and s0 = (0 2)(1 3)... (flag x goes to x ^ 1 and
x ^ 2), enumerates only s1, and the N1 transitive triples it finds
stand for N1 (4n)! / (4^n n!) labeled triples, that is for
N1 4n / (4^n n!) rooted maps.

This module is ground truth for coefficients no published table prints
(the full vertex/face split); it is itself validated against the n = 1
and n = 2 rows before its higher output is trusted.  Cost grows
super-exponentially ((4n-1)!! choices of s1), so n <= MAX_EDGES is
enforced.
"""

from __future__ import annotations

from math import factorial

from .errors import IntegralityError

MAX_EDGES = 4


def fixed_point_free_involutions(points: list[int]):
    """All fixed-point-free involutions on the given points, as dicts."""
    if not points:
        yield {}
        return
    first = points[0]
    for idx in range(1, len(points)):
        mate = points[idx]
        rest = points[1:idx] + points[idx + 1:]
        for sub in fixed_point_free_involutions(rest):
            sub[first] = mate
            sub[mate] = first
            yield sub


def _orbit_labels(n4: int, perm_a, perm_b):
    """Orbit labels and count for the group generated by two involutions."""
    labels = [-1] * n4
    count = 0
    for start in range(n4):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = count
        while stack:
            x = stack.pop()
            for y in (perm_a[x], perm_b[x]):
                if labels[y] < 0:
                    labels[y] = count
                    stack.append(y)
        count += 1
    return labels, count


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
    n4 = 4 * n
    s2 = tuple(x ^ 1 for x in range(n4))
    s0 = tuple(x ^ 2 for x in range(n4))

    maps_tally: dict[tuple[int, int], int] = {}
    bip_tally: dict[tuple[int, int, int], int] = {}
    tri_tally: dict[int, int] = {}
    prof_tally: dict[tuple[int, tuple[int, ...]], int] = {}

    # stream s1: a list of all (4n-1)!! of them (2027025 at n = 4) would
    # hold every one in memory at once
    for inv in fixed_point_free_involutions(list(range(n4))):
        s1 = tuple(inv[x] for x in range(n4))
        vlab, v = _orbit_labels(n4, s1, s2)
        # connectivity: s0 must merge all vertex classes into one
        parent = list(range(v))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        merged = v
        for x in range(n4):
            ra, rb = find(vlab[x]), find(vlab[s0[x]])
            if ra != rb:
                parent[ra] = rb
                merged -= 1
        if merged != 1:
            continue

        flab, f = _orbit_labels(n4, s0, s1)
        g2 = 2 - v + n - f
        if g2 < 0:
            raise IntegralityError(f"negative genus at n={n}: v={v}, f={f}")
        key = (v, f)
        maps_tally[key] = maps_tally.get(key, 0) + 1

        sizes = [0] * f
        for x in range(n4):
            sizes[flab[x]] += 1
        degs = tuple(sorted(s // 2 for s in sizes))
        pkey = (v, degs)
        prof_tally[pkey] = prof_tally.get(pkey, 0) + 1
        if n % 3 == 0 and all(d == 3 for d in degs):
            tri_tally[g2] = tri_tally.get(g2, 0) + 1

        # bipartite: 2-colour the vertex classes across s0; tally both
        # proper colourings (each rooted map sits at a black vertex for
        # exactly half the root-flag choices, hence the /2 later)
        colors = [-1] * v
        colors[vlab[0]] = 0
        stack = [vlab[0]]
        ok = True
        seen = 1
        while stack and ok:
            a = stack.pop()
            for x in range(n4):
                if vlab[x] == a:
                    b = vlab[s0[x]]
                    if colors[b] < 0:
                        colors[b] = 1 - colors[a]
                        stack.append(b)
                        seen += 1
                    elif colors[b] == colors[a]:
                        ok = False
                        break
        if ok and seen == v:
            blacks = colors.count(0)
            whites = v - blacks
            bip_tally[(blacks, whites, f)] = bip_tally.get((blacks, whites, f), 0) + 1
            bip_tally[(whites, blacks, f)] = bip_tally.get((whites, blacks, f), 0) + 1

    # each s1 found stands for (4n)!/(4^n n!) labeled triples, each rooted
    # map for (4n-1)! of them
    den = 4 ** n * factorial(n)

    def reduce(tally: dict, extra_den: int = 1) -> dict:
        out = {}
        for key, raw in tally.items():
            total = raw * n4
            quot, rem = divmod(total, den * extra_den)
            if rem:
                raise IntegralityError(
                    f"non-integral rooted count at {key}: {total}/{den * extra_den}"
                )
            out[key] = quot
        return out

    return {
        "maps": reduce(maps_tally),
        "bipartite": reduce(bip_tally, extra_den=2),
        "triangulations": reduce(tri_tally),
        "profiles": reduce(prof_tally),
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
    result = scan(n)
    if filter is None:
        return result["maps"]
    if filter == "bipartite":
        return result["bipartite"]
    if filter == "triangulation":
        if n % 3:
            raise ValueError("triangulations need an edge count divisible by 3")
        return result["triangulations"]
    raise ValueError(f"unknown filter {filter!r}")


def oracle_count_bipartite(n: int) -> dict:
    return oracle_count(n, "bipartite")


def oracle_genus_totals(n: int) -> dict:
    """Map counts folded to {g2: count} via Euler's relation."""
    out: dict[int, int] = {}
    for (v, f), c in scan(n)["maps"].items():
        g2 = 2 - v + n - f
        out[g2] = out.get(g2, 0) + c
    return out
