"""Rooted bipartite maps, counted by edges, vertex colours and faces.

K[n, g2] is a polynomial in (u, v, z): u marks black vertices (the root
vertex is black by convention), v white vertices, z faces.  One
recurrence engine fills the table; every right-hand side entry has
strictly smaller edge count, so the fill is a plain sweep in n.

BipTable fills a row, every genus of it, at a time (`table.PolyTable`).
Genus is degree: K[n, g2] is homogeneous of degree n + 2 - g2, so a row
of every genus is the sum of its cells.  The building blocks are Memo
rows keyed (m, c) for a fill cut at genus c: shift_weight[n1, c]
(`Poly.charge_shift` of the row, u and v shifting together),
core[m, c], the bracket without its term -(m+1) K[m, g2_2] and with its
boundary terms, data in _BOUNDARY, its products and its quadratic sum
(`table.square_sum`) in one `Poly.dot`, and bracket[m, c], core plus
that term.  Each row step is core[n] over n+1, minus the shift sum, one
`Poly.dot` over n1, over (n-2)(n+1).

BipTable(v_is_u=True) fills the same recurrence at v = u, in (u, z),
which is all the scalar counts need.  Every step is ring operations plus
the charge shift, and the substitution v -> u commutes with both: to
move u and v together by +-2 and then set v = u is to set v = u and
then move u.  So the table substitutes into its seeds and constants
once, at construction, and runs the engine unchanged; its cells have no
v, so the shift of u with v is the shift of u alone, slot None, which
builds no (u, v) parts (they would be mostly zeros).

The one-face numbers b[n, i, j] (i black, j white vertices) satisfy
their own linear recursion with history depth 4, which BipOneFaceTable
runs a row at a time (`table.Table._fill_linear`).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, U, V, Z
from .table import PolyTable, Table, cut, row_series, square_sum
from .tseries import TSeries

_UVZ = U * V * Z
_UV = U * V
_SUM3 = U + V + Z
_DIFF3 = U + V - Z

_PSI = U * U + V * V + Z * Z - 14 * _UV - 2 * U * Z - 2 * V * Z


# the bracket's boundary terms of row n2, by g2_2
_BOUNDARY = {
    1: (2 * _UVZ,),
    2: (6 * _UV * _UV, -6 * _UV * _DIFF3, 6 * _UV),
}


class BipTable(PolyTable):
    """Trivariate table of K[n, g2], or with v_is_u its values at v = u."""

    NAME = "K"
    # rows 1 and 2, their stated zeros (1, 1) and (2, 2) included: no
    # bipartite map is there, and a cached row for either must be empty
    SEEDS = {
        (1, 0): _UVZ,
        (1, 1): Poly.zero(),
        (2, 0): _UVZ * _SUM3,
        (2, 1): _UVZ,
        (2, 2): Poly.zero(),
    }

    def __init__(self, v_is_u: bool = False):
        super().__init__(BipTable._core, 1, None if v_is_u else 2)
        sub = Poly.v_to_u if v_is_u else (lambda p: p)
        self.entries.update((key, sub(p)) for key, p in self.SEEDS.items())
        self.sum3, self.diff3, self.psi, self.uv = map(sub, (_SUM3, _DIFF3, _PSI, _UV))
        self.boundary = {m: tuple(map(sub, terms)) for m, terms in _BOUNDARY.items()}

    def poly(self, n: int, g2: int) -> Poly:
        if n <= 0 or g2 < 0 or n < g2:
            return Poly.zero()
        return self.entries[n, g2]

    def fill(self, n_max: int, g2_max: int | None = None) -> "BipTable":
        return self._fill(bip_row, n_max, g2_max)

    def _core(self, m: int, c: int) -> Poly:
        """Inner bracket with its boundary terms, without -(m+1) K[m, g2_2];
        K[m, g2_2] is row m at genus g2_2."""
        K = cut(self.row, c)
        psi = (m - 2) * self.psi - 12 * self.uv
        return Poly.sum([
            K(m - 1).scale(-(2 * m - 1)),
            K(m - 2).scale((2 * m - 1) * (2 * m - 3) * m),
            *self.boundary.get(m, ()),
            Poly.dot([(2 * m - 1, self.sum3, K(m - 1)), (-6 * (m - 1), self.diff3, K(m - 2)),
                      (-1, psi, K(m - 2))]
                     + square_sum(K, m, lambda n3, n4: 2 * (6 * n3 * n4 - 2 * (n3 + n4) + 1))),
        ])


def bip_row(n: int, top: int, table: BipTable) -> list:
    """One recurrence step for row n of K, cut at top (n > 2, lower rows
    filled): core over n+1, minus the shift sum over (n-2)(n+1)."""
    if n <= 2:
        raise ValueError("the recurrence starts at n = 3; smaller n are seeds")
    weight, bracket = cut(table.shift_weight, top), cut(table.bracket, top)
    shift = Poly.dot((1, weight(n1), bracket(n - n1)) for n1 in range(1, n))
    return (table.core[n, top].scale(Fraction(1, n + 1))
            - shift.scale(Fraction(1, (n - 2) * (n + 1)))).parts_by_degree(n + 2, top)


class BipOneFaceTable(Table):
    """b[n, i, j]: rooted one-face bipartite maps, i black and j white vertices.

    Rows n <= 3 are seeded; the depth-4 linear recursion fills n >= 4.
    Three signs here differ from circulating forms of this recursion
    (two of those would break black/white symmetry, which these counts
    provably have); every sign used is pinned against the one-face
    slice of the full trivariate table for every n <= 10, and by the
    recursion's derivation from the one-face ODE (see `bip_oneface`).
    """

    NAME = "bip-oneface"
    SEEDS = {
        (1, 1, 1): 1,
        (2, 2, 1): 1, (2, 1, 2): 1, (2, 1, 1): 1,
        (3, 3, 1): 1, (3, 1, 3): 1,
        (3, 2, 2): 3, (3, 2, 1): 3, (3, 1, 2): 3,
        (3, 1, 1): 4,
    }

    def value(self, n: int, i: int, j: int) -> int:
        if i <= 0 or j <= 0 or i + j > n + 1:
            return 0
        return self.entries[n, i, j]

    @staticmethod
    def row_cells(n: int):
        """The cells (i, j) of row n that can be nonzero: i, j >= 1, i + j <= n + 1."""
        return ((i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i))

    def fill(self, n_max: int) -> "BipOneFaceTable":
        # rows as grids [i][j], with at least four zeros past the last cell
        # in each direction, which an index down to -4 reads (from the end);
        # the all-zero rows are one shared list, as grids are only read
        width = n_max + 5
        zeros = [0] * width

        def grid(n, row):
            # row holds, for i = 1..n in turn, the cells j = 1..count,
            # count = n + 1 - i (`row_cells`)
            out, start = [zeros], 0
            for count in range(n, 0, -1):
                out.append([0, *row[start:start + count], *zeros[count + 1:]])
                start += count
            return out + [zeros] * (width - n - 1)
        return self._fill_linear(n_max, lambda n: [(n, *c) for c in self.row_cells(n)],
                                 bip_oneface, grid)


def bip_oneface(n: int, b1: list, b2: list, b3: list, b4: list) -> list:
    """Row n of the bipartite one-face recursion times n + 1, cell by cell
    in the order of `BipOneFaceTable.row_cells`, from rows n-1..n-4:
    br[i][j] is b[n - r, i, j], and an index from -4 to -1 reads the
    row's zero padding.

    Every coefficient, signs included, is the one derived from the
    bipartite one-face ODE (`identities._ONEFACE_ODE`), which
    tests/test_oneface_recurrence.py checks for n = 4..20.
    """
    c1, c2, c3 = 4 * n - 1, 5 * n**3 - 16 * n**2 + 13 * n - 1, 2 * n - 3
    c4, c5, c6 = 10 * n**3 - 68 * n**2 + 150 * n - 107, 4 * n - 11, 4 - n
    c7, c8 = c6 * (2 * n - 7) ** 2 * (n - 2) ** 2, c6 * (5 * n**2 - 32 * n + 53)
    out = []
    for i in range(1, n + 1):
        # br_p[j] is b[n - r, i - p, j]
        b1_0, b1_1 = b1[i], b1[i - 1]
        b2_0, b2_1, b2_2 = b2[i], b2[i - 1], b2[i - 2]
        b3_0, b3_1, b3_2, b3_3 = b3[i], b3[i - 1], b3[i - 2], b3[i - 3]
        b4_0, b4_1, b4_2, b4_3, b4_4 = b4[i], b4[i - 1], b4[i - 2], b4[i - 3], b4[i - 4]
        for j in range(1, n + 2 - i):
            j1, j2, j3, j4 = j - 1, j - 2, j - 3, j - 4
            out.append(
                c1 * (b1_1[j] + b1_0[j1] - b1_0[j])
                + c2 * b2_0[j]
                + c3 * (4 * (b2_1[j] + b2_0[j1]) - 3 * (b2_2[j] + b2_0[j2]) - 2 * b2_1[j1])
                + c4 * (b3_0[j] - b3_1[j] - b3_0[j1])
                + c5 * (b3_3[j] + b3_0[j3] - b3_2[j1] - b3_1[j2] - b3_2[j] - b3_0[j2]
                        + 2 * b3_1[j1])
                + c7 * b4_0[j] - c8 * (b4_2[j] + b4_0[j2] - 2 * b4_1[j1])
                + c6 * (b4_4[j] + b4_0[j4] - 4 * (b4_3[j1] + b4_1[j3]) + 6 * b4_2[j2]))
    return out


def eta_series(table: BipTable, order: int) -> TSeries:
    """Bipartite generating series: sum over n of row n, sum_g K[n, g2],
    over 2n, times t^n."""
    return row_series(order, 1, lambda n: table.row[n, n].scale(Fraction(1, 2 * n)))


def bip_oneface_series(table: BipOneFaceTable, order: int) -> TSeries:
    """One-face bipartite series: sum b[n,i,j]/(2n) t^n u^i v^j."""
    return row_series(order, 1, lambda n: Poly.from_terms(
        {(i, 0, j): table.value(n, i, j) for i, j in table.row_cells(n)}, 2 * n))
