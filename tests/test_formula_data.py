"""Every formula constant is load-bearing: a mutation sweep over the data.

The paper's constants live in a few data tables: the seeds of the six
recurrence tables, the boundary terms of their brackets, and the
constants of the loop equations and the ODEs.  Adding 1 to one
coefficient at a time of each must make at least one anchor named here
fail.  A run that raises IntegralityError or NonDivisibleError (a
division that is not exact, or a negative cell) fails the anchor "exact
division".  There is no allowlist: a mutant that passes every anchor is
a dead entry to delete or an anchor to add.
"""

from collections import Counter

from reference_tables import BIPARTITE, MAPS, TRIANGULATIONS

from surfcount import anchors, bipartite, identities, maps, triangulations
from surfcount.bipartite import BipOneFaceTable, BipTable
from surfcount.errors import IntegralityError, NonDivisibleError
from surfcount.identities import IDENTITIES, oneface_ode_fill, run_identity
from surfcount.maps import MapsCounts, MapsTable, OneFaceTable
from surfcount.poly import Poly
from surfcount.triangulations import TriTable


def bumped(value):
    """value with 1 added to one of its coefficients, one way at a time:
    value an int, a Poly or a tuple of them."""
    if isinstance(value, int):
        yield value + 1
    elif isinstance(value, Poly):
        terms = dict(value.items())
        for exps, c in terms.items():
            yield Poly.from_terms({**terms, exps: c + 1})
    else:
        for i, item in enumerate(value):
            for new in bumped(item):
                yield value[:i] + (new,) + value[i + 1:]


def scalar_anchors(cls, reference):
    """The reference counts to n = 12."""
    def run():
        tab = cls().fill(12)
        return {"reference": all(tab.value(n, g2) == c for (n, g2), c in reference.items()
                                 if n <= 12)}
    return run


def polynomial_anchors(make, reference, other, n_max):
    """The reference counts at all ones of make() to n_max, and its cells
    equal to other()'s: the two map engines, or the bipartite table
    against the same table at v = u, at all ones."""
    def run():
        tab, alt = make().fill(n_max), other().fill(n_max)
        return {"reference": all(tab.count(n, g2) == c for (n, g2), c in reference.items()
                                 if n <= n_max),
                "engines": all(alt.count(*key) == tab.count(*key) for key in tab.entries)}
    return run


def oneface_anchors(model, cls, n_max):
    """planar and total of each row, and the one-face ODE fill equal to
    the table's own recursion."""
    def run():
        tab = cls().fill(n_max)
        rows = {n: Counter() for n in range(1, n_max + 1)}
        for key, count in tab.entries.items():
            if key[0]:   # a bipartite one-face cell with i + j vertices has g2 = n + 1 - i - j
                rows[key[0]][key[1] if len(key) == 2 else key[0] + 1 - key[1] - key[2]] += count
        return {"planar": all(rows[n][0] == anchors.planar(model, n) for n in rows),
                "total": all(sum(rows[n].values()) == anchors.total(model, n) for n in rows),
                "ODE fill": oneface_ode_fill(model, n_max).entries == tab.entries}
    return run


def identity_anchors(model, tables):
    """The model's identities at their default orders."""
    def run():
        found = {name: run_identity(name, None, tables).status == "pass"
                 for name, (m, _, _) in IDENTITIES.items() if m == model}
        if model in ("oneface", "bip-oneface"):
            tab = tables[model]   # filled to the row the identity reads last
            found["ODE fill"] = oneface_ode_fill(model, max(tab.entries)[0]).entries == tab.entries
        return found
    return run


def slots(data):
    """(label, mapping, key) for every entry of a {key: value} table."""
    return [(f"[{key!r}]", data, key) for key in data]


def formula_data():
    """(name, its entries, the anchors that must see each mutant)."""
    tables = {"maps": MapsTable("cc").fill(10), "bipartite": BipTable().fill(12),
              "triangulations": TriTable().fill(3), "oneface": OneFaceTable().fill(8),
              "bip-oneface": BipOneFaceTable().fill(12)}
    out = [
        ("MapsCounts.SEEDS", slots(MapsCounts.SEEDS), scalar_anchors(MapsCounts, MAPS)),
        ("TriTable.SEEDS", slots(TriTable.SEEDS), scalar_anchors(TriTable, TRIANGULATIONS)),
        ("triangulations._BOUNDARY8", slots(triangulations._BOUNDARY8),
         scalar_anchors(TriTable, TRIANGULATIONS)),
        ("OneFaceTable.SEEDS", slots(OneFaceTable.SEEDS),
         oneface_anchors("oneface", OneFaceTable, 12)),
        ("BipOneFaceTable.SEEDS", slots(BipOneFaceTable.SEEDS),
         oneface_anchors("bip-oneface", BipOneFaceTable, 12)),
        ("MapsTable.SEEDS", slots(MapsTable.SEEDS),
         polynomial_anchors(lambda: MapsTable("cc"), MAPS, lambda: MapsTable("kz"), 8)),
        ("maps._BOUNDARY_KZ", slots(maps._BOUNDARY_KZ),
         polynomial_anchors(lambda: MapsTable("kz"), MAPS, lambda: MapsTable("cc"), 8)),
        ("BipTable.SEEDS", slots(BipTable.SEEDS),
         polynomial_anchors(BipTable, BIPARTITE, lambda: BipTable(v_is_u=True), 8)),
        ("bipartite._BOUNDARY", slots(bipartite._BOUNDARY),
         polynomial_anchors(BipTable, BIPARTITE, lambda: BipTable(v_is_u=True), 8)),
    ]
    for model, (_, _, consts, _) in identities._LOOP.items():
        out.append((f"identities._LOOP[{model!r}]", slots(consts),
                    identity_anchors(model, tables)))
    for model, row in identities._ODE.items():
        out.append((f"identities._ODE[{model!r}]", slots(row[-1]),
                    identity_anchors(model, tables)))
    for model, (rows, inhom) in identities._ONEFACE_ODE.items():
        entries = [slot for row in rows.values() for slot in slots(row)] + slots(inhom)
        out.append((f"identities._ONEFACE_ODE[{model!r}]", entries,
                    identity_anchors(model, tables)))
    return out


def failed_anchors(run) -> list:
    try:
        return [name for name, holds in run().items() if not holds]
    except (IntegralityError, NonDivisibleError):
        return ["exact division"]


def test_every_formula_constant_fails_an_anchor():
    data = formula_data()
    for name, _, run in data:
        assert failed_anchors(run) == [], name
    survivors, mutants = [], 0
    for name, entries, run in data:
        for label, mapping, key in entries:
            held = mapping[key]
            try:
                for new in bumped(held):
                    mapping[key] = new
                    mutants += 1
                    if not failed_anchors(run):
                        survivors.append(f"{name}{label}: {new}")
            finally:
                mapping[key] = held
    assert survivors == []
    assert mutants > 150
