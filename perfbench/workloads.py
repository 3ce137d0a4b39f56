"""Seeded request plans for the four benchmark workloads.

A plan is the list of CLI requests one pass sends, in order.  The seed
sets the request order, each request's output format and, for the cheap
requests only, the size within a small band.  The sizes that carry the
cost are fixed, so every seed asks for about the same amount of work and
seeds can be compared as repeats of one another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("table", "csv", "json")
WORKLOADS = ("tables-cold", "session-cache", "verify-deep", "oracle-scan")


@dataclass(frozen=True)
class Request:
    command: str            # CLI subcommand
    variant: tuple = ()     # flags that change what is computed
    n: int = 0              # size: --n-max, --order or --edges
    fmt: str = "table"
    cached: bool = False    # True: pass --cache <file of this pass>; False: --no-cache

    @property
    def family(self) -> tuple:
        return (self.command,) + self.variant

    def argv(self, cache_path: str | None) -> list[str]:
        if self.command == "verify":
            argv = ["verify", self.variant[0], "--order", str(self.n)]
        else:
            size_flag = "--edges" if self.command == "oracle" else "--n-max"
            argv = [self.command, size_flag, str(self.n), *self.variant]
        argv += ["--format", self.fmt]
        if self.command in ("verify", "oracle"):
            return argv   # these subcommands never touch the count cache
        return argv + (["--cache", cache_path] if self.cached else ["--no-cache"])

    def label(self) -> str:
        return " ".join(self.argv("CACHE"))


def covered(plan: list[Request]) -> list[bool]:
    """For each request, whether an earlier request of the same command and
    variant asked for an equal or larger size (a cache hit, if the cache works)."""
    seen: dict[tuple, int] = {}
    out = []
    for req in plan:
        top = seen.get(req.family)
        out.append(top is not None and top >= req.n)
        seen[req.family] = max(req.n, top or 0)
    return out


def _tables_cold(rng: random.Random) -> list[Request]:
    sizes = [("maps", 25), ("triangulations", 21),
             ("oneface", rng.randint(30, 36)), ("bip-oneface", rng.randint(15, 18))]
    rng.shuffle(sizes)
    return [Request(cmd, (), n, rng.choice(FORMATS)) for cmd, n in sizes]


_MAPS, _BIV, _BOTH = ("maps", ()), ("maps", ("--bivariate",)), ("maps", ("--engine", "both"))
_BIP, _TRI = ("bipartite", ()), ("bipartite", ("--trivariate",))

# Session rounds: sizes grow over the first rounds, later rounds repeat
# earlier requests at equal or smaller sizes.  The seed shuffles each
# round, so the cache holds about the same records at each point whatever
# the seed, and seeds stay comparable.
_ROUNDS = [
    [(_MAPS, 8), (_BIV, 8), (_BOTH, 9), (_TRI, 8), (_BIP, 10)],
    [(_MAPS, 10), (_BIV, 10), (_BOTH, 11), (_TRI, 9), (_BIP, 13)],
    [(_MAPS, 12), (_BIV, 13), (_TRI, 12), (_BIP, 11)],
    [(_MAPS, 14), (_BIV, 15), (_TRI, 13), (_BIP, 8)],
    [(_MAPS, 14), (_BIV, 13), (_BOTH, 10), (_TRI, 12), (_BIP, 12)],
    [(_MAPS, 9), (_BIV, 10), (_TRI, 9), (_BIP, 9)],
    [(_MAPS, 11), (_BIV, 8), (_TRI, 13)],
    [(_BIV, 12), (_TRI, 10)],
    [(_TRI, 11)],
]


def _session_cache(rng: random.Random) -> list[Request]:
    plan = []
    for round_ in _ROUNDS:
        round_ = list(round_)
        rng.shuffle(round_)
        # users run the scalar table before asking for the refinement; this
        # also fixes which refined rows the cache can hold (scalar row markers
        # block them), which would otherwise make seeds differ in cost
        families = [family for family, _ in round_]
        refined = [i for i, f in enumerate(families) if f in (_BIV, _BOTH)]
        if _MAPS in families and refined and refined[0] < families.index(_MAPS):
            round_.insert(refined[0], round_.pop(families.index(_MAPS)))
        plan += [Request(cmd, variant, n, rng.choice(FORMATS), cached=True)
                 for (cmd, variant), n in round_]
    return plan


def _verify_deep(rng: random.Random) -> list[Request]:
    orders = [("shifted-bkp1", 26), ("ode-maps", 24), ("ode-bipartite", 12),
              ("ode-triangulations", rng.randint(42, 48)),
              ("ode-oneface-maps", rng.randint(26, 30)),
              ("ode-oneface-bipartite", 24), ("fixed-charge", 18)]
    rng.shuffle(orders)
    return [Request("verify", (name,), n, rng.choice(FORMATS)) for name, n in orders]


def _oracle_scan(rng: random.Random) -> list[Request]:
    small = [Request("oracle", (), 1), Request("oracle", (), 2),
             Request("oracle", ("--filter", "bipartite"), 1),
             Request("oracle", ("--filter", "bipartite"), 2)]
    plan = rng.sample(small, 2) + [Request("oracle", (), 3)]
    rng.shuffle(plan)
    return [Request(r.command, r.variant, r.n, rng.choice(FORMATS)) for r in plan]


_PLANS = {
    "tables-cold": _tables_cold,
    "session-cache": _session_cache,
    "verify-deep": _verify_deep,
    "oracle-scan": _oracle_scan,
}


def plan(workload: str, seed: int) -> list[Request]:
    """The requests of one pass; the same seed always gives the same plan."""
    return _PLANS[workload](random.Random(f"{workload}:{seed}"))
