"""surfcount benchmark: seeded CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload session-cache --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  One process, no threads, one client in a closed loop: each CLI
request goes in-process through surfcount.cli.main and starts after the
previous one has finished.  A pass sends the workload's whole plan; the
run repeats passes until --seconds of passes are spent and reports
medians.  Every output is checked against its anchor after the pass,
outside the timed region.

Reported seconds are seconds at a fixed reference speed (see probe.py);
the raw figures go to the result file beside them.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1,
untraced passes for half the budget are followed by one traced pass, and
the last line holds the per-layer metrics (see layers.py).  Results, with
provenance, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from probe import REF_S, SpeedProbe, sample  # noqa: E402
from workloads import WORKLOADS, covered, plan as make_plan  # noqa: E402

SETUP_REPEATS = 9


@dataclass
class Outcome:
    request: object
    code: int | None
    out: str
    err: str
    error: str | None
    raw_s: float
    scale: float        # reference speed / measured speed around the request

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


def invoke(cli, argv, tracer=None):
    """One CLI request in-process; returns (exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        return cli.main.main(args=argv, prog_name="surfcount", standalone_mode=False)

    code, error = 0, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            tracer.request(call) if tracer else call()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a failed request is counted; the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), error


def run_pass(cli, requests, workdir: Path, probe, tracer=None, layer_s=None) -> list[Outcome]:
    """Send every request once against a fresh cache file."""
    cache_dir = Path(tempfile.mkdtemp(dir=workdir))
    cache_path = str(cache_dir / "counts.ndjson")
    outcomes = []
    with probe:
        for req in requests:
            snapshot = Counter(tracer.self_ns) if tracer else None
            mark = probe.mark()
            code, out, err, error = invoke(cli, req.argv(cache_path), tracer)
            raw, scale = probe.measure(mark)
            outcomes.append(Outcome(req, code, out, err, error, raw, scale))
            if tracer:
                tracer.counts["cli.output_bytes"] += len(out.encode())
                for key, ns in (tracer.self_ns - snapshot).items():
                    layer_s[key] += ns * 1e-9 * scale
    shutil.rmtree(cache_dir)
    return outcomes


class Checker:
    """Runs the anchors on a pass's outputs; for cached requests also
    compares the output with that of the same request run without a cache."""

    def __init__(self, cli):
        from anchors import Anchors

        self.cli = cli
        self.anchors = Anchors(ROOT)
        self.cold: dict[tuple, int] = {}   # str hashes (stable within a process)
        self.problems: list[str] = []

    def failed(self, o: Outcome) -> bool:
        label = o.request.label()
        if o.error or o.code != 0:
            self.problems.append(f"{label}: exit {o.code} {o.error or o.err.strip()}")
            return True
        try:
            problems = self.anchors.check(o.request, o.out)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"unparsable output ({type(exc).__name__}: {exc})"]
        if o.request.cached and not problems and hash(o.out) != self._cold(o.request):
            problems = ["output differs from the same request without a cache"]
        self.problems += [f"{label}: {p}" for p in problems]
        return bool(problems)

    def _cold(self, req) -> int:
        cold = replace(req, cached=False)
        key = tuple(cold.argv(None))
        if key not in self.cold:
            self.cold[key] = hash(invoke(self.cli, list(key))[1])
        return self.cold[key]


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import surfcount.cli, each scaled by
    probe samples taken just before and after it (the probe's timer is off:
    its kernel would compete with the child for the cores)."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import surfcount.cli"
    argv = [sys.executable, "-c", code, str(ROOT / "src")]
    subprocess.run(argv, check=True)   # compiles bytecode; not timed
    samples = []
    cal_before = sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        raw = time.perf_counter() - start
        cal_after = sample()
        samples.append(raw * REF_S / ((cal_before + cal_after) / 2))
        cal_before = cal_after
    return samples


def provenance(workload, seed, requests) -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--", "src") if sha else None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha, "src_dirty": None if status is None else bool(status),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "workload": workload, "seed": seed,
        "requests": [r.label() for r in requests],
    }


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def pass_times(outcomes, hits) -> dict:
    return {
        "wall_s": sum(o.seconds for o in outcomes),
        "raw_wall_s": sum(o.raw_s for o in outcomes),
        "miss_s": sum(o.seconds for o, hit in zip(outcomes, hits) if not hit),
        "hit_s": sum(o.seconds for o, hit in zip(outcomes, hits) if hit),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record (also written to out/)."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # never the user's cache, in this process or the set-up children
    os.environ["XDG_CACHE_HOME"] = str(workdir / "xdg")
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, workdir) -> dict:
    from surfcount import cli

    requests = make_plan(workload, seed)
    hits = covered(requests)
    checker = Checker(cli)
    probe = SpeedProbe()
    attempted = failed = 0
    setup = [] if trace else measure_setup()

    def one_pass(tracer=None, layer_s=None):
        nonlocal attempted, failed
        start = time.perf_counter()
        outcomes = run_pass(cli, requests, workdir, probe, tracer, layer_s)
        spent = time.perf_counter() - start
        attempted += len(outcomes)
        failed += sum(checker.failed(o) for o in outcomes)
        return pass_times(outcomes, hits), spent

    budget = seconds / 2 if trace else seconds
    passes, spent = [], 0.0
    while True:
        times, pass_s = one_pass()
        passes.append(times)
        spent += pass_s
        if spent + pass_s > budget:
            break

    summary = {key: quartiles([p[key] for p in passes]) for key in passes[0]}
    summary["scale"] = quartiles([p["wall_s"] / p["raw_wall_s"] for p in passes])
    result = {"provenance": provenance(workload, seed, requests), "trace": trace,
              "passes": passes, "summary": summary}

    if trace:
        from layers import METRICS, Tracer

        tracer, layer_s = Tracer(probe.paused), Counter()
        tracer.install()
        try:
            traced, _ = one_pass(tracer, layer_s)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(layer_s)
        metrics["trace.overhead_ratio"] = traced["wall_s"] / summary["wall_s"]["median"]
        metrics["session.miss_s"] = summary["miss_s"]["median"]
        metrics["session.hit_s"] = summary["hit_s"]["median"]
        units = {name: unit for name, unit, _ in METRICS}
        result["traced_pass"] = traced
        result["spans"] = len(tracer.spans)
        _write(f"spans-{workload}-s{seed}.json",
               {"fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
                "spans": tracer.spans})
    else:
        summary["setup_s"] = quartiles(setup)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": summary["wall_s"]["median"],
                   "setup_s": summary["setup_s"]["median"], "peak_rss_mib": rss_mib}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

    result.update({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "problems": checker.problems[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    _write(f"{workload}-s{seed}-t{int(trace)}.json", result)
    return result


def _write(name, data):
    with open(OUT / name, "w") as fh:
        json.dump(data, fh, indent=1)


def report(result) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    p, s = result["provenance"], result["summary"]
    ops, failed = result["attempted"], result["failed"]
    print(f"workload {p['workload']}  seed {p['seed']}  trace {int(result['trace'])}  "
          f"passes {len(result['passes'])}  ops {ops}  failed {failed}  "
          f"error_rate {failed / ops:.4f}")
    for key, unit in (("wall_s", "s"), ("miss_s", "s"), ("hit_s", "s"),
                      ("setup_s", "s"), ("raw_wall_s", "s"), ("scale", "x")):
        if key in s:
            q = s[key]
            print(f"  {key:<12} median {q['median']:.4f} {unit}  "
                  f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n {q['n']}")
    for name, m in result["metrics"].items():
        if name not in s:
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "surfcount" / "cli.py").is_file():
        print(f"no surfcount sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
