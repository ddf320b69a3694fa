"""remlab benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 perfbench/run.py --workload quenched-sk --seed 0 --seconds 14 --trace 0

The workload runs repeatedly in one fresh worker process (worker.py) with
BLAS pinned to one thread and the CLI at threads = nproc. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
runs and prints the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A full record (the
environment, every run, gate failures and verdicts) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
BLAS_THREADS = 1

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
_LAYER_UNITS = ((".calls", "count"), (".self_s", "s"), (".mean", "count"),
                (".gflop_computed", "GFLOP"), (".gflops", "GFLOP/s"), ("_terms", "count"),
                ("_per_s", "1/s"), ("_frac", "ratio"))


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in _LAYER_UNITS if name.endswith(suffix))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Session:
    """Worker processes of one benchmark invocation, all bounded by one deadline."""

    def __init__(self, workload: str, size: str):
        self.workload = workload
        self.size = size
        self.start = time.perf_counter()
        self.env = child_env()

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _worker(self, *extra) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--size", self.size, *extra]
        return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(self.left(), 1.0))

    def probe(self) -> float:
        """Seconds from a fresh interpreter to remlab imported and configs built."""
        start = time.perf_counter()
        proc = self._worker("--probe")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        return elapsed

    def runs(self, seed: int, second_seed: int | None, seconds: float, trace: bool) -> dict:
        """Repeated runs at ``seed`` for ``seconds``, then one at ``second_seed``."""
        extra = ["--seed", str(seed), "--seconds", str(seconds), "--threads", str(nproc())]
        if second_seed is not None:
            extra += ["--second-seed", str(second_seed)]
        if trace:
            extra += ["--trace", "--spans-out", str(OUT / f"spans-{self.workload}-seed{seed}.json")]
        try:
            proc = self._worker(*extra)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"workload runs did not end within {DEADLINE_S:g} s") from None
        if proc.returncode != 0:
            raise SystemExit(f"worker failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_runs(steps, reps, pin, seed) -> None:
    """Attach gate failures to each run; the digest is checked at ``seed`` only."""
    digests = []
    for rep in reps:
        if not rep["ok"]:
            rep["failures"] = ["raised: " + rep["error"].strip().splitlines()[-1]]
            continue
        check_digest = digests if rep["seed"] == seed else None
        rep["failures"] = gate.check(steps, rep["outputs"], pin, rep["seed"], check_digest)
        if rep["seed"] == seed:
            digests.append(gate.digest(rep["outputs"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests; it has no pins")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**53:
        parser.error("--seed must lie in [0, 2^53)")
    if not (ROOT / "src" / "remlab" / "__init__.py").is_file():
        print(f"remlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    steps = workloads.steps(args.workload, args.size)
    pin = gate.load_pins()["workloads"].get(args.workload) if args.size == "full" else None
    session = Session(args.workload, args.size)

    setup = [] if args.trace else [session.probe() for _ in range(SETUP_PROBES)]
    second_seed = args.seed + 1 if workloads.seeded(steps) else None
    result = session.runs(args.seed, second_seed, args.seconds, bool(args.trace))
    reps = result["reps"]
    gate_runs(steps, reps, pin, args.seed)

    timed = [r for r in reps if r["ok"] and r["seed"] == args.seed]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("no successful run to measure:", reps[0].get("error", ""), file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in untraced)
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / wall - 1.0)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "items_per_s": result["items"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    failed = sum(1 for r in reps if r["failures"])

    environment = {
        "workload": args.workload, "seed": args.seed, "second_seed": second_seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "cli_threads": nproc(), "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(), "cli_seeds": timed[0]["cli_seeds"],
        "format_version": result["format_version"], "remlab": result["remlab"],
        **result["versions"],
    }
    record = {
        "environment": environment,
        "setup_s": setup,
        "runs": [{k: v for k, v in r.items() if k != "outputs"} for r in reps],
        "verdicts": gate.verdicts(timed[0]["outputs"]),
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(environment, sort_keys=True))
    for r in reps:
        for failure in r["failures"]:
            print(f"FAILED seed={r['seed']}: {failure}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        what = "replicas" if workloads.seeded(steps) else "quadrature grid terms"
        print(f"  items_per_s counts {what}; wall_s is the median of {len(untraced)} runs, "
              f"setup_s of {len(setup)} probes")
    print(f"  {'error_rate':44s} {failed / len(reps):>14.6g} ratio "
          f"({failed} of {len(reps)} runs failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
