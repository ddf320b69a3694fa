"""Runs of one workload in one fresh process; prints one JSON result line.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src`` and
BLAS pinned to one thread. The worker repeats the workload at ``--seed``
until ``--seconds`` have passed (traced and untraced runs alternating with
``--trace``), then runs it once at ``--second-seed`` for the gate. ``--probe``
only imports remlab and builds the workload's CLI configs, so that run.py can
time set-up from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def probe(workload: str) -> None:
    from remlab import cli

    for step in workloads.steps(workload):
        if step.command != "third_moment":
            cli.build_config(step.command, {}, step.overrides)


def run_once(steps, seed: int, plans: dict, threads: int, traced: bool,
             spans_out: str | None) -> dict:
    """One run of the steps; a raised exception is a result the gate counts.

    ``plans`` caches the CLI seeds of each benchmark seed across runs.
    """
    rep = {"seed": seed, "traced": traced}
    try:
        if seed not in plans:
            plans[seed] = workloads.cli_seeds(steps, seed)
        seeds = rep["cli_seeds"] = plans[seed]
        tracer = None
        if traced:
            import spans

            tracer = spans.Tracer()
            tracer.install(spans.patch_table())
        try:
            start = time.perf_counter()
            rep["outputs"] = workloads.execute(steps, seeds, threads)
            rep["wall_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
    except Exception:
        rep.update(ok=False, error=traceback.format_exc())
        return rep
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics()
        if spans_out:
            tracer.write(spans_out)
    rep["ok"] = True
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--second-seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", help="write the spans of the last traced run here")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload)
        return 0

    import remlab
    from remlab import cli

    steps = workloads.steps(args.workload, args.size)
    reps, plans = [], {}
    start = time.perf_counter()
    while len(reps) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        traced = args.trace and len(reps) % 2 == 1
        reps.append(run_once(steps, args.seed, plans, args.threads, traced, args.spans_out))
        if len(reps) == 1:
            # the peak of one CLI invocation; later runs only add allocator reuse
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.second_seed is not None:
        reps.append(run_once(steps, args.second_seed, plans, args.threads, False, None))
    print(json.dumps({
        "reps": reps,
        "items": sum(step.items() for step in steps),
        "peak_rss_mb": peak_rss_mb,
        "format_version": cli.FORMAT_VERSION,
        "remlab": remlab.__version__,
        "versions": _versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
