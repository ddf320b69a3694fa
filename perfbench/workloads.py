"""The benchmark's workloads: which remlab calls each one makes, at which size.

Every workload is a list of steps. A step is one ``remlab.cli`` command
(built with ``cli.build_config`` and run with ``cli.run``), or the SK third
moment at n=40, which the CLI does not compute (``cmd_simulate`` gates it to
n <= 32) and which is therefore called through ``remlab.theory``.

Seeds. A quenched run reuses one cloud of Poisson(2^m) size for every
replica, so its cost follows |X|. To keep the amount of work fixed while the
seed changes the randomness, each quenched step runs at the first CLI seed
``seed * SEED_STRIDE + j`` (j = 0, 1, ...) whose cloud lies within 1% of
2^m. Annealed steps run at the benchmark seed itself: they draw a new cloud
per replica, and the sizes average out. Theory and comb steps have no seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

SEED_STRIDE = 1000
SIZE_TOLERANCE = 0.01


@dataclass(frozen=True)
class Step:
    command: str  # simulate | theory | comb | gibbs | third_moment
    overrides: dict
    expect: dict  # record kind -> number of records

    @property
    def monte_carlo(self) -> bool:
        return self.command in ("simulate", "gibbs")

    @property
    def quenched(self) -> bool:
        return self.monte_carlo and self.overrides.get("mode") != "annealed"

    def items(self) -> int:
        """Work items completed: replicas, or quadrature grid terms for references."""
        if self.monte_carlo:
            return self.overrides["replicas"]
        if self.command == "third_moment":
            return math.comb(self.overrides["n"] + 3, 3)
        if self.command == "theory":
            return sum(self.overrides["n_values"])
        return 0


_SIM = {"moment": 3, "ratio": 1, "poisson_gof": 1, "spacing": 1, "cloud": 1}
_SIM_SMALL = {"moment": 3, "ratio": 1, "cloud": 1}


def _sk_ratio_scan(n_values):
    return Step("theory", dict(theory_kind="ratio_scan", model="sk", m_rule="linear",
                               epsilon=0.1, n_values=n_values),
                {"semianalytic_ratio": len(n_values)})


def _npp_ratio_scan(n_values):
    return Step("theory", dict(theory_kind="ratio_scan", model="npp", m_rule="sqrt",
                               epsilon=1.0, n_values=n_values),
                {"semianalytic_ratio": len(n_values)})


WORKLOADS = {
    "quenched-sk": {
        "full": [Step("simulate", dict(model="sk", n=2000, m=10, replicas=60000,
                                       mode="quenched"), _SIM)],
        "tiny": [Step("simulate", dict(model="sk", n=200, m=6, replicas=1200,
                                       mode="quenched"), _SIM)],
    },
    "annealed-sk": {
        "full": [Step("simulate", dict(model="sk", n=24, m=6, replicas=6000,
                                       mode="annealed", max_ell=3), _SIM)],
        "tiny": [Step("simulate", dict(model="sk", n=20, m=5, replicas=1000,
                                       mode="annealed", max_ell=3), _SIM)],
    },
    "explicit-gibbs": {
        "full": [
            Step("simulate", dict(model="sk", coupling="laplace", n=256, m=6, replicas=400,
                                  mode="quenched"), _SIM_SMALL),
            Step("gibbs", dict(model="rem", n=64, m=14, beta=2.35482, replicas=2000,
                               mode="quenched"), {"pd_compare": 1}),
        ],
        "tiny": [
            Step("simulate", dict(model="sk", coupling="laplace", n=64, m=5, replicas=100,
                                  mode="quenched"), _SIM_SMALL),
            Step("gibbs", dict(model="rem", n=32, m=8, beta=2.35482, replicas=100,
                               mode="quenched"), {"pd_compare": 1}),
        ],
    },
    "reference": {
        "full": [
            Step("third_moment", dict(n=40, m=3, window=[0.0, 1.0]), {"third_moment": 1}),
            _sk_ratio_scan([200, 400, 800]),
            _npp_ratio_scan([100, 400, 1600, 4000]),
            Step("comb", dict(comb_kind="verify", n=12), {"verify": 1}),
        ],
        "tiny": [
            Step("third_moment", dict(n=12, m=3, window=[0.0, 1.0]), {"third_moment": 1}),
            _sk_ratio_scan([50, 100]),
            _npp_ratio_scan([100]),
            Step("comb", dict(comb_kind="verify", n=8), {"verify": 1}),
        ],
    },
}


def steps(workload: str, size: str = "full") -> list:
    return WORKLOADS[workload][size]


def seeded(workload_steps) -> bool:
    """Whether the workload's output depends on the seed."""
    return any(step.monte_carlo for step in workload_steps)


def cli_seeds(workload_steps, seed: int) -> list:
    """CLI seed for each step (None where the step takes no seed)."""
    from remlab.pipeline import experiment_cloud

    out = []
    for step in workload_steps:
        if not step.monte_carlo:
            out.append(None)
        elif not step.quenched:
            out.append(seed)
        else:
            n, m = step.overrides["n"], step.overrides["m"]
            target = 2.0**m
            for j in range(SEED_STRIDE):
                candidate = seed * SEED_STRIDE + j
                if abs(len(experiment_cloud(n, m, candidate)) - target) <= SIZE_TOLERANCE * target:
                    out.append(candidate)
                    break
            else:
                raise RuntimeError(f"no cloud of size 2^{m} +- 1% among {SEED_STRIDE} seeds")
    return out


def execute(workload_steps, seeds, threads: int) -> list:
    """Run the steps through remlab; return each step's NDJSON text."""
    from remlab import cli, theory
    from remlab.models import ModelSpec
    from remlab.pointproc import BorelWindow

    outputs = []
    for step, seed in zip(workload_steps, seeds):
        if step.command == "third_moment":
            o = step.overrides
            value = theory.semianalytic_third_moment(
                ModelSpec.sk(), o["n"], o["m"], BorelWindow.single(*o["window"]))
            record = {"format_version": cli.FORMAT_VERSION, "record": "third_moment",
                      "model": "sk", "n": o["n"], "m": o["m"], "window": o["window"],
                      "value": value}
            outputs.append(json.dumps(record, sort_keys=True) + "\n")
            continue
        overrides = dict(step.overrides)
        if step.monte_carlo:
            overrides.update(seed=seed, threads=threads)
        outputs.append(cli.run(cli.build_config(step.command, {}, overrides)))
    return outputs
