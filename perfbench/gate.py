"""Correctness gate for one workload run, and the pins it compares against.

A run fails when any of these holds:
  * it raised, or its record kinds or counts differ from the workload's;
  * a non-null ``within_3se`` is false;
  * a reference value differs from its pinned value by more than rel 1e-9
    (the node-doubling tolerance of the quadrature);
  * the NDJSON sha256 differs from the pinned digest while every record's
    ``format_version`` still equals the pinned one. A declared stream change
    bumps ``FORMAT_VERSION`` and so still passes. At a seed with no pinned
    digest, every run of one invocation must give the same digest.

The Poisson goodness-of-fit, spacing and Poisson-Dirichlet verdicts are
reported, not gated: at these finite sizes they fail for physical reasons.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")
REL_TOL = 1e-9

# Reference fields by record kind, besides every "reference_*" field.
_REFERENCE_FIELDS = {
    "semianalytic_ratio": ("m1", "m2", "ratio", "limit"),
    "third_moment": ("value",),
    "verify": ("pairs_matched", "pair_points", "triples_matched", "triple_points"),
    "pd_compare": ("pd_w2", "pd_w3"),
    "cloud": ("delta_n_bound",),
}
# References that depend on the realized cloud, hence on the seed.
_SEED_DEPENDENT = ("reference_conditional",)


def digest(outputs) -> str:
    return hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest()


def parse(outputs) -> list:
    """Records of each step: a list of lists of dicts."""
    return [[json.loads(line) for line in text.splitlines()] for text in outputs]


def reference_values(step_records) -> tuple:
    """(seed-independent, seed-dependent) reference values keyed by location."""
    fixed, seeded = {}, {}
    for step, records in enumerate(step_records):
        for rec in records:
            kind = rec["record"]
            names = [k for k in rec if k.startswith("reference_")]
            names += [k for k in _REFERENCE_FIELDS.get(kind, ()) if k in rec]
            for name in names:
                key = f"{step}/{kind}/ell={rec.get('ell')}/n={rec.get('n')}/{name}"
                (seeded if name in _SEED_DEPENDENT else fixed)[key] = rec[name]
    return fixed, seeded


def _mismatch(got, pinned) -> bool:
    if isinstance(pinned, bool) or pinned is None or isinstance(got, bool) or got is None:
        return got != pinned
    return not math.isclose(got, pinned, rel_tol=REL_TOL, abs_tol=0.0)


def check(workload_steps, outputs, pin, seed, run_digests=()) -> list:
    """Failure reasons for one run (empty when it passes).

    ``pin`` is the workload's entry in pins.json, or None (no pins, as for the
    tiny size the tests use). ``run_digests`` are the digests of earlier runs
    at the same seed in this invocation; None skips the digest check.
    """
    failures = []
    step_records = parse(outputs)
    for i, (step, records) in enumerate(zip(workload_steps, step_records)):
        kinds = dict(Counter(rec["record"] for rec in records))
        if kinds != step.expect:
            failures.append(f"step {i}: record kinds {kinds}, expected {step.expect}")
        for rec in records:
            if rec.get("within_3se") is False:
                failures.append(f"step {i}: {rec['record']} ell={rec.get('ell')} "
                                f"is not within 3 SE of its reference")
    pinned = pin is not None and pin["digest_seed"] in (None, seed) and all(
        rec["format_version"] == pin["format_version"]
        for records in step_records for rec in records)
    fixed, seeded = reference_values(step_records)
    checks = [(pin["values"] if pin else {}, fixed)]
    if pinned:
        checks.append((pin["seed_values"], seeded))
    for values, got in checks:
        for key, value in values.items():
            if key not in got:
                failures.append(f"reference {key} missing")
            elif _mismatch(got[key], value):
                failures.append(f"reference {key} = {got[key]!r}, pinned {value!r}")
    if run_digests is not None:
        sha = digest(outputs)
        if pinned and sha != pin["sha256"]:
            failures.append(f"NDJSON sha256 {sha} differs from pinned {pin['sha256']}")
        elif not pinned and any(sha != d for d in run_digests):
            failures.append("NDJSON differs between runs of the same seed")
    return failures


def verdicts(outputs) -> list:
    """Statistical verdicts that are reported but not gated."""
    out = []
    for records in parse(outputs):
        for rec in records:
            kind = rec["record"]
            if kind in ("poisson_gof", "spacing"):
                out.append({"record": kind, "pvalue": rec["pvalue"],
                            "passed_1pct": rec["passed_1pct"]})
            elif kind == "ratio":
                out.append({"record": kind, "ratio": rec["ratio"],
                            "within_3se_of_poisson": rec["within_3se_of_poisson"]})
            elif kind == "pd_compare":
                out.append({"record": kind, **{
                    f"w{k}_within_3se_of_pd": abs(rec[f"sum_w{k}"] - rec[f"pd_w{k}"])
                    <= 3 * rec[f"sum_w{k}_stderr"] for k in (2, 3)}})
    return out


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def make_pin(outputs, seed, seeded: bool, format_version: int) -> dict:
    """Pin entry for a workload from one run's outputs at ``seed``."""
    fixed, seed_values = reference_values(parse(outputs))
    return {"format_version": format_version, "digest_seed": seed if seeded else None,
            "sha256": digest(outputs), "values": fixed, "seed_values": seed_values}
