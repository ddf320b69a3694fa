"""Config-driven experiment runner: simulate | theory | comb | gibbs.

Configs are flat ``key = value`` text (values in JSON syntax, bare words
allowed for strings); results are newline-delimited JSON records, one object
per line, each embedding the resolved config and a format version. Progress
goes to stderr; stdout carries data only. Exit codes: 0 success, 2 config
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import combinatorics as comb
from . import theory
from .core import delta_n
from .errors import NumericalError, UsageError
from .gibbs import pd_compare
from .models import CouplingDist, ModelSpec
from .pipeline import count_replicas, experiment_cloud
from .pointproc import (
    BorelWindow,
    CountVector,
    Normalization,
    factorial_moment,
    moment_ratio,
    poisson_gof,
    spacing_test,
)

FORMAT_VERSION = 1

_COMMANDS = ("simulate", "theory", "comb", "gibbs")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; round-trips through text."""

    command: str = "simulate"
    model: str = "rem"  # rem | npp | sk | pspin | mixture
    p: int = 3  # power for model = pspin
    mixture: list | None = None  # [[p, a_p], ...] for model = mixture
    coupling: str = "gaussian"
    sampler: str = "auto"
    n: int = 64
    m_rule: str = "fixed"  # fixed | sqrt | linear
    m: float = 10.0
    epsilon: float | None = None
    windows: list = field(default_factory=lambda: [[0.0, 1.0]])
    beta: float | None = None
    replicas: int = 1000
    seed: int = 0
    mode: str = "quenched"
    threads: int = 1
    max_ell: int = 3
    gof: bool = True
    spacing: bool = True
    # theory command
    theory_kind: str = "limit_scan"  # limit_scan | ratio_scan
    eps_values: list = field(default_factory=list)
    n_values: list = field(default_factory=list)
    ell: int = 2
    # comb command
    comb_kind: str = "rates"  # rates | counts | regimes | verify
    r_values: list = field(default_factory=list)
    triples: list = field(default_factory=list)
    # optional CSV table for theory scans
    csv_out: str | None = None

    def resolved_m(self) -> float:
        if self.m_rule == "fixed":
            return float(self.m)
        if self.epsilon is None:
            raise UsageError(f"m_rule={self.m_rule!r} requires epsilon")
        if self.m_rule == "sqrt":
            return float(self.epsilon) * math.sqrt(self.n)
        if self.m_rule == "linear":
            return float(self.epsilon) * self.n
        raise UsageError(f"unknown m_rule {self.m_rule!r}")

    def model_spec(self) -> ModelSpec:
        coupling = CouplingDist(self.coupling)
        if self.model == "rem":
            if self.coupling != "gaussian":
                raise UsageError("the rem model is Gaussian by definition")
            return ModelSpec(mixture=None, sampler_hint=self.sampler)
        if self.model == "npp":
            return ModelSpec(mixture=((1, 1.0),), coupling=coupling, sampler_hint=self.sampler)
        if self.model == "sk":
            return ModelSpec(mixture=((2, 1.0),), coupling=coupling, sampler_hint=self.sampler)
        if self.model == "pspin":
            return ModelSpec(mixture=((int(self.p), 1.0),), coupling=coupling,
                             sampler_hint=self.sampler)
        if self.model == "mixture":
            if not self.mixture:
                raise UsageError("model = mixture requires a mixture table")
            mix = tuple((int(p), float(a)) for p, a in self.mixture)
            return ModelSpec(mixture=mix, coupling=coupling, sampler_hint=self.sampler)
        raise UsageError(f"unknown model {self.model!r}")

    def window_objects(self) -> list:
        """Each entry is one window: [lo, hi], or a list of intervals for unions."""
        wins = []
        for entry in self.windows:
            if not entry:
                raise UsageError("field windows: empty window entry")
            if isinstance(entry[0], (list, tuple)):
                wins.append(BorelWindow(tuple(tuple(iv) for iv in entry)))
            else:
                wins.append(BorelWindow.single(entry[0], entry[1]))
        return wins

    def to_dict(self) -> dict:
        """Resolved config as embedded in every output record.

        The worker-thread count is operational, not part of the experiment's
        identity, and is dropped so outputs are byte-identical across
        --threads settings.
        """
        d = _jsonify(asdict(self))
        d.pop("threads")
        return d

    def to_text(self) -> str:
        lines = [f"{f.name} = {json.dumps(getattr(self, f.name))}" for f in fields(self)]
        return "\n".join(lines) + "\n"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; values are JSON, bare words are strings."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_value(value.strip(), f"config line {lineno}")
    return out


def _parse_value(text: str, where: str):
    if text == "":
        raise UsageError(f"{where}: empty value")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if all(ch.isalnum() or ch in "_-./+:~" for ch in text):
            return text  # bare word (names, paths)
        raise UsageError(f"{where}: cannot parse value {text!r}") from None


def build_config(command: str, file_values: dict, overrides: dict) -> ExperimentConfig:
    merged = dict(file_values)
    merged.update(overrides)
    merged["command"] = command
    valid = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - valid
    if unknown:
        raise UsageError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    cfg = ExperimentConfig(**merged)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.command not in _COMMANDS:
        raise UsageError(f"command must be one of {_COMMANDS}")
    if cfg.n < 1:
        raise UsageError("field n: must be a positive integer")
    if cfg.threads < 1:
        raise UsageError("field threads: must be >= 1")
    if cfg.mode not in ("quenched", "annealed"):
        raise UsageError("field mode: must be quenched or annealed")
    if cfg.seed < 0 or cfg.seed >= 2**64:
        raise UsageError("field seed: must fit in 64 bits")
    if cfg.command in ("simulate", "gibbs"):
        if cfg.replicas < 1:
            raise UsageError("field replicas: must be >= 1")
        m = cfg.resolved_m()
        if m < 2.0:
            raise UsageError(f"field m: resolved m={m:g} is below the normalization minimum 2")
        if m > cfg.n:
            raise UsageError(f"field m: resolved m={m:g} exceeds n={cfg.n}")
        cfg.model_spec()
    if cfg.command == "simulate":
        cfg.window_objects()
        if not 1 <= cfg.max_ell <= 3:
            raise UsageError("field max_ell: must be 1, 2, or 3")
    if cfg.command == "gibbs" and cfg.beta is None:
        raise UsageError("field beta: required for the gibbs command")


def _record(cfg: ExperimentConfig, kind: str, payload: dict) -> dict:
    rec = {"format_version": FORMAT_VERSION, "record": kind}
    rec.update(_jsonify(payload))
    rec["config"] = cfg.to_dict()
    return rec


def cmd_simulate(cfg: ExperimentConfig, progress: bool = False) -> list:
    """Monte Carlo pipeline: cloud, disorder replicas, counts, moments, tests."""
    spec = cfg.model_spec()
    m = cfg.resolved_m()
    norm = Normalization(m)
    windows = cfg.window_objects()
    cloud = experiment_cloud(cfg.n, m, cfg.seed)
    counts, pooled = count_replicas(
        spec, cloud, norm, windows, cfg.seed, cfg.replicas,
        mode=cfg.mode, threads=cfg.threads, collect_values=cfg.spacing,
        progress=progress,
    )
    gaussian = spec.coupling.kind == "gaussian"
    quenched = cfg.mode == "quenched"
    limits = _limit_factors(cfg, spec)
    records = []
    for wi, window in enumerate(windows):
        cv = CountVector(counts[:, wi])
        mu = theory.intensity_mu(window)
        p1 = theory.marginal_window_prob(norm, window)
        lam = len(cloud) * p1 if quenched else 2.0**m * p1
        sa = {}
        if gaussian and cfg.n <= theory._SEMIANALYTIC_MAX_N:
            sa[1] = theory.semianalytic_moment(spec, cfg.n, m, window, 1)
            sa[2] = theory.semianalytic_moment(spec, cfg.n, m, window, 2)
        if gaussian and cfg.n <= 32:
            sa[3] = theory.semianalytic_third_moment(spec, cfg.n, m, window)
        # what a quenched run actually estimates: moments conditional on the
        # realized cloud (the annealed reference differs at O(2^(-m/2)))
        cond = {}
        if quenched and gaussian:
            cond[1], cond[2] = theory.conditional_pair_moments(spec, cloud, norm, window)
        for ell in range(1, cfg.max_ell + 1):
            rep = factorial_moment(cv, ell)
            ref_sa = sa.get(ell)
            ref_for_verdict = cond.get(ell) if quenched else ref_sa
            records.append(_record(cfg, "moment", {
                "window": list(window.intervals),
                "ell": ell,
                "estimate": rep.estimate,
                "stderr": rep.stderr,
                "reference_semianalytic": ref_sa,
                "reference_conditional": cond.get(ell),
                "reference_asymptotic":
                    mu**ell * limits[ell - 1] if limits and ell < 3 else None,
                "within_3se": None if ref_for_verdict is None else bool(
                    abs(rep.estimate - ref_for_verdict) <= 3 * rep.stderr
                ),
            }))
        if np.any(counts[:, wi] > 0):
            ratio, ratio_se = moment_ratio(cv)
            records.append(_record(cfg, "ratio", {
                "window": list(window.intervals),
                "ratio": ratio,
                "stderr": ratio_se,
                "reference_semianalytic":
                    sa[2] / sa[1] ** 2 if 1 in sa and 2 in sa else None,
                "reference_conditional":
                    cond[2] / cond[1] ** 2 if 1 in cond and 2 in cond else None,
                "reference_asymptotic": _limit_ratio(limits),
                "within_3se_of_poisson": bool(abs(ratio - 1.0) <= 3 * ratio_se),
            }))
        if cfg.gof and cfg.replicas >= 1000:
            gof = poisson_gof(cv, lam)
            records.append(_record(cfg, "poisson_gof", {
                "window": list(window.intervals),
                "lambda": lam,
                "statistic": gof.statistic,
                "dof": gof.dof,
                "pvalue": gof.pvalue,
                "passed_1pct": gof.passed_1pct,
            }))
        if cfg.spacing and len(pooled[wi]) >= 200:
            sp = spacing_test(pooled[wi], window)
            records.append(_record(cfg, "spacing", {
                "window": list(window.intervals),
                "ks_distance": sp.ks_distance,
                "n_points": sp.n_points,
                "pvalue": sp.pvalue,
                "passed_1pct": sp.passed_1pct,
            }))
    records.append(_record(cfg, "cloud", {
        "size": len(cloud),
        "mean_size": 2.0**m,
        "delta_n_bound": delta_n(cfg.n, m),
    }))
    return records


def _limit_tag(cfg: ExperimentConfig, spec: ModelSpec):
    if spec.is_rem:
        return "rem", cfg.m_rule if cfg.m_rule != "fixed" else "sqrt"
    if spec.mixture is not None and len(spec.mixture) == 1:
        p = spec.mixture[0][0]
        if p == 1:
            return "npp", "sqrt"
        if p == 2:
            return "sk", "linear"
        return "pspin", "linear"
    return None, None


def _limit_factors(cfg: ExperimentConfig, spec: ModelSpec):
    """Limits of m1/mu(A) and m2/mu(A)^2, or None where no limit theorem applies."""
    tag, scaling = _limit_tag(cfg, spec)
    if tag is None:
        return None
    eps = float(cfg.epsilon if cfg.m_rule in ("sqrt", "linear") else 0.0)
    try:
        return tuple(theory.limit_constant(tag, scaling, eps, ell, c4=spec.coupling.c4).value
                     for ell in (1, 2))
    except UsageError:
        return None


def _limit_ratio(limits):
    return limits[1] / limits[0] ** 2 if limits else None


def _write_scan_csv(path: str, header: list, rows: list) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_theory(cfg: ExperimentConfig, progress: bool = False) -> list:
    """Semi-analytic scans: limit constants over eps, finite-n ratios over n."""
    records = []
    if cfg.theory_kind == "limit_scan":
        spec = cfg.model_spec()
        tag, scaling = _limit_tag(cfg, spec)
        if tag is None:
            raise UsageError("limit_scan needs a pure model (rem, npp, sk, pspin)")
        if not cfg.eps_values:
            raise UsageError("limit_scan needs eps_values")
        for eps in cfg.eps_values:
            pred = theory.limit_constant(tag, scaling, float(eps), cfg.ell,
                                         c4=spec.coupling.c4)
            records.append(_record(cfg, "limit_constant", {
                "model": tag, "scaling": scaling, "eps": eps,
                "ell": cfg.ell, "value": pred.value,
            }))
        if cfg.csv_out:
            _write_scan_csv(cfg.csv_out, ["eps", "value"],
                            [[r["eps"], r["value"]] for r in records])
        return records
    if cfg.theory_kind == "ratio_scan":
        spec = cfg.model_spec()
        if not cfg.n_values:
            raise UsageError("ratio_scan needs n_values")
        window = cfg.window_objects()[0]
        limit = _limit_ratio(_limit_factors(cfg, spec))
        for n in cfg.n_values:
            n = int(n)
            sub = ExperimentConfig(**{**asdict(cfg), "n": n})
            m = sub.resolved_m()
            m1 = theory.semianalytic_moment(spec, n, m, window, 1)
            m2 = theory.semianalytic_moment(spec, n, m, window, 2)
            if progress:
                print(f"ratio_scan n={n} done", file=sys.stderr)
            records.append(_record(cfg, "semianalytic_ratio", {
                "n": n, "m": m, "window": list(window.intervals),
                "m1": m1, "m2": m2, "ratio": m2 / m1**2,
                "limit": limit,
            }))
        if cfg.csv_out:
            _write_scan_csv(cfg.csv_out, ["n", "m", "m1", "m2", "ratio", "limit"],
                            [[r["n"], r["m"], r["m1"], r["m2"], r["ratio"], r["limit"]]
                             for r in records])
        return records
    raise UsageError(f"unknown theory_kind {cfg.theory_kind!r}")


def cmd_comb(cfg: ExperimentConfig, progress: bool = False) -> list:
    """Tabulate rate functions, exact counts, and regime labels; verify mode
    cross-checks the closed-form counts against brute-force censuses."""
    records = []
    n, m = cfg.n, float(cfg.m)
    if cfg.comb_kind == "rates":
        for r in cfg.r_values:
            records.append(_record(cfg, "rate", {"r": r, "j": comb.rate_j(float(r))}))
        for t in cfg.triples:
            trip = comb.TripleOverlap(*map(float, t))
            records.append(_record(cfg, "rate_triple", {"triple": list(t),
                                                        "j2": comb.rate_j2(trip)}))
        return records
    if cfg.comb_kind == "counts":
        for r in cfg.r_values:
            records.append(_record(cfg, "pair_count", {
                "n": n, "r": r,
                "count": comb.count_v2_exact(n, float(r)),
                "log_count": comb.log_count_v2(n, float(r)),
            }))
        for t in cfg.triples:
            trip = comb.TripleOverlap(*map(float, t))
            records.append(_record(cfg, "triple_count", {
                "n": n, "triple": list(t),
                "count": comb.count_w3_exact(n, trip),
                "ndelta": list(comb.solve_ndelta(n, trip)),
            }))
        return records
    if cfg.comb_kind == "regimes":
        for r in cfg.r_values:
            label = comb.classify_pair_regime(n, m, float(r))
            records.append(_record(cfg, "pair_regime", {
                "n": n, "m": m, "r": r, "label": label.label,
                "c1": label.c1, "c2": label.c2,
            }))
        for t in cfg.triples:
            trip = comb.TripleOverlap(*map(float, t))
            label = comb.classify_triple_regime(n, m, trip)
            records.append(_record(cfg, "triple_regime", {
                "n": n, "m": m, "triple": list(t), "label": label.label,
                "c1": label.c1, "c2": label.c2,
            }))
        return records
    if cfg.comb_kind == "verify":
        census = comb.brute_force_pair_census(n)
        pair_ok = all(
            comb.count_v2_exact(n, r) == c for r, c in census.items()
        ) and sum(census.values()) == 4**n
        payload = {"n": n, "pairs_matched": bool(pair_ok),
                   "pair_points": len(census)}
        if n <= 12:
            tcensus = comb.brute_force_triple_census(n)
            triple_ok = all(
                comb.count_w3_exact(n, comb.TripleOverlap(*key)) == c
                for key, c in tcensus.items()
            ) and sum(tcensus.values()) == 8**n
            payload.update({"triples_matched": bool(triple_ok),
                            "triple_points": len(tcensus)})
        records.append(_record(cfg, "verify", payload))
        return records
    raise UsageError(f"unknown comb_kind {cfg.comb_kind!r}")


def cmd_gibbs(cfg: ExperimentConfig, progress: bool = False) -> list:
    """Gibbs-weight power sums vs Poisson-Dirichlet moments."""
    spec = cfg.model_spec()
    m = cfg.resolved_m()
    cloud = experiment_cloud(cfg.n, m, cfg.seed)
    report = pd_compare(spec, cloud, float(cfg.beta), cfg.replicas, cfg.seed,
                        mode=cfg.mode, threads=cfg.threads)
    return [_record(cfg, "pd_compare", {
        "beta": report.beta,
        "m_pd": report.m_pd,
        "replicas": report.replicas,
        "sum_w2": report.sum_w2,
        "sum_w2_stderr": report.sum_w2_stderr,
        "sum_w3": report.sum_w3,
        "sum_w3_stderr": report.sum_w3_stderr,
        "pd_w2": report.pd_w2,
        "pd_w3": report.pd_w3,
    })]


_DISPATCH = {
    "simulate": cmd_simulate,
    "theory": cmd_theory,
    "comb": cmd_comb,
    "gibbs": cmd_gibbs,
}


def run(cfg: ExperimentConfig, progress: bool = False) -> str:
    """Run a command and return its NDJSON output as one string."""
    records = _DISPATCH[cfg.command](cfg, progress=progress)
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="remlab",
        description="Level statistics of random Hamiltonians on random clouds",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="64-bit experiment seed")
    parser.add_argument("--threads", type=int, help="worker threads for replica blocks")
    parser.add_argument("--out", help="output path for NDJSON records (default stdout)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field (repeatable)")
    parser.add_argument("--progress", action="store_true",
                        help="report progress on stderr")
    args = parser.parse_args(argv)

    try:
        file_values = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        overrides = {}
        for item in args.override:
            if "=" not in item:
                raise UsageError(f"--override expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            overrides[key.strip()] = _parse_value(value.strip(), f"--override {key}")
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.threads is not None:
            overrides["threads"] = args.threads
        cfg = build_config(args.command, file_values, overrides)
        output = run(cfg, progress=args.progress)
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
