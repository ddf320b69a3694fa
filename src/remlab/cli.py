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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import combinatorics as comb
from . import theory
from .core import check_cloud, delta_n
from .errors import NumericalError, UsageError
from .gibbs import pd_compare
from .models import CouplingDist, ModelSpec
from .pipeline import count_replicas, experiment_cloud
from .pointproc import (
    SQRT_2LOG2,
    BorelWindow,
    CountVector,
    Normalization,
    factorial_moment,
    gof_defined,
    intensity_mu,
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
        if self.model in ("npp", "sk", "pspin"):
            p = {"npp": 1, "sk": 2}.get(self.model) or int(self.p)
            return ModelSpec.pure(p, self.coupling, self.sampler)
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
    """Plain JSON values: numpy scalars and arrays unpacked, non-finite floats as None."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _list_of(accepts, size=None):
    return lambda v: isinstance(v, list) and size in (None, len(v)) and all(map(accepts, v))


_INTERVAL = _list_of(_is_number, 2)

# What a field accepts: by name for the lists whose entries the commands
# convert, else by annotation. Nothing is converted, so the embedded config
# echoes the input.
_ACCEPTS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "windows": (_list_of(lambda e: _INTERVAL(e) or e != [] and _list_of(_INTERVAL)(e)),
                "a list of entries [lo, hi] or [[lo, hi], ...]"),
    "mixture": (_list_of(lambda e: _INTERVAL(e) and _is_int(e[0])),
                "a list of [p, a_p] with an integer p"),
    "eps_values": (_list_of(_is_number), "a list of finite numbers"),
    "r_values": (_list_of(_is_number), "a list of finite numbers"),
    "n_values": (_list_of(lambda v: _is_int(v) and v >= 1), "a list of positive integers"),
    "triples": (_list_of(_list_of(_is_number, 3)), "a list of [r12, r23, r31]"),
}


def _check_types(values: dict) -> None:
    for f in fields(ExperimentConfig):
        kind, _, optional = f.type.partition(" | ")
        accepts, expected = _ACCEPTS.get(f.name) or _ACCEPTS[kind]
        value = values.get(f.name)
        if f.name in values and not (value is None and optional) and not accepts(value):
            raise UsageError(f"field {f.name}: expected {expected}, got {value!r}")


def build_config(command: str, file_values: dict, overrides: dict) -> ExperimentConfig:
    merged = dict(file_values)
    merged.update(overrides)
    merged["command"] = command
    valid = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - valid
    if unknown:
        raise UsageError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    _check_types(merged)
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
    if cfg.m_rule not in ("fixed", "sqrt", "linear"):
        raise UsageError("field m_rule: must be fixed, sqrt or linear")
    if cfg.command in ("simulate", "gibbs"):
        if cfg.replicas < 2:
            raise UsageError("field replicas: must be >= 2 for a standard error")
        if cfg.replicas >= 2**32 - 1:
            # an annealed replica r seeds its cloud at index r + 1, one 32-bit word
            raise UsageError("field replicas: must be below 2^32 - 1")
        _check_m(cfg.resolved_m(), cfg.n)
        check_cloud(cfg.n, cfg.resolved_m())
        cfg.model_spec()
    if cfg.command == "simulate":
        cfg.window_objects()
        if not 1 <= cfg.max_ell <= 3:
            raise UsageError("field max_ell: must be 1, 2, or 3")
    if cfg.command == "gibbs" and (cfg.beta is None or not cfg.beta > SQRT_2LOG2):
        raise UsageError(f"field beta: the gibbs command requires beta > sqrt(2 log 2) = "
                         f"{SQRT_2LOG2:.6f}, got {cfg.beta}")
    if cfg.command == "theory" and cfg.theory_kind == "ratio_scan":
        if len(cfg.windows) != 1:
            raise UsageError("field windows: ratio_scan takes exactly one window")
        for n in cfg.n_values:
            _check_m(replace(cfg, n=n).resolved_m(), n)
    if cfg.command == "comb" and cfg.comb_kind == "counts":
        # a pair count is at most 4^n and a triple count at most 8^n; JSON
        # cannot write an int longer than Python's int-to-str digit limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        for base, asked in ((4, cfg.r_values), (8, cfg.triples)):
            if limit and asked and cfg.n * math.log10(base) >= limit:
                raise UsageError(f"field n: an exact count at n={cfg.n} could exceed "
                                 f"Python's {limit}-digit int-to-str limit")


def _check_m(m: float, n: int) -> None:
    if m < 2.0:
        raise UsageError(f"field m: resolved m={m:g} is below the normalization minimum 2")
    if m > n:
        raise UsageError(f"field m: resolved m={m:g} exceeds n={n}")


def _record(cfg: ExperimentConfig, kind: str, payload: dict) -> dict:
    return {"format_version": FORMAT_VERSION, "record": kind, **_jsonify(payload),
            "config": cfg.to_dict()}


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
    quenched = cfg.mode == "quenched"
    limits = theory.limit_factors(spec, cfg.m_rule, cfg.epsilon)
    refs = theory.simulate_references(spec, cloud, norm, windows, cfg.n, quenched, cfg.max_ell)
    records = []
    for wi, window in enumerate(windows):
        cv = CountVector(counts[:, wi])
        win = list(window.intervals)
        mu = intensity_mu(window)
        p1 = theory.marginal_window_prob(norm, window)
        lam = len(cloud) * p1 if quenched else 2.0**m * p1
        sa, cond = refs[wi]
        for ell in range(1, cfg.max_ell + 1):
            rep = factorial_moment(cv, ell)
            ref_for_verdict = (cond if quenched else sa).get(ell)
            records.append(_record(cfg, "moment", {
                "window": win,
                "ell": ell,
                **asdict(rep),
                "reference_semianalytic": sa.get(ell),
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
                "window": win,
                "ratio": ratio,
                "stderr": ratio_se,
                "reference_semianalytic":
                    sa[2] / sa[1] ** 2 if 1 in sa and 2 in sa else None,
                "reference_conditional":
                    cond[2] / cond[1] ** 2 if 1 in cond and 2 in cond else None,
                "reference_asymptotic": _limit_ratio(limits),
                "within_3se_of_poisson": bool(abs(ratio - 1.0) <= 3 * ratio_se),
            }))
        if cfg.gof and gof_defined(cv, lam):
            records.append(_record(cfg, "poisson_gof", {
                "window": win, "lambda": lam, **asdict(poisson_gof(cv, lam)),
            }))
        if cfg.spacing and len(pooled[wi]) >= 200:
            records.append(_record(cfg, "spacing", {
                "window": win, **asdict(spacing_test(pooled[wi], window)),
            }))
    records.append(_record(cfg, "cloud", {
        "size": len(cloud),
        "mean_size": 2.0**m,
        "delta_n_bound": delta_n(cfg.n, m),
    }))
    return records


def _limit_ratio(limits):
    return limits[1] / limits[0] ** 2 if limits else None


def _write_scan_csv(path: str, header: list, records: list) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([rec[key] for key in header] for rec in records)


def cmd_theory(cfg: ExperimentConfig, progress: bool = False) -> list:
    """Semi-analytic scans: limit constants over eps, finite-n ratios over n."""
    records = []
    if cfg.theory_kind == "limit_scan":
        spec = cfg.model_spec()
        if not cfg.eps_values:
            raise UsageError("limit_scan needs eps_values")
        if spec.is_rem or len(spec.mixture) == 1:
            # a pure model keeps limit_constant's tag and its theorem's scaling (REM: the run's)
            p = 0 if spec.is_rem else spec.mixture[0][0]
            model = {0: "rem", 1: "npp", 2: "sk"}.get(p, "pspin")
            scaling = {0: cfg.m_rule.replace("fixed", "sqrt"), 1: "sqrt"}.get(p, "linear")
            value = lambda e: theory.limit_constant(model, scaling, e, cfg.ell, spec.coupling.c4)
        else:
            if cfg.m_rule not in ("sqrt", "linear") or cfg.ell not in (1, 2):
                raise UsageError("limit_scan of a mixture needs m_rule sqrt or linear, ell 1 or 2")
            model, scaling = "mixture", cfg.m_rule
            value = lambda e: (theory.limit_factors(spec, scaling, e) or (None,) * 2)[cfg.ell - 1]
        for eps in cfg.eps_values:
            records.append(_record(cfg, "limit_constant", {
                "model": model, "scaling": scaling, "eps": eps, "ell": cfg.ell,
                "value": value(float(eps)),
            }))
        if cfg.csv_out:
            _write_scan_csv(cfg.csv_out, ["eps", "value"], records)
        return records
    if cfg.theory_kind == "ratio_scan":
        spec = cfg.model_spec()
        if not cfg.n_values:
            raise UsageError("ratio_scan needs n_values")
        window = cfg.window_objects()[0]
        limit = _limit_ratio(theory.limit_factors(spec, cfg.m_rule, cfg.epsilon))
        for n in cfg.n_values:
            m = replace(cfg, n=n).resolved_m()
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
            _write_scan_csv(cfg.csv_out, ["n", "m", "m1", "m2", "ratio", "limit"], records)
        return records
    raise UsageError(f"unknown theory_kind {cfg.theory_kind!r}")


def cmd_comb(cfg: ExperimentConfig, progress: bool = False) -> list:
    """Tabulate rate functions, exact counts, and regime labels; verify mode
    cross-checks the closed-form counts against brute-force censuses."""
    records = []
    n = cfg.n
    trips = [(t, tuple(map(float, t))) for t in cfg.triples]
    if cfg.comb_kind == "rates":
        for r in cfg.r_values:
            records.append(_record(cfg, "rate", {"r": r, "j": comb.rate_j(float(r))}))
        for t, trip in trips:
            records.append(_record(cfg, "rate_triple", {"triple": t, "j2": comb.rate_j2(*trip)}))
        return records
    if cfg.comb_kind == "counts":
        for r in cfg.r_values:
            records.append(_record(cfg, "pair_count", {
                "n": n, "r": r,
                "count": comb.count_v2_exact(n, float(r)),
                "log_count": comb.log_count_v2(n, float(r)),
            }))
        for t, trip in trips:
            records.append(_record(cfg, "triple_count", {
                "n": n, "triple": t,
                "count": comb.count_w3_exact(n, trip),
                "ndelta": list(comb.solve_ndelta(n, trip)),
            }))
        return records
    if cfg.comb_kind == "regimes":
        m = cfg.resolved_m()
        for r in cfg.r_values:
            label = comb.classify_pair_regime(n, m, float(r))
            records.append(_record(cfg, "pair_regime", {"n": n, "m": m, "r": r, **asdict(label)}))
        for t, trip in trips:
            label = comb.classify_triple_regime(n, m, trip)
            records.append(_record(cfg, "triple_regime", {
                "n": n, "m": m, "triple": t, **asdict(label),
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
                comb.count_w3_exact(n, key) == c
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
    return [_record(cfg, "pd_compare", asdict(report))]


_DISPATCH = {
    "simulate": cmd_simulate,
    "theory": cmd_theory,
    "comb": cmd_comb,
    "gibbs": cmd_gibbs,
}


def run(cfg: ExperimentConfig, progress: bool = False) -> str:
    """Run a command and return its NDJSON output as one string."""
    records = _DISPATCH[cfg.command](cfg, progress=progress)
    return "".join(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n" for rec in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="remlab",
        description="Level statistics of random Hamiltonians on random clouds",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="64-bit experiment seed")
    parser.add_argument("--threads", type=int,
                        help="worker threads for quenched replica blocks, at most the usable "
                             "CPUs (annealed runs use one)")
    parser.add_argument("--out", help="output path for NDJSON records (default stdout)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field (repeatable)")
    parser.add_argument("--progress", action="store_true",
                        help="report progress on stderr")
    args = parser.parse_args(argv)

    try:
        file_values = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"--config {args.config}: {exc}") from None
            file_values = parse_config_text(text)
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
