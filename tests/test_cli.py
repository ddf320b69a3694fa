import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remlab.cli import (
    _jsonify,
    build_config,
    cmd_comb,
    cmd_gibbs,
    cmd_simulate,
    cmd_theory,
    main,
    parse_config_text,
    run,
)
from remlab.errors import NumericalError, UsageError
from remlab.pointproc import BorelWindow, intensity_mu

REM_CFG = dict(model="rem", n=64, m=12, windows=[[0.0, 1.0]], replicas=2000, seed=7)


def test_parse_config_text():
    text = """
    # comment
    model = sk
    n = 100
    m = 10.5
    windows = [[0.0, 1.0], [1.0, 2.0]]
    gof = true
    """
    values = parse_config_text(text)
    assert values == {
        "model": "sk", "n": 100, "m": 10.5,
        "windows": [[0.0, 1.0], [1.0, 2.0]], "gof": True,
    }
    with pytest.raises(UsageError):
        parse_config_text("just some words\n")


@st.composite
def _window_entry(draw):
    """[lo, hi], or a list of sorted disjoint intervals."""
    k = draw(st.integers(1, 3))
    edges = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=2 * k, max_size=2 * k,
                                 unique=True)))
    intervals = [edges[2 * i : 2 * i + 2] for i in range(k)]
    return intervals[0] if k == 1 and draw(st.booleans()) else intervals


@st.composite
def _mixture_table(draw):
    """[[p, a_p], ...] with distinct powers and sum a_p^2 = 1."""
    powers = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    raw = draw(st.lists(st.floats(0.1, 10.0), min_size=len(powers), max_size=len(powers)))
    norm = math.sqrt(sum(w * w for w in raw))
    return [[p, w / norm] for p, w in zip(powers, raw)]


@settings(max_examples=60, deadline=None)
@given(windows=st.lists(_window_entry(), min_size=1, max_size=3),
       mixture=st.none() | _mixture_table(),
       epsilon=st.none() | st.floats(0.25, 2.75),
       sqrt_rule=st.booleans(),
       seed=st.integers(0, 2**64 - 1),
       mode=st.sampled_from(["quenched", "annealed"]))
def test_config_round_trips_losslessly(windows, mixture, epsilon, sqrt_rule, seed, mode):
    overrides = {"windows": windows, "epsilon": epsilon, "seed": seed, "mode": mode}
    if mixture is not None:
        overrides.update(model="mixture", mixture=mixture)
    if epsilon is not None and sqrt_rule:
        # n = 64: m = 8 epsilon lies in [2, 22], below the 2 GiB sign-matrix budget
        overrides["m_rule"] = "sqrt"
    cfg = build_config("simulate", dict(REM_CFG), overrides)
    reparsed = parse_config_text(cfg.to_text())
    cfg2 = build_config(reparsed.pop("command"), reparsed, {})
    assert cfg == cfg2


def test_config_validation_errors():
    with pytest.raises(UsageError):
        build_config("simulate", {"bogus_field": 1}, {})
    with pytest.raises(UsageError):
        build_config("simulate", {"m": 1.0}, {})
    with pytest.raises(UsageError):
        build_config("simulate", {"n": 10, "m": 12.0}, {})
    with pytest.raises(UsageError):
        build_config("simulate", {"mode": "sideways"}, {})
    with pytest.raises(UsageError):
        build_config("gibbs", dict(REM_CFG), {})  # beta missing
    with pytest.raises(UsageError):
        build_config("simulate", dict(REM_CFG), {"m_rule": "sqrt"})  # epsilon missing


@pytest.mark.parametrize("overrides, message", [
    ({"model": "npp", "coupling": "uniform", "sampler": "cholesky"}, "Gaussian fields only"),
    ({"model": "pspin", "sampler": "explicit"}, "explicit sampler"),
    ({"model": "mixture", "mixture": [[1, 0.6], [2, 0.8]], "sampler": "explicit"},
     "explicit sampler"),
], ids=["cholesky-uniform", "explicit-pspin", "explicit-mixture"])
def test_samplers_that_cannot_draw_the_model_are_refused_up_front(overrides, message, capsys):
    # both used to pass build_config and fail only once the run had started
    for command, extra in (("simulate", {}), ("gibbs", {"beta": 1.0})):
        with pytest.raises(UsageError, match=message):
            build_config(command, {}, {**overrides, **extra})
    argv = ["simulate"] + [f"--override={k}={json.dumps(v)}" for k, v in overrides.items()]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    build_config("simulate", {}, {**overrides, "sampler": "auto"})


def test_m_rule_is_checked_for_every_command(capsys):
    for command, extra in (("theory", ["--override", "eps_values=[1]"]),
                           ("comb", ["--override", "r_values=[0.5]"]),
                           ("simulate", []), ("gibbs", ["--override", "beta=3"])):
        assert main([command, "--override", "m_rule=bogus"] + extra) == 2
        assert "field m_rule:" in capsys.readouterr().err


def test_replicas_below_two_are_rejected_before_the_run():
    # a standard error needs two replicas; one used to fail after the Monte Carlo
    for command, extra in (("simulate", {}), ("gibbs", {"beta": 3.0})):
        with pytest.raises(UsageError, match="field replicas:"):
            build_config(command, dict(REM_CFG), {"replicas": 1, **extra})
    assert build_config("simulate", dict(REM_CFG), {"replicas": 2}).replicas == 2


def test_replicas_past_one_index_word_are_rejected_before_the_run(capsys):
    # a replica generator takes its index as one 32-bit word, and annealed
    # replica r seeds its cloud at index r + 1
    for command, extra in (("simulate", {}), ("gibbs", {"beta": 3.0})):
        with pytest.raises(UsageError, match="field replicas:"):
            build_config(command, dict(REM_CFG), {"replicas": 2**32 - 1, **extra})
    assert build_config("simulate", dict(REM_CFG), {"replicas": 2**32 - 2}).replicas == 2**32 - 2
    assert main(["simulate", "--override", f"replicas={2**32}"]) == 2
    assert "field replicas:" in capsys.readouterr().err


def test_window_entries_single_and_union():
    cfg = build_config(
        "simulate", dict(REM_CFG), {"windows": [[0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]]]}
    )
    wins = cfg.window_objects()
    assert wins[0] == BorelWindow.single(0.0, 1.0)
    assert wins[1] == BorelWindow(intervals=((1.0, 2.0), (3.0, 4.0)))


def test_cmd_simulate_records():
    cfg = build_config("simulate", dict(REM_CFG), {})
    records = cmd_simulate(cfg)
    kinds = [r["record"] for r in records]
    assert kinds.count("moment") == 3
    assert "ratio" in kinds and "poisson_gof" in kinds and "spacing" in kinds
    assert kinds[-1] == "cloud"
    m1 = next(r for r in records if r["record"] == "moment" and r["ell"] == 1)
    mu = intensity_mu(BorelWindow.single(0.0, 1.0))
    assert abs(m1["estimate"] - mu) <= 3.5 * m1["stderr"]
    assert m1["reference_asymptotic"] == pytest.approx(mu, rel=1e-12)
    assert m1["within_3se"] is True
    # quenched verdicts compare against the realized-cloud reference
    cloud_size = next(r for r in records if r["record"] == "cloud")["size"]
    assert m1["reference_conditional"] == pytest.approx(
        cloud_size * m1["reference_semianalytic"] / 2.0**12, rel=1e-9
    )
    spacing = next(r for r in records if r["record"] == "spacing")
    assert spacing["passed_1pct"] is True and spacing["n_points"] >= 200
    for r in records:
        assert r["format_version"] == 1
        assert r["config"]["seed"] == 7
        assert "threads" not in r["config"]


def test_simulate_leaves_out_an_undefined_poisson_gof():
    # [6, 7) expects far fewer than 5 nonzero counts in 1000 replicas, so it has
    # no chi-square test; it used to abort the run and lose [0, 1)'s records too
    cfg = build_config("simulate", {}, {"model": "sk", "n": 40, "m": 6, "replicas": 1000,
                                        "windows": [[0, 1], [6, 7]]})
    records = cmd_simulate(cfg)
    gof = [r["window"] for r in records if r["record"] == "poisson_gof"]
    assert gof == [[[0.0, 1.0]]]
    assert [r["window"] for r in records if r["record"] == "moment"].count([[6.0, 7.0]]) == 3


def test_simulate_pools_a_thin_lower_tail(tmp_path):
    # [-3, 1) expects about ten points per replica, so its low counts expect
    # fewer than 5 of 1000 replicas each; the chi-square test used to raise,
    # and the run exited 2 without writing any record, not even [0, 1)'s.
    # [-4, 1) expects about 25: the cell just inside each pooled tail expects
    # fewer than 5, and it raised until such cells were folded into the tails
    out = tmp_path / "x.ndjson"
    assert main(["simulate", "--out", str(out), "--override", "model=rem",
                 "--override", "n=64", "--override", "m=12", "--override", "replicas=1000",
                 "--override", "windows=[[0,1],[-3,1],[-4,1]]"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    first = [r for r in records if r.get("window") == [[0.0, 1.0]]]
    assert [r["ell"] for r in first if r["record"] == "moment"] == [1, 2, 3]
    gof = {r["window"][0][0]: r for r in records if r["record"] == "poisson_gof"}
    assert sorted(gof) == [-4.0, -3.0, 0.0] and gof[-3.0]["dof"] >= 1 and gof[-4.0]["dof"] >= 1


def test_simulate_skips_the_third_moment_below_ell_3(monkeypatch):
    # only the ell = 3 moment record reads the triple reference
    from remlab import theory

    def unused(*args, **kwargs):
        raise AssertionError("third moment computed for max_ell = 2")

    monkeypatch.setattr(theory, "semianalytic_third_moment", unused)
    cfg = build_config("simulate", {}, {
        "model": "sk", "n": 12, "m": 4.0, "mode": "annealed", "replicas": 200,
        "max_ell": 2, "seed": 3,
    })
    moments = [r for r in cmd_simulate(cfg) if r["record"] == "moment"]
    assert [r["ell"] for r in moments] == [1, 2]
    assert all(r["reference_semianalytic"] is not None for r in moments)


def test_cmd_theory_limit_scan(tmp_path):
    csv_path = tmp_path / "scan.csv"
    cfg = build_config("theory", {}, {
        "theory_kind": "limit_scan", "model": "sk", "m_rule": "linear",
        "eps_values": [0.0, 0.05, 0.1], "csv_out": str(csv_path),
    })
    records = cmd_theory(cfg)
    vals = [r["value"] for r in records]
    expect = [1.0 / math.sqrt(1.0 - 4 * e * math.log(2)) for e in (0.0, 0.05, 0.1)]
    assert vals == pytest.approx(expect, rel=1e-12)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "eps,value" and len(rows) == 4


def test_cmd_theory_ratio_scan():
    cfg = build_config("theory", {}, {
        "theory_kind": "ratio_scan", "model": "npp", "m_rule": "sqrt",
        "epsilon": 1.0, "n_values": [100, 400],
    })
    records = cmd_theory(cfg)
    ratios = [r["ratio"] for r in records]
    assert ratios[0] == pytest.approx(1.6403587379139724, rel=1e-9)
    assert ratios[0] < ratios[1] < records[0]["limit"]
    assert records[0]["limit"] == pytest.approx(2.614063815405198, rel=1e-12)


def test_limits_follow_the_run_m_rule():
    # SK off its m = eps*n scale tends to 1; NPP at m = eps*n diverges
    for model, rule, eps, limit in (("sk", "sqrt", 1.0, 1.0), ("npp", "linear", 0.25, None)):
        common = {"model": model, "m_rule": rule, "epsilon": eps}
        scan = cmd_theory(build_config("theory", {}, {
            **common, "theory_kind": "ratio_scan", "n_values": [16, 36],
        }))
        assert [r["limit"] for r in scan] == [limit, limit]
        records = cmd_simulate(build_config("simulate", {}, {
            **common, "n": 16, "mode": "annealed", "replicas": 50, "max_ell": 2,
            "gof": False, "spacing": False,
        }))
        mu = intensity_mu(BorelWindow.single(0.0, 1.0))
        moments = [r["reference_asymptotic"] for r in records if r["record"] == "moment"]
        ratio = [r["reference_asymptotic"] for r in records if r["record"] == "ratio"]
        assert ratio == [limit]
        assert moments == ([None, None] if limit is None else [mu, mu**2])


def test_limit_scan_of_a_mixture():
    base = {"theory_kind": "limit_scan", "model": "mixture", "mixture": [[1, 0.6], [2, 0.8]],
            "eps_values": [0.0, 1.0]}
    records = cmd_theory(build_config("theory", {}, {**base, "m_rule": "sqrt"}))
    assert [(r["model"], r["scaling"]) for r in records] == [("mixture", "sqrt")] * 2
    assert records[0]["value"] == 1.0
    assert records[1]["value"] == pytest.approx(math.exp(2 * math.log(2) ** 2 * 0.36**2))
    # a p = 1 weight makes the m = eps*n ratio diverge
    records = cmd_theory(build_config("theory", {}, {**base, "m_rule": "linear"}))
    assert [r["value"] for r in records] == [None, None]
    argv = ["theory"] + [f"--override={k}={json.dumps(v)}" for k, v in base.items()]
    assert main(argv) == 2
    assert main(argv + ["--override=m_rule=sqrt", "--override=ell=3"]) == 2


def test_ratio_scan_checks_m_at_every_n(capsys):
    argv = ["theory", "--override", "theory_kind=ratio_scan", "--override", "m=500",
            "--override", "n_values=[1000,100]"]
    assert main(argv) == 2
    assert "field m: resolved m=500 exceeds n=100" in capsys.readouterr().err
    sqrt = ["theory", "--override", "theory_kind=ratio_scan", "--override", "m_rule=sqrt",
            "--override", "epsilon=1"]
    assert main(sqrt + ["--override", "n_values=[400,1]"]) == 2
    assert "below the normalization minimum 2" in capsys.readouterr().err
    assert main(sqrt + ["--override", "n_values=[-4]"]) == 2
    assert "field n_values:" in capsys.readouterr().err


def test_cmd_comb_records():
    cfg = build_config("comb", {}, {
        "comb_kind": "counts", "n": 4, "r_values": [0.5, 1.0],
        "triples": [[0.0, 0.0, 0.0]],
    })
    records = cmd_comb(cfg)
    assert records[0]["count"] == 128 and records[1]["count"] == 32
    assert records[2]["count"] == 384
    # (0.2, 1, 0.2) has a column count that rounds to -5.6e-17; an unclipped
    # xlogy makes its rate NaN, which fails both regime comparisons
    (rate,) = cmd_comb(build_config("comb", {}, {
        "comb_kind": "rates", "r_values": [], "triples": [[0.2, 1, 0.2]],
    }))
    assert math.isfinite(rate["j2"])
    (regime,) = cmd_comb(build_config("comb", {}, {
        "comb_kind": "regimes", "n": 5, "m": 40, "r_values": [], "triples": [[0.2, 1, 0.2]],
    }))
    assert regime["label"] == "Concentrated"
    verify = cmd_comb(build_config("comb", {}, {"comb_kind": "verify", "n": 6}))
    assert verify[0]["pairs_matched"] and verify[0]["triples_matched"]
    with pytest.raises(UsageError):
        cmd_comb(build_config("comb", {}, {"comb_kind": "verify", "n": 20}))


def test_comb_counts_past_the_int_digit_limit_exit_2(capsys):
    # 4^20000 and 8^6000 have more digits than json.dumps may write for an int
    for override in (["n=20000", "r_values=[0]"], ["n=6000", "triples=[[0,0,0]]"]):
        argv = ["comb", "--override", "comb_kind=counts"]
        for item in override:
            argv += ["--override", item]
        assert main(argv) == 2
        assert "digit" in capsys.readouterr().err
    (rec,) = cmd_comb(build_config("comb", {}, {"comb_kind": "counts", "n": 7000,
                                                "r_values": [0]}))
    assert len(str(rec["count"])) <= sys.get_int_max_str_digits()


def _strict_json(line):
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in a record")
    return json.loads(line, parse_constant=refuse)


def test_records_are_strict_json():
    # J(1.5) and J2 of an inconsistent sign triple are +inf; both were once
    # written as bare Infinity, which strict JSON parsers reject
    cfg = build_config("comb", {}, {
        "comb_kind": "rates", "r_values": [1.5], "triples": [[1, 1, -1]],
    })
    rate, triple = (_strict_json(line) for line in run(cfg).splitlines())
    assert rate["j"] is None and triple["j2"] is None
    assert _jsonify(np.float64("nan")) is None
    assert _jsonify([np.float32("-inf"), np.array([1.0, np.nan])]) == [None, [1.0, None]]


def test_cmd_gibbs_record():
    cfg = build_config("gibbs", {}, {
        "model": "rem", "n": 64, "m": 10, "beta": 2 * math.sqrt(2 * math.log(2)),
        "replicas": 100, "seed": 1,
    })
    rec = cmd_gibbs(cfg)[0]
    assert rec["record"] == "pd_compare"
    assert rec["m_pd"] == pytest.approx(0.5, abs=1e-15)
    assert 0.3 < rec["sum_w2"] < 0.8


def test_run_is_deterministic_across_threads():
    base = build_config("simulate", dict(REM_CFG), {"replicas": 1200})
    threaded = build_config("simulate", dict(REM_CFG), {"replicas": 1200, "threads": 3})
    assert run(base) == run(threaded)
    assert run(base) == run(base)


def test_main_exit_codes(tmp_path):
    out = tmp_path / "x.ndjson"
    code = main([
        "simulate", "--out", str(out),
        "--override", "model=rem", "--override", "n=32", "--override", "m=6",
        "--override", "replicas=100", "--override", "spacing=false",
        "--override", "gof=false", "--seed", "3",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert all(json.loads(line)["config"]["seed"] == 3 for line in lines)
    assert main(["simulate", "--override", "m=0.5"]) == 2
    assert main(["simulate", "--override", "nonsense=1"]) == 2
    assert main(["comb", "--override", "comb_kind=verify", "--override", "n=99"]) == 2


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--override", "n=abc"], "field n:"),
    (["simulate", "--override", "n=true"], "field n:"),
    (["simulate", "--override", "windows=5"], "field windows:"),
    (["simulate", "--override", "windows=[[0,1,2]]"], "field windows:"),
    (["simulate", "--override", "windows=[[]]"], "field windows:"),
    (["simulate", "--override", "m=x"], "field m:"),
    (["simulate", "--override", "m=NaN"], "field m:"),
    (["simulate", "--override", "max_ell=2.0"], "field max_ell:"),
    (["simulate", "--override", "gof=1"], "field gof:"),
    (["simulate", "--override", "model=mixture", "--override", "mixture=[[2.0,1.0]]"],
     "field mixture:"),
    (["theory", "--override", "theory_kind=ratio_scan", "--override", "n_values=[50.7]"],
     "field n_values:"),
    (["theory", "--override", "eps_values=[\"a\"]"], "field eps_values:"),
    (["theory", "--override", "eps_values=[Infinity]"], "field eps_values:"),
    (["comb", "--override", "triples=[[0,0]]"], "field triples:"),
    (["comb", "--override", "csv_out=3"], "field csv_out:"),
])
def test_config_type_errors_exit_2(argv, field, capsys):
    assert main(argv) == 2
    assert field in capsys.readouterr().err


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "--config" in capsys.readouterr().err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"model = \xff\xfe\n")
    assert main(["simulate", "--config", str(binary)]) == 2
    assert "--config" in capsys.readouterr().err


def test_regimes_use_the_resolved_m():
    cfg = build_config("comb", {}, {
        "comb_kind": "regimes", "n": 400, "m_rule": "linear", "epsilon": 0.05,
        "r_values": [0.1], "triples": [[0.1, 0.1, 0.1]],
    })
    records = cmd_comb(cfg)
    assert [r["m"] for r in records] == [20.0, 20.0]


def test_ratio_scan_rejects_more_than_one_window(capsys):
    argv = ["theory", "--override", "theory_kind=ratio_scan", "--override", "model=sk",
            "--override", "n_values=[50]", "--override", "windows=[[0,1],[1,2]]"]
    assert main(argv) == 2
    assert "field windows:" in capsys.readouterr().err


def test_annealed_dense_cloud_finishes():
    # per-replica clouds with m > n/2 are drawn exactly; the distinct-string
    # sampler never returned for n = m = 17
    proc = subprocess.run(
        [sys.executable, "-m", "remlab.cli", "simulate", "--override", "n=17",
         "--override", "m=17", "--override", "mode=annealed", "--override", "replicas=4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    cloud = json.loads(proc.stdout.splitlines()[-1])
    assert cloud["record"] == "cloud" and cloud["size"] == 2**17


def test_dense_cloud_beyond_exact_range_exits_2(capsys):
    argv = ["simulate", "--override", "n=26", "--override", "m=14",
            "--override", "replicas=4"]
    assert main(argv) == 2
    assert main(argv + ["--override", "mode=annealed"]) == 2
    assert "m <= n/2" in capsys.readouterr().err
    # refused by build_config, before any cloud is drawn
    for command, extra in (("simulate", {}), ("gibbs", {"beta": 3.0})):
        for mode in ("quenched", "annealed"):
            with pytest.raises(UsageError, match="m <= n/2"):
                build_config(command, {}, {"n": 26, "m": 14, "mode": mode, **extra})


def test_oversized_cloud_exits_2():
    for command, extra in (("simulate", {}), ("gibbs", {"beta": 3.0})):
        with pytest.raises(UsageError, match="GiB sign matrix"):
            build_config(command, {}, {"n": 100, "m": 40, **extra})
    proc = subprocess.run(
        [sys.executable, "-m", "remlab.cli", "simulate", "--override", "n=100",
         "--override", "m=40"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "GiB sign matrix" in proc.stderr


def test_gibbs_at_or_below_the_pd_threshold_is_refused_up_front(capsys):
    # pd_compare used to refuse it only after the cloud was drawn
    for beta in (1.0, math.sqrt(2 * math.log(2)), None):
        with pytest.raises(UsageError, match="field beta: .*sqrt\\(2 log 2\\)"):
            build_config("gibbs", dict(REM_CFG), {"beta": beta})
    assert main(["gibbs", "--override", "beta=1.0"]) == 2
    assert "field beta:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_annealed_small_clouds_sample_the_law_of_the_references(seed, capsys):
    # at m = 2 about 9% of replica clouds have fewer than two members; such a
    # cloud was redrawn once and then aborted the run, and every replica was
    # conditioned on |X| >= 2, which the annealed references are not
    argv = ["simulate", "--seed", str(seed), "--override", "model=sk", "--override", "n=12",
            "--override", "m=2", "--override", "replicas=4000", "--override", "mode=annealed",
            "--override", "windows=[[-2,1]]", "--override", "gof=false"]
    assert main(argv) == 0
    moments = [rec for rec in map(json.loads, capsys.readouterr().out.splitlines())
               if rec["record"] == "moment"]
    assert [rec["ell"] for rec in moments] == [1, 2, 3]
    assert all(rec["within_3se"] for rec in moments)


def test_annealed_gibbs_with_empty_clouds_finishes(capsys):
    # at m = 2 about 2% of 500 replica clouds are empty; their power sums are 0
    argv = ["gibbs", "--seed", "0", "--override", "model=rem", "--override", "n=12",
            "--override", "m=2", "--override", "beta=2.0", "--override", "replicas=500",
            "--override", "mode=annealed"]
    assert main(argv) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["record"] == "pd_compare" and 0.0 < rec["sum_w3"] < rec["sum_w2"] < 1.0


_FUZZ_WINDOWS = [[[0.0, 1.0]], [[-2.0, 1.0]], [[-3.0, -1.0], [[-1.0, 0.0], [0.5, 2.0]]]]


@st.composite
def _small_config(draw):
    """A simulate or gibbs config with n <= 40, m <= 8 and a few hundred replicas."""
    command = draw(st.sampled_from(["simulate", "gibbs"]))
    n = draw(st.integers(2, 40))
    m_rule = draw(st.sampled_from(["fixed", "sqrt", "linear"]))
    m = draw(st.floats(2.0, min(n, 8.0)))  # the range _check_m accepts
    values = {
        "model": draw(st.sampled_from(["rem", "npp", "sk", "pspin", "mixture"])),
        "p": draw(st.integers(3, 4)),
        "mixture": draw(st.sampled_from([[[1, 0.6], [2, 0.8]], [[2, 0.6], [3, 0.8]]])),
        "coupling": draw(st.sampled_from(["gaussian", "uniform", "laplace"])),
        "sampler": draw(st.sampled_from(["auto", "explicit", "cholesky"])),
        "mode": draw(st.sampled_from(["quenched", "annealed"])),
        "n": n, "m_rule": m_rule,
        "m": m, "epsilon": m / {"fixed": 1.0, "sqrt": math.sqrt(n), "linear": n}[m_rule],
        "replicas": draw(st.integers(2, 300)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    if command == "simulate":
        # past n = 12 the annealed third-moment reference costs seconds per window
        values.update(windows=draw(st.sampled_from(_FUZZ_WINDOWS)),
                      max_ell=draw(st.integers(1, 3 if n <= 12 else 2)),
                      gof=draw(st.booleans()), spacing=draw(st.booleans()))
    else:
        values["beta"] = draw(st.floats(0.5, 4.0))
    return command, values


@settings(max_examples=300, deadline=None)
@given(config=_small_config())
def test_an_accepted_config_finishes_or_fails_numerically(config):
    # a config error comes from build_config: run never raises UsageError,
    # and what it writes is strict JSON
    command, values = config
    try:
        cfg = build_config(command, {}, values)
    except UsageError:
        return
    try:
        output = run(cfg)
    except NumericalError:
        return
    records = [_strict_json(line) for line in output.splitlines()]
    assert records and all(rec["config"]["command"] == command for rec in records)


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model = rem\nn = 32\nm = 6\nreplicas = 64\ngof = false\nspacing = false\n")
    proc = subprocess.run(
        [sys.executable, "-m", "remlab.cli", "simulate", "--config", str(cfg), "--seed", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    first = json.loads(proc.stdout.splitlines()[0])
    assert first["record"] == "moment" and first["config"]["model"] == "rem"
