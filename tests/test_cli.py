import json
import math
import subprocess
import sys

import pytest

from remlab.cli import (
    build_config,
    cmd_comb,
    cmd_gibbs,
    cmd_simulate,
    cmd_theory,
    main,
    parse_config_text,
    run,
)
from remlab.errors import UsageError
from remlab.theory import intensity_mu
from remlab.pointproc import BorelWindow

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


def test_config_round_trips_losslessly():
    cfg = build_config("simulate", dict(REM_CFG), {"mode": "annealed"})
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


def test_cmd_comb_records():
    cfg = build_config("comb", {}, {
        "comb_kind": "counts", "n": 4, "r_values": [0.5, 1.0],
        "triples": [[0.0, 0.0, 0.0]],
    })
    records = cmd_comb(cfg)
    assert records[0]["count"] == 128 and records[1]["count"] == 32
    assert records[2]["count"] == 384
    verify = cmd_comb(build_config("comb", {}, {"comb_kind": "verify", "n": 6}))
    assert verify[0]["pairs_matched"] and verify[0]["triples_matched"]
    with pytest.raises(UsageError):
        cmd_comb(build_config("comb", {}, {"comb_kind": "verify", "n": 20}))


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
