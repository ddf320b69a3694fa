"""Golden outputs: seeded CLI runs whose NDJSON must stay byte-identical.

Each scenario runs ``remlab.cli.main`` in-process and compares the sha256 of
the output file with a digest recorded before the reference engine was
refactored. A mismatch means a refactor changed numbers; a deliberate change
of random streams or arithmetic bumps ``FORMAT_VERSION`` and re-pins these.
"""

import hashlib

import pytest

from remlab import cli
from remlab.models import ModelSpec
from remlab.pointproc import BorelWindow
from remlab.theory import semianalytic_third_moment


def _ov(**fields):
    out = []
    for key, value in fields.items():
        out += ["--override", f"{key}={value}"]
    return out


SCENARIOS = {
    "simulate-sk-quenched": (
        ["simulate", "--seed", "7"] + _ov(model="sk", n=200, m=6, replicas=1200),
        "78bedc0dfcb714fd672e30dbc8ff6f7dca288b336035b2f1c74ebb84a1734095",
    ),
    "simulate-sk-annealed": (
        ["simulate", "--seed", "3"]
        + _ov(model="sk", n=10, m=4, replicas=1000, mode="annealed",
              windows="[[0,1],[[-1,0],[0.5,2]]]"),
        "387719fea2a1889cdce680e6afe85004221aa9dc57ed573ed97c8783cfca724b",
    ),
    "simulate-npp-quenched-antipodal": (
        ["simulate", "--seed", "11"]
        + _ov(model="npp", n=10, m=8, replicas=400, windows="[[0,1],[-9,-7]]"),
        "362683e0bba80345a29ab2722f6d6eae7a5c486b42a0db73d52df963b355f5b6",
    ),
    "theory-sk-ratio-scan": (
        ["theory"] + _ov(model="sk", theory_kind="ratio_scan", m_rule="linear",
                         epsilon=0.1, n_values="[50,100,200]"),
        "09f72bea0ddbd4af358a81096682842af2a5410fa495273b058c6670f0b882ef",
    ),
    "theory-npp-ratio-scan": (
        ["theory"] + _ov(model="npp", theory_kind="ratio_scan", m_rule="sqrt",
                         epsilon=1.0, n_values="[100,400]"),
        "e8c7fcb33e0c2a92a621fd99f7c34dc73947bef7f810ef86b11af4ef0ce5954d",
    ),
    "comb-verify": (
        ["comb"] + _ov(comb_kind="verify", n=8),
        "a46b9379ebc4b1282e00b3b69ad57fc322f560ddf3b6000c3fba68117377948c",
    ),
    "gibbs-rem": (
        ["gibbs", "--seed", "5"] + _ov(model="rem", n=16, m=8, beta=2.0, replicas=500),
        "0bbdead0280d15848df6505352eefb54c3306ccdd7b90dcce8e4f29d0c764c09",
    ),
    # more replicas than one block (2048), so the threaded merge crosses
    # block boundaries
    "simulate-sk-quenched-threaded-blocks": (
        ["simulate", "--seed", "7", "--threads", "2"]
        + _ov(model="sk", n=200, m=6, replicas=5000),
        "e13426187f434cd06b24ea156ef1ff645abe10b2ead6a61574e2dd6c5c931442",
    ),
    "gibbs-rem-threaded-blocks": (
        ["gibbs", "--seed", "5", "--threads", "2"]
        + _ov(model="rem", n=16, m=8, beta=2.0, replicas=4500),
        "1ddf630566dbedf2266c1ce85bb15fd78384c04e9c737dba226f1b41cf4750ca",
    ),
    # annealed clouds by the distinct-string draw (n > 16, m <= n/2) with n
    # not a multiple of 8, over more than one block
    "simulate-sk-annealed-large-n-blocks": (
        ["simulate", "--seed", "13"]
        + _ov(model="sk", n=20, m=5, replicas=2500, mode="annealed"),
        "b3cb8bf1537fc3723649fdb36fba8eeca7ba7a22d8ed43eb6d01f0c07fdfc01c",
    ),
    # annealed clouds by the full scan, because m > n/2
    "simulate-npp-annealed-dense-exact": (
        ["simulate", "--seed", "17"]
        + _ov(model="npp", n=12, m=7, replicas=600, mode="annealed"),
        "b0b3fdcb65fdd4e14d38db986bc2188cb748acb7170bca52dd443f37f881b015",
    ),
    # annealed Gibbs weights over more than one block
    "gibbs-rem-annealed-blocks": (
        ["gibbs", "--seed", "23"]
        + _ov(model="rem", n=20, m=6, beta=2.0, replicas=2500, mode="annealed"),
        "f2f7a3f6df1d6e01a45b9702218dafccf6742907a8d171ab626a8566be705299",
    ),
    # annealed replicas on the explicit-coupling route (non-Gaussian law)
    "simulate-npp-laplace-annealed": (
        ["simulate", "--seed", "29"]
        + _ov(model="npp", coupling="laplace", n=20, m=5, replicas=800, mode="annealed"),
        "a433c3fe318d15b03abca24bc336e192f6a2f47a39fd17549972baf210072988",
    ),
    # annealed replicas on the Cholesky route with a non-SK kernel
    "simulate-pspin3-annealed": (
        ["simulate", "--seed", "31"]
        + _ov(model="pspin", p=3, n=18, m=5, replicas=800, mode="annealed"),
        "5e8cbf10a7008e92db143d1c6771f0769a3671a06ee70c0def7c9188a48f69da",
    ),
    # quenched explicit-coupling replicas (non-Gaussian law) under one block
    # at two threads, with pooled spacing values from both windows
    "simulate-sk-laplace-quenched-threaded": (
        ["simulate", "--seed", "37", "--threads", "2"]
        + _ov(model="sk", coupling="laplace", n=64, m=5, replicas=600,
              windows="[[0,1],[-2,0]]"),
        "2ef08f3f2243007cd0b35fb19b29246f4b23fcdf141f317c249c13a4a0650927",
    ),
    # members wider than one 64-bit word: the sort order spans byte columns
    "simulate-sk-quenched-multiword": (
        ["simulate", "--seed", "19"] + _ov(model="sk", n=70, m=6, replicas=600),
        "cdb77893ac2dfd55fb9c0c60c392915fc739a0dca962951fd7ed6b2fd9f2bd20",
    ),
    # rate, pair/triple count and regime records, each with pairs and triples
    "comb-rates": (
        ["comb"] + _ov(comb_kind="rates", r_values="[0,0.25,0.5,1]",
                       triples="[[0,0,0],[0.5,0.25,0.25],[1,0.5,0.5]]"),
        "a54d6182cbab329f499b118f8b7c4539cc0028887c24001df18bcfbfdd325a29",
    ),
    "comb-counts": (
        ["comb"] + _ov(comb_kind="counts", n=8, r_values="[0,0.25,0.5,1]",
                       triples="[[0,0,0],[0.5,0.25,0.25],[0.1,0.1,0.1]]"),
        "780b09298efaa5f10cfffa3d3798b318620cfa988de43933b3f5bc2bc58e4b57",
    ),
    "comb-regimes": (
        ["comb"] + _ov(comb_kind="regimes", n=100, m=10, r_values="[0,0.2,0.3,0.4,0.9]",
                       triples="[[0,0,0],[0.2,0.1,0.1],[0.3,0.2,0.2],[0.5,0.5,0.5]]"),
        "dda901bd9a1f1c7bf4e9c3d1b62c5b36bcaec1edc8b3d1876918c0438d6a089a",
    ),
}

# limit scans with a CSV table: (argv, NDJSON digest, CSV digest). csv_out is
# relative, so the embedded config does not depend on the temporary directory.
LIMIT_SCANS = {
    "theory-sk-limit-scan": (
        ["theory"] + _ov(model="sk", theory_kind="limit_scan", m_rule="linear",
                         eps_values="[0,0.05,0.1,0.15]", csv_out="scan.csv"),
        "37abf30c9e1ea069d8a2a4cc35e5b0cb333c9eefdc99f79f7464d4847785db86",
        "c458c8fee05640c996e4e6355df2607424e73da3cfceccae525453b6bba9604b",
    ),
    "theory-rem-limit-scan-ell1": (
        ["theory"] + _ov(model="rem", theory_kind="limit_scan", ell=1,
                         eps_values="[0,1,2.5]", csv_out="scan.csv"),
        "399e3b61d82b25aceaeb8726317cba4173a63afd2360b154099681e7a29710ce",
        "74f9235f6ca6170bcf1ed29b672d1e4f51fe93329e61a4ec720ae615e31300cb",
    ),
    # non-Gaussian couplings take the c4 branch of limit_constant
    "theory-npp-uniform-limit-scan": (
        ["theory"] + _ov(model="npp", coupling="uniform", theory_kind="limit_scan",
                         m_rule="sqrt", eps_values="[0.5,1,1.5]", csv_out="scan.csv"),
        "6e33d17578d14d1254d433638ddf9afb0574ffc189f160fb79dc0284981e211f",
        "e5ff6b976ba66bdb13c073c871f0441c200812c642cfeab04c2f1f8a5087b73e",
    ),
}


def _digest(argv, tmp_path) -> str:
    out = tmp_path / "out.ndjson"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_cli_output(name, tmp_path):
    argv, expected = SCENARIOS[name]
    assert _digest(argv, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(LIMIT_SCANS))
def test_golden_limit_scan_output(name, tmp_path, monkeypatch):
    argv, expected, expected_csv = LIMIT_SCANS[name]
    monkeypatch.chdir(tmp_path)
    assert _digest(argv, tmp_path) == expected
    assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == expected_csv


def test_golden_third_moment_summation_order():
    # the one reference known to move (by 2 ulp) when the triple terms are
    # summed in grid order instead of regular terms first, degenerate second
    window = BorelWindow(((-1.0, 0.0), (0.5, 2.0)))
    value = semianalytic_third_moment(ModelSpec.sk(), 6, 2.5, window)
    assert value.hex() == "0x1.23a8af9166ccep+1"
