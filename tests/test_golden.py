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
}


def _digest(argv, tmp_path) -> str:
    out = tmp_path / "out.ndjson"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_cli_output(name, tmp_path):
    argv, expected = SCENARIOS[name]
    assert _digest(argv, tmp_path) == expected


def test_golden_third_moment_summation_order():
    # the one reference known to move (by 2 ulp) when the triple terms are
    # summed in grid order instead of regular terms first, degenerate second
    window = BorelWindow(((-1.0, 0.0), (0.5, 2.0)))
    value = semianalytic_third_moment(ModelSpec.sk(), 6, 2.5, window)
    assert value.hex() == "0x1.23a8af9166ccep+1"
