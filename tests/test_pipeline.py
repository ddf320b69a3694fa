import json
import tracemalloc

import numpy as np
import pytest

from remlab.cli import main
from remlab.models import ModelSpec
from remlab.pipeline import BLOCK_SIZE, count_replicas, experiment_cloud, gibbs_power_sums
from remlab.pointproc import BorelWindow, Normalization

WINDOWS = [BorelWindow.single(-7.0, -5.0), BorelWindow(((-4.0, -2.0), (-1.0, 0.5)))]

# one spec per quenched route: Cholesky, independent energies, explicit couplings
SPECS = {
    "sk-cholesky": ModelSpec.sk(),
    "rem": ModelSpec.rem(),
    "npp-laplace-explicit": ModelSpec.npp("laplace"),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_merge_is_independent_of_threads(name):
    spec = SPECS[name]
    cloud = experiment_cloud(12, 5.0, seed=3)
    norm = Normalization(5.0)
    replicas = 5 * BLOCK_SIZE + 7
    counts, pooled = count_replicas(spec, cloud, norm, WINDOWS, 9, replicas,
                                    threads=1, collect_values=True)
    sums = gibbs_power_sums(spec, cloud, norm, 3.0, (2, 3), 9, replicas, threads=1)
    assert counts.shape == (replicas, len(WINDOWS)) and counts.sum() > 0
    for threads in (2, 3):
        c, p = count_replicas(spec, cloud, norm, WINDOWS, 9, replicas,
                              threads=threads, collect_values=True)
        assert np.array_equal(c, counts)
        assert all(np.array_equal(a, b) for a, b in zip(p, pooled))
        s = gibbs_power_sums(spec, cloud, norm, 3.0, (2, 3), 9, replicas, threads=threads)
        assert np.array_equal(s, sums)


def _traced_peak(cloud, norm, blocks: int) -> int:
    tracemalloc.start()
    try:
        count_replicas(ModelSpec.sk(), cloud, norm, WINDOWS, 4, blocks * BLOCK_SIZE,
                       threads=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_threaded_quenched_memory_does_not_grow_with_replicas():
    # numpy reports its buffers to tracemalloc. A (|X|, 2048) block here is
    # 8 MB, so holding every block would multiply the peak by about 5. The
    # cloud is large enough that both workers are always caught inside the
    # (|X| x |X|) @ (|X| x 2048) product at once, so even 4 blocks reach the
    # steady-state peak of two drawn blocks plus two energy blocks.
    cloud = experiment_cloud(40, 9.0, seed=1)
    norm = Normalization(9.0)
    small = _traced_peak(cloud, norm, 4)
    large = _traced_peak(cloud, norm, 24)
    assert large <= 1.25 * small, (small, large)


def test_progress_lines_are_ordered_and_stay_off_stdout(capsys):
    replicas = 2 * BLOCK_SIZE + 500
    argv = ["simulate", "--seed", "2", "--threads", "2", "--progress",
            "--override", "model=sk", "--override", "n=20", "--override", "m=5",
            "--override", f"replicas={replicas}"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    done = []
    for line in captured.err.splitlines():
        word, _, frac = line.partition(" ")
        assert word == "replicas"
        k, _, total = frac.partition("/")
        assert int(total) == replicas
        done.append(int(k))
    assert done == [BLOCK_SIZE, 2 * BLOCK_SIZE, replicas]
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert records and all("record" in rec for rec in records)
