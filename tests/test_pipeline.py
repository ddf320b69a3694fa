import json
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remlab import pipeline
from remlab.cli import main
from remlab.core import Cloud, sample_cloud
from remlab.errors import UsageError
from remlab.models import CholeskySampler, ModelSpec, cholesky_sampler, sample_explicit
from remlab.pipeline import (
    BLOCK_SIZE,
    NS_CLOUD,
    NS_REPLICA,
    count_replicas,
    experiment_cloud,
    gibbs_power_sums,
    replica_rngs,
)
from remlab.pointproc import BorelWindow, Normalization, gibbs_weights
from remlab.theory import conditional_pair_moments, marginal_window_prob

WINDOWS = [BorelWindow.single(-7.0, -5.0), BorelWindow(((-4.0, -2.0), (-1.0, 0.5)))]

# one spec per quenched route: Cholesky, independent energies, explicit couplings
SPECS = {
    "sk-cholesky": ModelSpec.sk(),
    "rem": ModelSpec.rem(),
    "npp-laplace-explicit": ModelSpec.npp("laplace"),
}


def _numpy_rng(seed: int, namespace: int, index: int) -> np.random.Generator:
    """Replica ``index``'s generator from numpy's own SeedSequence, not remlab's."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, index))
    return np.random.Generator(np.random.PCG64(ss))


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**128, 2**200)),
       namespace=st.sampled_from([NS_CLOUD, NS_REPLICA]),
       extra=st.lists(st.integers(0, 2**32 - 1), max_size=6))
@example(seed=0, namespace=NS_CLOUD, extra=[])
@example(seed=2**128 + 5, namespace=NS_REPLICA, extra=[1, 2**31])
def test_replica_rngs_match_numpy_seed_sequence(seed, namespace, extra):
    # a seed of 2^128 or more has more run-entropy words than the 4-word pool
    indices = [0, 2**32 - 1, *extra]
    for rng, r in zip(replica_rngs(seed, namespace, indices), indices, strict=True):
        one = pipeline.derive_rng(seed, namespace, r)
        want = _numpy_rng(seed, namespace, r)
        state = want.bit_generator.seed_seq.generate_state(4, np.uint64)
        for got in (rng, one):
            assert np.array_equal(got.bit_generator.seed_seq.generate_state(4, np.uint64), state)
            assert got.bit_generator.state == want.bit_generator.state
        normals = want.standard_normal(64)
        assert np.array_equal(rng.standard_normal(64), normals)
        assert np.array_equal(one.standard_normal(64), normals)


def test_replica_rngs_refuse_indices_past_one_word():
    # no silent fallback to a per-replica SeedSequence for a two-word index
    for bad in ([2**32], [3, -1], [0.5]):
        with pytest.raises(UsageError, match="replica indices"):
            replica_rngs(1, NS_REPLICA, bad)
    assert replica_rngs(1, NS_REPLICA, range(0)) == []


def test_derive_rng_refuses_negative_arguments():
    for args in ((-1, NS_REPLICA, 0), (1, -1, 0), (1, NS_REPLICA, -1)):
        with pytest.raises(UsageError):
            pipeline.derive_rng(*args)


def test_blocks_derive_no_generator_one_at_a_time(monkeypatch):
    # a 3-block quenched run and a 2-block annealed run, each with its
    # experiment cloud, seed through replica_rngs: no SeedSequence per replica
    made, derived = [], []
    seed_sequence, derive_rng = np.random.SeedSequence, pipeline.derive_rng
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *a, **k: made.append(a) or seed_sequence(*a, **k))
    monkeypatch.setattr(pipeline, "derive_rng", lambda *a: derived.append(a) or derive_rng(*a))
    norm = Normalization(4.0)
    for mode, replicas in (("quenched", 2 * BLOCK_SIZE + 5), ("annealed", BLOCK_SIZE + 3)):
        made.clear()
        derived.clear()
        cloud = experiment_cloud(10, 4.0, seed=2)
        counts, _ = count_replicas(ModelSpec.sk(), cloud, norm, WINDOWS, 2, replicas, mode=mode)
        assert counts.shape == (replicas, len(WINDOWS))
        assert len(made) <= 1 and len(derived) <= 1, (mode, len(made), len(derived))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_quenched_reductions_match_a_replica_by_replica_oracle(name):
    # Each replica's energies come from numpy's SeedSequence here; the
    # Cholesky route maps each block's stacked normals with the one GEMM the
    # engine uses, so the comparison is exact. The run crosses a block boundary.
    spec, seed, beta = SPECS[name], 13, 3.0
    cloud = experiment_cloud(12, 5.0, seed=3)
    norm = Normalization(5.0)
    replicas = BLOCK_SIZE + 37
    counts, pooled = count_replicas(spec, cloud, norm, WINDOWS, seed, replicas,
                                    collect_values=True)
    sums = gibbs_power_sums(spec, cloud, norm, beta, (2, 3), seed, replicas)

    chol = cholesky_sampler(spec, cloud)
    energies = []
    for start in range(0, replicas, BLOCK_SIZE):
        rngs = [_numpy_rng(seed, NS_REPLICA, r)
                for r in range(start, min(start + BLOCK_SIZE, replicas))]
        if chol is not None:
            z = np.stack([rng.standard_normal(len(cloud)) for rng in rngs], axis=1)
            energies += list(chol.sample_block(z).T)
        else:
            energies += [sample_explicit(spec, cloud, rng) for rng in rngs]
    want_counts, want_sums = [], []
    want_pooled = [[] for _ in WINDOWS]
    for h in energies:
        hp = (h - norm.a_n) / norm.b_n
        masks = [window.mask(hp) for window in WINDOWS]
        want_counts.append([mask.sum() for mask in masks])
        for parts, mask in zip(want_pooled, masks):
            parts.append(hp[mask])
        w = gibbs_weights(hp, beta)
        want_sums.append([np.sum(w**2), np.sum(w**3)])

    assert counts.sum() > 0
    assert np.array_equal(counts, want_counts)
    for got, parts in zip(pooled, want_pooled):
        assert np.array_equal(got, np.concatenate(parts))
    assert np.array_equal(sums, want_sums)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_clouds_of_zero_and_one_member_run_on_every_route(name):
    # a cloud is drawn once, whatever its size: no member counts 0, one member
    # counts its own energy, and a cloud without pairs has conditional m2 = 0
    spec, seed, replicas = SPECS[name], 13, 300
    norm = Normalization(3.0)
    windows = [BorelWindow.single(-2.0, 1.0), BorelWindow.single(0.0, 1.0)]
    for bits in ([], [0b101101]):
        cloud = Cloud.from_bits(12, bits, m=3.0)
        counts, pooled = count_replicas(spec, cloud, norm, windows, seed, replicas,
                                        collect_values=True)
        sums = gibbs_power_sums(spec, cloud, norm, 3.0, (2, 3), seed, replicas)
        want = np.zeros((replicas, len(windows)), dtype=np.int64)
        if bits:  # the 1 x 1 kernel factor is 1.0, so the Cholesky route is z itself
            for r, row in enumerate(want):
                rng = _numpy_rng(seed, NS_REPLICA, r)
                h = (rng.standard_normal(1) if cholesky_sampler(spec, cloud) is not None
                     else sample_explicit(spec, cloud, rng))
                row[:] = [window.mask((h - norm.a_n) / norm.b_n).sum() for window in windows]
            assert want.any()
        assert np.array_equal(counts, want)
        assert [len(values) for values in pooled] == want.sum(axis=0).tolist()
        assert np.array_equal(sums, np.full((replicas, 2), float(len(cloud))))
        for window, (m1, m2) in zip(windows, conditional_pair_moments(ModelSpec.sk(), cloud,
                                                                      norm, windows)):
            assert m1 == len(cloud) * marginal_window_prob(norm, window) and m2 == 0.0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_merge_is_independent_of_threads(name, monkeypatch):
    # Four usable CPUs, so on the explicit and REM routes threads 1, 2 and 3
    # really split a run differently (300 replicas: blocks of 75, 38 and 25).
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    spec = SPECS[name]
    cloud = experiment_cloud(12, 5.0, seed=3)
    norm = Normalization(5.0)
    for replicas in (5 * BLOCK_SIZE + 7, 300):
        counts, pooled = count_replicas(spec, cloud, norm, WINDOWS, 9, replicas,
                                        threads=1, collect_values=True)
        sums = gibbs_power_sums(spec, cloud, norm, 3.0, (2, 3), 9, replicas, threads=1)
        assert counts.shape == (replicas, len(WINDOWS)) and counts.sum() > 0
        for threads in (2, 3):
            c, p = count_replicas(spec, cloud, norm, WINDOWS, 9, replicas,
                                  threads=threads, collect_values=True)
            assert np.array_equal(c, counts)
            assert all(np.array_equal(a, b) for a, b in zip(p, pooled))
            s = gibbs_power_sums(spec, cloud, norm, 3.0, (2, 3), 9, replicas,
                                 threads=threads)
            assert np.array_equal(s, sums)


class _BlockSpy:
    """Records the width of every quenched block, the size of every pool and
    the blocks submitted to a pool.

    A pool asked for more workers than the host's usable CPUs fails before
    any thread starts.
    """

    def __init__(self, monkeypatch):
        self.widths, self.pools, self.submitted = [], [], []
        rngs, spy = pipeline.replica_rngs, self

        def replica_rngs(seed, namespace, indices):
            self.widths.append(len(indices))
            return rngs(seed, namespace, indices)

        class Pool(pipeline.ThreadPoolExecutor):
            def __init__(self, max_workers):
                assert max_workers <= pipeline._usable_cpus(), max_workers
                spy.pools.append(max_workers)
                super().__init__(max_workers=max_workers)

            def submit(self, fn, /, *args, **kwargs):
                spy.submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(pipeline, "replica_rngs", replica_rngs)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)

    def clear(self):
        self.widths.clear()
        self.pools.clear()
        self.submitted.clear()


def test_no_rem_run_factors_a_kernel(monkeypatch, capsys):
    # the REM's kernel is the identity: sample_explicit draws it directly
    inits, init = [], CholeskySampler.__init__

    def spy(self, spec, cloud):
        inits.append(spec)
        init(self, spec, cloud)

    def simulate(model):
        for mode in ("quenched", "annealed"):
            assert main(["simulate", "--override", f"model={model}", "--override", "n=12",
                         "--override", "m=4", "--override", "replicas=20",
                         "--override", f"mode={mode}"]) == 0
        assert capsys.readouterr().out

    monkeypatch.setattr(CholeskySampler, "__init__", spy)
    simulate("rem")
    assert inits == []
    simulate("sk")  # the spy sees a factor: one quenched cloud, 20 annealed ones
    assert inits == [ModelSpec.sk()] * 21


def test_block_width_follows_the_route_and_workers_stay_under_the_cpus(monkeypatch):
    spy = _BlockSpy(monkeypatch)
    norm = Normalization(5.0)
    cpus = pipeline._usable_cpus()

    # explicit route below one block: every worker gets a share
    cloud = experiment_cloud(20, 5.0, seed=3)
    spec = ModelSpec.sk("laplace")
    assert cholesky_sampler(spec, cloud) is None
    for threads in (2, 64):
        spy.clear()
        count_replicas(spec, cloud, norm, WINDOWS, 9, 400, threads=threads)
        workers = min(threads, cpus)
        assert len(spy.widths) >= 4 and sum(spy.widths) == 400
        assert max(spy.widths) == -(-400 // (4 * workers))
        assert spy.pools == [workers]
        assert len(spy.submitted) == len(spy.widths)

    # Cholesky route: full blocks at every thread count
    spec = ModelSpec.sk()
    assert cholesky_sampler(spec, cloud) is not None
    for threads in (1, 2, 3, 64):
        spy.clear()
        count_replicas(spec, cloud, norm, WINDOWS, 9, 2 * BLOCK_SIZE + 5, threads=threads)
        assert spy.widths == [BLOCK_SIZE, BLOCK_SIZE, 5]
        assert spy.pools == [min(threads, cpus)]
        # one worker draws on the calling thread: its pool of one gets no work
        assert len(spy.submitted) == (3 if min(threads, cpus) > 1 else 0)

    # annealed runs draw on the calling thread whatever the thread count
    for threads in (1, 2):
        spy.clear()
        count_replicas(spec, cloud, norm, WINDOWS, 9, 40, mode="annealed",
                       threads=threads)
        assert spy.pools == [1] and spy.submitted == []


def _gated_drawn_blocks(monkeypatch) -> list:
    """Spy on replica_rngs and record each block drawn. Every block after the
    first waits until the run's pool shuts down, so no worker can race ahead
    of the consumer: a run that cancels its unstarted blocks before shutting
    its pool down draws at most workers + 1 blocks."""
    drawn, rngs, shut = [], pipeline.replica_rngs, threading.Event()

    def replica_rngs(seed, namespace, indices):
        if namespace != NS_REPLICA:  # the experiment cloud
            return rngs(seed, namespace, indices)
        drawn.append(indices.start)
        if indices.start > 0:
            if not shut.wait(timeout=10):  # a regression fails instead of hanging
                shut.set()
        return rngs(seed, namespace, indices)

    class Pool(pipeline.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shut.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(pipeline, "replica_rngs", replica_rngs)
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
    return drawn


def _forty_block_run(reduce, threads: int):
    cloud = experiment_cloud(10, 4.0, seed=2)
    assert cholesky_sampler(ModelSpec.sk(), cloud) is not None  # 2048-wide blocks
    return pipeline._iter_blocks(ModelSpec.sk(), cloud, Normalization(4.0), 5,
                                 40 * BLOCK_SIZE, "quenched", threads, False, reduce)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_run_closed_early_draws_no_more_blocks(threads, monkeypatch):
    drawn = _gated_drawn_blocks(monkeypatch)
    workers = min(threads, pipeline._usable_cpus())
    blocks = _forty_block_run(lambda hp: hp.shape[1], threads)
    assert next(blocks) == BLOCK_SIZE
    blocks.close()
    assert 0 in drawn and len(drawn) <= workers + 1, drawn


@pytest.mark.parametrize("threads", [1, 2])
def test_a_reducer_that_raises_stops_the_run(threads, monkeypatch):
    drawn = _gated_drawn_blocks(monkeypatch)
    workers = min(threads, pipeline._usable_cpus())

    def reduce(hp):
        raise RuntimeError("reducer failed")

    with pytest.raises(RuntimeError, match="reducer failed"):
        for _ in _forty_block_run(reduce, threads):
            pass
    assert 0 in drawn and len(drawn) <= workers + 1, drawn


def test_annealed_reductions_match_a_replica_by_replica_oracle():
    # Each replica redraws its own cloud and energies here, outside the block
    # engine, from numpy's SeedSequence. The run crosses a block boundary, and cloud sizes vary inside a
    # block, so padded rows must add nothing to counts, pooled values or sums.
    spec, n, m, seed, beta = ModelSpec.sk(), 20, 5.0, 11, 3.0
    replicas = BLOCK_SIZE + 52
    cloud = experiment_cloud(n, m, seed)  # an annealed run reads only its n and m
    norm = Normalization(m)
    counts, pooled = count_replicas(spec, cloud, norm, WINDOWS, seed, replicas,
                                    mode="annealed", collect_values=True)
    sums = gibbs_power_sums(spec, cloud, norm, beta, (2, 3), seed, replicas, mode="annealed")

    sizes, want_counts, want_sums = set(), [], []
    want_pooled = [[] for _ in WINDOWS]
    for r in range(replicas):
        # n > 16 and m <= n/2: the Poisson-size cloud draw
        rep = sample_cloud(n, m, _numpy_rng(seed, NS_CLOUD, r + 1), mode="large_n")
        z = _numpy_rng(seed, NS_REPLICA, r).standard_normal(len(rep))
        hp = (CholeskySampler(spec, rep).sample_block(z[:, None])[:, 0] - norm.a_n) / norm.b_n
        sizes.add(len(rep))
        masks = [window.mask(hp) for window in WINDOWS]
        want_counts.append([mask.sum() for mask in masks])
        for parts, mask in zip(want_pooled, masks):
            parts.append(hp[mask])
        w = gibbs_weights(hp, beta)
        want_sums.append([np.sum(w**2), np.sum(w**3)])

    assert len(sizes) > 1 and counts.sum() > 0
    assert np.array_equal(counts, want_counts)
    for got, parts in zip(pooled, want_pooled):
        assert np.array_equal(got, np.concatenate(parts))
    assert np.array_equal(sums, want_sums)


def test_threaded_quenched_memory_does_not_grow_with_replicas():
    # numpy reports its buffers to tracemalloc. A (|X|, 2048) float64 block
    # is about 8 MB here. Each of the two workers holds at most its drawn
    # block, its energy block and a boolean mask (1/8 block); the factor and
    # the counts together stay under one block. So the peak is below
    # 2 * threads + 1 blocks whatever the scheduling, while a run that held
    # every one of its 24 blocks would need about 24.
    cloud = experiment_cloud(40, 9.0, seed=1)
    norm = Normalization(9.0)
    threads, blocks = 2, 24
    block_bytes = 8 * len(cloud) * BLOCK_SIZE
    tracemalloc.start()
    try:
        count_replicas(ModelSpec.sk(), cloud, norm, WINDOWS, 4, blocks * BLOCK_SIZE,
                       threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * threads + 1) * block_bytes, (peak, block_bytes)


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
