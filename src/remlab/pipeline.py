"""Deterministic replica machinery shared by the CLI commands and experiments.

Every replica r derives its own generator from (seed, namespace, r), so
results are independent of block decomposition and worker count; blocks have
a fixed size and are merged in replica order.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import Cloud, sample_cloud
from .errors import UsageError
from .models import CholeskySampler, ModelSpec, pick_sampler, sample_explicit
from .pointproc import Normalization

# Namespace tags ("clou", "repl" in ASCII) keep the replica streams disjoint
# from the cloud-sampling stream under one experiment seed.
NS_CLOUD = 0x636C6F75
NS_REPLICA = 0x7265706C

BLOCK_SIZE = 2048


def derive_rng(seed: int, namespace: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, index))
    return np.random.Generator(np.random.PCG64(ss))


def experiment_cloud(n: int, m: float, seed: int, mode: str = "auto") -> Cloud:
    return sample_cloud(n, m, derive_rng(seed, NS_CLOUD, 0), mode=mode)


def _quenched_block(spec: ModelSpec, cloud: Cloud, sampler: str,
                    chol: CholeskySampler | None, seed: int, replicas: range) -> np.ndarray:
    """Energies for one block, shape (|X|, len(replicas)), column per replica."""
    k = len(cloud)
    if sampler == "cholesky":
        z = np.empty((k, len(replicas)))
        for j, r in enumerate(replicas):
            z[:, j] = derive_rng(seed, NS_REPLICA, r).standard_normal(k)
        return chol.sample_block(z)
    out = np.empty((k, len(replicas)))
    if spec.is_rem:
        for j, r in enumerate(replicas):
            out[:, j] = derive_rng(seed, NS_REPLICA, r).standard_normal(k)
    else:
        for j, r in enumerate(replicas):
            rng = derive_rng(seed, NS_REPLICA, r)
            out[:, j] = sample_explicit(spec, cloud, rng, replica_id=r).values
    return out


def _iter_blocks(spec: ModelSpec, cloud: Cloud, seed: int, replicas: int,
                 mode: str, threads: int, progress: bool):
    """Yield (start_index, columns) blocks in replica order.

    Quenched blocks are (|X|, B) matrices; annealed blocks are lists of
    per-replica vectors (cloud sizes differ between replicas).
    """
    if replicas < 1:
        raise UsageError("need at least one replica")
    if mode not in ("quenched", "annealed"):
        raise UsageError(f"unknown disorder mode {mode!r}")

    if mode == "annealed":
        # Re-sampling a cloud per replica cannot afford the full 2^n scan;
        # beyond n = 16 the Poisson-size draw is indistinguishable at Monte
        # Carlo precision (total-variation error below 2^-16). Dense clouds
        # (m > n/2) stay exact: the distinct-string draw cannot fill them.
        sparse = cloud.n > 16 and cloud.m <= cloud.n / 2
        cloud_mode = "large_n" if sparse else "exact"
        for start in range(0, replicas, BLOCK_SIZE):
            cols = []
            for r in range(start, min(start + BLOCK_SIZE, replicas)):
                rng_c = derive_rng(seed, NS_CLOUD, r + 1)
                rep_cloud = sample_cloud(cloud.n, cloud.m, rng_c, mode=cloud_mode)
                rng_e = derive_rng(seed, NS_REPLICA, r)
                if pick_sampler(spec, rep_cloud) == "explicit":
                    cols.append(sample_explicit(spec, rep_cloud, rng_e, r).values)
                else:
                    cols.append(CholeskySampler(spec, rep_cloud).sample(rng_e, r).values)
            if progress:
                print(f"replicas {min(start + BLOCK_SIZE, replicas)}/{replicas}",
                      file=sys.stderr)
            yield start, cols
        return

    sampler = pick_sampler(spec, cloud)
    chol = CholeskySampler(spec, cloud) if sampler == "cholesky" else None
    blocks = [range(s, min(s + BLOCK_SIZE, replicas))
              for s in range(0, replicas, BLOCK_SIZE)]

    def work(block: range):
        return block.start, _quenched_block(spec, cloud, sampler, chol, seed, block)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = sorted(pool.map(work, blocks), key=lambda t: t[0])
    else:
        results = map(work, blocks)
    for start, energies in results:
        if progress:
            print(f"replicas {start + energies.shape[1]}/{replicas}", file=sys.stderr)
        yield start, energies


def count_replicas(
    spec: ModelSpec,
    cloud: Cloud,
    norm: Normalization,
    windows: list,
    seed: int,
    replicas: int,
    mode: str = "quenched",
    threads: int = 1,
    collect_values: bool = False,
    progress: bool = False,
):
    """Window counts per replica, and optionally the pooled in-window values.

    Returns (counts, pooled): counts is an int64 array of shape
    (replicas, len(windows)); pooled is a list of 1-D arrays per window
    (empty arrays when collect_values is false).
    """
    counts = np.zeros((replicas, len(windows)), dtype=np.int64)
    pooled: list[list] = [[] for _ in windows]
    for start, block in _iter_blocks(spec, cloud, seed, replicas, mode, threads, progress):
        if isinstance(block, np.ndarray):
            hp = (block - norm.a_n) / norm.b_n
            for wi, window in enumerate(windows):
                mask = window.mask(hp)
                counts[start : start + hp.shape[1], wi] = mask.sum(axis=0)
                if collect_values:
                    pooled[wi].append(hp.T[mask.T])
        else:
            for j, col in enumerate(block):
                hp = (col - norm.a_n) / norm.b_n
                for wi, window in enumerate(windows):
                    mask = window.mask(hp)
                    counts[start + j, wi] = mask.sum()
                    if collect_values:
                        pooled[wi].append(hp[mask])
    merged = [
        np.concatenate(parts) if parts else np.empty(0) for parts in pooled
    ]
    return counts, merged


def gibbs_power_sums(
    spec: ModelSpec,
    cloud: Cloud,
    norm: Normalization,
    beta: float,
    powers: tuple,
    seed: int,
    replicas: int,
    mode: str = "quenched",
    threads: int = 1,
) -> np.ndarray:
    """Per-replica sums of Gibbs-weight powers, shape (replicas, len(powers))."""
    out = np.zeros((replicas, len(powers)))
    for start, block in _iter_blocks(spec, cloud, seed, replicas, mode, threads, False):
        cols = block.T if isinstance(block, np.ndarray) else block
        for j, col in enumerate(cols):
            hp = (col - norm.a_n) / norm.b_n
            z = -beta * hp
            z -= z.max()
            w = np.exp(z)
            w /= w.sum()
            for pi, k in enumerate(powers):
                out[start + j, pi] = np.sum(w**k)
    return out
