"""Deterministic replica machinery shared by the CLI commands and experiments.

Every replica r derives its own generator from (seed, namespace, r), so
results are independent of block decomposition and worker count. Replicas
run in blocks of ``BLOCK_SIZE``. A block is one float64 (rows, B) matrix, a
column of energies per replica; an annealed block pads each column with NaN
past that replica's own cloud. ``_iter_blocks`` normalizes a block once and
reduces it (window counts and in-window values, or Gibbs power sums) on the
thread that drew it, so energies never outlive their block and no reducer
knows the disorder mode. A threaded run keeps at most threads + 1 blocks in
flight, and the calling thread merges the reduced blocks in replica order.
``_quenched_block`` is the one function that turns a cloud and a replica
range into energies: an annealed replica draws its own cloud and then its
energies through it, as a block of one.
"""

from __future__ import annotations

import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .core import Cloud, sample_cloud
from .errors import UsageError
from .models import CholeskySampler, ModelSpec, pick_sampler, sample_explicit
from .pointproc import Normalization, gibbs_weights

# Namespace tags ("clou", "repl" in ASCII) keep the replica streams disjoint
# from the cloud-sampling stream under one experiment seed.
NS_CLOUD = 0x636C6F75
NS_REPLICA = 0x7265706C

BLOCK_SIZE = 2048


def derive_rng(seed: int, namespace: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, index))
    return np.random.Generator(np.random.PCG64(ss))


def experiment_cloud(n: int, m: float, seed: int) -> Cloud:
    return sample_cloud(n, m, derive_rng(seed, NS_CLOUD, 0))


def _cholesky_or_none(spec: ModelSpec, cloud: Cloud) -> CholeskySampler | None:
    """The cloud's kernel factor when the Cholesky route is picked, else None."""
    return CholeskySampler(spec, cloud) if pick_sampler(spec, cloud) == "cholesky" else None


def _quenched_block(spec: ModelSpec, cloud: Cloud, chol: CholeskySampler | None,
                    seed: int, replicas: range) -> np.ndarray:
    """Energies for one block, shape (|X|, len(replicas)), column per replica.

    Each replica is drawn into a row of a C-contiguous (B, |X|) buffer; the
    block is that buffer's transpose (mapped through the factor ``chol`` on
    the Cholesky route; ``chol`` is None on the explicit route).
    """
    rows = np.empty((len(replicas), len(cloud)))
    for row, r in zip(rows, replicas):
        rng = derive_rng(seed, NS_REPLICA, r)
        if chol is not None or spec.is_rem:
            rng.standard_normal(out=row)
        else:
            row[:] = sample_explicit(spec, cloud, rng)
    return rows.T if chol is None else chol.sample_block(rows.T)


def _annealed_block(spec: ModelSpec, cloud: Cloud, seed: int, replicas: range) -> np.ndarray:
    """Energies for one block, shape (max |X_r|, len(replicas)); every replica
    draws its own cloud, and its column holds NaN past that cloud's size."""
    # Beyond n = 16 the full 2^n scan per replica is too slow; the Poisson-size
    # draw is within total variation 2^(m-n) <= 2^(-n/2) of it (see
    # sample_cloud). Dense clouds (m > n/2) stay exact: the distinct-string
    # draw cannot fill them.
    cloud_mode = "large_n" if cloud.n > 16 and cloud.m <= cloud.n / 2 else "exact"
    cols = []
    for r in replicas:
        rep_cloud = sample_cloud(cloud.n, cloud.m, derive_rng(seed, NS_CLOUD, r + 1),
                                 mode=cloud_mode)
        chol = _cholesky_or_none(spec, rep_cloud)
        cols.append(_quenched_block(spec, rep_cloud, chol, seed, range(r, r + 1))[:, 0])
    rows = np.full((len(cols), max(map(len, cols))), np.nan)
    for row, col in zip(rows, cols):
        row[: len(col)] = col
    return rows.T


def _map_in_order(work, blocks: list, threads: int):
    """Yield work(block) for each block in order, with at most threads + 1 in flight."""
    if threads == 1:
        yield from map(work, blocks)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        try:
            for block in blocks:
                if len(pending) > threads:
                    yield pending.popleft().result()
                pending.append(pool.submit(work, block))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _iter_blocks(spec: ModelSpec, cloud: Cloud, norm: Normalization, seed: int,
                 replicas: int, mode: str, threads: int, progress: bool, reduce):
    """Yield (start_index, reduce(hp)) for each block, in replica order.

    hp is the block's energies normalized in place, (H - a_n) / b_n: (|X|, B)
    when quenched, (max |X_r|, B) with NaN padding when annealed; NaN fails
    every window comparison. The block is reduced on the thread that drew it.
    Quenched runs with threads > 1 keep at most threads + 1 blocks in flight.
    Annealed runs use the calling thread only: their small per-replica numpy
    calls hold the interpreter lock, and two threads ran slower.
    """
    if replicas < 1:
        raise UsageError("need at least one replica")
    if mode == "annealed":
        draw, threads = partial(_annealed_block, spec, cloud, seed), 1
    elif mode == "quenched":
        draw = partial(_quenched_block, spec, cloud, _cholesky_or_none(spec, cloud), seed)
    else:
        raise UsageError(f"unknown disorder mode {mode!r}")
    blocks = [range(s, min(s + BLOCK_SIZE, replicas))
              for s in range(0, replicas, BLOCK_SIZE)]

    def work(block: range):
        hp = draw(block)  # drawn for this reduction alone: normalize in place
        hp -= norm.a_n
        hp /= norm.b_n
        return reduce(hp)

    for reduced, block in zip(_map_in_order(work, blocks, threads), blocks):
        if progress:
            print(f"replicas {block.stop}/{replicas}", file=sys.stderr)
        yield block.start, reduced


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

    def reduce(hp):
        """(B, W) counts and, when collecting, each window's in-window values."""
        counts = np.empty((hp.shape[1], len(windows)), dtype=np.int64)
        values = []
        for wi, window in enumerate(windows):
            mask = window.mask(hp)
            counts[:, wi] = mask.sum(axis=0)
            if collect_values:
                values.append(hp.T[mask.T])  # replica-major, member order
        return counts, values

    counts = np.zeros((replicas, len(windows)), dtype=np.int64)
    pooled: list[list] = [[] for _ in windows]
    for start, (block_counts, values) in _iter_blocks(
            spec, cloud, norm, seed, replicas, mode, threads, progress, reduce):
        counts[start : start + len(block_counts)] = block_counts
        for parts, part in zip(pooled, values):
            parts.append(part)
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

    def reduce(hp):
        """(B, P) power sums, one column of energies at a time."""
        sums = np.empty((hp.shape[1], len(powers)))
        for j, col in enumerate(hp.T):
            # drop the padding: a zero in np.sum would regroup its pairwise terms
            w = gibbs_weights(col[~np.isnan(col)], beta)
            for pi, k in enumerate(powers):
                sums[j, pi] = np.sum(w**k)
        return sums

    out = np.zeros((replicas, len(powers)))
    for start, sums in _iter_blocks(spec, cloud, norm, seed, replicas, mode, threads,
                                    False, reduce):
        out[start : start + len(sums)] = sums
    return out
