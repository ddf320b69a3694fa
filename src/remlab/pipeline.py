"""Deterministic replica machinery shared by the CLI commands and experiments.

Every replica r derives its own generator from (seed, namespace, r), so
results are independent of block decomposition and worker count. The stream
is numpy's ``SeedSequence(seed, spawn_key=(namespace, r))`` seeding PCG64;
``replica_rngs`` computes the state words for a whole block of indices in
one vectorized pass. A block is one float64 (rows, B) matrix, a column of
energies per replica; an annealed block pads each column with NaN past that
replica's own cloud. Block widths follow the route: the Cholesky route and
annealed runs use ``BLOCK_SIZE`` columns, because a GEMM rounds by how its
columns are partitioned; the explicit route draws and reduces each column
alone, so it splits a run into about four blocks per worker, at most
``BLOCK_SIZE`` wide. A quenched run starts min(threads, usable CPUs)
workers. ``_iter_blocks`` normalizes a block once and reduces it (window
counts and in-window values, or Gibbs power sums) on the thread that drew
it, so energies never outlive their block and no reducer knows the disorder
mode. ``Executor.map`` submits every block, at most ``workers`` blocks hold
energies at once, and the calling thread concatenates the reduced blocks in
replica order; one worker means the calling thread draws every block.
``_quenched_block`` is the one function that turns a cloud and replica
generators into energies: an annealed replica draws its own cloud and then
its energies through it, as a block of one, while its block's cloud and
energy generators still come from one ``replica_rngs`` call each.
"""

from __future__ import annotations

import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import Cloud, sample_cloud
from .errors import UsageError
from .models import CholeskySampler, ModelSpec, cholesky_sampler, sample_explicit
from .pointproc import Normalization, gibbs_weights

# Namespace tags ("clou", "repl" in ASCII) keep the replica streams disjoint
# from the cloud-sampling stream under one experiment seed.
NS_CLOUD = 0x636C6F75
NS_REPLICA = 0x7265706C

BLOCK_SIZE = 2048


# numpy's SeedSequence hash (bit_generator.pyx; its output is frozen by NEP 19)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative int, [0] for 0, as numpy splits it."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(const: int, mult: int):
    """The running (xor, multiply) constant pairs of one SeedSequence hash."""
    while True:
        advanced = (const * mult) & _MASK32
        yield const, advanced
        const = advanced


def _hash(value, constants):
    xor, mult = next(constants)
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


class _StateWords(ISeedSequence):
    """The four uint64 words a SeedSequence would hand PCG64, precomputed."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed state holds exactly 4 uint64 words")
        return self.words.copy()


def replica_rngs(seed: int, namespace: int, indices) -> list:
    """Generators for each r in ``indices``, equal to those seeded by
    ``SeedSequence(entropy=seed, spawn_key=(namespace, r))``.

    The entropy is the seed's words (zero-padded to the pool size), then the
    namespace's, then r's; r enters the pool last, so everything before it is
    mixed once, as Python ints, and only the final word is hashed per replica,
    as uint64 arrays masked to 32 bits. Each index must fit in one 32-bit word.
    """
    seed, namespace = operator.index(seed), operator.index(namespace)
    if seed < 0 or namespace < 0:
        raise UsageError("seed and namespace must be non-negative integers")
    idx = np.asarray(indices)
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() > _MASK32):
        raise UsageError("replica indices must be integers in [0, 2^32)")
    run = _uint32_words(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(namespace)
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in [*entropy[_POOL_SIZE:], idx.astype(np.uint64).ravel()]:
        pool = [_mix(p, _hash(word, consts)) for p in pool]
    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired little-endian into uint64
    consts = _hash_constants(_INIT_B, _MULT_B)
    halves = [_hash(pool[i % _POOL_SIZE], consts) for i in range(2 * _POOL_SIZE)]
    words = np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(halves[::2], halves[1::2])],
                     axis=1)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words]


def derive_rng(seed: int, namespace: int, index: int) -> np.random.Generator:
    return replica_rngs(seed, namespace, [index])[0]


def experiment_cloud(n: int, m: float, seed: int) -> Cloud:
    return sample_cloud(n, m, derive_rng(seed, NS_CLOUD, 0))


def _quenched_block(spec: ModelSpec, cloud: Cloud, chol: CholeskySampler | None,
                    rngs: list) -> np.ndarray:
    """Energies for one block, shape (|X|, len(rngs)), column per replica
    generator.

    Each replica is drawn into a row of a C-contiguous (B, |X|) buffer; the
    block is that buffer's transpose (mapped through the factor ``chol`` on
    the Cholesky route; ``chol`` is None on the explicit route).
    """
    rows = np.empty((len(rngs), len(cloud)))
    for row, rng in zip(rows, rngs):
        if chol is not None:
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
    for cloud_rng, rng in zip(
            replica_rngs(seed, NS_CLOUD, range(replicas.start + 1, replicas.stop + 1)),
            replica_rngs(seed, NS_REPLICA, replicas)):
        rep_cloud = sample_cloud(cloud.n, cloud.m, cloud_rng, mode=cloud_mode)
        chol = cholesky_sampler(spec, rep_cloud)
        cols.append(_quenched_block(spec, rep_cloud, chol, [rng])[:, 0])
    rows = np.full((len(cols), max(map(len, cols))), np.nan)
    for row, col in zip(rows, cols):
        row[: len(col)] = col
    return rows.T


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _iter_blocks(spec: ModelSpec, cloud: Cloud, norm: Normalization, seed: int,
                 replicas: int, mode: str, threads: int, progress: bool, reduce):
    """Yield the reduced block, reduce(hp), for each block, in replica order.

    hp is the block's energies normalized in place, (H - a_n) / b_n: (|X|, B)
    when quenched, (max |X_r|, B) with NaN padding when annealed; NaN fails
    every window comparison. The block is reduced on the thread that drew it.

    Quenched runs use workers = min(threads, usable CPUs) threads. One pool's
    ``map`` submits every block; at most ``workers`` blocks hold energies at
    once, so memory stays near workers x |X| x block width x 8 bytes x a small
    constant, and a run that raises or is closed early cancels the blocks not
    yet started. One worker draws on the calling thread: annealed runs sent
    through a pool of one ran slower. On the Cholesky route a block is
    ``BLOCK_SIZE`` wide whatever the worker count: its one GEMM rounds by
    how the columns are partitioned. On the explicit route each column is
    drawn from its own generator and reduced alone, so no split can move a
    bit; blocks there are ceil(replicas / (4 workers)) wide, at
    most ``BLOCK_SIZE``, which gives every worker a share of a run below one
    block. Annealed runs use the calling thread only, in ``BLOCK_SIZE``
    blocks: their small per-replica numpy calls hold the interpreter lock,
    and two threads ran slower.
    """
    if replicas < 1:
        raise UsageError("need at least one replica")
    if threads < 1:
        raise UsageError("need at least one thread")
    width = BLOCK_SIZE
    if mode == "annealed":
        draw, workers = partial(_annealed_block, spec, cloud, seed), 1
    elif mode == "quenched":
        chol = cholesky_sampler(spec, cloud)
        workers = min(threads, _usable_cpus())
        if chol is None:
            width = min(BLOCK_SIZE, -(-replicas // (4 * workers)))

        def draw(block: range) -> np.ndarray:
            return _quenched_block(spec, cloud, chol, replica_rngs(seed, NS_REPLICA, block))
    else:
        raise UsageError(f"unknown disorder mode {mode!r}")
    blocks = [range(s, min(s + width, replicas)) for s in range(0, replicas, width)]

    def work(block: range):
        hp = draw(block)  # drawn for this reduction alone: normalize in place
        hp -= norm.a_n
        hp /= norm.b_n
        return reduce(hp)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # the map's iterator lives only in this loop: a run closed early drops
        # it, cancelling the unstarted blocks, before the pool shuts down
        for reduced, block in zip((pool.map if workers > 1 else map)(work, blocks), blocks):
            if progress:
                print(f"replicas {block.stop}/{replicas}", file=sys.stderr)
            yield reduced


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
        """(B, W) counts and each window's in-window values (empty unless collecting)."""
        counts = np.empty((hp.shape[1], len(windows)), dtype=np.int64)
        values = []
        for wi, window in enumerate(windows):
            mask = window.mask(hp)
            counts[:, wi] = mask.sum(axis=0)
            # replica-major, member order
            values.append(hp.T[mask.T] if collect_values else np.empty(0))
        return counts, values

    counts, values = zip(*_iter_blocks(spec, cloud, norm, seed, replicas, mode, threads,
                                       progress, reduce))
    return np.concatenate(counts), [np.concatenate(parts) for parts in zip(*values)]


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
            values = col[~np.isnan(col)]
            w = gibbs_weights(values, beta) if values.size else values  # an empty sum is 0
            for pi, k in enumerate(powers):
                sums[j, pi] = np.sum(w**k)
        return sums

    return np.concatenate(list(_iter_blocks(spec, cloud, norm, seed, replicas, mode,
                                            threads, False, reduce)))
