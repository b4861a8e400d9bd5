"""Greedy per-block ternary residual stacking under an error tolerance.

A layer's weight tensor is unrolled, split into contiguous blocks, and each
block ternarized once. While the squared relative reconstruction error
``delta`` exceeds ``epsilon^2``, the block with the largest residual norm
(ties to the lowest index) receives one more ternary level fitted to its
remaining residual. A fitted level is orthogonal to the residual it leaves,
so ``delta`` decreases, and the loop stops once a level would not lower it.

A converted layer is three block-major arrays (see ``QuantizedLayer``):
levels per block, one scale per level and one sign row per level.
``level_index`` is the one map from a level row to its block and depth;
``reconstruct`` adds each block's levels in place, shallowest first.

Block residuals are measured against the float32-accumulated reconstruction,
so the stored ``delta`` is exactly what a recomputation from the saved
levels yields.

``ternary_residual`` decides the whole greedy order with array operations
and gives, bit for bit, what the one-step-at-a-time loop gives:

- Merge order. A block's next level depends only on its own residual, so
  its error after each level is fixed in advance. The loop takes block k
  past depth d when its error after levels 0..d is the largest (ties to the
  lowest block), which is a heap over each block's chain of errors, so the
  accept order is ``chain_order(-errs, live)``: two default sorts of the
  finite negated errors' running maxima give its stable order. A key exists
  while ``d + 1 < r_max`` and the block's errors are positive.
- Rounds. Key (k, d) can be sorted once level d of block k is fitted, and
  taken once level d + 1 is too. The sortable keys not yet taken, in order,
  hold up to the first key whose next level is not fitted; that prefix is
  final (a key not yet sortable sorts after its block's last sortable one),
  and the merge takes it. Then one round fits the next level of the blocks
  that the rest of the order can reach before ``delta <= epsilon^2``. Walking
  on from the prefix, a fitted key lowers ``delta`` by its exact drop
  ``old^2 - new^2`` and an unfitted one by at least ``l1^2 / n`` (``l1`` the
  norm of its residual of length n): keeping every nonzero entry at its mean
  magnitude is one of the cuts the kernel scans. The round fits the unfitted
  keys up to where that estimate meets the tolerance; ``L1_DROP_SAFETY``
  scales the bound. The estimate only saves work, it decides no result: a
  block the merge reaches unfitted is fitted in the next round (a top-up),
  so each block has its own fitted depth. Round 0 fits every block.
- Chunks. A round makes one ``ternarize_rows`` call per chunk per block
  length. A chunk's float64 ``(blocks, N)`` work arrays hold about
  ``CHUNK_BYTES``, and the float32 source widens to float64 one chunk at a
  time (exactly). The kernel and the per-row error product are row-wise, so
  neither the chunks nor the rounds a block is fitted in move a bit. Only
  fitted levels are stored: sign rows one round at a time, errors and
  scales one column per fitted depth.
- Exact deltas. The loop stores ``(np.sum(errs * errs) - errs[k] ** 2 +
  new ** 2) / ||W||^2`` per step. ``pairwise_version_sums`` replays numpy's
  pairwise summation (chains of at most 16 strided elements under spans of
  128, halves split on multiples of 8) for every step at once, re-adding
  the changed chains in waves that hold no chain twice. The scalar ``** 2``
  calls libm ``pow``, which can differ from ``x * x`` in the last bit;
  ``np.float_power(x, 2.0)`` gives the same bits.
- Stop rules are masks along the order: ``delta <= epsilon^2``, a zero
  alpha, a ``delta`` that does not fall, and running out of keys (which
  raises ConvergenceError if a capped block still carries error).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError
from .manifest import is_count
from .tensors import BlockView, Tensor
from .ternary import ternarize_rows
from .ternary import ternarize  # noqa: F401  (bench/workloads.py traces this name)

DEFAULT_R_MAX = 16
CHUNK_BYTES = 256 << 10  # a fit chunk's float64 (blocks, N) work arrays stay near this size
# A round counts on an unfitted level lowering its block's squared error by
# this share of ``l1^2 / n``: below 1 it fits further ahead, above 1 it leaves
# more blocks to top-ups. No result depends on it.
L1_DROP_SAFETY = 1.0
_PW_SPAN = 128  # numpy sums at most this many elements without halving
FLOAT32_MIN_EXPONENT = -149  # 2^-149 is the smallest float32 above 0
FLOAT32_MAX_EXPONENT = 121  # a peak past 127 * 2^121 needs step 2^122 and rounds to 2^128


@dataclass(frozen=True, eq=False)
class Trace:
    """The greedy log of one conversion, as three arrays.

    Entry i of ``blocks`` (int64) and ``e_before`` (float64) is iteration i+1:
    the block that received a residual level and its residual norm before.
    ``deltas`` (float64) holds ``delta`` after the base levels, then after
    each accepted level. ``len`` is the number of accepted levels; the
    default is an empty record.
    """

    blocks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    e_before: np.ndarray = field(default_factory=lambda: np.zeros(0))
    deltas: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.blocks)


def level_index(counts) -> tuple[np.ndarray, np.ndarray]:
    """Block and depth of every level row in the block-major layout.

    Row i is level ``depth[i]`` (0 for the base level) of block ``owner[i]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    depth = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    return owner, depth


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """A converted layer, block-major with each block's base level first.

    ``counts`` (int32[K]) holds the levels per block, ``alphas`` (float32[L])
    one scale per level and ``signs`` (int8[L, min(N, size)]) one sign row
    per level; a ragged tail block's rows are zero past its length.
    ``trace`` is the greedy log of the conversion; it is empty once levels
    were dropped or scales snapped, and in a loaded container.
    """

    layer: str
    shape: tuple[int, ...]
    block_size: int
    counts: np.ndarray
    alphas: np.ndarray
    signs: np.ndarray
    delta: float
    epsilon_sq: float
    source_norm_sq: float
    exhausted: bool = False
    trace: Trace = field(default_factory=Trace, repr=False)

    @property
    def delta_sequence(self) -> np.ndarray:
        """``delta`` after the base levels and after each accepted level."""
        return self.trace.deltas

    @property
    def num_weights(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def num_blocks(self) -> int:
        return len(self.counts)

    @property
    def num_levels(self) -> int:
        return len(self.alphas)

    def levels_per_block(self) -> list[int]:
        return self.counts.tolist()

    def level_starts(self) -> np.ndarray:
        """Row of each block's base level in ``alphas`` and ``signs``."""
        return np.cumsum(self.counts) - self.counts


@dataclass(frozen=True)
class QuantizedModel:
    manifest_doc: dict
    layers: tuple[QuantizedLayer, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for l in self.layers:
            if l.layer in seen:
                raise ValueError(f"layer {l.layer!r} is stored twice")
            seen.add(l.layer)

    def layer(self, name: str) -> QuantizedLayer:
        for l in self.layers:
            if l.layer == name:
                return l
        raise KeyError(name)

    @property
    def num_blocks(self) -> int:
        return sum(l.num_blocks for l in self.layers)

    @property
    def num_levels(self) -> int:
        return sum(l.num_levels for l in self.layers)


def _pairwise_tree(n: int):
    """numpy's pairwise summation order over ``n`` elements, as a binary tree.

    The leaves are chains, runs of elements added left to right. A span of
    at most 128 elements is 8 chains of every 8th element combined as a
    balanced tree, to which the elements past its last multiple of 8 are
    added one at a time (a span under 8 elements is one chain). A longer
    span adds its two halves, split at half its length rounded down to a
    multiple of 8.

    Returns ``(table, chain_of, kids, parent, depth)``: each chain's elements
    as a row padded with -1, the chain of every element, each binary node's
    two children, and each node's parent and depth. Chains are numbered
    first, then binary nodes, both in the order the recursion makes them
    (a node after its children); the root is last.
    """
    chains: list[range] = []
    kids: list[tuple[int, int]] = []  # binary node b is -1 - b until renumbered

    def chain(elems):
        chains.append(elems)
        return len(chains) - 1

    def add(a, b):
        kids.append((a, b))
        return -len(kids)

    def span(s, m):
        if m > _PW_SPAN:
            half = m // 2 - m // 2 % 8
            return add(span(s, half), span(s + half, m - half))
        if m < 8:
            return chain(range(s, s + m))
        whole = s + m - m % 8
        r = [chain(range(s + j, whole, 8)) for j in range(8)]
        node = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))
        for i in range(whole, s + m):
            node = add(node, chain(range(i, i + 1)))
        return node

    span(0, n)
    c, b = len(chains), len(kids)
    kids = np.array(kids, dtype=np.int64).reshape(-1, 2)
    kids = np.where(kids < 0, c - 1 - kids, kids)
    parent = np.full(c + b, -1)
    parent[kids] = np.arange(c, c + b)[:, None]
    depth = np.zeros(c + b, dtype=np.int64)
    level, t = np.array([c + b - 1]), 0  # the root, then one tree level at a time
    while level.size:
        t += 1
        level = kids[level[level >= c] - c].reshape(-1)
        depth[level] = t
    start, stop, step = np.array([(r.start, r.stop, r.step) for r in chains]).T[..., None]
    table = start + step * np.arange(max(map(len, chains)))
    table[table >= stop] = -1
    filled = table >= 0
    chain_of = np.empty(n, dtype=np.int64)
    chain_of[table[filled]] = np.nonzero(filled)[0]
    return table, chain_of, kids, parent, depth


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Index where each entry's run of equal ``ids`` begins."""
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return np.maximum.accumulate(np.where(first, np.arange(len(ids)), 0))


def pairwise_version_sums(x: np.ndarray, pos: np.ndarray, new: np.ndarray,
                          tree=None) -> np.ndarray:
    """``np.sum`` of the non-negative float64 vector ``x`` after each prefix
    of the updates ``x[pos[j]] = new[j]``, bit for bit.

    Entry v is the sum with updates ``0..v-1`` applied. ``tree`` is
    ``_pairwise_tree(len(x))``, built here if not given. An update changes
    one chain of numpy's summation tree. Wave w writes every chain's w-th
    update into one copy of ``x`` and re-adds those chains, each from the
    values it holds at that update; each node above adds its sibling's
    latest value before that update, one tree level at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = np.asarray(pos, dtype=np.int64)
    new = np.asarray(new, dtype=np.float64)
    if tree is None:
        tree = _pairwise_tree(len(x))
    table, chain_of, kids, parent, depth = tree
    c, nodes = len(table), len(parent)
    padded = np.append(x, 0.0)  # a short chain's -1 columns read 0.0, which adds nothing

    def chain_sums(rows):  # left to right: accumulate adds one element at a time
        return np.add.accumulate(padded[rows], axis=1)[:, -1]

    # Every node's value before the first update, children before parents.
    value = np.empty(nodes)
    value[:c] = chain_sums(table)
    for t in range(int(depth.max()) - 1, -1, -1):
        b = np.flatnonzero(depth[c:] == t)
        value[c + b] = value[kids[b, 0]] + value[kids[b, 1]]
    m = len(pos)
    if m == 0:
        return value[-1:].copy()
    sibling = np.empty(nodes, dtype=np.int64)
    sibling[kids[:, 0]], sibling[kids[:, 1]] = kids[:, 1], kids[:, 0]

    # An update's wave is its rank among its chain's updates. (A group in
    # order is one sort of the unique keys ``group * m + update``, which numpy
    # runs several times faster than a stable sort of the groups.)
    node = chain_of[pos]
    order = np.argsort(node * m + np.arange(m))
    wave = np.empty(m, dtype=np.int64)
    wave[order] = np.arange(m) - _run_starts(node[order])
    order = np.argsort(wave * m + np.arange(m))
    val, ends = np.empty(m), np.cumsum(np.bincount(wave)).tolist()
    for a, b in zip([0] + ends, ends):
        at = order[a:b]
        padded[pos[at]] = new[at]
        val[at] = chain_sums(table[node[at]])

    # Up the tree: the updates at one depth, grouped by parent in order; a
    # node's sibling holds the value of the last earlier update through it.
    for t in range(int(depth[node].max()), 0, -1):
        at = np.flatnonzero(depth[node] == t)
        here = node[at]
        order = np.argsort(parent[here] * m + at)
        at, here = at[order], here[order]
        up = parent[here]
        left = kids[up - c, 0] == here
        rows = np.arange(len(at))
        last_left = np.maximum.accumulate(np.where(left, rows, -1))
        last_right = np.maximum.accumulate(np.where(left, -1, rows))
        other = np.where(left, last_right, last_left)
        own = val[at]
        val[at] = own + np.where(other >= _run_starts(up), own[other], value[sibling[here]])
        node[at] = up
    return np.concatenate([value[-1:], val])


def chain_order(keys: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every ``live`` entry in the order a min-heap pops them.

    ``live`` is a prefix of each row and ``keys`` are finite. The heap holds
    one entry per row, keyed ``(keys[r, c], r)``, starting at column 0;
    popping entry c of row r pushes entry c+1. An entry cannot leave before
    the ones ahead of it in its row, and once they have left, it leaves as
    soon as its row's largest key so far is the smallest in the heap: a key
    that does not rise is popped at once, since ``(key, r)`` is then at most
    the entry just popped. So the pop order is a stable sort of the running
    maxima, as ``np.nonzero`` lists entries by row, then column. Entry i of n
    gets ``rank``, where its maximum's run of equals (``-0.0`` equals ``0.0``)
    starts in a sort of the maxima; a sort of the unique keys ``rank * n + i``
    then gives the stable order, faster than a stable sort.
    """
    rows, cols = np.nonzero(live)
    run = np.array(keys)  # the running max, one column at a time
    for j in range(1, run.shape[1]):
        np.maximum(run[:, j - 1], run[:, j], out=run[:, j])
    value = run[rows, cols]
    order = np.argsort(value)
    order = order[np.argsort(_run_starts(value[order]) * len(order) + order)]
    return rows[order], cols[order]


def ternary_residual(
    w: Tensor,
    block_size: int,
    epsilon: float | None = None,
    *,
    epsilon_sq: float | None = None,
    r_max: int = DEFAULT_R_MAX,
) -> QuantizedLayer:
    """Convert one layer to stacked ternary levels.

    ``epsilon`` is the un-squared relative error tolerance; the loop guard
    compares the squared relative error ``delta`` against ``epsilon**2``
    (pass ``epsilon_sq`` to give the squared value directly). ``r_max`` caps
    the levels per block; if the tolerance is still unmet once every block
    carrying error is capped, ConvergenceError reports the achieved delta.
    """
    if (epsilon is None) == (epsilon_sq is None):
        raise ValueError("give exactly one of epsilon or epsilon_sq")
    if epsilon is not None and not float(epsilon) > 0:  # its square would pass the check below
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eps_sq = float(epsilon_sq) if epsilon_sq is not None else float(epsilon) ** 2
    if not (0.0 < eps_sq <= 1.0):
        raise ValueError(f"tolerance^2 must be in (0, 1], got {eps_sq}")
    if not is_count(r_max):
        raise ValueError(f"r_max must be an integer >= 1, got {r_max!r}")
    if not is_count(block_size):
        raise ValueError(f"block size must be an integer >= 1, got {block_size!r}")
    block_size = int(block_size)  # a numpy integer would reach the container's JSON
    if w.size == 0:
        raise ValueError("cannot convert an empty tensor")

    flat = w.unrolled().astype(np.float64)
    total_sq = float(flat @ flat)
    del flat
    full, tail = divmod(w.size, block_size)  # blocks of length N, then a ragged tail
    num_blocks = full + (tail > 0)
    width = min(block_size, w.size)
    every = np.arange(num_blocks)
    step = max(1, CHUNK_BYTES // (8 * width))  # blocks per fit chunk

    # Block-major float32 state, zero-padded to full width for the ragged tail;
    # ``recons`` is each block's reconstruction from the levels fitted so far.
    target = np.zeros((num_blocks, width), dtype=np.float32)
    target.reshape(-1)[:w.size] = w.unrolled()
    recons = np.zeros((num_blocks, width), dtype=np.float32)
    # Block k has ``fitted[k]`` levels fitted. errs[k, d] is its residual norm
    # after levels 0..d (0 until fitted), alphas[k, d] the scale of level d and
    # sign_rows[k, d] the row of its signs in the rounds' ``pieces``, a column per
    # fitted depth; ``l1[k]`` is the l1 norm of its last residual.
    fitted = np.zeros(num_blocks, dtype=np.int64)
    errs = np.zeros((num_blocks, 0))
    alphas = np.zeros((num_blocks, 0))
    sign_rows = np.zeros((num_blocks, 0), dtype=np.int64)
    l1 = np.zeros(num_blocks)
    pieces = []

    def fit(ks: np.ndarray) -> None:
        """Fit the next level of each of the ascending blocks ``ks``, one kernel
        call per chunk of at most ``step`` blocks of one length."""
        nonlocal errs, alphas, sign_rows
        if fitted[ks].max() == errs.shape[1]:  # a column for the new depth
            errs, alphas, sign_rows = (np.hstack([a, np.zeros((num_blocks, 1), a.dtype)])
                                       for a in (errs, alphas, sign_rows))
        piece = np.zeros((len(ks), width), dtype=np.int8)
        sign_rows[ks, fitted[ks]] = sum(map(len, pieces)) + np.arange(len(ks))
        split = np.searchsorted(ks, full)
        for first, part, n in ((0, ks[:split], block_size), (split, ks[split:], tail)):
            for at in range(0, part.size, step):
                c = part[at:at + step]
                d = fitted[c]
                source = target[c, :n].astype(np.float64)  # exact: a float32 widens
                recon = recons[c, :n]
                alpha, s, _ = ternarize_rows(source - recon.astype(np.float64))
                new_recon = recon + alpha.astype(np.float32)[:, None] * s.astype(np.float32)
                diff = source - new_recon.astype(np.float64)
                # Stacked 1xn @ nx1 products sum each row exactly as ``diff @ diff``.
                errs[c, d] = np.sqrt(
                    np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
                # Only the reach of a round reads l1, so its summation order is free.
                l1[c] = np.abs(diff, out=diff) @ np.ones(n)
                alphas[c, d] = alpha
                piece[first + at:first + at + len(c), :n] = s
                recons[c, :n] = new_recon
        pieces.append(piece)
        fitted[ks] += 1

    fit(every)
    counts = np.ones(num_blocks, dtype=np.int64)
    current = errs[:, 0]
    # An all-zero tensor keeps its alpha=0 base levels, delta 0 by convention.
    delta = float(np.sum(current * current)) / total_sq if total_sq > 0.0 else 0.0
    delta0 = delta
    steps = []  # (blocks, errors before, deltas after) of the accepted levels
    exhausted = False
    tree = _pairwise_tree(num_blocks)  # the order of every ``np.sum(errs * errs)``

    while delta > eps_sq:
        # The keys not yet accepted in the loop's order, up to the first key
        # whose next level is not fitted yet.
        cols = np.arange(errs.shape[1])
        ok = (errs > 0.0) & ((alphas != 0.0) | (cols == 0))
        live = np.logical_and.accumulate(ok, axis=1) & (cols + 1 < r_max)
        kb, kd = chain_order(-errs, live & (cols + 1 >= counts[:, None]))
        unfitted = kd + 1 == fitted[kb]
        stop = int(np.argmax(unfitted)) if unfitted.any() else len(kb)

        b, d = kb[:stop], kd[:stop]
        if len(b):
            old, new, alpha = errs[b, d], errs[b, d + 1], alphas[b, d + 1]
            sums = pairwise_version_sums(current * current, b[:-1], (new * new)[:-1], tree)
            after = (sums - np.float_power(old, 2.0) + np.float_power(new, 2.0)) / total_sq
            before = np.concatenate([[delta], after[:-1]])
            halt = (before <= eps_sq) | (alpha == 0.0) | (after >= before)
            taken = int(np.argmax(halt)) if halt.any() else len(b)
            steps.append((b[:taken], old[:taken], after[:taken]))
            counts += np.bincount(b[:taken], minlength=num_blocks)
            if taken < len(b):
                delta = float(before[taken])
                exhausted = delta > eps_sq  # a zero alpha, or delta stalled
                break
            delta = float(after[-1])
        current = errs[every, counts - 1]
        if delta <= eps_sq:
            break
        if stop == len(kb):
            if np.any((counts >= r_max) & (current > 0.0)):
                raise ConvergenceError(w.name, delta, eps_sq, r_max)
            exhausted = True  # every residual is exactly zero yet delta > eps^2
            break
        # One round: fit the unfitted keys the order can reach before delta
        # meets the tolerance, a fitted key lowering it by its exact drop and
        # an unfitted one by at least ``l1^2 / n``.
        b, d, unfit = kb[stop:], kd[stop:], unfitted[stop:]
        drop = L1_DROP_SAFETY * l1[b] ** 2 / np.where(b < full, block_size, tail)
        sure = ~unfit
        drop[sure] = errs[b[sure], d[sure]] ** 2 - errs[b[sure], d[sure] + 1] ** 2
        crossed = delta * total_sq - np.cumsum(drop) <= eps_sq * total_sq
        reach = int(np.argmax(crossed)) + 1 if crossed.any() else len(b)
        fit(np.sort(b[:reach][unfit[:reach]]))

    del target, recons  # freed before the gather below
    # Keep the accepted levels, block-major with each block's base level first.
    owner, level = level_index(counts)
    blocks, e_before, deltas = (np.concatenate(part) for part in zip(
        (np.zeros(0, dtype=np.int64), np.zeros(0), np.array([delta0])), *steps))
    signs = np.concatenate(pieces)[sign_rows[owner, level]]
    return QuantizedLayer(
        w.name, w.shape, block_size, counts.astype(np.int32),
        alphas[owner, level].astype(np.float32), signs,
        delta, eps_sq, total_sq, exhausted=exhausted,
        trace=Trace(blocks, e_before, deltas),
    )


def reconstruct(layer: QuantizedLayer) -> Tensor:
    """Sum the ternary levels of every block back into the original shape.

    Adds each block's levels into one ``(K, width)`` float32 array,
    shallowest level first: the base rows, then level d of every block that
    has one. (A ``sum`` over depths would not keep that order: on a single
    weight numpy sums eight or more levels pairwise.)
    """
    starts = layer.level_starts()
    acc = layer.alphas[starts, None] * layer.signs[starts]
    for d in range(1, int(layer.counts.max(initial=0))):
        ks = np.flatnonzero(layer.counts > d)
        rows = starts[ks] + d
        acc[ks] += layer.alphas[rows, None] * layer.signs[rows]
    return Tensor(layer.layer, acc.reshape(-1)[:layer.num_weights].reshape(layer.shape))


def layer_delta(w: Tensor, layer: QuantizedLayer) -> float:
    """Recompute ``||W - reconstruction||^2 / ||W||^2`` from the levels."""
    base = w.unrolled().astype(np.float64)
    diff = base - reconstruct(layer).unrolled().astype(np.float64)
    total_sq = float(base @ base)
    if total_sq == 0.0:
        return 0.0
    return float(diff @ diff) / total_sq


def block_sensitivity(w: Tensor, perturbed: Tensor, blocks: list[BlockView]) -> np.ndarray:
    """Per-block relative Frobenius error against the whole layer's norm.

    The squared entries sum to the layer's squared relative weight
    perturbation exactly (up to float accumulation).
    """
    if w.shape != perturbed.shape:
        raise ValueError("tensor shapes do not match")
    base = w.unrolled().astype(np.float64)
    other = perturbed.unrolled().astype(np.float64)
    norm = np.sqrt(base @ base)
    if norm == 0.0:
        raise ValueError("block sensitivity is undefined for a zero-norm layer")
    out = np.empty(len(blocks))
    for i, bv in enumerate(blocks):
        diff = base[bv.start:bv.stop] - other[bv.start:bv.stop]
        out[i] = np.sqrt(diff @ diff) / norm
    return out


def _nonzero_counts(signs: np.ndarray) -> np.ndarray:
    """``np.count_nonzero(signs, axis=1)``, as numpy reduces short rows slowly.

    Rows of 8 to 255 weights in whole uint64 words, C-contiguous, keep bit 0
    of each byte (set in 1 and -1) and add their words a column at a time.
    One multiply by ``0x0101010101010101`` then sums the eight byte lanes into
    the top byte, modulo 256, which holds a count under 256. Wider rows would
    need a fold per word, which ``np.count_nonzero`` beats there, so every
    other row goes to numpy.
    """
    width = signs.shape[-1]
    if not (0 < width < 256 and width % 8 == 0 and signs.flags.c_contiguous):
        return np.count_nonzero(signs, axis=1)
    low = np.uint64(0x0101010101010101)
    words = signs.view("<u8") & low
    lanes = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        lanes += words[:, j]
    lanes *= low
    lanes >>= np.uint64(56)
    return lanes


def downgrade(
    model: QuantizedModel,
    *,
    keep_levels: int | None = None,
    target_factor: float | None = None,
) -> QuantizedModel:
    """Drop the least important residual levels until a level budget is met.

    Importance of a level is its energy share ``||alpha*s||^2 / ||W||^2`` of
    its layer, and 0 where ``||W||^2`` is 0. Only the deepest level of a block
    is removable at any moment (and never the base level); peeling
    deepest-first keeps the remaining stack identical to an earlier state of
    the conversion, so each removal raises the layer's delta by exactly the
    removed level's importance while the levels keep their fitted scales.
    After ``quantize_scales_8bit`` a level is no longer orthogonal to the
    residual it leaves, and the stored delta only approximates ``layer_delta``.
    Removal order is globally smallest-importance-first over that frontier,
    ties to the earlier layer and block: each block's residual levels,
    deepest first, form one row of ``chain_order``. ``target_factor`` budgets
    ``floor(factor * blocks)`` levels. Either budget is capped at the model's
    level count, which ``provenance["downgraded_to_levels"]`` then records.
    Returns a new model; the input model is untouched.
    """
    if (keep_levels is None) == (target_factor is None):
        raise ValueError("give exactly one of keep_levels or target_factor")
    if keep_levels is not None and not is_count(keep_levels, 0):
        raise ValueError(f"keep_levels must be a non-negative integer, got {keep_levels!r}")
    base_blocks = model.num_blocks
    if target_factor is not None:
        if not np.isfinite(target_factor):
            raise ValueError(f"target factor must be finite, got {target_factor}")
        budget = np.floor(target_factor * base_blocks + 1e-9)  # may pass the float range
        keep_levels = int(np.clip(budget, 0, model.num_levels))
    if keep_levels < base_blocks:
        raise ValueError(
            f"budget of {keep_levels} levels is below the {base_blocks} base levels"
        )
    keep_levels = int(min(keep_levels, model.num_levels))

    # One pass over every layer's levels, concatenated block-major (an empty
    # first array keeps the empty model and sets each dtype). Row b of ``keys``
    # holds global block b's residual importances, deepest level first.
    layers = model.layers
    counts = np.concatenate([np.zeros(0, np.int64), *(l.counts for l in layers)])
    alphas = np.concatenate([np.zeros(0), *(l.alphas for l in layers)])
    nnz = np.concatenate([np.zeros(0), *(_nonzero_counts(l.signs) for l in layers)])
    norms = np.repeat([l.source_norm_sq for l in layers], [l.num_levels for l in layers])
    imp = np.divide(alphas ** 2 * nnz, norms, out=np.zeros(len(alphas)), where=norms > 0.0)
    owner, depth = level_index(counts)
    width = int(counts.max(initial=1)) - 1
    keys = np.zeros((len(counts), width))
    live = np.zeros(keys.shape, dtype=bool)
    res = depth > 0
    at = (owner * width + counts[owner] - 1 - depth)[res]
    keys.reshape(-1)[at] = imp[res]
    live.reshape(-1)[at] = True
    rows, cols = (a[:model.num_levels - keep_levels] for a in chain_order(keys, live))
    counts -= np.bincount(rows, minlength=len(counts))
    keep = depth < counts[owner]

    removed = keys[rows, cols]
    layer_of = np.repeat(np.arange(len(layers)), [l.num_blocks for l in layers])[rows]
    new_layers, b0, v0 = [], 0, 0
    for i, l in enumerate(layers):
        b1, v1 = b0 + l.num_blocks, v0 + l.num_levels
        # Added one at a time in removal order, as ``np.sum`` would not.
        delta = float(np.cumsum(np.append(l.delta, removed[layer_of == i]))[-1])
        new_layers.append(replace(
            l, counts=counts[b0:b1].astype(np.int32), alphas=np.compress(keep[v0:v1], l.alphas),
            signs=np.compress(keep[v0:v1], l.signs, axis=0), delta=delta, trace=Trace(),
        ))
        b0, v0 = b1, v1
    provenance = dict(model.provenance)
    provenance["downgraded_to_levels"] = keep_levels
    return QuantizedModel(model.manifest_doc, tuple(new_layers), provenance)


def fixed_point_exponent(peak: float) -> int:
    """The smallest integer e with ``peak <= 127 * 2^e``, for a finite ``peak > 0``.

    ``2^e`` is the step of the 8-bit dynamic fixed-point grid covering
    ``[-peak, peak]``. With ``peak = m * 2^k`` and ``1/2 <= m < 1``, e is
    ``k - 7`` if ``128 * m <= 127`` and ``k - 6`` if not; both tests are exact.
    """
    m, k = math.frexp(peak)
    return k - 7 if m * 128.0 <= 127.0 else k - 6


def snap_8bit(values: np.ndarray, peak: float) -> tuple[np.ndarray, int]:
    """Round float32 ``values`` onto the 8-bit grid covering ``[-peak, peak]``.

    Returns ``clip(round(v / 2^e), -128, 127) * 2^e`` for every v, and e, the
    ``fixed_point_exponent`` of ``peak > 0`` raised to -149: every float32 is
    a whole multiple of 2^-149, so a finer grid would change nothing. A peak
    past ``127 * 2^121``, whose step would round it to 2^128, raises ``ValueError``.
    """
    if not peak <= 127.0 * 2.0 ** FLOAT32_MAX_EXPONENT:
        raise ValueError(f"cannot snap values beyond 127 * 2^{FLOAT32_MAX_EXPONENT} onto "
                         f"a float32 8-bit grid, peak {peak:.9g}")
    e = max(fixed_point_exponent(peak), FLOAT32_MIN_EXPONENT)
    step = np.float32(2.0 ** e)
    out = np.divide(values, step, out=np.empty_like(values))
    np.round(out, out=out)
    np.clip(out, -128, 127, out=out)
    out *= step
    return out, e


def quantize_scales_8bit(
    model: QuantizedModel, weights: dict[str, Tensor]
) -> QuantizedModel:
    """Snap every scaling factor to dynamic fixed point with 8-bit mantissa.

    Per layer, a shared power-of-two step makes the largest alpha fit in 127
    units: ``alpha_hat = snap_8bit(alpha, max(alpha))``, the float32 grid of
    ``quantize_activations``, so a scale past 127 * 2^121 raises ``ValueError``.
    A level whose alpha snaps to zero loses its signs. Deltas are recomputed
    from the modified levels against the source tensors. Layers whose scales
    are all zero pass through untouched.
    """
    new_layers = []
    for l in model.layers:
        amax = float(l.alphas.max(initial=0.0))
        if amax == 0.0:
            new_layers.append(l)
            continue
        alphas = snap_8bit(l.alphas, amax)[0]
        signs = np.where((alphas == 0.0)[:, None], np.int8(0), l.signs)
        probe = replace(l, alphas=alphas, signs=signs, trace=Trace())
        new_layers.append(replace(probe, delta=layer_delta(weights[l.layer], probe)))
    provenance = dict(model.provenance)
    provenance["scales_8bit"] = True
    return QuantizedModel(model.manifest_doc, tuple(new_layers), provenance)


def write_trace_csv(layers: list[QuantizedLayer], path) -> None:
    """Dump the greedy iteration log of one or more conversions."""
    with open(str(path), "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["iteration", "layer", "block", "E_k_before", "delta_after"])
        for layer in layers:
            t = layer.trace
            rows = zip(t.blocks.tolist(), t.e_before.tolist(), t.deltas[1:].tolist())
            for i, (k, e, d) in enumerate(rows, 1):
                writer.writerow([i, layer.layer, k, f"{e:.17g}", f"{d:.17g}"])
