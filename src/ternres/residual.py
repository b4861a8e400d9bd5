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
  accept order is ``chain_order(-errs, live)``. A key exists while ``d + 1 <
  r_max`` and the block's errors are positive.
- Rounds. Round d fits level d of every block whose chain is live at depth
  d - 1, one ``ternarize_rows`` call per chunk per block length. A chunk's
  float64 ``(blocks, N)`` work arrays hold about ``CHUNK_BYTES``, and the
  float32 source widens to float64 one chunk at a time (exactly). The kernel
  and the per-row error product are row-wise, so the chunk size moves no
  bit. The sorted keys hold up to the first key at the last fitted depth;
  that prefix is final, and the order picks up where it ends after the
  next round.
- Exact deltas. The loop stores ``(np.sum(errs * errs) - errs[k] ** 2 +
  new ** 2) / ||W||^2`` per step. ``pairwise_version_sums`` replays numpy's
  pairwise summation (chains of at most 16 strided elements under spans of
  128, halves split on multiples of 8) for every step at once. The scalar
  ``** 2`` calls libm ``pow``, which can differ from ``x * x`` in the last
  bit; ``np.float_power(x, 2.0)`` gives the same bits.
- Stop rules are masks along the order: ``delta <= epsilon^2``, a zero
  alpha, a ``delta`` that does not fall, and running out of keys (which
  raises ConvergenceError if a capped block still carries error).
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError
from .tensors import BlockView, Tensor
from .ternary import ternarize_rows
from .ternary import ternarize  # noqa: F401  (bench/workloads.py traces this name)

DEFAULT_R_MAX = 16
CHUNK_BYTES = 256 << 10  # a fit chunk's float64 (blocks, N) work arrays stay near this size
_PW_SPAN = 128  # numpy sums at most this many elements without halving


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    layer: str
    block: int
    e_k_before: float
    delta_after: float


class Trace(Sequence):
    """The greedy iteration log of one conversion, held as arrays.

    Row i is the ``TraceRow`` of iteration i+1: the block that received a
    level, its residual norm before, and ``delta`` after.
    """

    def __init__(self, layer: str, blocks, e_before, delta_after):
        self.layer = layer
        self.blocks = np.asarray(blocks, dtype=np.int64)
        self.e_before = np.asarray(e_before, dtype=np.float64)
        self.delta_after = np.asarray(delta_after, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        i = range(len(self))[i]
        return TraceRow(i + 1, self.layer, int(self.blocks[i]),
                        float(self.e_before[i]), float(self.delta_after[i]))


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
    trace: Sequence[TraceRow] = field(default=(), repr=False)
    delta_sequence: tuple[float, ...] = field(default=(), repr=False)

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

    Returns ``(table, chain_of, col_of, kids, parent, depth)``: each chain's
    elements as a row padded with -1, the chain and the column of every
    element, each binary node's two children, and each node's parent and
    depth. Chains are numbered first, then binary nodes; the root is last.
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
    c = len(chains)
    kids = np.array(kids, dtype=np.int64).reshape(-1, 2)
    kids = np.where(kids < 0, c - 1 - kids, kids)
    parent = np.full(c + len(kids), -1)
    parent[kids] = np.arange(c, c + len(kids))[:, None]
    depth = np.zeros(c + len(kids), dtype=np.int64)
    for b in range(len(kids) - 1, -1, -1):  # a parent is numbered after its children
        depth[kids[b]] = depth[c + b] + 1
    table = np.full((c, max(map(len, chains))), -1)
    chain_of, col_of = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for i, ch in enumerate(chains):
        table[i, :len(ch)] = ch
        chain_of[ch.start:ch.stop:ch.step] = i
        col_of[ch.start:ch.stop:ch.step] = np.arange(len(ch))
    return table, chain_of, col_of, kids, parent, depth


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
    one chain of numpy's summation tree: the chain
    is re-added from its elements' latest values, and each node above it
    adds its sibling's latest value before that update. All updates go up
    together, one tree level at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = np.asarray(pos, dtype=np.int64)
    new = np.asarray(new, dtype=np.float64)
    if tree is None:
        tree = _pairwise_tree(len(x))
    table, chain_of, col_of, kids, parent, depth = tree
    c, nodes = len(table), len(parent)
    padded = np.append(x, 0.0)  # a short chain's -1 columns read 0.0, which adds nothing

    def chain_sums(rows):
        out = rows[:, 0].copy()
        for i in range(1, rows.shape[1]):
            out += rows[:, i]
        return out

    # Every node's value before the first update, children before parents.
    value = np.empty(nodes)
    value[:c] = chain_sums(padded[table])
    for t in range(int(depth.max()) - 1, -1, -1):
        b = np.flatnonzero(depth[c:] == t)
        value[c + b] = value[kids[b, 0]] + value[kids[b, 1]]
    m = len(pos)
    if m == 0:
        return value[-1:].copy()
    sibling = np.empty(nodes, dtype=np.int64)
    sibling[kids[:, 0]], sibling[kids[:, 1]] = kids[:, 1], kids[:, 0]

    # Each updated chain from its elements' latest values: updates grouped
    # by chain in order, each column's latest writer by a running max.
    node = chain_of[pos]
    order = np.argsort(node, kind="stable")
    writer = np.full((m, table.shape[1]), -1)
    writer[np.arange(m), col_of[pos[order]]] = np.arange(m)
    np.maximum.accumulate(writer, axis=0, out=writer)
    fresh = writer >= _run_starts(node[order])[:, None]
    val = np.empty(m)
    val[order] = chain_sums(np.where(fresh, new[order][writer], padded[table[node[order]]]))

    # Up the tree: the updates at one depth, grouped by parent in order; a
    # node's sibling holds the value of the last earlier update through it.
    for t in range(int(depth[node].max()), 0, -1):
        at = np.flatnonzero(depth[node] == t)
        here = node[at]
        order = np.argsort(parent[here], kind="stable")
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

    ``live`` is a prefix of each row. The heap holds one entry per row, keyed
    ``(keys[r, c], r)``, starting at column 0; popping entry c of row r pushes
    entry c+1. An entry cannot leave before the ones ahead of it in its row,
    and once they have left, it leaves as soon as its row's largest key so far
    is the smallest in the heap: a key that does not rise is popped at once,
    since ``(key, r)`` is then at most the entry just popped. So the pop order
    is one sort by (the row's running max of keys, row, column).
    """
    rows, cols = np.nonzero(live)
    order = np.lexsort((cols, rows, np.maximum.accumulate(keys, axis=1)[rows, cols]))
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
    eps_sq = float(epsilon_sq) if epsilon_sq is not None else float(epsilon) ** 2
    if not (0.0 < eps_sq <= 1.0):
        raise ValueError(f"tolerance^2 must be in (0, 1], got {eps_sq}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
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
    # errs[k, d] is block k's residual norm after its levels 0..d, alphas[k, d]
    # the scale of its level d and signs[d][k] its sign row, once fitted.
    errs = np.zeros((num_blocks, r_max))
    alphas = np.zeros((num_blocks, r_max))
    signs = []

    def fit(ks: np.ndarray) -> None:
        """Fit level ``len(signs)`` of ascending blocks ``ks``, one kernel call per
        chunk of at most ``step`` blocks of one length."""
        depth = len(signs)
        signs.append(np.zeros((num_blocks, width), dtype=np.int8))
        split = np.searchsorted(ks, full)
        for part, n in ((ks[:split], block_size), (ks[split:], tail)):
            for at in range(0, part.size, step):
                c = part[at:at + step]
                source = target[c, :n].astype(np.float64)  # exact: a float32 widens
                recon = recons[c, :n]
                alpha, s, _ = ternarize_rows(source - recon.astype(np.float64))
                new_recon = recon + alpha.astype(np.float32)[:, None] * s.astype(np.float32)
                diff = source - new_recon.astype(np.float64)
                # Stacked 1xn @ nx1 products sum each row exactly as ``diff @ diff``.
                errs[c, depth] = np.sqrt(
                    np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
                alphas[c, depth] = alpha
                signs[depth][c, :n] = s
                recons[c, :n] = new_recon

    fit(every)
    counts = np.ones(num_blocks, dtype=np.int64)
    current = errs[:, 0]
    # An all-zero tensor keeps its alpha=0 base levels, delta 0 by convention.
    delta = float(np.sum(current * current)) / total_sq if total_sq > 0.0 else 0.0
    delta0 = delta
    steps = []  # (blocks, errors before, deltas after) of the accepted levels
    exhausted = False
    tree = _pairwise_tree(num_blocks)  # the order of every ``np.sum(errs * errs)``
    done = 0  # levels accepted past the base ones: a prefix of the key order

    while delta > eps_sq:
        # Every fitted key in the loop's order, which holds up to the first key
        # at the last fitted depth (its next level is not fitted yet).
        depth = len(signs)
        cols = np.arange(depth)
        ok = (errs[:, :depth] > 0.0) & ((alphas[:, :depth] != 0.0) | (cols == 0))
        live = np.logical_and.accumulate(ok, axis=1) & (cols + 1 < r_max)
        kb, kd = chain_order(-errs[:, :depth], live)
        unfitted = kd == depth - 1
        stop = int(np.argmax(unfitted)) if unfitted.any() else len(kb)

        b, d = kb[done:stop], kd[done:stop]
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
            done = stop
        current = errs[every, counts - 1]
        if delta <= eps_sq:
            break
        if stop == len(kb):
            if np.any((counts >= r_max) & (current > 0.0)):
                raise ConvergenceError(w.name, delta, eps_sq, r_max)
            exhausted = True  # every residual is exactly zero yet delta > eps^2
            break
        fit(np.flatnonzero(live[:, -1]))  # every block whose chain is live

    del target, recons  # freed before the gather below stacks the sign rows
    # Keep the accepted levels, block-major with each block's base level first.
    owner, level = level_index(counts)
    blocks, e_before, after = (np.concatenate(part) for part in zip(
        (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)), *steps))
    return QuantizedLayer(
        w.name, w.shape, block_size, counts.astype(np.int32),
        alphas[owner, level].astype(np.float32), np.stack(signs)[level, owner],
        delta, eps_sq, total_sq, exhausted=exhausted,
        trace=Trace(w.name, blocks, e_before, after),
        delta_sequence=tuple(np.concatenate([[delta0], after]).tolist()),
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


def downgrade(
    model: QuantizedModel,
    *,
    keep_levels: int | None = None,
    target_factor: float | None = None,
) -> QuantizedModel:
    """Drop the least important residual levels until a level budget is met.

    Importance of a level is its energy share ``||alpha*s||^2 / ||W||^2`` of
    its layer. Only the deepest level of a block is removable at any moment
    (and never the base level); peeling deepest-first keeps the remaining
    stack identical to an earlier state of the conversion, so each removal
    raises the layer's delta by exactly the removed level's importance.
    Removal order is globally smallest-importance-first over that frontier,
    ties to the earlier layer and block: each block's residual levels,
    deepest first, form one row of ``chain_order``. Returns a new model; the
    input model is untouched.
    """
    if (keep_levels is None) == (target_factor is None):
        raise ValueError("give exactly one of keep_levels or target_factor")
    base_blocks = model.num_blocks
    if target_factor is not None:
        if not np.isfinite(target_factor):
            raise ValueError(f"target factor must be finite, got {target_factor}")
        keep_levels = int(np.floor(target_factor * base_blocks + 1e-9))
    if keep_levels < base_blocks:
        raise ValueError(
            f"budget of {keep_levels} levels is below the {base_blocks} base levels"
        )

    # Row b holds global block b's residual importances, deepest level first.
    sizes = [l.num_blocks for l in model.layers]
    starts = np.cumsum(sizes) - sizes
    depth_max = max((int(l.counts.max(initial=1)) for l in model.layers), default=1)
    keys = np.zeros((model.num_blocks, depth_max - 1))
    live = np.zeros(keys.shape, dtype=bool)
    for l, start in zip(model.layers, starts):
        if l.source_norm_sq <= 0.0:
            continue
        nnz = np.count_nonzero(l.signs, axis=1)
        imp = l.alphas.astype(np.float64) ** 2 * nnz / l.source_norm_sq
        owner, depth = level_index(l.counts)
        res = depth > 0
        cols = l.counts[owner[res]] - 1 - depth[res]
        keys[start + owner[res], cols] = imp[res]
        live[start + owner[res], cols] = True
    rows, cols = (a[:max(model.num_levels - keep_levels, 0)] for a in chain_order(keys, live))

    new_layers = []
    for l, start in zip(model.layers, starts):
        mine = (rows >= start) & (rows < start + l.num_blocks)
        counts = l.counts - np.bincount(rows[mine] - start, minlength=l.num_blocks)
        # Added one at a time in removal order, as ``np.sum`` would not.
        delta = float(np.cumsum(np.append(l.delta, keys[rows[mine], cols[mine]]))[-1])
        owner, depth = level_index(l.counts)
        keep = depth < counts[owner]
        new_layers.append(replace(
            l, counts=counts.astype(np.int32), alphas=l.alphas[keep], signs=l.signs[keep],
            delta=delta, trace=(), delta_sequence=(),
        ))
    provenance = dict(model.provenance)
    provenance["downgraded_to_levels"] = keep_levels
    return QuantizedModel(model.manifest_doc, tuple(new_layers), provenance)


def fixed_point_exponent(peak: float) -> int:
    """The smallest integer e with ``peak <= 127 * 2^e``, for ``peak > 0``.

    ``2^e`` is the step of the 8-bit dynamic fixed-point grid covering
    ``[-peak, peak]``.
    """
    e = int(np.ceil(np.log2(peak / 127.0)))
    while peak > 127.0 * 2.0 ** e:  # guard against log2 rounding
        e += 1
    while peak <= 127.0 * 2.0 ** (e - 1):
        e -= 1
    return e


def snap_8bit(values: np.ndarray, exponent: int) -> np.ndarray:
    """``clip(round(v / 2^e), -128, 127) * 2^e`` for every v, in the dtype of
    ``values``; a float32 step ``2^e`` is 0 below e = -149."""
    step = values.dtype.type(2.0 ** exponent)
    out = np.divide(values, step, out=np.empty_like(values))
    np.round(out, out=out)
    np.clip(out, -128, 127, out=out)
    out *= step
    return out


def quantize_scales_8bit(
    model: QuantizedModel, weights: dict[str, Tensor]
) -> QuantizedModel:
    """Snap every scaling factor to dynamic fixed point with 8-bit mantissa.

    Per layer, a shared power-of-two step makes the largest alpha fit in 127
    units: ``alpha_hat = snap_8bit(alpha, e)``, computed in float64. A level
    whose alpha snaps to zero loses its signs. Deltas are recomputed from the
    modified levels against the source tensors. Layers whose scales are all
    zero pass through untouched.
    """
    new_layers = []
    for l in model.layers:
        amax = float(l.alphas.max(initial=0.0))
        if amax == 0.0:
            new_layers.append(l)
            continue
        e = fixed_point_exponent(amax)
        alphas = snap_8bit(l.alphas.astype(np.float64), e).astype(np.float32)
        signs = np.where((alphas == 0.0)[:, None], np.int8(0), l.signs)
        probe = replace(l, alphas=alphas, signs=signs, trace=(), delta_sequence=())
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
            for row in layer.trace:
                writer.writerow([
                    row.iteration, row.layer, row.block,
                    f"{row.e_k_before:.17g}", f"{row.delta_after:.17g}",
                ])
