"""Embedding model: initialization, propagation, channel combination.

The model is linear in the initial embeddings: each channel applies an
average of powers of its normalized adjacency, user embeddings are averaged
across channels, and affinity is an inner product.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import RecordError, open_text
from .graphs import BipartiteGraph, NormalizedAdjacency, build_adjacency
from .ingest import (
    Container,
    checked_id_block,
    id_block,
    normalize_hashtag,
    read_container,
    write_container,
)

LOGGER = logging.getLogger(__name__)

# Largest dense user-channel polynomial kept, in bytes (n_users**2 * 8).
# Above it the user channels stay sparse and are applied layer by layer.
DENSE_POLY_BYTES = 1 << 27
# Columns of the dense polynomial built per Horner step; bounds the two
# block buffers to n_users * 64 floats each.
POLY_BLOCK_COLUMNS = 64

# Header: version, users, hashtags, dim, seed, id bytes. Arrays: user rows,
# hashtag rows, then the ids as ingest.id_block's JSON [users, hashtags].
CHECKPOINT = Container("checkpoint", b"SGEMB\x00", struct.Struct("<IQQQqQ"), 2,
                       lambda n, m, d, seed, id_bytes: [("<f8", n * d), ("<f8", m * d),
                                                        ("u1", id_bytes)])


@dataclass
class EmbeddingState:
    users: np.ndarray  # (n_users, dim)
    hashtags: np.ndarray  # (n_hashtags, dim)
    seed: int

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.users, self.hashtags], axis=0)

    @staticmethod
    def from_stacked(stacked: np.ndarray, n_users: int, seed: int) -> "EmbeddingState":
        return EmbeddingState(
            users=stacked[:n_users].copy(),
            hashtags=stacked[n_users:].copy(),
            seed=seed,
        )


@dataclass(frozen=True)
class ChannelSet:
    """Optional side channels next to the bipartite graph: the user graphs'
    summed layer-average polynomial for the run's n_layers (user_channels),
    or None, and pretrained vectors, which pin their hashtag rows when
    present. The user graphs do not depend on the training fold, so a
    process builds the operator once and keeps no graph."""

    users: np.ndarray | UserChannelSum | None
    n_user_channels: int
    pretrained: dict[int, np.ndarray] | None = None


def init_embeddings(
    n_users: int,
    n_hashtags: int,
    cfg: RunConfig,
    seed: int,
    pretrained: dict[int, np.ndarray] | None,
) -> EmbeddingState:
    """Xavier-uniform initialization; bounds depend on each side's count.

    Pretrained hashtag vectors (load_pretrained_vectors) overwrite their
    rows after the draw, so the random stream is independent of which rows
    are pinned.
    """
    rng = np.random.default_rng(seed)
    bound_u = np.sqrt(6.0 / (n_users + cfg.dim))
    users = rng.uniform(-bound_u, bound_u, size=(n_users, cfg.dim))
    bound_h = np.sqrt(6.0 / (n_hashtags + cfg.dim))
    hashtags = rng.uniform(-bound_h, bound_h, size=(n_hashtags, cfg.dim))
    for idx, vec in (pretrained or {}).items():
        hashtags[idx] = vec
    return EmbeddingState(users=users, hashtags=hashtags, seed=seed)


def load_pretrained_vectors(path, hashtags: list[str], dim: int) -> dict[int, np.ndarray]:
    """Read whitespace-separated 'hashtag v1 .. vd' lines. Each hashtag is
    normalized as in ingest, and tags absent from the corpus are skipped
    with a warning. A hashtag that normalizes to empty or repeats an earlier
    line's, a line with other than `dim` components, or a component that is
    not a finite float raises RecordError."""
    index = {h: j for j, h in enumerate(hashtags)}
    out: dict[int, np.ndarray] = {}
    seen: set[str] = set()
    with open_text(path, strict=True, named=True) as lines:
        for line_no, line in enumerate(lines, 1):
            parts = line.split()
            if not parts:
                continue
            tag = normalize_hashtag(parts[0], line_no)
            if tag in seen:
                raise RecordError(f"repeated hashtag {tag!r}", line_no)
            seen.add(tag)
            values = parts[1:]
            if len(values) != dim:
                raise RecordError(f"expected {dim} components, got {len(values)}", line_no)
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise RecordError(f"bad float: {exc}", line_no) from exc
            if not np.isfinite(vec).all():
                raise RecordError("non-finite component", line_no)
            if tag not in index:
                LOGGER.warning("pretrained vector for unknown hashtag %r skipped", tag)
                continue
            out[index[tag]] = vec
    return out


def layer_averaged_propagate(adj: NormalizedAdjacency, X: np.ndarray, n_layers: int) -> np.ndarray:
    """The mean of the layer outputs X, A X, .., A^K X with K = n_layers."""
    acc = X.copy()
    H = X
    for _ in range(n_layers):
        H = adj.matrix @ H
        acc += H
    return acc / (n_layers + 1)


@dataclass(frozen=True)
class UserChannelSum:
    """The sum of the layer-average polynomials of normalized user graphs,
    applied sparse, layer by layer: `S @ X` is the sum of each graph's
    layer_averaged_propagate of X. Each term is symmetric, so `S.T` is S."""

    ops: tuple[NormalizedAdjacency, ...]
    n_layers: int

    @property
    def T(self) -> "UserChannelSum":
        return self

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return sum(layer_averaged_propagate(op, X, self.n_layers) for op in self.ops)


def _add_horner_polynomial(P: np.ndarray, A: np.ndarray, n_layers: int,
                           blocks: np.ndarray) -> None:
    """P += (I + A(I + A(.. (I + A))))/(K + 1) with K = n_layers, by Horner's
    rule, POLY_BLOCK_COLUMNS columns at a time: the first step is A's
    columns plus I's, and each of the K - 1 others is one gemm into the
    other of the two block buffers."""
    n = A.shape[0]
    for start in range(0, n, POLY_BLOCK_COLUMNS):
        stop = min(start + POLY_BLOCK_COLUMNS, n)
        H, spare = blocks[:, :, : stop - start]
        diagonal = (np.arange(start, stop), np.arange(stop - start))
        H[...] = A[:, start:stop] if n_layers else 0.0
        H[diagonal] += 1.0
        for _ in range(n_layers - 1):
            np.matmul(A, H, out=spare)
            spare[diagonal] += 1.0
            H, spare = spare, H
        H /= n_layers + 1
        P[:, start:stop] += H


def build_user_operator(ops: list[NormalizedAdjacency], n_layers: int):
    """The sum of the layer-average polynomials of the normalized user
    graphs `ops`: above DENSE_POLY_BYTES the sparse UserChannelSum, else
    one dense (n_users, n_users) array P, so that P @ X equals
    UserChannelSum(ops, n_layers) @ X up to rounding. Either answers `@`
    and `.T`.

    The dense build empties `ops`, largest graph first, so that no
    normalized graph outlives it and the memory held stays near P plus one
    dense adjacency A: the largest graph is densified into A and its sparse
    form dropped before P is allocated, and each later graph is densified
    into the same A.
    """
    n = ops[0].size
    if n * n * 8 > DENSE_POLY_BYTES:
        return UserChannelSum(tuple(ops), n_layers)
    ops.sort(key=lambda op: op.matrix.nnz)
    A = ops.pop().matrix.toarray()
    P = np.zeros((n, n))
    blocks = np.empty((2, n, POLY_BLOCK_COLUMNS))
    _add_horner_polynomial(P, A, n_layers, blocks)
    while ops:
        A.fill(0.0)
        ops.pop().matrix.toarray(out=A)
        _add_horner_polynomial(P, A, n_layers, blocks)
    return P


def user_channels(ops: list[NormalizedAdjacency], n_layers: int, pretrained) -> ChannelSet:
    """The ChannelSet of the pretrained vectors and of build_user_operator
    of the normalized user graphs `ops`, if any, for `n_layers`."""
    n_user_channels = len(ops)  # the dense build empties ops
    users = build_user_operator(ops, n_layers) if ops else None
    return ChannelSet(users, n_user_channels, pretrained)


@dataclass
class ChannelOperators:
    """The fold's bipartite operator beside the ChannelSet's user operator or None."""

    bipartite: NormalizedAdjacency
    n_users: int
    n_channels: int  # the bipartite channel plus the user channels
    users: np.ndarray | UserChannelSum | None


def build_operators(graph: BipartiteGraph, channels: ChannelSet | None) -> ChannelOperators:
    """The fold graph's operator beside `channels`' user operator, which
    user_channels built for the run's n_layers over the same users."""
    channels = channels or ChannelSet(None, 0)
    return ChannelOperators(build_adjacency(graph), graph.n_users,
                            1 + channels.n_user_channels, channels.users)


@dataclass
class PropagationOutput:
    final_users: np.ndarray
    final_hashtags: np.ndarray


def forward(stacked: np.ndarray, ops: ChannelOperators, cfg: RunConfig) -> PropagationOutput:
    """Run every channel and average the user sides.

    Hashtag embeddings come from the bipartite channel alone; user-user
    channels have no hashtag nodes. All user channels together cost one
    product with `ops.users`.
    """
    n = ops.n_users
    bip = layer_averaged_propagate(ops.bipartite, stacked, cfg.n_layers)
    users = bip[:n] if ops.users is None else bip[:n] + ops.users @ stacked[:n]
    return PropagationOutput(final_users=users / ops.n_channels, final_hashtags=bip[n:])


def save_checkpoint(path, state: EmbeddingState, users: list[str], hashtags: list[str]) -> None:
    """Write the embeddings and the ids of their rows as one CHECKPOINT
    container."""
    n, d = state.users.shape
    m = state.hashtags.shape[0]
    ids = id_block(users, hashtags)
    write_container(path, CHECKPOINT, (n, m, d, state.seed, len(ids)),
                    [state.users, state.hashtags, ids])


def load_checkpoint(path) -> tuple[EmbeddingState, list[str], list[str]]:
    """Read save_checkpoint's file. Besides read_container's refusals, a
    dimension below 1 or too large for an array, a non-finite value, and
    ids that ingest.checked_id_block refuses raise RecordError."""
    (n, m, d, seed, _), (users, tags, block) = read_container(path, CHECKPOINT)
    # With no rows the file size does not bound d, so numpy's limit must.
    if not 1 <= d <= np.iinfo(np.intp).max // 8:
        raise RecordError(f"{path}: embedding dimension {d} out of range")
    if not (np.isfinite(users).all() and np.isfinite(tags).all()):
        raise RecordError(f"{path}: non-finite embedding value")
    user_ids, tag_ids = checked_id_block(block, (n, m), path)
    state = EmbeddingState(users=users.reshape(n, d), hashtags=tags.reshape(m, d), seed=seed)
    return state, user_ids, tag_ids
