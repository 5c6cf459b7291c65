"""Embedding model: initialization, propagation, channel combination.

The model is linear in the initial embeddings: each channel applies an
average of powers of its normalized adjacency, user embeddings are averaged
across channels, and affinity is an inner product.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RecordError, ShapeError
from .graphs import (
    CHECKPOINT,
    BipartiteGraph,
    NormalizedAdjacency,
    UserGraph,
    build_adjacency,
    normalize_user_graph,
    read_container,
    write_container,
)
from .ingest import checked_ids

LOGGER = logging.getLogger(__name__)

# Largest dense user-channel polynomial kept, in bytes (n_users**2 * 8).
# Above it the user channels stay sparse and are applied layer by layer.
DENSE_POLY_BYTES = 1 << 27
# Identity columns pushed through the sparse operators per step while the
# dense polynomial is built; bounds the temporaries to n_users * 64 floats.
POLY_BLOCK_COLUMNS = 64


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 16
    n_layers: int = 3
    use_social: bool = False
    use_pathsim: bool = False
    use_pretrained: bool = False
    # The layer average includes the initial embeddings by default; turning
    # this off keeps the same divisor but drops the k=0 term.
    include_layer0: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be at least 1")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be nonnegative")


@dataclass
class EmbeddingState:
    users: np.ndarray  # (n_users, dim)
    hashtags: np.ndarray  # (n_hashtags, dim)
    seed: int = 0

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.users, self.hashtags], axis=0)

    @staticmethod
    def from_stacked(stacked: np.ndarray, n_users: int, seed: int = 0) -> "EmbeddingState":
        return EmbeddingState(
            users=stacked[:n_users].copy(),
            hashtags=stacked[n_users:].copy(),
            seed=seed,
        )


@dataclass
class ChannelSet:
    """Optional side channels next to the bipartite graph.

    The channel graphs do not depend on the training fold, so the dense
    user polynomial of each model shape is built once per instance and
    reused until one of the graphs it was built from is replaced.
    """

    social: UserGraph | None = None
    pathsim: UserGraph | None = None
    pretrained: dict[int, np.ndarray] | None = None
    # (n_layers, include_layer0, use_social, use_pathsim) -> (graphs, P).
    # Each entry holds its graphs, so an identity test cannot alias.
    _polys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def user_graphs(self, cfg: ModelConfig) -> tuple[UserGraph, ...]:
        """The user graphs cfg enables, social first."""
        return tuple(g for use, g in ((cfg.use_social, self.social),
                                      (cfg.use_pathsim, self.pathsim)) if use)

    def user_polynomial(self, cfg: ModelConfig) -> np.ndarray:
        """Memoized dense_user_polynomial of the enabled graphs."""
        graphs = self.user_graphs(cfg)
        key = (cfg.n_layers, cfg.include_layer0, cfg.use_social, cfg.use_pathsim)
        hit = self._polys.get(key)
        if hit is None or any(old is not new for old, new in zip(hit[0], graphs)):
            hit = (graphs, dense_user_polynomial(graphs, cfg.n_layers, cfg.include_layer0))
            self._polys[key] = hit
        return hit[1]


def init_embeddings(
    n_users: int,
    n_hashtags: int,
    cfg: ModelConfig,
    seed: int,
    pretrained: dict[int, np.ndarray] | None = None,
) -> EmbeddingState:
    """Xavier-uniform initialization; bounds depend on each side's count.

    Pretrained hashtag vectors overwrite their rows after the draw, so the
    random stream is independent of which rows are pinned.
    """
    rng = np.random.default_rng(seed)
    bound_u = np.sqrt(6.0 / (n_users + cfg.dim))
    users = rng.uniform(-bound_u, bound_u, size=(n_users, cfg.dim))
    bound_h = np.sqrt(6.0 / (n_hashtags + cfg.dim))
    hashtags = rng.uniform(-bound_h, bound_h, size=(n_hashtags, cfg.dim))
    if cfg.use_pretrained:
        if pretrained is None:
            raise ConfigError("use_pretrained is set but no vectors were given")
        for idx, vec in pretrained.items():
            vec = np.asarray(vec, dtype=np.float64)
            if not (0 <= idx < n_hashtags):
                raise ShapeError(f"pretrained row {idx} out of range")
            if vec.shape != (cfg.dim,):
                raise ShapeError(
                    f"pretrained vector for row {idx} has shape {vec.shape}, want ({cfg.dim},)"
                )
            hashtags[idx] = vec
    return EmbeddingState(users=users, hashtags=hashtags, seed=seed)


def load_pretrained_vectors(path, hashtags: list[str], dim: int) -> dict[int, np.ndarray]:
    """Read whitespace-separated 'hashtag v1 .. vd' lines; tags absent from
    the corpus are skipped with a warning."""
    index = {h: j for j, h in enumerate(hashtags)}
    out: dict[int, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            tag, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ShapeError(
                    f"line {line_no}: expected {dim} components, got {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise RecordError(f"bad float: {exc}", line_no) from exc
            if tag not in index:
                LOGGER.warning("pretrained vector for unknown hashtag %r skipped", tag)
                continue
            out[index[tag]] = vec
    return out


def propagate(adj: NormalizedAdjacency, E0: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """All layer outputs H^0 .. H^K of repeated operator application."""
    if E0.shape[0] != adj.size:
        raise ShapeError(f"embedding rows {E0.shape[0]} do not match operator size {adj.size}")
    layers = [E0]
    H = E0
    for _ in range(n_layers):
        H = adj.matrix @ H
        layers.append(H)
    return layers


def layer_averaged_propagate(
    adj: NormalizedAdjacency, X: np.ndarray, n_layers: int, include_layer0: bool = True
) -> np.ndarray:
    """Average of layer outputs; the divisor is always n_layers + 1."""
    if X.shape[0] != adj.size:
        raise ShapeError(f"embedding rows {X.shape[0]} do not match operator size {adj.size}")
    acc = X.copy() if include_layer0 else np.zeros_like(X)
    H = X
    for _ in range(n_layers):
        H = adj.matrix @ H
        acc += H
    return acc / (n_layers + 1)


def combine_channels(user_embeddings: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of per-channel user embeddings."""
    if not user_embeddings:
        raise ConfigError("no channels to combine")
    shape = user_embeddings[0].shape
    for e in user_embeddings[1:]:
        if e.shape != shape:
            raise ShapeError("channel embedding shapes differ")
    return sum(user_embeddings) / len(user_embeddings)


def dense_user_polynomial(
    graphs: tuple[UserGraph, ...], n_layers: int, include_layer0: bool = True
) -> np.ndarray:
    """Sum over the graphs of each normalized operator's layer-average
    polynomial, as one dense (n_users, n_users) array.

    Column block b is the sparse layer_averaged_propagate of the identity's
    columns b, so P @ X equals the sum of the sparse channel outputs up to
    rounding. The normalized operators are dropped once P is built.
    """
    ops = [normalize_user_graph(g) for g in graphs]
    n = ops[0].size
    P = np.zeros((n, n))
    for start in range(0, n, POLY_BLOCK_COLUMNS):
        stop = min(start + POLY_BLOCK_COLUMNS, n)
        E = np.zeros((n, stop - start))
        E[np.arange(start, stop), np.arange(stop - start)] = 1.0
        for op in ops:
            P[:, start:stop] += layer_averaged_propagate(op, E, n_layers, include_layer0)
    return P


@dataclass
class ChannelOperators:
    """Propagation operators for every enabled channel.

    The user channels take one of two forms. `user_poly` is the sum of
    their layer-average polynomials as one dense (n_users, n_users) array,
    fixed for the model shape given to build_operators. When that array
    would exceed DENSE_POLY_BYTES, `user_ops` holds their sparse normalized
    operators instead, applied layer by layer.
    """

    bipartite: NormalizedAdjacency
    n_users: int
    n_channels: int = 1  # the bipartite channel plus the enabled user channels
    user_poly: np.ndarray | None = None
    user_ops: tuple[NormalizedAdjacency, ...] = ()


def build_operators(
    graph: BipartiteGraph, channels: ChannelSet | None, cfg: ModelConfig
) -> ChannelOperators:
    if cfg.use_social:
        if channels is None or channels.social is None:
            raise ConfigError("use_social is set but no social graph was given")
        if channels.social.n_users != graph.n_users:
            raise ShapeError("social graph size does not match user count")
    if cfg.use_pathsim:
        if channels is None or channels.pathsim is None:
            raise ConfigError("use_pathsim is set but no meta-path graph was given")
        if channels.pathsim.n_users != graph.n_users:
            raise ShapeError("meta-path graph size does not match user count")
    n = graph.n_users
    n_user_channels = int(cfg.use_social) + int(cfg.use_pathsim)
    ops = ChannelOperators(
        bipartite=build_adjacency(graph), n_users=n, n_channels=1 + n_user_channels
    )
    if n_user_channels and n * n * 8 <= DENSE_POLY_BYTES:
        ops.user_poly = channels.user_polynomial(cfg)
    elif n_user_channels:
        ops.user_ops = tuple(normalize_user_graph(g) for g in channels.user_graphs(cfg))
    return ops


@dataclass
class PropagationOutput:
    final_users: np.ndarray
    final_hashtags: np.ndarray


def forward(stacked: np.ndarray, ops: ChannelOperators, cfg: ModelConfig) -> PropagationOutput:
    """Run every enabled channel and average the user sides.

    Hashtag embeddings come from the bipartite channel alone; user-user
    channels have no hashtag nodes. On the dense path all user channels
    together cost one product with `ops.user_poly`.
    """
    n = ops.n_users
    bip = layer_averaged_propagate(ops.bipartite, stacked, cfg.n_layers, cfg.include_layer0)
    if ops.user_poly is not None:
        users = (bip[:n] + ops.user_poly @ stacked[:n]) / ops.n_channels
    else:
        users = combine_channels([bip[:n]] + [
            layer_averaged_propagate(op, stacked[:n], cfg.n_layers, cfg.include_layer0)
            for op in ops.user_ops
        ])
    return PropagationOutput(final_users=users, final_hashtags=bip[n:])


def affinity(user_vec: np.ndarray, hashtag_vec: np.ndarray) -> float:
    return float(np.dot(user_vec, hashtag_vec))


def score_all(final_users: np.ndarray, final_hashtags: np.ndarray, u: int) -> np.ndarray:
    """Affinity of user u to every hashtag."""
    return final_hashtags @ final_users[u]


def save_checkpoint(path, state: EmbeddingState, users: list[str], hashtags: list[str]) -> None:
    """Write the embeddings and the ids of their rows as one CHECKPOINT
    container."""
    n, d = state.users.shape
    m = state.hashtags.shape[0]
    if state.hashtags.shape[1] != d:
        raise ShapeError("user and hashtag embedding widths differ")
    if len(users) != n or len(hashtags) != m:
        raise ShapeError("id lists do not match embedding shapes")
    ids = _id_block(users, hashtags)
    write_container(path, CHECKPOINT, (n, m, d, state.seed, len(ids)),
                    [state.users, state.hashtags, np.frombuffer(ids, np.uint8)])


def _id_block(users: list[str], hashtags: list[str]) -> bytes:
    return json.dumps([users, hashtags], ensure_ascii=False, separators=(",", ":")).encode()


def load_checkpoint(path) -> tuple[EmbeddingState, list[str], list[str]]:
    """Read save_checkpoint's file. Besides read_container's refusals, a
    dimension below 1 or too large for an array, a non-finite value, ids
    that checked_ids refuses, and an id block that is not the canonical
    JSON [users, hashtags] of the header's lengths raise RecordError."""
    (n, m, d, seed, _), (users, tags, block) = read_container(path, CHECKPOINT)
    # With no rows the file size does not bound d, so numpy's limit must.
    if not 1 <= d <= np.iinfo(np.intp).max // 8:
        raise RecordError(f"{path}: embedding dimension {d} out of range")
    if not (np.isfinite(users).all() and np.isfinite(tags).all()):
        raise RecordError(f"{path}: non-finite embedding value")
    raw = block.tobytes()
    try:
        user_ids, tag_ids = json.loads(raw.decode("utf-8"))
    except (ValueError, TypeError) as exc:
        raise RecordError(f"{path}: bad id block ({exc})") from exc
    checked_ids(user_ids, path)
    checked_ids(tag_ids, path)
    if (len(user_ids), len(tag_ids)) != (n, m):
        raise RecordError(f"{path}: id counts do not match the header")
    if _id_block(user_ids, tag_ids) != raw:
        raise RecordError(f"{path}: id block is not canonical JSON")
    state = EmbeddingState(users=users.reshape(n, d), hashtags=tags.reshape(m, d), seed=seed)
    return state, user_ids, tag_ids
