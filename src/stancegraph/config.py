"""Run configuration: defaults, key=value files, per-stage seeds.

Every tunable is declared once here, with its default, as a field of
RunConfig. A config file overrides defaults, command line flags override
the file, and unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, open_text

STAGE_INDEX = {
    "ingest": 0,
    "build": 1,
    "train": 2,
    "eval": 3,
    "curve": 4,
    "synth": 5,
}

# The relations a user -> hashtag -> user meta-path can take at either end.
META_PATH_RELATIONS = ("tweet", "retweet", "reply")

# The evaluated models: the weighted model and its baselines, which
# evaluate.VARIANTS defines under these names.
VARIANT_NAMES = ("wlgcn", "mf", "lightgcn", "null")

# The values a key of each annotated type takes, and their name. A float key
# takes an int too, and NumPy's float64, which is a float; no NumPy integer
# is an int, and a bool, though an int, fits only a bool key.
_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "bool": ((bool,), "a boolean"), "str": ((str,), "a string")}


def _check_types(cfg: RunConfig) -> None:
    """Refuse a key whose value has the wrong type, or a float key whose
    value is not finite: range checks such as `x < 0` let nan through."""
    for name, kind in RunConfig.__annotations__.items():
        value = getattr(cfg, name)
        types, expected = _TYPES[kind]
        if not isinstance(value, types) or isinstance(value, bool) != (kind == "bool"):
            raise ConfigError(f"{name}: expected {expected}, got {value!r}")
        # false for nan and the infinities, and for an int beyond the float range
        if kind == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name}: expected a finite number, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Every key of a run, in groups by the stage that reads them. Building
    one checks every key's type, then every range."""

    # ingest: thresholds for dropping bot-like or out-of-scope accounts
    max_outlets_followed: int = 10
    max_avg_daily_tweets: float = 3.0
    location_allowlist: str = ""  # comma-separated; empty disables the filter
    # the model, which train and eval fit
    dim: int = 16
    n_layers: int = 3
    # train's optimizer and early stopping
    learning_rate: float = 1e-3
    lambda_reg: float = 1e-4
    batch_size: int = 1024
    max_epochs: int = 1000
    patience: int = 50
    # synth: a two-camp corpus with planted stances
    n_users: int = 200
    n_hashtags: int = 100
    n_neutral: int = 10
    p_in: float = 0.8
    p_out: float = 0.1
    interactions_per_user: int = 20
    homophily: float = 5.0
    social_base_rate: float = 0.02
    annotated_per_camp: int = 15
    retweet_rate: float = 0.5
    # build: how the social relations weigh into one user graph, and which
    # meta-path PathSim follows and how its graph is sparsified
    social_c_follow: float = 1.0
    social_c_mention: float = 1.0
    social_c_reply: float = 1.0
    pathsim_left: str = "retweet"
    pathsim_right: str = "tweet"
    pathsim_min_weight: float = 0.01
    pathsim_top_k: int = 0  # 0 disables the per-node cap
    # eval's protocol: a user holdout, then k-fold edge cross-validation
    holdout_fraction: float = 0.05
    folds: int = 5
    binary_stance: bool = False  # drop the NEUTRAL class
    # the CLI's own keys
    seed: int = 0
    strict_parse: bool = True
    # which user graphs train and eval load
    use_social: bool = False
    use_pathsim: bool = False
    # share of the edges train holds out for early stopping
    val_fraction: float = 0.2
    variant: str = "wlgcn"
    x_max: int = 5

    def __post_init__(self):
        _check_types(self)
        if self.dim < 1:
            raise ConfigError("dim must be at least 1")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be nonnegative")
        # learning_rate 0 is allowed: it freezes the parameters, which is
        # useful for no-op checks.
        if self.learning_rate < 0 or self.lambda_reg < 0:
            raise ConfigError("learning_rate and lambda_reg must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be nonnegative")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.n_users < 2:
            raise ConfigError("need at least two users")
        if not (0 <= self.p_out < self.p_in <= 1):
            raise ConfigError("need 0 <= p_out < p_in <= 1")
        if self.p_in + self.p_out > 1:
            raise ConfigError("p_in + p_out must not exceed 1")
        if self.n_neutral < 0 or self.n_neutral >= self.n_hashtags:
            raise ConfigError("n_neutral must leave at least one camp hashtag")
        if self.n_neutral == 0 and self.p_in + self.p_out != 1:
            raise ConfigError("without neutral hashtags p_in + p_out must equal 1")
        if self.n_hashtags - self.n_neutral < 2:
            raise ConfigError("need at least one hashtag per camp")
        camp = (self.n_hashtags - self.n_neutral + 1) // 2
        if not (1 <= self.annotated_per_camp <= camp):
            raise ConfigError("annotated_per_camp must fit inside each camp")
        if self.interactions_per_user < 1:
            raise ConfigError("interactions_per_user must be positive")
        if not (0 <= self.social_base_rate <= 1) or self.homophily < 0:
            raise ConfigError("bad social edge rates")
        if not (0 <= self.retweet_rate <= 1):
            raise ConfigError("retweet_rate must be a probability")
        if min(self.social_c_follow, self.social_c_mention, self.social_c_reply) < 0:
            raise ConfigError("social coefficients must be nonnegative")
        for name in (self.pathsim_left, self.pathsim_right):
            if name not in META_PATH_RELATIONS:
                raise ConfigError(f"unknown meta-path relation {name!r}")
        if self.pathsim_min_weight < 0:
            raise ConfigError("pathsim_min_weight must be nonnegative")
        if self.pathsim_top_k < 0:
            raise ConfigError("pathsim_top_k must be nonnegative (0 disables the cap)")
        if not (0 < self.holdout_fraction <= 1):
            raise ConfigError("holdout fraction must be in (0, 1]")
        if self.folds < 2:
            raise ConfigError("need at least 2 folds")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (0 < self.val_fraction <= 0.5):
            raise ConfigError("val_fraction must be in (0, 0.5]")
        if self.variant not in VARIANT_NAMES:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        if self.x_max < 1:
            raise ConfigError("x_max must be at least 1")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELDS[name].type
    text = raw.strip()
    if kind == "bool":
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(text)
        return float(text) if kind == "float" else text
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    with open_text(path, ConfigError, strict=True) as lines:
        for line_no, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected key=value", line_no)
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"unknown key {key!r}", line_no)
            values[key] = _coerce(key, raw)
    return values


def resolve(config_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides."""
    values = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    for key, val in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, str(val)) if isinstance(val, str) else val
    return RunConfig(**values)


def config_lines(cfg: RunConfig) -> list[str]:
    return [f"{f.name}={getattr(cfg, f.name)}" for f in dataclasses.fields(RunConfig)]


def _stage_sequence(seed: int, stage: str) -> np.random.SeedSequence:
    if stage not in STAGE_INDEX:
        raise ConfigError(f"unknown stage {stage!r}")
    return np.random.SeedSequence(seed, spawn_key=(STAGE_INDEX[stage],))


def stage_seed(seed: int, stage: str) -> int:
    """Stable derived seed for a pipeline stage."""
    return int(_stage_sequence(seed, stage).generate_state(1)[0])


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(_stage_sequence(seed, stage))
