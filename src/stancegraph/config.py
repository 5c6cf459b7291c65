"""Run configuration: defaults, key=value files, per-stage seeds.

Every tunable has a default here. A config file overrides defaults, command
line flags override the file, and unknown keys are rejected so typos fail
loudly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

STAGE_INDEX = {
    "ingest": 0,
    "build": 1,
    "train": 2,
    "eval": 3,
    "curve": 4,
    "synth": 5,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    strict_parse: bool = True
    # corpus filters
    max_outlets_followed: int = 10
    max_avg_daily_tweets: float = 3.0
    location_allowlist: str = ""  # comma-separated; empty disables the filter
    # model; use_social/use_pathsim choose which user graphs are loaded
    dim: int = 16
    n_layers: int = 3
    use_social: bool = False
    use_pathsim: bool = False
    # channel construction
    social_c_follow: float = 1.0
    social_c_mention: float = 1.0
    social_c_reply: float = 1.0
    pathsim_left: str = "retweet"
    pathsim_right: str = "tweet"
    pathsim_min_weight: float = 0.01
    pathsim_top_k: int = 0  # 0 disables the per-node cap
    # training
    learning_rate: float = 1e-3
    lambda_reg: float = 1e-4
    batch_size: int = 1024
    max_epochs: int = 1000
    patience: int = 50
    val_fraction: float = 0.2
    # evaluation protocol
    holdout_fraction: float = 0.05
    folds: int = 5
    variant: str = "wlgcn"
    binary_stance: bool = False
    x_max: int = 5
    # synthetic generator
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
        if kind == "float":
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return text


def parse_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
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


def stage_seed(seed: int, stage: str) -> int:
    """Stable derived seed for a pipeline stage."""
    if stage not in STAGE_INDEX:
        raise ConfigError(f"unknown stage {stage!r}")
    ss = np.random.SeedSequence(seed, spawn_key=(STAGE_INDEX[stage],))
    return int(ss.generate_state(1)[0])


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    if stage not in STAGE_INDEX:
        raise ConfigError(f"unknown stage {stage!r}")
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(STAGE_INDEX[stage],))
    )
