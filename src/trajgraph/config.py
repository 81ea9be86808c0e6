"""Sectioned key = value run configuration.

An absent file or omitted key falls back to the defaults below, which
reproduce the reference training setup (window size 5, hidden width 128,
batch 128 for 200 epochs, Adam at 1e-3, concrete temperature 0.5, mixup
concentration 10 halving every 10 epochs); the [data], [model] and
[train] ones are the SyntheticConfig, ModelConfig and TrainConfig
defaults. Unknown sections or keys are rejected for typo safety.
Command-line flags override file values. Every seed must be a non-negative
integer, and `[eval] split` one of `SPLITS`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import SyntheticConfig
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

SPLITS = ("train", "val", "test")

DEFAULTS: dict[str, dict] = {
    # the SyntheticConfig defaults, its optional arrays as comma-separated
    # floats ("": the generator's default); then the CLI's split ratios
    "data": {**{f.name: "" if f.name in ("coupling", "damping") else f.default
                for f in fields(SyntheticConfig)},
             "split_train": 0.65, "split_val": 0.10, "split_test": 0.25},
    # the dataclass defaults; the scene shape stays in [data]
    "model": {f.name: f.default for f in fields(ModelConfig)
              if f.name not in ("n_categories", "t_history", "t_future")},
    "train": {f.name: f.default for f in fields(TrainConfig)},
    "eval": {
        "samples": 20,
        "threads": 0,        # accepted and ignored
        "split": "test",
        "seed": 0,
    },
}


@dataclass
class RunConfig:
    sections: dict[str, dict] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]


def _coerce(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected an integer, "
                              f"got {raw!r}") from e
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key}: expected a number, "
                              f"got {raw!r}") from e
    return raw


def load_config(path: str | Path | None = None,
                overrides: dict[tuple[str, str], object] | None = None
                ) -> RunConfig:
    """Read a config file (optional) over the defaults, then apply overrides.

    `overrides` maps (section, key) to already-typed values, typically
    from command-line flags; flags win over the file.
    """
    sections = {name: dict(values) for name, values in DEFAULTS.items()}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case
        try:
            parser.read(path)
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from e
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in sections[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in "
                                      f"[{section}]")
                sections[section][key] = _coerce(section, key, raw)
    for (section, key), value in (overrides or {}).items():
        if section not in sections or key not in sections[section]:
            raise ConfigError(f"unknown override [{section}] {key}")
        if value is not None:
            sections[section][key] = value
    for section, values in sections.items():
        if "seed" in values:
            check_seed(values["seed"], f"[{section}] seed")
    if sections["eval"]["split"] not in SPLITS:
        raise ConfigError(f"[eval] split must be one of {', '.join(SPLITS)}, "
                          f"got {sections['eval']['split']!r}")
    return RunConfig(sections)


def check_seed(seed: int, what: str):
    """ConfigError naming a negative seed, which no `RngStream` accepts."""
    if seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {seed}")


def parse_float_list(raw: str, expected: int, what: str) -> list[float] | None:
    """Comma-separated float list from a config string; empty means default."""
    raw = raw.strip()
    if not raw:
        return None
    try:
        values = [float(v) for v in raw.split(",")]
    except ValueError as e:
        raise ConfigError(f"{what}: expected comma-separated floats") from e
    if len(values) != expected:
        raise ConfigError(f"{what}: expected {expected} values, got {len(values)}")
    return values
