"""Sectioned key = value run configuration.

An absent file or omitted key falls back to the defaults below, which
reproduce the reference training setup (window size 5, hidden width 128,
batch 128 for 200 epochs, Adam at 1e-3, concrete temperature 0.5, mixup
concentration 10 halving every 10 epochs); the [data], [model] and
[train] ones are the SyntheticConfig, ModelConfig and TrainConfig
defaults. Unknown sections, `[DEFAULT]` among them, or keys are rejected
for typo safety; values are literal (a `%` is no interpolation).
Command-line flags override file values. Every seed must be a non-negative
integer, and `[eval] split` one of `SPLITS`.
"""

from __future__ import annotations

import configparser
from dataclasses import fields
from pathlib import Path

from .data import SyntheticConfig
from .errors import ConfigError
from .model import ModelConfig
from .rng import check_seed
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
                ) -> dict[str, dict]:
    """Read a config file (optional) over the defaults, then apply overrides;
    returns {section: {key: value}}.

    `overrides` maps (section, key) to already-typed values, typically
    from command-line flags; flags win over the file.
    """
    sections = {name: dict(values) for name, values in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep key case
        try:
            with open(path, encoding="utf-8") as f:
                parser.read_file(f)
        except OSError as e:   # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
        except (UnicodeDecodeError, configparser.Error) as e:
            raise ConfigError(f"{path}: {e}") from e
        if parser.defaults():    # configparser would merge it into every section
            raise ConfigError(f"{path}: unknown section [DEFAULT]")
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
    return sections


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
