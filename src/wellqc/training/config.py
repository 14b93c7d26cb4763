"""Run configuration: architecture + hyperparameters + split/seed/stopping.

Precedence when resolving a run is built-in defaults < config file <
command-line overrides; the CLI logs the fully-resolved result before doing
anything, and a resolved config re-runs to identical artifacts.

The resolved dict is loaded by the strict codec in ``wellqc.configio``: an
unknown key, a missing required key or a value of the wrong JSON type (a
string for a number, a float for an integer, anything but true/false for a
boolean) raises ConfigError naming the key, which the CLI reports as one line
with exit code 1.
"""

import json
from dataclasses import dataclass, field, replace

from wellqc import configio
from wellqc.errors import ConfigError, shorten
from wellqc.nn.arch import ArchitectureSpec, default_architecture, logistic_architecture
from wellqc.optim import Hyperparams


@dataclass(frozen=True)
class EarlyStoppingConfig:
    enabled: bool = True
    metric: str = "val_loss"  # or "val_accuracy"
    patience: int = 5

    def __post_init__(self):
        if self.metric not in ("val_loss", "val_accuracy"):
            raise ConfigError(
                f"early stopping metric must be val_loss or val_accuracy, got {shorten(repr(self.metric))}"
            )
        if self.patience < 1:
            raise ConfigError(f"early stopping patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class RunConfig:
    architecture: ArchitectureSpec
    hyperparams: Hyperparams
    split_fraction: float = 0.2
    seed: int = 0
    early_stopping: EarlyStoppingConfig = field(default_factory=EarlyStoppingConfig)

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.architecture.validate()

    def with_hyperparams(self, **updates) -> "RunConfig":
        return replace(self, hyperparams=replace(self.hyperparams, **updates))

    def as_logistic_baseline(self) -> "RunConfig":
        """The comparison baseline: the logistic architecture at dropout 0, everything else unchanged."""
        arch = logistic_architecture(self.architecture.input_shape)
        return replace(self, architecture=arch).with_hyperparams(dropout_rate=0.0)


def default_run_config() -> RunConfig:
    """The shipped defaults: default architecture and training knobs."""
    return RunConfig(architecture=default_architecture(), hyperparams=Hyperparams())


def _merge_dicts(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_dicts(out[key], value)
        else:
            out[key] = value
    return out


def _parse_override_value(dotted: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
    except RecursionError:
        raise ConfigError(f"{dotted}: override value nests past the JSON parser's depth") from None


def apply_overrides(config_dict: dict, overrides) -> dict:
    """Apply ``dotted.path=value`` strings on top of a config dict, leaving it unchanged.

    Values parse as JSON when possible ("0.01" -> 0.01, "true" -> True),
    otherwise stay strings. Only the dicts along each dotted path are copied.
    """
    out = dict(config_dict)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, raw = item.partition("=")
        keys = dotted.split(".")
        target = out
        for key in keys[:-1]:
            child = target.get(key)
            target[key] = dict(child) if isinstance(child, dict) else {}
            target = target[key]
        target[keys[-1]] = _parse_override_value(dotted, raw)
    return out


def resolve_run_config(config_path=None, overrides=None) -> RunConfig:
    """defaults < file < overrides, returned as a validated RunConfig."""
    resolved = configio.dump(default_run_config())
    if config_path is not None:
        file_dict = configio.read_json(config_path)
        if not isinstance(file_dict, dict):
            raise ConfigError(f"{config_path}: the top level must be a JSON object")
        resolved = _merge_dicts(resolved, file_dict)
    return configio.load(RunConfig, apply_overrides(resolved, overrides))
