"""The one config codec: a TrainConfig or PipelineConfig as key=value entries
and back. Train's flags, --config files and manifests share the names, so a
manifest read back (a pipeline's as --config, a train's entries as its flags)
is the config that ran, and replays it bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from . import __version__
from .core import ConfigError, DataError, TrainConfig, check_count
from .model_io import read_text, write_lines
from .pipeline import PipelineConfig, seeded

# layer-1 training defaults: the train command's flags and the pipeline's
# layer1.* config keys (seed, tolerance and min_activations as in TrainConfig)
TRAIN_DEFAULTS = TrainConfig(
    num_filters=8, filter_height=16, filter_width=16, sparsity=40, epochs=10
)
# TrainConfig's outside names in manifest order, each with its field(s): a train
# flag (with - for _), a pipeline layerN.* key and a manifest entry. filter is HxW.
TRAIN_NAMES = {
    "k": ("num_filters",),
    "filter": ("filter_height", "filter_width"),
    "q": ("sparsity",),
    "epochs": ("epochs",),
    "seed": ("seed",),
    "tolerance": ("residual_tolerance",),
    "min_activations": ("min_activations",),
}


def entries(cfg: TrainConfig | PipelineConfig) -> dict:
    """A config's entries in manifest order: a TrainConfig's named like
    train's flags, a PipelineConfig's like its config file's keys."""
    if isinstance(cfg, PipelineConfig):
        layers = {f"{layer}.{name}": value for layer in ("layer1", "layer2")
                  for name, value in entries(getattr(cfg, layer)).items()}
        return {"image_size": cfg.image_size, "pool": cfg.pool_size, **layers}
    values = ([getattr(cfg, field) for field in fields] for fields in TRAIN_NAMES.values())
    return {name: v[0] if len(v) == 1 else "x".join(map(str, v))
            for name, v in zip(TRAIN_NAMES, values)}


def write(path: Path, entries: dict) -> None:
    """A manifest: the tool's version, then one key=value line per entry."""
    write_lines(path, [f"tool=convmp {__version__}", *(f"{k}={v}" for k, v in entries.items())])


def read(path: Path) -> dict[str, str]:
    """A config file's or manifest's entries: key=value lines, each key
    nonempty, with # comments; a later line overrides an earlier one."""
    if not path.is_file():
        raise DataError(f"config file {path} does not exist")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def dims(text: str, name: str) -> tuple[int, int]:
    """HxW text as (height, width), each a count."""
    try:
        h, w = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"{name} expects HxW, got {text!r}") from None
    check_count(f"{name} height", h)
    check_count(f"{name} width", w)
    return h, w


def _number(values: dict, key: str, default, kind=int):
    try:
        return kind(values.get(key, default))
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key} must be {noun}") from None


def train_config(values: dict, prefix: str = "", defaults=TRAIN_DEFAULTS) -> TrainConfig:
    """A TrainConfig from train's flags, config keys under prefix, or a
    manifest; a name that is absent keeps its default, and its type is the default's."""
    settings = {}
    for name, default in entries(defaults).items():
        key, fields = prefix + name, TRAIN_NAMES[name]
        if len(fields) == 1:
            settings[fields[0]] = _number(values, key, default, type(default))
        else:
            settings.update(zip(fields, dims(values.get(key, default), key)))
    return TrainConfig(**settings)


def pipeline_config(values: dict[str, str], seed: int | None = None) -> PipelineConfig:
    """The config that runs: the layers' seeds derived from seed, else from the
    file's seed key; no seed (or an older manifest's empty seed=) keeps theirs."""
    # the keys: any config's entries (unpooled, this one's layer-2 filters fit), the pipeline
    # seed, and a manifest's other lines (threads from older ones), ignored so that it replays
    keys = {*entries(PipelineConfig(TRAIN_DEFAULTS, TRAIN_DEFAULTS, pool_size=1)),
            "seed", "tool", "command", "corpus", "out", "threads"}
    unknown = [key for key in values if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]}")
    layer1 = train_config(values, "layer1.")
    # layer 2 inherits layer 1's pursuit depth, schedule and tolerance unless overridden
    layer2 = train_config(values, "layer2.", replace(
        layer1, num_filters=16, filter_height=4, filter_width=4, seed=layer1.seed + 1,
        min_activations=TRAIN_DEFAULTS.min_activations,
    ))
    cfg = PipelineConfig(layer1, layer2, _number(values, "pool", PipelineConfig.pool_size),
                         _number(values, "image_size", PipelineConfig.image_size))
    if seed is None and values.get("seed"):
        seed = _number(values, "seed", None)
    return cfg if seed is None else seeded(cfg, seed)
