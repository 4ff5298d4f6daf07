"""Command-line driver: preprocessing, training, encoding, reconstruction,
filter rendering, the two-layer pipeline, and the pursuit-loop benchmark.

Exit codes: 0 success, 2 configuration error (core.ConfigError), 3 data
error (core.DataError, OSError, or MemoryError from an input too large to
hold), 4 internal error. The library raises the typed errors; main only
maps them. Batch commands check their flags and corpus before any output,
then write a key=value manifest of the settings that run (a pipeline seed
already turned into layer seeds); re-running with the same inputs and
manifest reproduces the outputs bit for bit: a pipeline manifest passed as
--config, or a train manifest's entries passed as train's flags.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .conv_mp import build_shift_gram, conv_mp_encode, correlate, greedy_steps
from .core import (
    ConfigError, DataError, TrainConfig, check_count, normalize_filters, reconstruct,
    residual_energy,
)
from .dict_learn import train
from .model_io import (
    list_float_images,
    list_images,
    load_bank,
    load_code,
    load_float_image,
    load_image,
    read_text,
    render_filter_grid,
    save_bank,
    save_code,
    save_float_image,
    save_image,
    write_lines,
)
from .pipeline import PipelineConfig, run_two_layer, seeded, write_stats
from .preprocess import prepare

logger = logging.getLogger("convmp")

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

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
# a pipeline config's keys; a manifest's tool, command, corpus, out and threads
# (written by older versions) are accepted and ignored, so that a manifest replays
PIPELINE_KEYS = {
    "image_size", "pool", "seed", "tool", "command", "corpus", "out", "threads",
    *(f"layer{n}.{name}" for n in (1, 2) for name in TRAIN_NAMES),
}
THREADS_HELP = "an integer >= 1; has no effect (encoding is sequential) and is not recorded"


def _parse_dims(text: str, flag: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        h, w = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag} expects HxW, got {text!r}") from None
    check_count(f"{flag} height", h)
    check_count(f"{flag} width", w)
    return h, w


def _write_manifest(path: Path, entries: dict) -> None:
    lines = [f"tool=convmp {__version__}"]
    lines += [f"{key}={value}" for key, value in entries.items()]
    write_lines(path, lines)


def _train_entries(cfg: TrainConfig, prefix: str = "") -> dict:
    """A TrainConfig's manifest entries, named like train's flags or, prefixed, layer keys."""
    entries = {}
    for name, fields in TRAIN_NAMES.items():
        values = [getattr(cfg, field) for field in fields]
        entries[prefix + name] = values[0] if len(values) == 1 else "x".join(map(str, values))
    return entries


def _train_config(values: dict, prefix: str = "", defaults=TRAIN_DEFAULTS) -> TrainConfig:
    """A TrainConfig from train's flags, config keys under prefix, or a
    manifest; a name that is absent keeps its default, and its type is the default's."""
    settings = {}
    for name, default in _train_entries(defaults).items():
        key, fields = prefix + name, TRAIN_NAMES[name]
        if len(fields) == 1:
            settings[fields[0]] = _config_number(values, key, default, type(default))
        else:
            settings.update(zip(fields, _parse_dims(values.get(key, default), key)))
    return TrainConfig(**settings)


def _load_any_image(path: Path):
    if path.suffix.lower() == ".f64":
        return load_float_image(path)
    return load_image(path)


def _find_corpus(directory: Path, *listings) -> list[Path]:
    """The first nonempty listing of an existing directory, found before any output."""
    if not directory.is_dir():
        raise DataError(f"corpus directory {directory} does not exist")
    for listing in listings:
        if paths := listing(directory):
            return paths
    raise DataError(f"no corpus images found in {directory}")


# ---------------------------------------------------------------------------
# commands

def cmd_preprocess(args) -> int:
    check_count("--seed", args.seed, 0)
    check_count("--size", args.size)  # before any output, so no manifest is left behind
    in_dir, out_dir = Path(args.in_dir), Path(args.out_dir)
    paths = _find_corpus(in_dir, list_images)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        out_dir / "manifest.txt",
        {
            "command": "preprocess",
            "in": in_dir,
            "out": out_dir,
            "size": args.size,
            "pascal_crop": args.pascal_crop,
            "seed": args.seed,
        },
    )
    rng = np.random.default_rng(args.seed) if args.pascal_crop else None
    done = failed = 0
    for path in paths:
        try:
            img = prepare(load_image(path), args.size, rng)
        except ValueError as exc:
            logger.warning("skipping %s: %s", path.name, exc)
            failed += 1
            continue
        save_image(img, out_dir / f"{path.stem}.pgm", signed=True)
        save_float_image(img, out_dir / f"{path.stem}.f64")
        done += 1
    logger.info("preprocessed %d images (%d skipped)", done, failed)
    if done == 0:
        raise DataError("every input image failed to preprocess")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(vars(args))
    check_count("--threads", args.threads)
    # a preprocessed corpus: signed float sidecars before 8-bit images
    paths = _find_corpus(Path(args.corpus), list_float_images, list_images)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_manifest(
        Path(str(out) + ".manifest.txt"),
        {"command": "train", "corpus": args.corpus, "out": out, **_train_entries(cfg)},
    )
    bank, stats = train([_load_any_image(p) for p in paths], cfg)
    save_bank(bank, out)
    write_lines(Path(str(out) + ".stats.txt"), stats.lines())
    logger.info("wrote %s", out)
    return 0


def cmd_encode(args) -> int:
    bank = load_bank(args.model)
    image = _load_any_image(Path(args.image))
    table = build_shift_gram(bank)
    code = conv_mp_encode(bank, table, image, args.q, args.tolerance)
    save_code(code, args.out)
    initial = float(np.sum(np.square(image)))
    final = residual_energy(image, code, bank)
    print(f"initial_energy={initial:.17g} final_energy={final:.17g} steps={len(code)}")
    return 0


def cmd_reconstruct(args) -> int:
    bank = load_bank(args.model)
    image = reconstruct(load_code(args.code), bank)
    save_image(image, args.out, signed=True)
    logger.info("wrote %s", args.out)
    return 0


def cmd_render_filters(args) -> int:
    render_filter_grid(load_bank(args.model), args.out, cell_scale=args.scale)
    logger.info("wrote %s", args.out)
    return 0


def _parse_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise DataError(f"config file {path} does not exist")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _config_number(values: dict[str, str], key: str, default, kind=int):
    try:
        return kind(values.get(key, default))
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key} must be {noun}") from None


def _pipeline_config(values: dict[str, str], seed: int | None = None) -> PipelineConfig:
    """The config that runs: the layers' seeds derived from seed, else from the
    file's seed key; no seed (or an older manifest's empty seed=) keeps theirs."""
    unknown = [key for key in values if key not in PIPELINE_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]}")
    layer1 = _train_config(values, "layer1.")
    # layer 2 inherits layer 1's pursuit depth, schedule and tolerance unless overridden
    layer2 = _train_config(
        values,
        "layer2.",
        replace(
            layer1,
            num_filters=16,
            filter_height=4,
            filter_width=4,
            seed=layer1.seed + 1,
            min_activations=TRAIN_DEFAULTS.min_activations,
        ),
    )
    cfg = PipelineConfig(
        layer1=layer1,
        layer2=layer2,
        pool_size=_config_number(values, "pool", PipelineConfig.pool_size),
        image_size=_config_number(values, "image_size", PipelineConfig.image_size),
    )
    if seed is None and values.get("seed"):
        seed = _config_number(values, "seed", None)
    return cfg if seed is None else seeded(cfg, seed)


def cmd_pipeline(args) -> int:
    check_count("--scale", args.scale)
    check_count("--threads", args.threads)
    cfg = _pipeline_config(_parse_config_file(Path(args.config)), args.seed)
    paths = _find_corpus(Path(args.corpus), list_images)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"command": "pipeline", "corpus": args.corpus, "out": out,
                "image_size": cfg.image_size, "pool": cfg.pool_size}
    manifest.update(_train_entries(cfg.layer1, "layer1."))
    manifest.update(_train_entries(cfg.layer2, "layer2."))
    _write_manifest(out / "manifest.txt", manifest)
    # one raw image at a time: run_two_layer prepares each as it takes it
    bank1, bank2, stats = run_two_layer(map(load_image, paths), cfg)
    for name, bank in (("layer1", bank1), ("layer2", bank2)):
        save_bank(bank, out / f"{name}.bank")
        render_filter_grid(bank, out / f"{name}_filters.pgm", cell_scale=args.scale)
    write_stats(stats, out / "stats.txt")
    logger.info("pipeline outputs in %s", out)
    return 0


def run_bench(
    image_dims: tuple[int, int],
    k: int,
    filter_dims: tuple[int, int],
    q_list: list[int],
    repeat: int,
    seed: int = 0,
) -> dict:
    """Time the post-correlation greedy loop for each q; medians over repeats."""
    h, w = image_dims
    fh, fw = filter_dims
    rng = np.random.default_rng(seed)
    bank = normalize_filters(rng.normal(size=(k, 1, fh, fw)))
    image = rng.normal(size=(1, h, w))
    table = build_shift_gram(bank)
    maps = correlate(bank, image)
    greedy_steps(maps.copy(), table, max(q_list))  # warm caches before timing

    # each repeat times every q in turn, so a slow spell on the host hits all q alike
    times = [[] for _ in q_list]
    for _ in range(repeat):
        for q, samples in zip(q_list, times):
            scratch = maps.copy()
            t0 = time.perf_counter()
            steps = greedy_steps(scratch, table, q)
            samples.append(time.perf_counter() - t0)
            if len(steps) != q:
                raise ConfigError(f"--q {q} outruns the map: pursuit stopped at {len(steps)}")
    medians = [float(np.median(samples)) for samples in times]
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    return {
        "qs": q_list,
        "median_s": medians,
        "per_step_ns": [m / q * 1e9 for m, q in zip(medians, q_list)],
        "ratios": ratios,
    }


def cmd_bench(args) -> int:
    h, w = _parse_dims(args.image, "--image")
    fh, fw = _parse_dims(args.filter, "--filter")
    try:
        q_list = [int(tok) for tok in args.q.split(",")]
    except ValueError:
        raise ConfigError(f"--q expects a comma-separated list, got {args.q!r}") from None
    for q in q_list:
        check_count("--q", q)
    check_count("--k", args.k)
    check_count("--repeat", args.repeat)
    check_count("--seed", args.seed, 0)
    report = run_bench((h, w), args.k, (fh, fw), q_list, args.repeat, args.seed)
    for q, med, per in zip(report["qs"], report["median_s"], report["per_step_ns"]):
        print(f"q={q} median_ms={med * 1e3:.3f} per_step_ns={per:.0f}")
    for qa, qb, ratio in zip(report["qs"], report["qs"][1:], report["ratios"]):
        print(f"ratio q={qa}->q={qb}: {ratio:.3f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convmp",
        description="Convolutional matching pursuit and dictionary learning",
    )
    parser.add_argument("--version", action="version", version=f"convmp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="grayscale, resize/crop, contrast normalize")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--pascal-crop", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="learn a filter bank from a preprocessed corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    for name, default in _train_entries(TRAIN_DEFAULTS).items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="sparse-code one image against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--q", type=int, default=40)
    p.add_argument("--tolerance", type=float, default=0.0)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="rebuild an image from a code file")
    p.add_argument("--model", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("render-filters", help="tile a model's filters into an image")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=cmd_render_filters)

    p = sub.add_parser("pipeline", help="two-layer feature learning experiment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("bench", help="time the post-correlation pursuit loop")
    p.add_argument("--image", default="64x64")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--filter", default="16x16")
    p.add_argument("--q", default="50,100,200")
    p.add_argument("--repeat", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 gives --flag=-- as [], skipping the flag's type
    empty = [name for name, value in vars(args).items() if isinstance(value, list)]
    if empty:
        parser.error(f"argument {empty[0]}: expected one value, got --")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # anything unexpected maps to the internal code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
