"""Workload definitions: seeded input generation, the CLI argv of each op,
and the correctness checks applied to each op's outputs.

Nothing here imports convmp. Inputs are written and outputs are parsed with
this file's own readers of the formats documented in convmp.model_io, so a
defect in the program's serialization cannot hide itself from the checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np

BANK_MAGIC = b"CMPD1"
FLOAT_IMAGE_MAGIC = b"CMPF1"
CODE_MAGIC = "CMPC1"
UNIT_NORM_ATOL = 1e-9
ENERGY_IDENTITY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# file formats, written and read independently of the program

def write_float_image(path: Path, img: np.ndarray) -> None:
    c, h, w = img.shape
    path.write_bytes(
        FLOAT_IMAGE_MAGIC + struct.pack("<4I", 1, c, h, w)
        + np.ascontiguousarray(img, dtype="<f8").tobytes()
    )


def read_float_image(path: Path) -> np.ndarray:
    data = path.read_bytes()
    _, c, h, w = struct.unpack("<4I", data[5:21])
    return np.frombuffer(data[21:], dtype="<f8").reshape(c, h, w)


def write_bank(path: Path, bank: np.ndarray) -> None:
    k, c, fh, fw = bank.shape
    path.write_bytes(
        BANK_MAGIC + struct.pack("<5I", 1, k, c, fh, fw)
        + np.ascontiguousarray(bank, dtype="<f8").tobytes()
    )


def read_bank(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:5] != BANK_MAGIC:
        raise ValueError(f"{path.name}: bad bank magic")
    _, k, c, fh, fw = struct.unpack("<5I", data[5:25])
    if len(data) != 25 + 8 * k * c * fh * fw:
        raise ValueError(f"{path.name}: bank payload has the wrong size")
    return np.frombuffer(data[25:], dtype="<f8").reshape(k, c, fh, fw)


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    """rgb: (3, h, w) floats in [0, 1], written as binary 8-bit P6."""
    _, h, w = rgb.shape
    raster = np.rint(np.clip(rgb, 0.0, 1.0) * 255.0).astype(np.uint8)
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + raster.transpose(1, 2, 0).tobytes())


def read_code(path: Path) -> tuple[tuple[int, int, int], np.ndarray]:
    """Return the code's (c, h, w) and its (n, 4) array of filter, row, col, coef."""
    lines = path.read_text().splitlines()
    head = lines[0].split()
    if len(head) != 5 or head[0] != CODE_MAGIC:
        raise ValueError(f"{path.name}: bad code header")
    c, h, w, n = (int(t) for t in head[1:])
    records = np.array([[float(t) for t in line.split()] for line in lines[1:] if line.strip()])
    records = records.reshape(-1, 4)
    if len(records) != n:
        raise ValueError(f"{path.name}: header promises {n} records, found {len(records)}")
    return (c, h, w), records


def bank_is_unit_norm(path: Path) -> bool:
    bank = read_bank(path)
    norms = np.sqrt(np.sum(np.square(bank), axis=(1, 2, 3)))
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_ATOL))


def epoch_energies(path: Path, layer: int | None = None) -> list[float]:
    """Per-epoch energies from a train or pipeline stats file."""
    out = []
    for line in path.read_text().splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split())
        if layer is None or int(fields["layer"]) == layer:
            out.append(float(fields["energy"]))
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# planted content

def gabor_bank(rng: np.random.Generator, k: int, fh: int, fw: int) -> np.ndarray:
    """k unit-norm oriented Gabor-like filters, shape (k, 1, fh, fw)."""
    y, x = np.mgrid[0:fh, 0:fw]
    y = (y - (fh - 1) / 2) / fh
    x = (x - (fw - 1) / 2) / fw
    bank = np.empty((k, 1, fh, fw))
    for j in range(k):
        theta = rng.uniform(0, math.pi)
        freq = rng.uniform(1.0, 3.0)
        phase = rng.uniform(0, 2 * math.pi)
        u = x * math.cos(theta) + y * math.sin(theta)
        env = np.exp(-(x * x + y * y) / (2 * rng.uniform(0.15, 0.3) ** 2))
        f = env * np.cos(2 * math.pi * freq * u + phase)
        bank[j, 0] = f / np.sqrt(np.sum(f * f))
    return bank


def planted_image(rng, bank, h: int, w: int, atoms: int, noise: float) -> np.ndarray:
    """Sum of `atoms` bank filters at random valid positions plus white noise."""
    k, c, fh, fw = bank.shape
    img = noise * rng.normal(size=(c, h, w))
    for _ in range(atoms):
        j = int(rng.integers(k))
        r = int(rng.integers(h - fh + 1))
        col = int(rng.integers(w - fw + 1))
        img[:, r : r + fh, col : col + fw] += rng.normal() * bank[j]
    return img


def raw_rgb(rng, h: int, w: int) -> np.ndarray:
    """A raw RGB scene with natural-image statistics: 1/f-amplitude noise
    (shared luminance plus weaker chroma), so every image of a corpus has the
    same spectrum and corpora differ only by sampling."""
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    amplitude = 1.0 / np.maximum(np.hypot(fy, fx), 1.0 / max(h, w))

    def field():
        noise = rng.normal(size=amplitude.shape) + 1j * rng.normal(size=amplitude.shape)
        f = np.fft.irfft2(amplitude * noise, s=(h, w))
        return f / f.std()

    luma = field()
    rgb = np.stack([luma + 0.3 * field() for _ in range(3)])
    return 0.5 + 0.12 * rgb


# ---------------------------------------------------------------------------
# workloads

@dataclasses.dataclass
class OpResult:
    """What one op produced, as seen by the checks."""

    ok: bool
    reason: str = ""
    energy: tuple[float, float] | None = None  # (before, after), for energy_frac
    code_activations: int = 0  # activations written to code files
    outputs: dict[str, str] = dataclasses.field(default_factory=dict)  # name -> sha256


@dataclasses.dataclass
class Train64:
    """`convmp train` on planted 64x64 corpora; one op trains one corpus."""

    name: str = "train64"
    corpora: int = 8
    images: int = 32
    size: int = 64
    hidden: int = 8
    filter: int = 16
    atoms: int = 10
    k: int = 8
    q: int = 40
    epochs: int = 3

    def prepare(self, work: Path, rng: np.random.Generator) -> None:
        for i in range(self.corpora):
            # a hidden bank per corpus: how far training gets depends on the
            # bank drawn, and energy_frac averages that over the corpora
            hidden = gabor_bank(rng, self.hidden, self.filter, self.filter)
            d = work / "in" / f"corpus{i}"
            d.mkdir(parents=True)
            for n in range(self.images):
                img = planted_image(rng, hidden, self.size, self.size, self.atoms, 0.05)
                write_float_image(d / f"img{n:03d}.f64", img)

    @property
    def inputs(self) -> int:
        return self.corpora

    @property
    def encodes_per_op(self) -> int:
        return self.images * self.epochs

    @property
    def image_epochs_per_op(self) -> int:
        return self.images * self.epochs

    def argv(self, work: Path, i: int) -> list[str]:
        return [
            "train", "--corpus", str(work / "in" / f"corpus{i}"),
            "--out", str(work / "out" / f"corpus{i}.bank"),
            "--k", str(self.k), "--filter", f"{self.filter}x{self.filter}",
            "--q", str(self.q), "--epochs", str(self.epochs), "--threads", "2",
        ]

    def check(self, work: Path, i: int, stdout: str) -> OpResult:
        bank = work / "out" / f"corpus{i}.bank"
        if not bank_is_unit_norm(bank):
            return OpResult(False, "bank filter is not unit norm")
        energies = epoch_energies(Path(str(bank) + ".stats.txt"))
        if len(energies) != self.epochs or not all(math.isfinite(e) for e in energies):
            return OpResult(False, "stats file does not hold one finite energy per epoch")
        return OpResult(
            True, energy=(energies[0], energies[-1]), outputs={bank.name: sha256(bank)}
        )


@dataclasses.dataclass
class Encode256:
    """`convmp encode --q 500` of one planted 256x256 image per op against a
    fixed k=16, 8x8 bank written once."""

    name: str = "encode256"
    pool: int = 8
    size: int = 256
    k: int = 16
    filter: int = 8
    atoms: int = 400
    q: int = 500

    def prepare(self, work: Path, rng: np.random.Generator) -> None:
        (work / "in").mkdir(parents=True)
        bank = gabor_bank(rng, self.k, self.filter, self.filter)
        write_bank(work / "in" / "model.bank", bank)
        for i in range(self.pool):
            img = planted_image(rng, bank, self.size, self.size, self.atoms, 0.05)
            write_float_image(work / "in" / f"img{i}.f64", img)

    @property
    def inputs(self) -> int:
        return self.pool

    encodes_per_op = 1
    image_epochs_per_op = 0

    def argv(self, work: Path, i: int) -> list[str]:
        return [
            "encode", "--model", str(work / "in" / "model.bank"),
            "--image", str(work / "in" / f"img{i}.f64"),
            "--out", str(work / "out" / f"img{i}.code"), "--q", str(self.q),
        ]

    def check(self, work: Path, i: int, stdout: str) -> OpResult:
        m = re.search(r"initial_energy=(\S+) final_energy=(\S+) steps=(\d+)", stdout)
        if not m:
            return OpResult(False, "encode printed no energy line")
        initial, final, steps = float(m[1]), float(m[2]), int(m[3])
        code = work / "out" / f"img{i}.code"
        dims, records = read_code(code)
        image = read_float_image(work / "in" / f"img{i}.f64")
        if dims != image.shape:
            return OpResult(False, f"code dims {dims} differ from image {image.shape}")
        if steps != self.q or len(records) != self.q:
            return OpResult(False, f"{steps} steps printed, {len(records)} written, q={self.q}")
        if abs(initial - float(np.sum(np.square(image)))) > 1e-12 * initial:
            return OpResult(False, "initial energy differs from the image's energy")
        drift = initial - float(np.sum(np.square(records[:, 3]))) - final
        if not abs(drift) <= ENERGY_IDENTITY_RTOL * initial:
            return OpResult(False, f"energy identity off by {drift:.3g}")
        return OpResult(
            True, energy=(initial, final), code_activations=len(records),
            outputs={code.name: sha256(code)},
        )


PIPELINE_CONFIG = """\
image_size=64
pool=8
layer1.k=8
layer1.filter=16x16
layer1.q=40
layer1.epochs={epochs}
layer2.k=16
layer2.filter=4x4
"""


@dataclasses.dataclass
class Pipeline2:
    """`convmp pipeline --threads 2 --seed 3` on raw RGB PPM corpora."""

    name: str = "pipeline2"
    corpora: int = 4
    images: int = 8
    height: int = 96
    width: int = 128
    epochs: int = 10

    def prepare(self, work: Path, rng: np.random.Generator) -> None:
        for i in range(self.corpora):
            d = work / "in" / f"corpus{i}"
            d.mkdir(parents=True)
            for n in range(self.images):
                write_ppm(d / f"img{n:03d}.ppm", raw_rgb(rng, self.height, self.width))
        (work / "in" / "pipeline.cfg").write_text(PIPELINE_CONFIG.format(epochs=self.epochs))

    @property
    def inputs(self) -> int:
        return self.corpora

    @property
    def encodes_per_op(self) -> int:
        # layer-1 training, the final layer-1 encode, layer-2 training
        return self.images * (2 * self.epochs + 1)

    @property
    def image_epochs_per_op(self) -> int:
        return self.images * 2 * self.epochs

    def argv(self, work: Path, i: int) -> list[str]:
        return [
            "pipeline", "--corpus", str(work / "in" / f"corpus{i}"),
            "--config", str(work / "in" / "pipeline.cfg"),
            "--out", str(work / "out" / f"run{i}"),
            "--threads", "2", "--seed", "3",
        ]

    def check(self, work: Path, i: int, stdout: str) -> OpResult:
        out = work / "out" / f"run{i}"
        banks = [out / "layer1.bank", out / "layer2.bank"]
        if not all(bank_is_unit_norm(b) for b in banks):
            return OpResult(False, "bank filter is not unit norm")
        layers = [epoch_energies(out / "stats.txt", layer) for layer in (1, 2)]
        if any(len(e) != self.epochs or not all(map(math.isfinite, e)) for e in layers):
            return OpResult(False, "stats file does not hold one energy per layer and epoch")
        # energy_frac uses layer 1: layer 2's first-epoch energy depends on
        # which random patches seed its bank, which makes its ratio vary
        # several-fold between corpora of the same statistics
        return OpResult(
            True, energy=(layers[0][0], layers[0][-1]),
            outputs={f"run{i}/{b.name}": sha256(b) for b in banks},
        )


WORKLOADS = {w.name: w for w in (Train64, Encode256, Pipeline2)}
