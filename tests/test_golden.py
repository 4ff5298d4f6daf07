"""Golden outputs: the bits of four small fixed-seed runs through the public
API, pinned in tier-1.

A child process runs them under OpenBLAS's Prescott kernel at one thread.
Every x86-64 CPU can run that kernel, and under it the bits depended
neither on numpy's SIMD dispatch nor on the native library's AVX-512F
build, so they change only with the code, or with the numpy or OpenBLAS
version: GOLDEN keys the hashes by those two versions. A change that
breaks the bits on purpose updates GOLDEN in the same commit. A version
pair with no entry skips, naming the hashes it got, so that an entry can
be added; CI pins numpy on one leg, so that leg always compares.
"""

import platform

import numpy as np
import pytest

from blas_threads import kernels_picked_at_run_time, lines_in_children

# Each case prints its name and the first 16 hex digits of a sha256 over
# its outputs' bytes.
SCRIPT = """
import hashlib

import numpy as np

from convmp import TrainConfig, conv_mp_encode, normalize_filters, train
from convmp.pipeline import PipelineConfig, run_two_layer


def put(name, *parts):
    digest = hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in parts))
    print(name, digest.hexdigest()[:16])


rng = np.random.default_rng(2010)
# random taps over three channels: every correlation and step rounds
bank = normalize_filters(rng.normal(size=(6, 3, 5, 5)))
code = conv_mp_encode(bank, rng.normal(size=(3, 40, 36)), 120)
put("encode", code.activations)
# taps of +-1/4 over integer samples: exact arithmetic, so peaks often tie;
# the tolerance stops the pursuit
bank = rng.choice([-0.25, 0.25], size=(8, 2, 4, 2))
code = conv_mp_encode(bank, rng.integers(-3, 4, size=(2, 24, 20)).astype(float), 10_000, 1.0)
assert 0 < len(code) < 10_000
put("encode_tolerance", code.activations)
# the refit's power iteration and scatters, and dead filters redrawn
images = [rng.normal(size=(1, 28, 28)) for _ in range(3)]
bank, stats = train(images, TrainConfig(8, 6, 6, 12, epochs=3, seed=5, min_activations=4))
assert stats.reinit_events
put("train", bank, stats.epoch_energy, stats.reinit_events)
# preprocessing, densified codes, pooling, and layer 2 on 4-channel maps
cfg = PipelineConfig(TrainConfig(4, 6, 6, 10, epochs=2), TrainConfig(6, 3, 3, 6, epochs=2),
                     pool_size=4, image_size=32)
bank1, bank2, stats = run_two_layer((rng.uniform(size=(3, 40, 48)) for _ in range(3)), cfg)
put("run_two_layer", bank1, bank2, stats.layer1.epoch_energy, stats.layer2.epoch_energy)
"""

# (numpy version, numpy's OpenBLAS version) -> the hash of each case
GOLDEN = {
    ("2.4.6", "0.3.31.188.0"): {
        "encode": "10fbb04615ceb998",
        "encode_tolerance": "7c42a1bf6f0cb27b",
        "train": "dc4e42af410a8e07",
        "run_two_layer": "60d5269d007c7548",
    },
}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not kernels_picked_at_run_time(),
                    reason="needs x86-64 and an OpenBLAS that picks its kernel at load time")
def test_outputs_have_the_golden_bits_under_the_prescott_kernel():
    env = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    (lines,) = lines_in_children(SCRIPT, [env])
    got = dict(line.split() for line in lines)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    key = (np.__version__, blas["version"])
    if key not in GOLDEN:
        pytest.skip(f"no golden hashes for numpy {key[0]} with OpenBLAS {key[1]}; got {got}")
    assert got == GOLDEN[key]
