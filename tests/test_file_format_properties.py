"""Mutated input files either load or raise ``MurmurKitError``.

Hypothesis overwrites, inserts, deletes and truncates bytes of the four
formats the program reads: a WAV recording, a dataset manifest, a float
weights directory and an int8 weights directory. Whatever a loader accepts
must be usable: a loaded waveform holds finite samples in [-1, 1), and a
loaded network or int8 twin gives finite probabilities that sum to 1 on a
fixed input.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurkit.dataset import Waveform, load_recording, read_manifest, write_recording
from murmurkit.errors import MurmurKitError
from murmurkit.nn import build_model, load_network, save_network
from murmurkit.quant import load_qnetwork, qforward, quantize_network, save_qnetwork

EXAMPLES = settings(max_examples=40, deadline=None)
INPUT = np.random.default_rng(0).standard_normal((2, 1, 16, 16)).astype(np.float32)

MANIFEST = (
    "# a comment\n"
    "p1\tTrain\tPresent\tAV:p1_av.wav,MV:p1_mv.wav\n"
    "p2\tValidation\tAbsent\tPV:p2_pv.wav\n"
    "p3\tTest\tUnknown\tTV:p3_tv.wav\n"
)


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` with one to four byte-level edits."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, max(len(buf) - 1, 0)))
        kind = draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
        if kind == "overwrite" and buf:
            buf[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            buf[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del buf[pos : pos + draw(st.integers(1, 8))]
        else:
            del buf[pos:]
    return bytes(buf)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of every file of each format, keyed by format and file name."""
    base = tmp_path_factory.mktemp("formats")
    samples = 0.5 * np.sin(np.arange(200, dtype=np.float32))  # 50 ms at 4 kHz
    write_recording(base / "rec.wav", Waveform(samples, 4000))
    net = build_model("light", seed=2)
    rng = np.random.default_rng(3)
    net.set_weights([0.1 * rng.standard_normal(w.shape) for w in net.get_weights()])
    save_network(net, base / "weights")
    save_qnetwork(quantize_network(net, INPUT), base / "qweights")
    return {
        "wav": {"rec.wav": (base / "rec.wav").read_bytes()},
        "manifest": {"manifest.tsv": MANIFEST.encode()},
        **{
            kind: {p.name: p.read_bytes() for p in sorted((base / kind).iterdir())}
            for kind in ("weights", "qweights")
        },
    }


def _load_wav(path: Path) -> None:
    samples = load_recording(path / "rec.wav").samples
    assert np.all(np.isfinite(samples))
    assert np.all((samples >= -1.0) & (samples < 1.0))


def _load_manifest(path: Path) -> None:
    read_manifest(path / "manifest.tsv")


def _assert_probabilities(probs: np.ndarray) -> None:
    assert probs.shape == (len(INPUT), 2)
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)


def _load_weights(path: Path) -> None:
    _assert_probabilities(load_network(path).forward(INPUT, mode="eval"))


def _load_qweights(path: Path) -> None:
    _assert_probabilities(qforward(load_qnetwork(path), INPUT))


LOADERS = {"wav": _load_wav, "manifest": _load_manifest, "weights": _load_weights, "qweights": _load_qweights}


def test_unmutated_files_load(originals, tmp_path):
    for kind, files in originals.items():
        for name, data in files.items():
            (tmp_path / kind).mkdir(exist_ok=True)
            (tmp_path / kind / name).write_bytes(data)
        LOADERS[kind](tmp_path / kind)


@pytest.mark.parametrize("kind", LOADERS)
@EXAMPLES
@given(data=st.data())
def test_mutated_file_loads_or_raises_murmurkit_error(originals, kind, data):
    files = originals[kind]
    name = data.draw(st.sampled_from(sorted(files)))
    mutated = data.draw(mutations(files[name]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        for other, content in files.items():
            (path / other).write_bytes(mutated if other == name else content)
        try:
            LOADERS[kind](path)
        except MurmurKitError:
            pass
