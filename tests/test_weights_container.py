"""Float and int8 weights directories: exact bytes on disk and loader errors.

``_oracle_save_network`` and ``_oracle_save_qnetwork`` are copies of the
writers as they stood before both formats moved onto one container. The
current writers must produce byte-identical directories, so weights saved
by either version load in the other.
"""

import shutil
import zlib

import numpy as np
import pytest

from murmurkit.cli import run
from murmurkit.errors import ParseError
from murmurkit.nn import LayerKind, build_model, load_network, save_network
from murmurkit.quant import load_qnetwork, quantize_network, save_qnetwork


def _oracle_save_network(net, out):
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "format\tmurmurkit-weights\t1",
        f"variant\t{net.variant.value}",
        "dtype\tfloat32",
    ]
    for i, spec in enumerate(net.specs):
        lines.append(
            f"layer\t{i}\t{spec.kind.value}\t{spec.in_ch}\t{spec.out_ch}\t{spec.p}"
        )
    for p in net.parameters():
        blob = np.ascontiguousarray(p.value, dtype="<f4").tobytes()
        fname = f"{p.name}.bin"
        (out / fname).write_bytes(blob)
        shape = ",".join(str(d) for d in p.value.shape)
        lines.append(f"tensor\t{p.name}\t{shape}\t{fname}\t{zlib.crc32(blob):08x}")
    (out / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _oracle_save_qnetwork(qnet, out):
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "format\tmurmurkit-qweights\t1",
        f"variant\t{qnet.variant.value}",
        "dtype\tint8",
        f"input_q\t{qnet.input_q.scale!r}\t{qnet.input_q.zero_point}",
    ]
    for i, spec in enumerate(qnet.specs):
        lines.append(f"layer\t{i}\t{spec.kind.value}\t{spec.in_ch}\t{spec.out_ch}\t{spec.p}")
    for i, op in enumerate(qnet.ops):
        # The oracle read ``op.relu``, which was set exactly for the convs.
        lines.append(f"op\t{i}\t{op.kind.value}\t{int(op.kind is LayerKind.CONV3X3)}")
        if op.out_q is not None:
            lines.append(f"act_q\t{i}\t{op.out_q.scale!r}\t{op.out_q.zero_point}")
        for tag, tensor in (("w", op.w), ("b", op.b_q)):
            if tensor is None:
                continue
            blob = np.ascontiguousarray(tensor.values, dtype=np.int8).tobytes()
            fname = f"op{i}.{tag}.bin"
            (out / fname).write_bytes(blob)
            shape = ",".join(str(d) for d in tensor.values.shape)
            lines.append(
                f"tensor\top{i}.{tag}\t{shape}\t{tensor.scale!r}\t{fname}\t{zlib.crc32(blob):08x}"
            )
    (out / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _net(variant, dtype, seed=3):
    """A built net with every tensor, biases included, set to random values."""
    net = build_model(variant, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    net.set_weights([0.1 * rng.standard_normal(w.shape) for w in net.get_weights()])
    return net


def _calibration(n=6, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 1, 33, 124)).astype(np.float32)


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


NETS = [
    pytest.param(variant, dtype, id=f"{variant}-{np.dtype(dtype).name}")
    for variant in ("light", "baseline")
    for dtype in (np.float32, np.float64)
]


@pytest.mark.parametrize("variant,dtype", NETS)
def test_float_directory_matches_oracle_bytes(variant, dtype, tmp_path):
    net = _net(variant, dtype)
    save_network(net, tmp_path / "new")
    _oracle_save_network(net, tmp_path / "old")
    assert _files(tmp_path / "new") == _files(tmp_path / "old")


@pytest.mark.parametrize("variant,dtype", NETS)
def test_int8_directory_matches_oracle_bytes(variant, dtype, tmp_path):
    qnet = quantize_network(_net(variant, dtype), _calibration())
    save_qnetwork(qnet, tmp_path / "new")
    _oracle_save_qnetwork(qnet, tmp_path / "old")
    assert _files(tmp_path / "new") == _files(tmp_path / "old")


# --- loader errors -------------------------------------------------------------


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    """A saved float light net and its int8 twin."""
    base = tmp_path_factory.mktemp("weights")
    net = _net("light", np.float32)
    save_network(net, base / "weights")
    save_qnetwork(quantize_network(net, _calibration()), base / "qweights")
    return base


LOADERS = {"weights": load_network, "qweights": load_qnetwork}


def _edit(src, dst, edit):
    """Copy a weights directory, passing its manifest lines through ``edit``."""
    shutil.copytree(src, dst)
    lines = (dst / "manifest").read_text(encoding="utf-8").splitlines()
    (dst / "manifest").write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return dst


def test_unedited_copies_load(dirs, tmp_path):
    for kind, load in LOADERS.items():
        load(_edit(dirs / kind, tmp_path / kind, lambda lines: lines))


@pytest.mark.parametrize("kind,other", [("weights", "qweights"), ("qweights", "weights")])
def test_other_format_rejected(dirs, kind, other):
    with pytest.raises(ParseError, match="not a murmurkit"):
        LOADERS[other](dirs / kind)


@pytest.mark.parametrize("kind", LOADERS)
def test_other_version_rejected(dirs, kind, tmp_path):
    def version_2(lines):
        return [lines[0].rsplit("\t", 1)[0] + "\t2", *lines[1:]]

    with pytest.raises(ParseError):
        LOADERS[kind](_edit(dirs / kind, tmp_path / "d", version_2))


@pytest.mark.parametrize("kind", LOADERS)
def test_swapped_variant_rejected(dirs, kind, tmp_path):
    def baseline(lines):
        return [("variant\tbaseline" if l.startswith("variant\t") else l) for l in lines]

    with pytest.raises(ParseError, match="layer"):
        LOADERS[kind](_edit(dirs / kind, tmp_path / "d", baseline))


@pytest.mark.parametrize("op", [0, 3, 7])
def test_dropped_op_row_rejected(dirs, op, tmp_path):
    def drop(lines):
        return [l for l in lines if not l.startswith(f"op\t{op}\t")]

    with pytest.raises(ParseError):
        load_qnetwork(_edit(dirs / "qweights", tmp_path / "d", drop))


@pytest.mark.parametrize("kind,columns", [("weights", 5), ("qweights", 6)])
def test_tensor_row_missing_a_column_rejected(dirs, kind, columns, tmp_path):
    for col in range(1, columns):

        def drop(lines):
            first = next(i for i, l in enumerate(lines) if l.startswith("tensor\t"))
            fields = lines[first].split("\t")
            assert len(fields) == columns
            del fields[col]
            return [*lines[:first], "\t".join(fields), *lines[first + 1 :]]

        with pytest.raises(ParseError):
            LOADERS[kind](_edit(dirs / kind, tmp_path / f"d{col}", drop))


@pytest.mark.parametrize("kind", LOADERS)
def test_transposed_tensor_shape_rejected(dirs, kind, tmp_path):
    def transpose(lines):
        return [l.replace("\t16,1,3,3\t", "\t1,16,3,3\t") for l in lines]

    with pytest.raises(ParseError):
        LOADERS[kind](_edit(dirs / kind, tmp_path / "d", transpose))


@pytest.mark.parametrize("kind", LOADERS)
def test_tensor_row_naming_a_missing_blob_rejected(dirs, kind, tmp_path):
    # name and blob file still agree, so only the read itself can fail
    def rename(lines):
        first = next(l for l in lines if l.startswith("tensor\t")).split("\t")[1]
        return [l.replace(f"\t{first}\t", "\tgone\t").replace(f"\t{first}.bin\t", "\tgone.bin\t") for l in lines]

    with pytest.raises(ParseError, match="No such file"):
        LOADERS[kind](_edit(dirs / kind, tmp_path / "d", rename))


@pytest.mark.parametrize("kind", LOADERS)
def test_manifest_that_is_not_utf8_rejected(dirs, kind, tmp_path):
    d = _edit(dirs / kind, tmp_path / "d", lambda lines: lines)
    (d / "manifest").write_bytes(b"\x80" + (d / "manifest").read_bytes())
    with pytest.raises(ParseError, match="utf-8"):
        LOADERS[kind](d)


def test_float_manifest_with_int8_dtype_rejected(dirs, tmp_path):
    def int8(lines):
        return [("dtype\tint8" if l.startswith("dtype\t") else l) for l in lines]

    with pytest.raises(ParseError, match="dtype float32"):
        load_network(_edit(dirs / "weights", tmp_path / "d", int8))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_float_tensor_rejected(dirs, value, tmp_path):
    # A diverged run's weights: the blob and its checksum are consistent.
    d = _edit(dirs / "weights", tmp_path / "d", lambda lines: lines)
    w = np.fromfile(d / "layer0.w.bin", dtype="<f4")
    w[5] = value
    blob = w.tobytes()
    (d / "layer0.w.bin").write_bytes(blob)

    def new_crc(lines):
        return [
            l.rsplit("\t", 1)[0] + f"\t{zlib.crc32(blob):08x}" if "\tlayer0.w.bin\t" in l else l
            for l in lines
        ]

    d = _edit(d, tmp_path / "e", new_crc)
    with pytest.raises(ParseError, match="layer0.w holds non-finite"):
        load_network(d)


# (row prefix, column) of an input, activation and tensor scale, and of the
# two zero points.
SCALE_FIELDS = [("input_q", 1), ("act_q", 2), ("tensor", 3)]
ZERO_POINT_FIELDS = [("input_q", 2), ("act_q", 3)]


@pytest.mark.parametrize(
    "prefix,column,value",
    [(*field, v) for field in SCALE_FIELDS for v in ("nan", "inf", "0.0", "-1.0", "1e+300")]
    + [(*field, v) for field in ZERO_POINT_FIELDS for v in ("999", "-129")],
)
def test_int8_scale_and_zero_point_out_of_range_rejected(dirs, prefix, column, value, tmp_path):
    def set_field(lines):
        first = next(i for i, l in enumerate(lines) if l.startswith(f"{prefix}\t"))
        fields = lines[first].split("\t")
        fields[column] = value
        return [*lines[:first], "\t".join(fields), *lines[first + 1 :]]

    with pytest.raises(ParseError, match="scale|zero point"):
        load_qnetwork(_edit(dirs / "qweights", tmp_path / "d", set_field))


def test_cli_resources_rejects_int8_weights(dirs, capsys):
    assert run(["resources", "--weights", str(dirs / "qweights")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
