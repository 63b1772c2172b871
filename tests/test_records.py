"""The framed record format behind checkpoints and embedding files: CRC and
truncation fuzzing, hostile length fields, trailing bytes and the refusal
of the old formats."""

import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cmlmkit
from cmlmkit import records
from cmlmkit.cli import EXIT_DATA, dispatch
from cmlmkit.errors import IntegrityError
from cmlmkit.evaluation import (EMBEDDING_MAGIC, EMBEDDING_VERSION, EmbeddingSet,
                                load_embeddings, save_embeddings)
from cmlmkit.model import EncoderConfig, init_params
from cmlmkit.optim import OptimizerState, optimizer_step
from cmlmkit.text import build_vocab
from cmlmkit.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              load_checkpoint, save_checkpoint)

U32_MAX = 2 ** 32 - 1
HEADERS = {"checkpoint": (CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
           "embedding": (EMBEDDING_MAGIC, EMBEDDING_VERSION)}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small version 2 checkpoint (moments included) and a small version 3
    embedding file with a non-ASCII tag, as (path, bytes, loader) by kind."""
    out = tmp_path_factory.mktemp("records")
    vocab = build_vocab(["aa bb"], target_size=12)
    config = EncoderConfig(vocab_size=vocab.size, layers=1, heads=1, hidden=4,
                           ff=4, max_len=4, n_projections=1, dropout=0.0)
    params = init_params(config, np.random.default_rng(0))
    state = OptimizerState(kind="lamb", total_steps=4)
    optimizer_step(params, {n: np.ones_like(p.data) for n, p in params.items()},
                   state)
    ckpt = str(out / "small.ckpt")
    save_checkpoint(ckpt, config, "cmlm_only", 1, vocab, params, state,
                    {"mask": np.random.default_rng(1).bit_generator.state})
    emb = str(out / "small.emb")
    save_embeddings(EmbeddingSet(
        np.arange(12, dtype=np.float32).reshape(4, 3) / 7, ["la", "lé", "la", "lé"],
        ["r0", "r1", "r2", "ζ3"]), emb)
    return {kind: (path, open(path, "rb").read(), loader)
            for kind, path, loader in (("checkpoint", ckpt, load_checkpoint),
                                       ("embedding", emb, load_embeddings))}


def section_starts(kind, path):
    """The file offset where each section begins, then the file's size."""
    sections = records.read(path, *HEADERS[kind], kind)
    ends = [offset + array.nbytes + 4 for array, offset in sections.values()]
    return [16] + ends


def cli_load(kind, path, tmp_path, capsys):
    """Exit code and stderr of the CLI command that reads ``path`` first."""
    if kind == "checkpoint":
        corpus = tmp_path / "in.txt"
        corpus.write_text("la\taa bb\n")
        argv = ["embed", "--ckpt", path, "--in", str(corpus), "--out",
                str(tmp_path / "x.emb")]
    else:
        argv = ["pcr", "--in", path, "--out", str(tmp_path / "x.emb")]
    code = dispatch(argv)
    return code, capsys.readouterr().err


def header(magic, version):
    return np.unpackbits(np.frombuffer(magic + struct.pack("<I", version),
                                       dtype=np.uint8))


def test_new_headers_are_more_than_one_bit_from_the_old_ones():
    old = [(CHECKPOINT_MAGIC, 1), (b"CMLMEMB1", 1), (b"CMLMEMB1", 2)]
    for new in HEADERS.values():
        for previous in old:
            assert np.sum(header(*new) != header(*previous)) > 1


@pytest.mark.parametrize("kind", ["checkpoint", "embedding"])
def test_round_trip_rewrites_identical_bytes(kind, files, tmp_path):
    path, blob, _ = files[kind]
    sections = records.read(path, *HEADERS[kind], kind)
    copy = str(tmp_path / "copy")
    records.write(copy, *HEADERS[kind],
                  [(name, array) for name, (array, _) in sections.items()])
    assert open(copy, "rb").read() == blob
    assert not os.path.exists(copy + ".tmp")


def test_non_ascii_text_round_trips(files):
    es = load_embeddings(files["embedding"][0])
    assert es.languages == ["la", "lé", "la", "lé"]
    assert es.ids == ["r0", "r1", "r2", "ζ3"]


def test_failed_write_leaves_the_old_file(files, tmp_path):
    path = str(tmp_path / "e.emb")
    open(path, "wb").write(files["embedding"][1])
    with pytest.raises(ValueError):
        records.write(path, EMBEDDING_MAGIC, EMBEDDING_VERSION,
                      [("vectors", np.zeros((2, 2), dtype=np.int64))])
    assert open(path, "rb").read() == files["embedding"][1]
    assert os.listdir(tmp_path) == ["e.emb"]


def test_written_file_has_the_mode_open_gives(tmp_path):
    records.write(str(tmp_path / "r"), EMBEDDING_MAGIC, 1, [])
    open(tmp_path / "t", "wb").close()
    assert os.stat(tmp_path / "r").st_mode == os.stat(tmp_path / "t").st_mode


@pytest.mark.parametrize("kind", ["checkpoint", "embedding"])
@settings(max_examples=150, deadline=None)
@given(where=st.floats(0, 1, exclude_max=True))
def test_any_flipped_bit_is_an_integrity_error(kind, files, tmp_path_factory,
                                               where):
    path, blob, loader = files[kind]
    bit = int(where * 8 * len(blob))
    bad = bytearray(blob)
    bad[bit // 8] ^= 1 << bit % 8
    target = str(tmp_path_factory.getbasetemp() / f"flip-{kind}")
    open(target, "wb").write(bytes(bad))
    with pytest.raises(IntegrityError):
        loader(target)


@pytest.mark.parametrize("kind", ["checkpoint", "embedding"])
def test_every_flipped_bit_outside_the_payloads_is_an_integrity_error(
        kind, files, tmp_path):
    # the magic, version and count, then the name, dtype, shape and CRC of
    # each of the first four sections (a checkpoint has ~60 more like them)
    path, blob, loader = files[kind]
    sections = records.read(path, *HEADERS[kind], kind)
    payloads = np.zeros(len(blob), dtype=bool)
    for array, offset in sections.values():
        payloads[offset:offset + array.nbytes] = True
    target = str(tmp_path / "flip")
    for at in np.flatnonzero(~payloads[:section_starts(kind, path)[4]]):
        for bit in range(8):
            bad = bytearray(blob)
            bad[at] ^= 1 << bit
            open(target, "wb").write(bytes(bad))
            with pytest.raises(IntegrityError):
                loader(target)


@pytest.mark.parametrize("kind", ["checkpoint", "embedding"])
def test_truncation_at_every_section_boundary(kind, files, tmp_path):
    path, blob, loader = files[kind]
    starts = section_starts(kind, path)
    assert starts[-1] == len(blob) and len(starts) > 3
    target = str(tmp_path / "cut")
    for cut in [0, 8, 12] + starts[:-1]:
        open(target, "wb").write(blob[:cut])
        with pytest.raises(IntegrityError, match="truncated|magic"):
            loader(target)


@pytest.mark.parametrize("kind", ["checkpoint", "embedding"])
def test_damage_exits_2_through_the_cli(kind, files, tmp_path, capsys):
    path, blob, _ = files[kind]
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x10
    for name, data in (("flip", bytes(flipped)), ("cut", blob[:len(blob) // 2])):
        target = str(tmp_path / name)
        open(target, "wb").write(data)
        code, err = cli_load(kind, target, tmp_path, capsys)
        assert code == EXIT_DATA
        assert "Traceback" not in err and "offset" in err


def test_version_1_checkpoint_is_refused(files, tmp_path, capsys):
    target = str(tmp_path / "v1.ckpt")
    blob = files["checkpoint"][1]
    open(target, "wb").write(CHECKPOINT_MAGIC + struct.pack("<I", 1) + blob[12:])
    with pytest.raises(IntegrityError, match="checkpoint version 1"):
        load_checkpoint(target)
    code, err = cli_load("checkpoint", target, tmp_path, capsys)
    assert code == EXIT_DATA and "version 1" in err


def test_trailing_bytes_are_refused_at_their_offset(files, tmp_path):
    blob = files["embedding"][1]
    target = str(tmp_path / "long.emb")
    open(target, "wb").write(blob + b"\0")
    with pytest.raises(IntegrityError, match="after its last") as info:
        load_embeddings(target)
    assert info.value.offset == len(blob)


def loads_within(loader, path, match, limit=1 << 20):
    """``loader(path)`` raises ``IntegrityError`` matching ``match`` with a
    traced allocation peak under ``limit`` bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(IntegrityError, match=match):
            loader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("kind", ["checkpoint", "embedding"])
@pytest.mark.parametrize("field,match", [
    ("count", "sections needs"),
    ("name", "section name needs"),
    ("rank", "section shape needs"),
    ("dim", "section payload needs"),
])
def test_hostile_frame_length_is_refused_before_allocating(kind, field, match,
                                                           files, tmp_path):
    path, blob, loader = files[kind]
    (name_len,) = struct.unpack_from("<I", blob, 16)
    rank_at = 16 + 4 + name_len + 1
    at = {"count": 12, "name": 16, "rank": rank_at, "dim": rank_at + 4}[field]
    bad = bytearray(blob)
    bad[at:at + 4] = struct.pack("<I", U32_MAX)
    target = str(tmp_path / "hostile")
    open(target, "wb").write(bytes(bad))
    loads_within(loader, target, match)


def rows_file(version=2, count=2, dim=2, n_tags=1, tag_len=2, id_len=2):
    """An embedding file of the row format (version 1 or 2) of one tag and
    two rows, whose header and length fields can lie about them."""
    blob = b"CMLMEMB1" + struct.pack("<IIII", version, count, dim, n_tags)
    blob += struct.pack("<I", tag_len) + b"l0"
    for i in range(2):
        blob += struct.pack("<I", 0)
        if version == 2:
            blob += struct.pack("<I", id_len) + f"r{i}".encode()
        blob += np.array([i, -i], dtype="<f4").tobytes()
    return blob


def refusal(version):
    return f"^unsupported embedding file version {version} \\(at byte offset 8\\)$"


# Each header lies in one length field that the row reader, removed when the
# row format stopped being read, refused with ``row_reader_error``; the file
# is now refused at its version, before that length is read.
@pytest.mark.parametrize("field,row_reader_error", [
    (dict(count=U32_MAX), "rows of dim 2 needs"),
    (dict(dim=U32_MAX), "rows of dim 4294967295 needs"),
    (dict(count=1 << 20, dim=1 << 12), "rows of dim 4096 needs"),
    (dict(n_tags=U32_MAX), "language tags needs"),
    (dict(tag_len=U32_MAX), "language tag needs"),
    (dict(id_len=U32_MAX), "row id needs"),
])
def test_hostile_row_file_length_is_refused_before_allocating(
        field, row_reader_error, tmp_path):
    target = str(tmp_path / "hostile.emb")
    open(target, "wb").write(rows_file(**field))
    loads_within(load_embeddings, target, refusal(2))


@pytest.mark.parametrize("version", [1, 2])
def test_row_file_is_refused_naming_its_version(version, tmp_path, capsys):
    target = str(tmp_path / f"v{version}.emb")
    blob = rows_file(version)
    for data in (blob, blob + b"\0", blob[:12]):
        open(target, "wb").write(data)
        loads_within(load_embeddings, target, refusal(version))
    code, err = cli_load("embedding", target, tmp_path, capsys)
    assert code == EXIT_DATA and f"version {version}" in err
    assert "Traceback" not in err


def test_hostile_row_file_exits_2_under_an_address_space_limit(tmp_path):
    # 2^20 rows of dim 2^12 claim 16 GiB; under a 2 GiB address-space limit
    # a loader that allocates before checking dies with MemoryError (exit 1)
    target = str(tmp_path / "hostile.emb")
    open(target, "wb").write(rows_file(count=1 << 20, dim=1 << 12))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from cmlmkit.cli import dispatch\n"
             "sys.exit(dispatch(sys.argv[1:]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(cmlmkit.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe, "pcr", "--in", target, "--out",
         str(tmp_path / "x.emb")], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == EXIT_DATA, done.stderr
    assert "embedding file version 2" in done.stderr
    assert "Traceback" not in done.stderr
