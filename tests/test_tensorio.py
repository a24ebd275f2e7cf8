"""Binary tensor container and PGM writer.

Golden byte strings are embedded raw so a regression in the encoder cannot
hide behind a matching regression in the decoder.
"""

import os
import struct

import numpy as np
import pytest

from rgconv import ConfigError, DataError, Rgt1Error, ShapeError
from rgconv.tensorio import read_rgt1, write_pgm, write_rgt1


def roundtrip(tmp_path, tensors):
    p = os.path.join(tmp_path, "t.rgt1")
    write_rgt1(p, tensors)
    return p, read_rgt1(p)


def test_roundtrip_f64_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 5, 7))
    _, out = roundtrip(str(tmp_path), {"a": a})
    assert out["a"].dtype == np.float64
    assert out["a"].tobytes() == a.tobytes()


def test_roundtrip_f32_and_order(tmp_path):
    rng = np.random.default_rng(1)
    pairs = [("z_last", rng.normal(size=(2, 2)).astype(np.float32)),
             ("a_first", rng.normal(size=4))]
    _, out = roundtrip(str(tmp_path), pairs)
    # insertion order preserved, not sorted
    assert list(out) == ["z_last", "a_first"]
    assert out["z_last"].dtype == np.float32
    assert np.array_equal(out["z_last"], pairs[0][1])
    assert np.array_equal(out["a_first"], pairs[1][1])


def test_scalar_layout_is_13_header_plus_8_payload(tmp_path):
    p = os.path.join(str(tmp_path), "s.rgt1")
    write_rgt1(p, {"w": np.array(1.5)})
    raw = open(p, "rb").read()
    assert len(raw) == 21
    assert raw[:4] == b"RGT1"
    assert struct.unpack("<I", raw[4:8])[0] == 1
    assert struct.unpack("<H", raw[8:10])[0] == 1
    assert raw[10:11] == b"w"
    assert raw[11] == 0 and raw[12] == 0  # dtype f64, rank 0
    assert struct.unpack("<d", raw[13:])[0] == 1.5


def test_zero_size_tensor(tmp_path):
    _, out = roundtrip(str(tmp_path), {"empty": np.zeros((0, 3))})
    assert out["empty"].shape == (0, 3)


def test_write_rejects_bad_names(tmp_path):
    p = os.path.join(str(tmp_path), "x.rgt1")
    for bad in ["", "x" * 65, "café"]:
        with pytest.raises(ConfigError):
            write_rgt1(p, {bad: np.zeros(1)})
    with pytest.raises(ConfigError):
        write_rgt1(p, [("dup", np.zeros(1)), ("dup", np.ones(1))])
    with pytest.raises(ConfigError):
        write_rgt1(p, {"i": np.zeros(1, dtype=np.int32)})


def test_read_empty_file_bad_magic_offset_zero(tmp_path):
    p = os.path.join(str(tmp_path), "e.rgt1")
    open(p, "wb").close()
    with pytest.raises(Rgt1Error, match="magic") as ei:
        read_rgt1(p)
    assert ei.value.offset == 0


def test_read_truncation_reports_offset(tmp_path):
    p = os.path.join(str(tmp_path), "t.rgt1")
    write_rgt1(p, {"ab": np.arange(4.0)})
    raw = open(p, "rb").read()
    for cut in (3, 8, 11, 14, len(raw) - 1):
        open(p, "wb").write(raw[:cut])
        with pytest.raises(Rgt1Error) as ei:
            read_rgt1(p)
        assert 0 <= ei.value.offset <= cut


def test_read_rejects_unknown_dtype_and_trailing_bytes(tmp_path):
    p = os.path.join(str(tmp_path), "t.rgt1")
    write_rgt1(p, {"ab": np.arange(4.0)})
    raw = bytearray(open(p, "rb").read())
    k = raw.index(b"ab") + 2
    raw[k] = 7  # dtype byte
    open(p, "wb").write(bytes(raw))
    with pytest.raises(Rgt1Error, match="dtype"):
        read_rgt1(p)
    write_rgt1(p, {"ab": np.arange(4.0)})
    with open(p, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(Rgt1Error, match="trailing"):
        read_rgt1(p)


def test_every_byte_flip_reads_or_raises_rgt1_error(tmp_path):
    # each corruption of one byte of a small file either still parses or
    # ends in Rgt1Error; any other exception fails the sweep
    p = os.path.join(str(tmp_path), "t.rgt1")
    write_rgt1(p, [("a", np.arange(3.0)), ("bb", np.ones((2, 1), np.float32)),
                   ("c", np.float64(7.0))])
    good = open(p, "rb").read()
    bad = os.path.join(str(tmp_path), "bad.rgt1")
    reads = errors = 0
    for i, byte in enumerate(good):
        for value in sorted({0x00, 0xFF, byte ^ 0x01, byte ^ 0x80} - {byte}):
            with open(bad, "wb") as fh:
                fh.write(good[:i] + bytes([value]) + good[i + 1:])
            try:
                read_rgt1(bad)
            except Rgt1Error:
                errors += 1
            else:
                reads += 1
    assert reads > 0 and errors > 0


def test_atomic_write_replaces_not_appends(tmp_path):
    p = os.path.join(str(tmp_path), "t.rgt1")
    write_rgt1(p, {"a": np.zeros(100)})
    write_rgt1(p, {"a": np.zeros(2)})
    out = read_rgt1(p)
    assert out["a"].shape == (2,)
    assert [f for f in os.listdir(str(tmp_path)) if f != "t.rgt1"] == []


def test_pgm_golden_bytes(tmp_path):
    p = os.path.join(str(tmp_path), "g.pgm")
    write_pgm(p, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert open(p, "rb").read() == b"P5\n2 2\n255\n\x00\xff\xff\x00"


def test_pgm_constant_maps_to_mid_gray(tmp_path):
    p = os.path.join(str(tmp_path), "c.pgm")
    write_pgm(p, np.full((3, 4), 2.75))
    raw = open(p, "rb").read()
    assert raw == b"P5\n4 3\n255\n" + bytes([128] * 12)


def test_pgm_rejects_bad_input(tmp_path):
    p = os.path.join(str(tmp_path), "b.pgm")
    with pytest.raises(ShapeError):
        write_pgm(p, np.zeros((2, 2, 2)))
    with pytest.raises(DataError):
        write_pgm(p, np.array([[0.0, np.nan]]))
