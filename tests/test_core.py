"""Container validation and byte-exact file format round trips."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from denseseg.core import (
    FeatureMap,
    FormatError,
    LabelMap,
    RgbImage,
    ShapeError,
    read_pgm,
    read_ppm,
    read_tensor,
    write_pgm,
    write_ppm,
    write_tensor,
)


class TestContainers:
    def test_feature_map_casts_to_float32(self):
        fm = FeatureMap(np.zeros((2, 3, 4), dtype=np.float64))
        assert fm.data.dtype == np.float32
        assert (fm.height, fm.width, fm.channels) == (2, 3, 4)

    def test_feature_map_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((2, 3), dtype=np.float32))

    def test_feature_map_rejects_empty_axis(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((2, 0, 4), dtype=np.float32))

    def test_feature_map_rejects_nan_and_inf(self):
        bad = np.zeros((1, 1, 2), dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMap(bad)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureMap(bad)

    def test_flat_layout_is_row_major_channel_last(self):
        """Flat offset (y*W + x)*C + c must address data[y, x, c]."""
        rng = np.random.default_rng(7)
        fm = FeatureMap(rng.normal(size=(3, 4, 2)).astype(np.float32))
        flat = fm.data.reshape(-1)
        for y in range(3):
            for x in range(4):
                for c in range(2):
                    assert flat[(y * 4 + x) * 2 + c] == fm.data[y, x, c]

    def test_rgb_image_requires_uint8_and_three_channels(self):
        RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            RgbImage(np.zeros((2, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            RgbImage(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_label_map_requires_uint8_2d(self):
        LabelMap(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            LabelMap(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ShapeError):
            LabelMap(np.zeros((2, 2, 1), dtype=np.uint8))


class TestTensorFormat:
    def test_smallest_legal_tensor_is_24_bytes(self, tmp_path):
        """Header layout: 4 magic + 4 ndim + 3*4 dims + 4 payload = 24 bytes."""
        path = str(tmp_path / "t.dlt")
        write_tensor(FeatureMap(np.zeros((1, 1, 1), dtype=np.float32)), path)
        blob = open(path, "rb").read()
        assert blob == b"DLT1" + struct.pack("<IIII", 3, 1, 1, 1) + struct.pack("<f", 0.0)
        assert len(blob) == 24

    def test_read_smallest_legal_tensor(self, tmp_path):
        path = str(tmp_path / "t.dlt")
        with open(path, "wb") as fh:
            fh.write(b"DLT1" + struct.pack("<IIII", 3, 1, 1, 1) + struct.pack("<f", 0.0))
        fm = read_tensor(path)
        assert (fm.height, fm.width, fm.channels) == (1, 1, 1)
        assert fm.data[0, 0, 0] == 0.0

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        fm = FeatureMap(rng.normal(size=(7, 5, 3)).astype(np.float32))
        p1, p2 = str(tmp_path / "a.dlt"), str(tmp_path / "b.dlt")
        write_tensor(fm, p1)
        again = read_tensor(p1)
        write_tensor(again, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert np.array_equal(fm.data, again.data)

    def test_write_read_identity_pattern(self, tmp_path):
        fm = FeatureMap(np.eye(2, dtype=np.float32).reshape(2, 2, 1))
        path = str(tmp_path / "eye.dlt")
        write_tensor(fm, path)
        assert np.array_equal(read_tensor(path).data, fm.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.dlt")
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + struct.pack("<IIII", 3, 1, 1, 1) + struct.pack("<f", 0.0))
        with pytest.raises(FormatError, match="byte 0"):
            read_tensor(path)

    def test_wrong_ndim_rejected(self, tmp_path):
        path = str(tmp_path / "nd.dlt")
        with open(path, "wb") as fh:
            fh.write(b"DLT1" + struct.pack("<III", 2, 1, 1) + struct.pack("<f", 0.0))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "short.dlt")
        with open(path, "wb") as fh:
            fh.write(b"DLT1" + struct.pack("<IIII", 3, 2, 2, 1) + struct.pack("<f", 0.0))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "long.dlt")
        with open(path, "wb") as fh:
            fh.write(b"DLT1" + struct.pack("<IIII", 3, 1, 1, 1) + struct.pack("<f", 0.0) + b"x")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = str(tmp_path / "zero.dlt")
        with open(path, "wb") as fh:
            fh.write(b"DLT1" + struct.pack("<IIII", 3, 0, 1, 1))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_write_to_unwritable_path_raises_oserror(self, tmp_path):
        fm = FeatureMap(np.zeros((1, 1, 1), dtype=np.float32))
        with pytest.raises(OSError):
            write_tensor(fm, str(tmp_path / "no" / "such" / "dir.dlt"))


class TestPnmFormats:
    def test_single_red_pixel_ppm(self, tmp_path):
        path = str(tmp_path / "r.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n255\n\xff\x00\x00")
        img = read_ppm(path)
        assert tuple(img.data[0, 0]) == (255, 0, 0)

    def test_two_label_pgm(self, tmp_path):
        path = str(tmp_path / "l.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 1\n255\n\x00\x03")
        lm = read_pgm(path)
        assert lm.labels.tolist() == [[0, 3]]

    def test_ascii_variant_rejected(self, tmp_path):
        path = str(tmp_path / "a.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n255 0 0\n")
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "m.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_short_payload_rejected(self, tmp_path):
        path = str(tmp_path / "s.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 2\n255\n\xff\x00\x00")
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_pgm_write_emits_exact_header(self, tmp_path):
        lm = LabelMap(np.array([[0, 1, 2]], dtype=np.uint8))
        path = str(tmp_path / "w.pgm")
        write_pgm(lm, path)
        assert open(path, "rb").read() == b"P5\n3 1\n255\n\x00\x01\x02"

    def test_ppm_round_trip_pixel_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        img = RgbImage(rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8))
        path = str(tmp_path / "rt.ppm")
        write_ppm(img, path)
        assert np.array_equal(read_ppm(path).data, img.data)

    def test_pgm_round_trip_pixel_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        lm = LabelMap(rng.integers(0, 21, size=(6, 3), dtype=np.uint8))
        path = str(tmp_path / "rt.pgm")
        write_pgm(lm, path)
        assert np.array_equal(read_pgm(path).labels, lm.labels)
