import numpy as np
import pytest

from blockdpp import io as bio
from blockdpp.kernel_model import BlockPartition


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = tmp_path / "m.csv"
        bio.save_matrix_csv(p, A)
        assert np.array_equal(bio.load_matrix_csv(p), A)

    def test_rejects_non_square(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ValueError):
            bio.load_matrix_csv(p)

    def test_rejects_asymmetric(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n0,1\n")
        with pytest.raises(ValueError):
            bio.load_matrix_csv(p)

    def test_rejects_non_finite_naming_the_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,nan\nnan,1\n")
        with pytest.raises(ValueError, match="m.csv"):
            bio.load_matrix_csv(p)

    def test_rejects_non_psd_naming_the_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("2,3\n3,2\n")   # eigenvalues 5 and -1
        with pytest.raises(ValueError, match="m.csv.*positive semidefinite"):
            bio.load_matrix_csv(p)

    def test_accepts_singular_psd(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,1\n1,1\n")   # eigenvalues 2 and 0
        assert np.array_equal(bio.load_matrix_csv(p), np.ones((2, 2)))


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        X = np.arange(6, dtype=float).reshape(3, 2)
        p = tmp_path / "s.csv"
        bio.save_series_csv(p, X)
        assert np.array_equal(bio.load_series_csv(p), X)

    def test_header_detected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        assert np.array_equal(bio.load_series_csv(p), [[1.0, 2.0], [3.0, 4.0]])


class TestEventsCsv:
    def test_roundtrip(self, tmp_path):
        e = np.array([0.5, 1.25, 9.0])
        p = tmp_path / "e.csv"
        bio.save_events_csv(p, e)
        assert np.array_equal(bio.load_events_csv(p), e)


class TestJson:
    def test_partition_roundtrip(self, tmp_path):
        part = BlockPartition((3, 4, 5), gamma=2)
        p = tmp_path / "p.json"
        bio.save_partition_json(p, part)
        assert bio.load_partition_json(p) == part

    def test_json_roundtrip_sorted(self, tmp_path):
        p = tmp_path / "d.json"
        bio.save_json(p, {"b": 1, "a": [1, 2]})
        assert bio.load_json(p) == {"a": [1, 2], "b": 1}
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
