import numpy as np
import pytest

from blockdpp import io as bio
from blockdpp import matrix_core as mc
from blockdpp.kernel_model import BlockPartition, DppKernel


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = tmp_path / "m.csv"
        bio.save_csv(p, A)
        assert np.array_equal(bio.load_matrix_csv(p), A)

    def test_returns_a_kernel_scanned_once(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        bio.save_csv(p, np.array([[2.0, 0.5], [0.5, 1.0]]))
        scanned = []
        scan = mc._asymmetry
        monkeypatch.setattr(mc, "_asymmetry",
                            lambda A: scanned.append(A.shape) or scan(A))
        kern = bio.load_matrix_csv(p)
        assert type(kern) is DppKernel and not kern.L.flags.writeable
        assert scanned == [(2, 2)]

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

    @pytest.mark.parametrize("lam_min, ok", [(-0.5e-8, True), (-2e-8, False)])
    def test_psd_tolerance_of_a_unit_diagonal(self, tmp_path, lam_min, ok):
        off = 1.0 - lam_min    # eigenvalues 2 - lam_min and lam_min
        A = np.array([[1.0, off], [off, 1.0]])
        p = tmp_path / "m.csv"
        bio.save_csv(p, A)
        if ok:
            assert np.array_equal(bio.load_matrix_csv(p), A)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                bio.load_matrix_csv(p)


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        X = np.arange(6, dtype=float).reshape(3, 2)
        p = tmp_path / "s.csv"
        bio.save_csv(p, X)
        assert np.array_equal(bio.load_series_csv(p), X)

    def test_header_detected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        assert np.array_equal(bio.load_series_csv(p), [[1.0, 2.0], [3.0, 4.0]])


class TestEventsCsv:
    def test_roundtrip(self, tmp_path):
        e = np.array([0.5, 1.25, 9.0])
        p = tmp_path / "e.csv"
        bio.save_csv(p, e)
        assert np.array_equal(bio.load_events_csv(p), e)
        assert p.read_text() == "0.5\n1.25\n9\n"


class TestSaveCsv:
    def test_header_is_a_comment_line(self, tmp_path):
        p = tmp_path / "t.csv"
        bio.save_csv(p, [[0.1, 2.0]], header="a,b")
        assert p.read_text() == "# a,b\n0.10000000000000001,2\n"


class TestJson:
    def test_partition_roundtrip(self, tmp_path):
        part = BlockPartition((3, 4, 5), gamma=2)
        p = tmp_path / "p.json"
        bio.save_json(p, part.to_json_dict())
        assert BlockPartition.from_json_dict(bio.load_json(p)) == part

    @pytest.mark.parametrize("d,field", [
        ({"block_sizes": [2, 3.7], "gamma": 1}, "block sizes"),
        ({"block_sizes": [2, 3], "gamma": 1.5}, "gamma"),
    ])
    def test_partition_rejects_non_integers(self, tmp_path, d, field):
        p = tmp_path / "p.json"
        bio.save_json(p, d)
        with pytest.raises(ValueError, match=field):
            BlockPartition.from_json_dict(bio.load_json(p))

    def test_json_roundtrip_sorted(self, tmp_path):
        p = tmp_path / "d.json"
        bio.save_json(p, {"b": 1, "a": [1, 2]})
        assert bio.load_json(p) == {"a": [1, 2], "b": 1}
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
