"""Table and measured-CSV round trips, strict ingestion checks."""
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spindiff import dataio
from spindiff import (ConfigError, DecaySeries, DiffusionFit, DotGeometry,
                      YKind, build_grid, pumped_sampler, read_fit_report,
                      read_measured_csv, read_table, write_fit_report,
                      write_measured_csv, write_snapshots, write_table)


class TestTableRoundTrip:
    def test_values_survive_bitwise(self, tmp_path):
        path = tmp_path / "t.csv"
        rng = np.random.default_rng(11)
        cols = {"a": rng.random(50) * 1e-15,
                "b": rng.standard_normal(50) * 1e12,
                "c": np.linspace(0, 1, 50)}
        write_table(path, cols, {"tag": "x", "n": 50})
        back, meta = read_table(path)
        assert list(back) == ["a", "b", "c"]
        for k in cols:
            np.testing.assert_array_equal(back[k], cols[k])
        assert meta == {"tag": "x", "n": "50"}

    @staticmethod
    def write_table_per_cell(path, columns, metadata):
        """Reference writer: one % call per cell."""
        arrays = [np.asarray(v, dtype=float) for v in columns.values()]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, val in metadata.items():
                fh.write(f"# {key}={val}\n")
            fh.write(",".join(columns) + "\n")
            for i in range(arrays[0].size):
                fh.write(",".join("%.17g" % a[i] for a in arrays) + "\n")

    @pytest.mark.parametrize("n_rows", [0, 1, 4096, 2 * 4096 + 17])
    def test_bytes_match_per_cell_formatting(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        special = np.array([-0.0, 0.0, 1e-300, -5.1e-16, 2.2e-16, 1e300,
                            -1e300, 5e-324, 0.1, 1.0 / 3.0])
        a = np.resize(special, n_rows)
        cols = {"a": a, "b": rng.standard_normal(n_rows) * 1e-16,
                "c": rng.random(n_rows) * 10.0 ** rng.integers(-300, 300,
                                                               n_rows)}
        meta = {"grid": "24x30", "n": n_rows}
        write_table(tmp_path / "fast.csv", cols, meta)
        self.write_table_per_cell(tmp_path / "ref.csv", cols, meta)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_lf_endings_and_comment_metadata(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, {"x": [1.0]}, {"y_kind": "dot_average"})
        raw = path.read_bytes().decode("utf-8")
        assert raw.startswith("# y_kind=dot_average\n")
        assert "\r" not in raw

    def test_no_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no columns"):
            write_table(tmp_path / "t.csv", {})

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", {"a": [1.0], "b": [1.0, 2.0]})

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_table(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\nfoo\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_table(path)

    def test_repeated_column_rejected_naming_file_and_name(self, tmp_path):
        # keyed by name, the last "value" would silently replace the first
        path = tmp_path / "twice.csv"
        path.write_text("# y_kind=zeeman_splitting_uev\ndelay_s,value,value\n"
                        "0,98,1\n10,90,2\n", encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=r"twice\.csv:2: header repeats column "
                                 r"'value'"):
            read_table(path)

    def test_repeated_metadata_key_rejected_naming_file_and_key(self,
                                                                tmp_path):
        # keyed by name, the second y_kind would silently replace the first
        path = tmp_path / "kinds.csv"
        path.write_text("# y_kind=dot_average\n# y_kind=zeeman_splitting_uev"
                        "\ndelay_s,value\n0,1\n", encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=r"kinds\.csv:2: metadata repeats key "
                                 r"'y_kind'"):
            read_table(path)

    def test_missing_header_rejected(self, tmp_path):
        # metadata and a blank line, but no header
        path = tmp_path / "bad.csv"
        path.write_text("# n=0\n\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing header line"):
            read_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_table(tmp_path / "absent.csv")

    @pytest.mark.parametrize("write", [
        lambda path: write_table(path, {"a": [1.0]}),
        lambda path: write_snapshots(path, [0.0], [1.0], [2.0],
                                     [np.ones((1, 1))]),
        lambda path: write_fit_report(path, DiffusionFit(
            d_qd=1e-13, scale=1.0, offset=0.0, sse=0.0, d_grid=(1e-13,))),
    ], ids=["write_table", "write_snapshots", "write_fit_report"])
    def test_unwritable_path_names_it(self, tmp_path, write):
        # a directory where the file should go
        path = tmp_path / "taken.csv"
        path.mkdir()
        with pytest.raises(ConfigError, match=r"cannot write .*taken\.csv"):
            write(path)


class TestSnapshots:
    """write_snapshots against write_table of the expanded columns."""

    SPECIAL = np.array([-0.0, 5e-324, 1e300, -1e300, -3.1e-17, -5.1e-16,
                        0.0, 1.0, 1.0 / 3.0])

    @staticmethod
    def expanded(times, r, z, fields):
        times = np.asarray(times, dtype=float)
        return {"t_s": np.repeat(times, r.size * z.size),
                "r_nm": np.tile(np.repeat(r, z.size), times.size),
                "z_nm": np.tile(z, r.size * times.size),
                "s": np.array([f.ravel() for f in fields]).ravel()}

    def fields(self, times, nr, nz):
        rng = np.random.default_rng(nr * nz + len(times))
        out = []
        for _ in times:
            s = rng.standard_normal((nr, nz)) * 10.0 ** rng.integers(
                -300, 300, (nr, nz))
            s.flat[:self.SPECIAL.size] = self.SPECIAL
            out.append(s)
        return out

    @pytest.mark.parametrize("times, nr, nz", [
        ((), 3, 5),
        ((0.0,), 3, 5),
        ((0.0, 2.5, 2.5), 7, 11),
        ((1.0, 4.0), 5, 1000),     # 4 radial rows per block, one partial
        ((4.0,), 3, 4097),         # one radial row is above the block
        ((0.0, 2.5), 3, 0),        # no z: a snapshot of no rows
    ])
    def test_bytes_match_write_table(self, tmp_path, times, nr, nz):
        r = (np.arange(nr) + 0.5) * 0.5
        z = np.linspace(-12.3, 7.1, nz)
        assert np.any(z < 0) or not nz
        fields = self.fields(times, nr, nz)
        meta = {"d_cm2s": "2e-15"}
        write_snapshots(tmp_path / "new.csv", times, r, z, iter(fields), meta)
        write_table(tmp_path / "ref.csv", self.expanded(times, r, z, fields),
                    meta)
        raw = (tmp_path / "new.csv").read_bytes()
        assert raw == (tmp_path / "ref.csv").read_bytes()
        if not times:
            assert raw == b"# d_cm2s=2e-15\nt_s,r_nm,z_nm,s\n"
        back, back_meta = read_table(tmp_path / "new.csv")
        assert back_meta == meta
        for name, want in self.expanded(times, r, z, fields).items():
            assert back[name].tobytes() == want.tobytes()

    # 10 radial rows of 1000 cells: blocks of rows 0-3, 4-7 and 8-9
    SPARSE_NR, SPARSE_NZ = 10, 1000

    @staticmethod
    def sparse_field(kind, nr, nz):
        """A field of the given kind with whole radial rows that print
        `0` in every cell, or that almost do."""
        rng = np.random.default_rng(5)
        s = rng.standard_normal((nr, nz)) * 10.0 ** rng.integers(
            -300, 300, (nr, nz))
        # the first and last rows, and rows 3 and 4 on both sides of the
        # boundary between the first two blocks
        s[[0, 3, 4, nr - 1]] = 0.0
        if kind == "zero_rows":
            return s
        if kind == "negative_zero_row":
            s[5] = -0.0
            return s
        if kind == "hidden":
            # +0.0 rows, each with one cell that does not print as 0
            s[:] = 0.0
            for row, (col, x) in enumerate([(0, -0.0), (nz - 1, 5e-324),
                                            (7, np.nan), (3, np.inf),
                                            (4, -np.inf), (1, -5e-324)]):
                s[row + 2, col] = x
            return s
        if kind == "no_digit":
            return np.zeros((nr, nz))
        if kind == "fortran":
            return np.asfortranarray(s)
        if kind == "strided":
            big = np.ones((2 * nr, 3 * nz))
            big[::2, ::3] = s
            return big[::2, ::3]
        assert kind == "integer"
        n = rng.integers(-3, 3, (nr, nz))
        n[[0, 3, 4, nr - 1]] = 0
        return n

    @pytest.mark.parametrize("kind", ["zero_rows", "negative_zero_row",
                                      "hidden", "no_digit", "fortran",
                                      "strided", "integer"])
    def test_sparse_bytes_match_write_table(self, tmp_path, kind):
        nr, nz = self.SPARSE_NR, self.SPARSE_NZ
        r = (np.arange(nr) + 0.5) * 0.5
        z = np.linspace(-12.3, 7.1, nz)
        fields = [self.sparse_field(kind, nr, nz), np.zeros((nr, nz))]
        write_snapshots(tmp_path / "new.csv", (0.0, 2.5), r, z, fields)
        write_table(tmp_path / "ref.csv",
                    self.expanded((0.0, 2.5), r, z, fields))
        raw = (tmp_path / "new.csv").read_bytes()
        assert raw == (tmp_path / "ref.csv").read_bytes()
        if kind == "negative_zero_row":
            assert raw.count(b",-0\n") == nz

    @pytest.mark.parametrize("x", [-0.0, 5e-324, np.nan, np.inf])
    def test_run_ends_match_write_table(self, tmp_path, x):
        # a row's cells from its first to its last nonzero bit pattern go
        # through %.17g, the +0.0 cells outside that run are joined text:
        # x opens a run, closes one, does both, or is alone in its row
        nr, nz = self.SPARSE_NR, self.SPARSE_NZ
        s = np.zeros((nr, nz))
        s[1, 10], s[1, 11:20] = x, np.linspace(1.0, 2.0, 9)
        s[2, 30:40], s[2, 40] = np.linspace(-1.0, 1.0, 10), x
        s[5, 0] = s[5, nz - 1] = x
        s[6, 500] = x
        s[7, 0] = x
        s[8, nz - 1] = x
        r = (np.arange(nr) + 0.5) * 0.5
        z = np.linspace(-12.3, 7.1, nz)
        fields = [s, s[::-1]]
        write_snapshots(tmp_path / "new.csv", (0.0, 2.5), r, z, fields)
        write_table(tmp_path / "ref.csv",
                    self.expanded((0.0, 2.5), r, z, fields))
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_each_write_holds_at_most_one_block(self, tmp_path, monkeypatch):
        # the whole snapshot is never joined: each block of radial rows
        # is written on its own, which keeps the extra memory to a block
        writes = []

        @contextmanager
        def recording(path):
            yield SimpleNamespace(write=writes.append)

        nr, nz = self.SPARSE_NR, self.SPARSE_NZ
        r, z = np.arange(nr) + 0.5, np.linspace(-1.0, 1.0, nz)
        fields = [self.sparse_field("zero_rows", nr, nz), np.zeros((nr, nz))]
        write_table(tmp_path / "ref.csv", self.expanded((0.0, 2.5), r, z,
                                                        fields))
        monkeypatch.setattr(dataio, "_writing", recording)
        write_snapshots(tmp_path / "s.csv", (0.0, 2.5), r, z, fields)
        per_block = dataio._BLOCK_ROWS // nz
        assert writes[0] == "t_s,r_nm,z_nm,s\n"
        assert [w.count("\n") for w in writes[1:]] == [
            per_block * nz, per_block * nz, (nr % per_block) * nz] * 2
        assert "".join(writes) == (tmp_path / "ref.csv").read_text("utf-8")

    def test_production_snapshots_match_write_table(self, tmp_path):
        # the simulate-slow benchmark's field: D = 2e-15 cm2/s on the
        # 400x400 grid, where most radial rows are exact zeros
        geo = DotGeometry(radius=10.0, height=5.0)
        grid = build_grid(geo, 0.5, 0.5, 20.0)
        dark = pumped_sampler(2e-15, 0.4, geo, grid)
        times = (0.0, 4.0)
        fields = [dark.field_at(t).values for t in times]
        for f in fields:
            assert np.count_nonzero(np.any(f != 0, axis=1)) < grid.nr // 4
        meta = {"d_cm2s": "2e-15"}
        write_snapshots(tmp_path / "new.csv", times, grid.r_centers,
                        grid.z_centers, fields, meta)
        write_table(tmp_path / "ref.csv", self.expanded(
            times, grid.r_centers, grid.z_centers, fields), meta)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_wrong_field_shape_rejected(self, tmp_path):
        r, z = np.array([0.5, 1.5]), np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            write_snapshots(tmp_path / "s.csv", [0.0], r, z,
                            [np.zeros((3, 2))])

    def test_fields_must_match_times(self, tmp_path):
        r, z = np.array([0.5]), np.array([0.0])
        with pytest.raises(ValueError):
            write_snapshots(tmp_path / "s.csv", [0.0, 1.0], r, z,
                            [np.zeros((1, 1))])


class TestMeasuredCsv:
    def series(self):
        t = np.array([0.0, 1.0, 2.5, 7.0])
        y = np.array([60.0, 71.3, 88.1, 97.9])
        return DecaySeries(t=t, y=y, y_kind=YKind.ZEEMAN_SPLITTING_UEV,
                           metadata={"helicity": "sigma+", "b_ext_t": "2"})

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_measured_csv(path, replace(self.series(),
                                         sigma=[1.0, 1.0, 2.0, 2.0]))
        back = read_measured_csv(path)
        np.testing.assert_array_equal(back.t, self.series().t)
        np.testing.assert_array_equal(back.y, self.series().y)
        assert back.y_kind is YKind.ZEEMAN_SPLITTING_UEV
        assert back.metadata["helicity"] == "sigma+"
        assert back.sigma.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_read_write_read_keeps_sigma(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_measured_csv(first, replace(self.series(),
                                          sigma=[0.5, 0.5, 1.0, 2.0]))
        read = read_measured_csv(first)
        write_measured_csv(second, read)
        back = read_measured_csv(second)
        assert back.metadata == read.metadata
        assert back.sigma.tolist() == [0.5, 0.5, 1.0, 2.0]
        assert second.read_bytes() == first.read_bytes()

    def test_sigma_optional(self, tmp_path):
        path = tmp_path / "m.csv"
        write_measured_csv(path, self.series())
        back = read_measured_csv(path)
        assert back.sigma is None

    def test_non_monotonic_delay_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# y_kind=dot_average\ndelay_s,value\n"
                        "0,1\n2,0.5\n1,0.4\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_measured_csv(path)

    def test_nonpositive_sigma_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# y_kind=dot_average\ndelay_s,value,sigma\n"
                        "0,1,1\n1,0.5,0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_measured_csv(path)

    def test_missing_y_kind_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("delay_s,value\n0,1\n1,0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_measured_csv(path)

    def test_unknown_y_kind_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# y_kind=wavelength\ndelay_s,value\n0,1\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError):
            read_measured_csv(path)

    @pytest.mark.parametrize("second", ["y_kind=zeeman_splitting_uev",
                                        "y_kind=dot_average", " y_kind = x"])
    def test_repeated_y_kind_rejected(self, tmp_path, second):
        # the same key twice, whether the values differ or not
        path = tmp_path / "m.csv"
        path.write_text(f"# y_kind=dot_average\ndelay_s,value\n#{second}\n"
                        f"0,1\n1,0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=r"m\.csv:3: metadata repeats key 'y_kind'"):
            read_measured_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# y_kind=dot_average\ntime,val\n0,1\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError):
            read_measured_csv(path)

    def test_non_utf8_bytes_rejected_naming_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# y_kind=dot_average\ndelay_s,value\n0,1\xff\n")
        with pytest.raises(ConfigError, match="latin1.csv"):
            read_measured_csv(path)

    @pytest.mark.parametrize("text", [
        "# y_kind=dot_average\ndelay_s,value\n0,1\n2,0.5\n",
        "delay_s,value\n# y_kind=dot_average\n0,1\n2,0.5\n",
    ], ids=["metadata_first", "header_first"])
    def test_byte_order_mark_skipped(self, tmp_path, text):
        # as a spreadsheet exports UTF-8
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        back = read_measured_csv(path)
        assert back.y_kind is YKind.DOT_AVERAGE
        assert back.t.tolist() == [0.0, 2.0]
        assert back.y.tolist() == [1.0, 0.5]

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# y_kind=dot_average\ndelay_s,value\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError):
            read_measured_csv(path)


class TestFitReport:
    def test_round_trip_and_field_names(self, tmp_path):
        path = tmp_path / "fit.json"
        write_fit_report(path, DiffusionFit(
            d_qd=2e-15, scale=38.0, offset=60.0, sse=1.5e-4,
            warnings=("BoundaryMinimum",), d_grid=(1e-15, 1e-14)))
        report = read_fit_report(path)
        assert report["d_qd_cm2s"] == 2e-15
        assert report["scale_uev"] == 38.0
        assert report["offset_uev"] == 60.0
        assert report["sse"] == 1.5e-4
        assert report["warnings"] == ["BoundaryMinimum"]
        assert report["d_grid_cm2s"] == [1e-15, 1e-14]

    def test_sse_grid_and_forward_solves(self, tmp_path):
        path = tmp_path / "fit.json"
        write_fit_report(path, DiffusionFit(
            d_qd=2e-15, scale=38.0, offset=60.0, sse=1.5e-4,
            d_grid=(1e-15, 1e-14), sse_grid=(0.25, 3.5), forward_solves=17))
        report = read_fit_report(path)
        assert report["sse_grid"] == [0.25, 3.5]
        assert report["forward_solves"] == 17

    def test_missing_file_names_it(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match="absent.json"):
            read_fit_report(path)

    def test_malformed_json_names_it(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d_qd_cm2s": ', encoding="utf-8")
        with pytest.raises(ConfigError, match="broken.json"):
            read_fit_report(path)
