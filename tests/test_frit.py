import csv
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TS, matched_loop_data
from fritpid.adaptive import RegressorGenerator, RlsEstimator
from fritpid.csvio import CHUNK_ROWS, read_columns
from fritpid.frit import (
    ClosedLoopDataset,
    InverseNotProperError,
    RankDeficientError,
    UnstableInverseWarning,
    batch_tune,
    fictitious_reference,
    frit_cost,
    regressor_samples,
)
from fritpid.lti import RationalFilter, ReferenceModel

THETA_STAR = np.array([0.107, 0.1515, 0.0115])


class TestFictitiousReference:
    def test_reproduces_reference_on_consistent_data(self, gm_default):
        data = matched_loop_data(THETA_STAR, gm=gm_default)
        r_tilde = fictitious_reference(THETA_STAR, data)
        assert np.max(np.abs(r_tilde[10:] - data.r[10:])) < 1e-8

    def test_unit_controller(self):
        rng = np.random.default_rng(31)
        u0 = rng.standard_normal(100)
        y0 = rng.standard_normal(100)
        data = ClosedLoopDataset(u0=u0, y0=y0, r=np.zeros(100), ts=TS)
        r_tilde = fictitious_reference([1.0, 0.0, 0.0], data)
        assert r_tilde == pytest.approx(u0 + y0)

    def test_zero_input_gives_back_output(self):
        rng = np.random.default_rng(32)
        y0 = rng.standard_normal(100)
        data = ClosedLoopDataset(u0=np.zeros(100), y0=y0, r=np.zeros(100), ts=TS)
        r_tilde = fictitious_reference(THETA_STAR, data)
        assert r_tilde == pytest.approx(y0)

    def test_improper_inverse_rejected(self):
        data = ClosedLoopDataset(
            u0=np.ones(10), y0=np.ones(10), r=np.ones(10), ts=TS
        )
        with pytest.raises(InverseNotProperError):
            fictitious_reference([0.0, 0.0, 0.0], data)
        # kp*ts + ki*ts^2 + kd == 0 exactly, with nonzero gains
        with pytest.raises(InverseNotProperError):
            fictitious_reference([1.0, 0.0, -TS], data)

    def test_unstable_inverse_warns_but_returns(self):
        rng = np.random.default_rng(33)
        data = ClosedLoopDataset(
            u0=rng.standard_normal(50),
            y0=rng.standard_normal(50),
            r=np.zeros(50),
            ts=TS,
        )
        with pytest.warns(UnstableInverseWarning):
            out = fictitious_reference([0.1, -0.5, 0.01], data)
        assert out.shape == (50,)


class TestCost:
    def test_zero_on_matching_data(self, gm_default):
        data = matched_loop_data(THETA_STAR, gm=gm_default)
        assert frit_cost(THETA_STAR, data, gm_default) < 1e-12

    def test_zero_data_zero_cost(self, gm_default):
        data = ClosedLoopDataset(
            u0=np.zeros(50), y0=np.zeros(50), r=np.zeros(50), ts=TS
        )
        assert frit_cost(THETA_STAR, data, gm_default) == 0.0

    def test_nonnegative(self, gm_default):
        rng = np.random.default_rng(34)
        for _ in range(5):
            data = ClosedLoopDataset(
                u0=rng.standard_normal(80),
                y0=rng.standard_normal(80),
                r=np.zeros(80),
                ts=TS,
            )
            theta = rng.uniform(0.05, 0.5, size=3)
            assert frit_cost(theta, data, gm_default) >= 0.0

    @pytest.mark.parametrize("u0", [1e308, 1e170], ids=["residual-inf", "square-overflows"])
    def test_overflowing_residual_costs_inf(self, gm_default, u0):
        # a pure-gain controller kp = 1e-3 inverts u0 to r_tilde = 1000 u0
        data = matched_loop_data(THETA_STAR, n=100)
        huge = ClosedLoopDataset(u0=np.full(100, u0), y0=data.y0, r=data.r, ts=TS)
        with np.errstate(all="raise"):
            assert frit_cost([1e-3, 0.0, 0.0], huge, gm_default) == math.inf

    def test_optimum_not_worse_than_start(self, gm_default):
        data = matched_loop_data(THETA_STAR, gm=gm_default)
        tuned = batch_tune(data, gm_default)
        start = np.array([0.05, 0.05, 0.0])
        assert frit_cost(tuned, data, gm_default) <= frit_cost(start, data, gm_default)


class TestBatchTune:
    def test_recovers_consistent_gains(self, gm_default):
        data = matched_loop_data(THETA_STAR, gm=gm_default)
        theta = batch_tune(data, gm_default)
        assert np.linalg.norm(theta - THETA_STAR) / np.linalg.norm(THETA_STAR) < 1e-8

    def test_duplicated_samples_same_answer(self, gm_default):
        # duplicating the regression samples leaves the least-squares
        # solution unchanged (concatenating the raw time series instead
        # would inject a seam discontinuity into the stateful filters)
        data = matched_loop_data(THETA_STAR, n=1500, gm=gm_default)
        phis, ds = regressor_samples(data, gm_default)
        stacked = np.vstack([phis, phis])
        rhs = np.concatenate([ds, ds])
        doubled = np.linalg.solve(stacked.T @ stacked, stacked.T @ rhs)
        assert doubled == pytest.approx(batch_tune(data, gm_default), rel=1e-9)

    def test_scale_invariance(self, gm_default):
        data = matched_loop_data(THETA_STAR, gm=gm_default)
        scaled = ClosedLoopDataset(
            u0=3.7 * data.u0, y0=3.7 * data.y0, r=3.7 * data.r, ts=TS
        )
        assert batch_tune(scaled, gm_default) == pytest.approx(
            batch_tune(data, gm_default), rel=1e-9
        )

    def test_non_informative_data_rejected(self, gm_default):
        data = ClosedLoopDataset(
            u0=np.zeros(100), y0=np.zeros(100), r=np.zeros(100), ts=TS
        )
        with pytest.raises(RankDeficientError):
            batch_tune(data, gm_default)

    @pytest.mark.parametrize("gm", [
        ReferenceModel.first_order(TS),
        ReferenceModel.first_order(TS, tau=0.5, discretization="zoh"),
        ReferenceModel(RationalFilter([0.0, 0.005, 0.004], [1.0, -1.6, 0.64])),
    ], ids=["euler", "zoh", "order2"])
    def test_regressor_samples_match_per_sample_loop(self, gm_default, gm):
        data = matched_loop_data(THETA_STAR, n=1000, gm=gm_default)
        gen = RegressorGenerator(gm.filter, data.ts)
        ref_phis = np.empty((len(data), 3))
        ref_ds = np.empty(len(data))
        for k in range(len(data)):
            ref_phis[k], ref_ds[k] = gen.step(data.y0[k], data.u0[k])
        phis, ds = regressor_samples(data, gm, skip=0)
        assert phis.tobytes() == ref_phis.tobytes()
        assert ds.tobytes() == ref_ds.tobytes()

    def test_matches_rls_over_same_samples(self, gm_default):
        data = matched_loop_data(THETA_STAR, n=1000, gm=gm_default)
        phis, ds = regressor_samples(data, gm_default)
        est = RlsEstimator([0.0, 0.0, 0.0], p0=1e6, mu=1.0)
        for phi, d in zip(phis, ds):
            est.update(phi, d)
        batch = batch_tune(data, gm_default)
        assert np.linalg.norm(est.theta - batch) / np.linalg.norm(batch) < 1e-6


def reference_dataset_csv(data, path):
    """The row-at-a-time `csv.writer` loop that defined the dataset format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "u", "y"])
        for k in range(len(data)):
            writer.writerow([repr(k * data.ts), repr(float(data.r[k])),
                             repr(float(data.u0[k])), repr(float(data.y0[k]))])


def awkward_dataset():
    """More rows than one write batch, with -0.0 and exponent-notation values."""
    data = matched_loop_data(THETA_STAR, n=CHUNK_ROWS + 3)
    data.r[:4] = [1e-05, 1.5e16, -0.0, 5e-324]
    data.u0[:4] = [-0.0, -1e-05, 1.7976931348623157e308, 1e22]
    return data


class TestCsvRoundTrip:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("k,r,u,y\r\n\r\n0,1,2,3\r\n\r\n1,4,5,6\r\n\r\n", newline="")
        assert read_columns(path, ["y", "r"]) == [[3.0, 6.0], [1.0, 4.0]]

    def test_bytes_match_reference_writer(self, tmp_path):
        data = awkward_dataset()
        data.save(tmp_path / "new.csv")
        reference_dataset_csv(data, tmp_path / "ref.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert b"\r\n0.01,1.5e+16,-1e-05," in written

    @pytest.mark.parametrize("n", [2, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS])
    def test_stepped_reference_bytes_match_reference_writer(self, tmp_path, n):
        # r is 1.0 over chunk 1, -0.0 then 0.0 over chunk 2 and 2.0 over chunk 3;
        # u mixes 0.0 and -0.0 over chunk 1; t is k * ts
        data = matched_loop_data(THETA_STAR, n=n)
        data.r[:] = np.repeat([1.0, 1.0, -0.0, 0.0, 2.0, 2.0], CHUNK_ROWS // 2)[:n]
        data.u0[: CHUNK_ROWS + 1] = np.where(np.arange(CHUNK_ROWS + 1) % 3 == 1, -0.0, 0.0)[:n]
        data.save(tmp_path / "new.csv")
        reference_dataset_csv(data, tmp_path / "ref.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert written.split(b"\r\n")[-2].startswith(repr((n - 1) * TS).encode() + b",")
        loaded = ClosedLoopDataset.load(tmp_path / "new.csv")
        assert loaded.ts == data.ts
        for col in ("u0", "y0", "r"):
            assert getattr(loaded, col).tobytes() == getattr(data, col).tobytes()

    def test_save_load(self, tmp_path):
        data = awkward_dataset()
        data.save(tmp_path / "d.csv")
        loaded = ClosedLoopDataset.load(tmp_path / "d.csv")
        assert loaded.ts == data.ts
        for col in ("u0", "y0", "r"):
            assert getattr(loaded, col).tobytes() == getattr(data, col).tobytes()

    def test_header_layout(self, tmp_path):
        data = ClosedLoopDataset(
            u0=np.arange(3.0), y0=np.arange(3.0), r=np.arange(3.0), ts=TS
        )
        path = tmp_path / "d.csv"
        data.save(path)
        assert path.read_text().splitlines()[0] == "t,r,u,y"
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_decimal_timestamps_load(self, tmp_path):
        # t typed as decimals, up to 99.999, steps by 1e-3 to within 1e-11 relative
        path = tmp_path / "d.csv"
        rows = "".join(f"{k / 1000:.3f},1,{k % 7},0\n" for k in range(100_000))
        path.write_text("t,r,u,y\n" + rows)
        loaded = ClosedLoopDataset.load(path)
        assert loaded.ts == 0.001 and len(loaded) == 100_000


def reference_read_columns(path, names):
    """The row-at-a-time `csv.reader` + `float()` loop that defined the dataset format."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [n for n in names if n not in header]
        if missing:
            raise ValueError(f"{path}: header {','.join(header)} has no column {','.join(missing)}")
        index = [header.index(n) for n in names]
        cols = [[] for _ in names]
        try:
            for row in reader:
                if len(row) != len(header):
                    if not row:
                        continue
                    raise ValueError(f"{len(row)} fields, header has {len(header)}")
                for col, i in zip(cols, index):
                    col.append(float(row[i]))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not cols[0]:
        raise ValueError(f"{path}: header but no data rows")
    return cols


def bits_or_message(read, path, names):
    """The bytes of each column `read` returns, or the message of its ValueError;
    a warning is an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [struct.pack(f"{len(col)}d", *col) for col in read(path, names)]
    except ValueError as exc:
        return str(exc)


REPR_FLOATS = st.floats().map(repr)  # also nan, inf, -inf and -0.0
NUMBERS = st.sampled_from([  # numbers numpy reads; float() refuses the two with \x1c and \x1f
    " 1.5 ", "\t2\x0b", "\xa03", "\u30004", "\x1c4", "5\x1f", "+inf", "-nan", "Infinity", "1e999",
])
NOT_FOR_NUMPY = st.sampled_from([
    "1_0", "\u0661\u0662", "0x1", "1 2", "2\x00", '"2.5"', '"1,5"', '"7', "abc", "",
])
LINE_ENDS = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def csv_files(draw):
    """(text, names): a header of 1 to 4 of the dataset's names, then rows.  A third
    of the files hold only `repr` floats in full rows and empty lines, a third also
    other spellings of numbers, and a third also fields numpy refuses, short and long
    rows and whitespace-only lines."""
    header = draw(st.lists(st.sampled_from("kruy"), min_size=1, max_size=4, unique=True))
    names = draw(st.lists(st.sampled_from(header), min_size=1, max_size=4, unique=True))
    n = len(header)
    field, widths, blanks = REPR_FLOATS, st.just(n), st.just("")
    kind = draw(st.sampled_from(["repr", "numbers", "anything"]))
    if kind != "repr":
        field = st.one_of(REPR_FLOATS, NUMBERS)
    if kind == "anything":
        field = st.one_of(field, NOT_FOR_NUMPY)
        widths = st.sampled_from([n, n, n - 1, n + 1])
        blanks = st.sampled_from(["", " ", "\t", "\x0c", "\x1c"])
    row = widths.flatmap(lambda w: st.lists(field, min_size=w, max_size=w)).map(",".join)
    lines = [",".join(header), *draw(st.lists(st.one_of(row, blanks), max_size=6))]
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(map(str.__add__, lines, ends)), names


class TestReadColumns:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(case=csv_files())
    @example(case=(f"y\r\n{'1' * 131_073}\r\n", ["y"]))  # a number csv.reader finds too long
    def test_matches_the_csv_loop_bit_for_bit(self, tmp_path_factory, case):
        text, names = case
        path = tmp_path_factory.getbasetemp() / "read_columns.csv"
        path.write_text(text, newline="")
        expected = bits_or_message(reference_read_columns, path, names)
        assert bits_or_message(read_columns, path, names) == expected

    def test_a_saved_dataset_is_parsed_by_numpy(self, tmp_path, monkeypatch):
        tables, loadtxt = [], np.loadtxt

        def spy(*args, **kwargs):
            tables.append(loadtxt(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        data = awkward_dataset()
        data.save(tmp_path / "d.csv")
        loaded = ClosedLoopDataset.load(tmp_path / "d.csv")
        assert [t.shape for t in tables] == [(len(data), 4)]
        assert loaded.u0.tobytes() == data.u0.tobytes()


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ClosedLoopDataset(u0=np.ones(5), y0=np.ones(4), r=np.ones(5), ts=TS)

    def test_non_finite(self):
        bad = np.ones(5)
        bad[2] = np.inf
        with pytest.raises(ValueError):
            ClosedLoopDataset(u0=bad, y0=np.ones(5), r=np.ones(5), ts=TS)

    @pytest.mark.parametrize("ts", [0.0, -0.01, np.nan, np.inf])
    def test_ts_must_be_positive_and_finite(self, ts):
        with pytest.raises(ValueError, match="ts"):
            ClosedLoopDataset(u0=np.ones(5), y0=np.ones(5), r=np.ones(5), ts=ts)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ClosedLoopDataset(u0=np.ones(1), y0=np.ones(1), r=np.ones(1), ts=TS)
