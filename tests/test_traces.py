"""Trace parsing, bounds, sampling, and the volatility transform."""

import io
import math
import warnings
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opr.errors import ParameterError, TraceError
from opr.traces import (
    TraceBounds,
    TraceDataset,
    TraceKind,
    apply_noise,
    parse_trace,
    sample_segment_with_offset,
    synthetic_diurnal,
    trace_bounds,
)

GOOD = """# region: testland
timestamp,value
2021-01-01T00:00:00+00:00,100.5
2021-01-01T01:00:00+00:00,90.25
"""


class TestParse:
    def test_two_rows(self):
        ds = parse_trace(io.StringIO(GOOD))
        assert len(ds) == 2
        assert ds.region == "testland"
        assert ds.values == (100.5, 90.25)

    @staticmethod
    def _error(rows, kind=TraceKind.INTENSITY):
        """The message of the file's error; a region comment and a blank
        line put its data rows at file lines 4, 5, ..."""
        text = "# region: x\n\ntimestamp,value\n" + "".join(f"{row}\n" for row in rows)
        with pytest.raises(TraceError) as info:
            parse_trace(io.StringIO(text), kind)
        return str(info.value)

    def test_negative_value_reports_row(self):
        for bad in ("-5", "nan"):
            rows = ["2021-01-01T00:00:00+00:00,5", f"2021-01-01T01:00:00+00:00,{bad}"]
            assert self._error(rows) == f"value at row 5 must be finite and >= 0, got {float(bad)}"

    def test_non_monotone(self):
        rows = ["2021-01-01T01:00:00+00:00,5", "2021-01-01T00:00:00+00:00,5"]
        assert self._error(rows) == "timestamps not strictly increasing at row 5"

    def test_missing_hour(self):
        rows = ["2021-01-01T00:00:00+00:00,5", "2021-01-01T02:00:00+00:00,5"]
        assert self._error(rows) == (
            "missing hour before row 5: 2021-01-01T00:00:00+00:00 -> 2021-01-01T02:00:00+00:00"
        )

    def test_dataset_row_errors_name_the_index(self):
        with pytest.raises(TraceError) as info:
            TraceDataset("x", (5.0, 150.0), TraceKind.CARBON_FREE_PCT)
        assert str(info.value) == "carbon-free percentage at row 1 exceeds 100: 150.0"

    @given(st.lists(st.sampled_from([0.0, -0.0, 5.5, 100.0, 100.00000000000001, 150.0, -1e-300,
                                     math.nan, math.inf, -math.inf, 7]), min_size=1),
           st.sampled_from([TraceKind.INTENSITY, TraceKind.CARBON_FREE_PCT]))
    def test_dataset_names_its_first_faulty_value(self, values, kind):
        want = None
        for row, v in enumerate(values):  # the value rules, one row at a time
            if not math.isfinite(v) or v < 0:
                want = f"value at row {row} must be finite and >= 0, got {v}"
            elif kind is TraceKind.CARBON_FREE_PCT and v > 100:
                want = f"carbon-free percentage at row {row} exceeds 100: {v}"
            if want:
                break
        try:
            TraceDataset("x", tuple(values), kind)
        except TraceError as exc:
            assert str(exc) == want
        else:
            assert want is None

    def test_cadence_is_checked_across_offsets_by_file_line(self):
        # 10:00Z, 11:00Z, 13:00Z written at two offsets: the gap is between
        # the instants, named by the third row's file line
        rows = ["2021-06-01T12:00:00+02:00,5", "2021-06-01T12:00:00+01:00,5",
                "2021-06-01T14:00:00+01:00,5"]
        assert self._error(rows) == (
            "missing hour before row 6: 2021-06-01T11:00:00+00:00 -> 2021-06-01T13:00:00+00:00"
        )

    @pytest.mark.parametrize("rows, message", [
        # a format fault is raised while reading, before an earlier row's gap
        (["2021-01-01T00:00:00+00:00,5", "2021-01-01T05:00:00+00:00,5",
          "2021-01-01T06:00:00+00:00,abc"], "row 6: bad value 'abc'"),
        # a gap is raised before an earlier row's bad value
        (["2021-01-01T00:00:00+00:00,-1", "2021-01-01T03:00:00+00:00,5"],
         "missing hour before row 5: 2021-01-01T00:00:00+00:00 -> 2021-01-01T03:00:00+00:00"),
    ], ids=["format-before-cadence", "cadence-before-values"])
    def test_first_fault_of_a_two_fault_file(self, rows, message):
        assert self._error(rows) == message

    @pytest.mark.parametrize("data, message", [
        (b"time,value\n", "row 1: expected header 'timestamp,value', got 'time,value'"),
        (b"timestamp,value\nnot-a-time,5\n", "row 2: bad timestamp 'not-a-time'"),
        (b"timestamp,value\n2021-01-01T00:00:00+00:00,5,6\n", "row 2: expected 2 fields, got 3"),
        (b"timestamp,value\n2021-01-01T00:00:00+00:00,5\n\xff\xfe,7\n", "row 3: not valid UTF-8"),
        # past the first block the text decoder reads ahead
        (b"timestamp,value\n" + b"# pad\n" * 3000 + b"\xc3\n", "row 3002: not valid UTF-8"),
    ], ids=["header", "timestamp", "fields", "utf-8", "utf-8-late"])
    def test_file_errors_name_the_file_line(self, data, message, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        with pytest.raises(TraceError) as info:
            parse_trace(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [GOOD, GOOD.split("\n", 1)[1]], ids=["comment", "header"])
    def test_a_byte_order_mark_is_skipped(self, text, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_trace(marked) == parse_trace(plain)

    def test_empty_dataset_is_rejected(self):
        with pytest.raises(TraceError, match="^empty trace$"):
            TraceDataset("x", (), TraceKind.INTENSITY)

    def test_empty_file(self):
        with pytest.raises(TraceError):
            parse_trace(io.StringIO(""))

    def test_header_but_no_rows(self):
        with pytest.raises(TraceError):
            parse_trace(io.StringIO("timestamp,value\n"))

    def test_malformed_value(self):
        bad = "timestamp,value\n2021-01-01T00:00:00+00:00,abc\n"
        with pytest.raises(TraceError, match="row 2"):
            parse_trace(io.StringIO(bad))

    def test_carbon_free_cap(self):
        rows = ["2021-01-01T00:00:00+00:00,5", "2021-01-01T01:00:00+00:00,150"]
        assert self._error(rows, TraceKind.CARBON_FREE_PCT) == (
            "carbon-free percentage at row 5 exceeds 100: 150.0"
        )

    @given(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                max_size=20),
        st.sampled_from([TraceKind.INTENSITY, TraceKind.CARBON_FREE_PCT]),
        st.datetimes(datetime(1970, 1, 1), datetime(2100, 1, 1)),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_parsed_file_keeps_values_instants_and_region(self, region, kind, start, data):
        """A file written here, each row's stamp naive, ``Z`` or at its own
        UTC offset (odd minutes too), parses as consecutive hours with the
        values' bits and the region."""
        top = 100.0 if kind is TraceKind.CARBON_FREE_PCT else 1e300
        values = data.draw(st.lists(st.floats(0.0, top), min_size=1, max_size=50))
        stamps = st.one_of(
            st.sampled_from([None, "Z"]),
            st.integers(-24 * 60 + 1, 24 * 60 - 1).map(lambda m: timezone(timedelta(minutes=m))),
        )
        region = region.strip()
        lines = [f"# region: {region}", "timestamp,value"]
        for h, v in enumerate(values):
            instant = start.replace(tzinfo=timezone.utc) + timedelta(hours=h)
            tz = data.draw(stamps)
            stamp = (instant.replace(tzinfo=None).isoformat() if tz is None
                     else instant.isoformat().replace("+00:00", "Z") if tz == "Z"
                     else instant.astimezone(tz).isoformat())
            lines.append(f"{stamp},{v!r}")
        raw = io.BytesIO("".join(f"{line}\n" for line in lines).encode("utf-8"))
        # decoded as parse_trace opens a path
        ds = parse_trace(io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape"), kind)
        assert [v.hex() for v in ds.values] == [v.hex() for v in values]
        assert ds.region == region
        assert ds.kind is kind


class TestBounds:
    def test_constant(self):
        ds = synthetic_diurnal(hours=2, amp=0.0, mean=7.0, jitter=0.0)
        b = trace_bounds(ds)
        assert b.L == b.U == 7.0

    def test_zero_floored_with_warning(self):
        ds = TraceDataset(region="", values=(0.0, 4.0, 9.0), kind=TraceKind.INTENSITY)
        with pytest.warns(UserWarning, match="flooring"):
            b = trace_bounds(ds)
        assert b.L == 4.0
        assert b.U == 9.0

    def test_all_zero_is_error(self):
        ds = TraceDataset(region="", values=(0.0, 0.0), kind=TraceKind.INTENSITY)
        with pytest.raises(TraceError):
            trace_bounds(ds)

    def test_l_above_u_is_rejected(self):
        with pytest.raises(ParameterError, match=r"^need 0 < L <= U, got L=5.0, U=1.0$"):
            TraceBounds(5.0, 1.0)


class TestSampling:
    def test_whole_trace_when_lengths_match(self):
        ds = synthetic_diurnal(hours=24, seed=1)
        assert sample_segment_with_offset(ds, 24, seed=99) == (ds.values, 0)

    def test_same_seed_same_segment(self):
        ds = synthetic_diurnal(hours=100, seed=1)
        assert sample_segment_with_offset(ds, 10, seed=5) == sample_segment_with_offset(
            ds, 10, seed=5
        )

    def test_sequential_seeds_hit_every_offset(self):
        T, N = 6, 5
        ds = synthetic_diurnal(hours=T + N - 1, seed=2)
        windows = [sample_segment_with_offset(ds, T, seed=s) for s in range(N)]
        assert {offset for _, offset in windows} == set(range(N))
        for segment, offset in windows:
            assert segment == ds.values[offset : offset + T]

    def test_too_long(self):
        ds = synthetic_diurnal(hours=5, seed=0)
        with pytest.raises(ParameterError):
            sample_segment_with_offset(ds, 6, seed=0)

    def test_empty_segment(self):
        ds = synthetic_diurnal(hours=5, seed=0)
        with pytest.raises(ParameterError, match="segment length must be >= 1, got 0"):
            sample_segment_with_offset(ds, 0, 1)


class TestNoise:
    def test_identity_at_one(self):
        vals = (2.0, 4.0, 6.0)
        assert apply_noise(vals, 1.0, TraceKind.INTENSITY) == vals

    def test_one_re_rounds(self):
        # 104.2 - mu rounds, and adding mu back does not undo it
        out = apply_noise((341.5, 264.6, 104.2), 1.0, TraceKind.INTENSITY)
        assert out == (341.5, 264.6, 104.20000000000002)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.sampled_from([TraceKind.INTENSITY, TraceKind.CARBON_FREE_PCT]),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_moves_each_value_at_most_one_ulp(self, vals, kind):
        mu = math.fsum(vals) / len(vals)
        for v, nv in zip(vals, apply_noise(vals, 1.0, kind)):
            assert abs(nv - v) <= math.ulp(max(v, mu))

    @given(
        st.sampled_from([TraceKind.INTENSITY, TraceKind.CARBON_FREE_PCT]),
        st.one_of(
            st.sampled_from([1, 1.0, 1.5, 3]),
            st.floats(min_value=1, max_value=1e6),
            st.floats(min_value=1, max_value=1e300),
        ),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_scalar_loop(self, kind, m, data):
        top = 100.0 if kind is TraceKind.CARBON_FREE_PCT else 1e300
        vals = data.draw(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, top)), min_size=1, max_size=60)
        )

        def scalar_loop(prices, m, kind):
            vals = tuple(float(v) for v in prices)
            mu = math.fsum(vals) / len(vals)
            out = []
            for v in vals:
                nv = max(mu + m * (v - mu), 0.0)
                if kind is TraceKind.CARBON_FREE_PCT:
                    nv = min(nv, 100.0)
                out.append(nv)
            return tuple(out)

        out = apply_noise(vals, m, kind)
        assert all(type(v) is float for v in out)
        assert [v.hex() for v in out] == [v.hex() for v in scalar_loop(vals, m, kind)]

    def test_doubling_deviations(self):
        assert apply_noise((2, 4, 6), 2.0, TraceKind.INTENSITY) == (0.0, 4.0, 8.0)

    def test_truncation_at_zero(self):
        assert apply_noise((1, 7), 2.0, TraceKind.INTENSITY) == (0.0, 10.0)

    def test_carbon_free_capped_at_100(self):
        out = apply_noise((40.0, 90.0), 3.0, TraceKind.CARBON_FREE_PCT)
        assert out == (0.0, 100.0)

    def test_rejects_m_below_one(self):
        with pytest.raises(ParameterError):
            apply_noise((1, 2), 0.5, TraceKind.INTENSITY)

    def test_rejects_empty_segment(self):
        with pytest.raises(ParameterError, match="cannot noise an empty segment"):
            apply_noise((), 1.0, TraceKind.INTENSITY)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_rejects_non_finite_m(self, m):
        with pytest.raises(ParameterError):
            apply_noise((100.0, 200.0, 300.0), m, TraceKind.INTENSITY)

    def test_mean_preserved_without_clamping(self):
        vals = (10.0, 12.0, 14.0)
        out = apply_noise(vals, 1.5, TraceKind.INTENSITY)
        assert math.fsum(out) / 3 == pytest.approx(12.0, abs=1e-12)
        assert len(out) == len(vals)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.floats(min_value=1, max_value=5),
        st.sampled_from([TraceKind.INTENSITY, TraceKind.CARBON_FREE_PCT]),
    )
    @settings(max_examples=200, deadline=None)
    def test_clamping_only_moves_toward_feasible(self, vals, m, kind):
        out = apply_noise(vals, m, kind)
        assert len(out) == len(vals)
        mu = math.fsum(vals) / len(vals)
        for v, nv in zip(vals, out):
            raw = mu + m * (v - mu)
            if raw < 0:
                assert nv == 0.0
            elif kind is TraceKind.CARBON_FREE_PCT and raw > 100:
                assert nv == 100.0
            else:
                assert nv == raw


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_diurnal(hours=48, seed=9)
        b = synthetic_diurnal(hours=48, seed=9)
        assert a.values == b.values
        assert a.region == "synthetic"

    def test_carbon_free_stays_capped(self):
        ds = synthetic_diurnal(
            hours=200, amp=40, mean=80, seed=0, kind=TraceKind.CARBON_FREE_PCT
        )
        assert all(0 <= v <= 100 for v in ds.values)

    @pytest.mark.parametrize("kind", list(TraceKind))
    @pytest.mark.parametrize("spec", [dict(mean=1e308, amp=1e308), dict(period=1e-320),
                                      dict(jitter=1e308, amp=1e10)])
    def test_overflow_is_a_parameter_error(self, kind, spec):
        # an overflow or a nan is refused before the floor and the
        # carbon-free cap could turn it into a number, and numpy stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"not finite at hour \d+ \(period="):
                synthetic_diurnal(hours=48, kind=kind, **spec)
