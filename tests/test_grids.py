import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    AlignmentError,
    common_support,
    hellinger_difference_form,
    hellinger_analytic,
    hellinger_gamma_quad,
    hellinger_grid,
    write_density_csv,
)
from priorscan import (
    DensityGrid,
    DomainError,
    Family,
    IngestionError,
    ParamPoint,
    PriorSpec,
    Scale,
    ingest_timeseries,
    normalize_grid,
    read_density_csv,
    tabulate_prior,
)
from priorscan import grids
from priorscan.grids import _parse_columns, _read_csv_rows, trapezoid_mass


def normal_grid(mu, lam, lo=-10.0, hi=10.0, n=4001):
    xs = np.linspace(lo, hi, n)
    vs = np.sqrt(lam / (2 * np.pi)) * np.exp(-0.5 * lam * (xs - mu) ** 2)
    return normalize_grid(DensityGrid(xs, vs))


class TestDensityGrid:
    def test_basic_construction(self):
        g = DensityGrid(np.linspace(0, 1, 10), np.ones(10))
        assert len(g) == 10
        assert g.scale is Scale.NATURAL

    def test_arrays_are_frozen(self):
        g = DensityGrid(np.linspace(0, 1, 10), np.ones(10))
        with pytest.raises(ValueError):
            g.values[0] = 2.0

    def test_input_arrays_are_copied(self):
        xs = np.linspace(0, 1, 10)
        vs = np.ones(10)
        g = DensityGrid(xs, vs)
        vs[0] = 50.0
        assert g.values[0] == 1.0

    @pytest.mark.parametrize(
        "support,values",
        [
            (np.linspace(0, 1, 7), np.ones(7)),          # too short
            (np.linspace(0, 1, 10), np.ones(9)),         # length mismatch
            (np.zeros(10), np.ones(10)),                 # not increasing
            (np.linspace(0, 1, 10), -np.ones(10)),       # negative density
            (np.linspace(0, 1, 10), np.zeros(10)),       # identically zero
            (np.linspace(0, 1, 10), np.r_[np.nan, np.ones(9)]),
        ],
    )
    def test_rejects_malformed(self, support, values):
        with pytest.raises(DomainError):
            DensityGrid(support, values)

    def test_normalize(self):
        g = DensityGrid(np.linspace(0, 2, 101), np.full(101, 3.7))
        n = normalize_grid(g)
        assert abs(trapezoid_mass(n) - 1.0) <= 1e-10

    def test_infinite_mass_is_refused_without_a_warning(self):
        # finite values whose trapezoid sum overflows
        g = DensityGrid(np.arange(8.0), np.full(8, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^grid mass inf cannot be normalized$"):
                normalize_grid(g)


class TestCommonSupport:
    def test_identical_supports_unchanged(self):
        g = normal_grid(0.0, 1.0)
        a0, a1 = common_support(g, g)
        assert a0 is g and a1 is g

    def test_interval_intersection(self):
        g0 = DensityGrid(np.linspace(0, 10, 101), np.ones(101))
        g1 = DensityGrid(np.linspace(5, 15, 101), np.ones(101))
        a0, a1 = common_support(g0, g1)
        assert a0.support[0] == 5.0 and a0.support[-1] == 10.0
        assert np.array_equal(a0.support, a1.support)

    def test_shifted_normal_tabulations(self):
        # grids tabulated on shifted windows still give the analytic BC
        g0 = normal_grid(0.0, 1.0, -10.0, 10.0)
        g1 = normal_grid(0.3, 1.0, -9.4, 10.6)
        a0, a1 = common_support(g0, g1)
        h_true = hellinger_analytic(Family.NORMAL, ParamPoint(0.0, 1.0), ParamPoint(0.3, 1.0))
        assert abs(hellinger_grid(a0, a1) - h_true) <= 1e-6

    def test_scale_mismatch(self):
        g0 = DensityGrid(np.linspace(0, 1, 10), np.ones(10), Scale.NATURAL)
        g1 = DensityGrid(np.linspace(0, 1, 10), np.ones(10), Scale.LOG_PARAMETER)
        with pytest.raises(AlignmentError):
            common_support(g0, g1)

    def test_empty_intersection(self):
        g0 = DensityGrid(np.linspace(0, 1, 10), np.ones(10))
        g1 = DensityGrid(np.linspace(2, 3, 10), np.ones(10))
        with pytest.raises(AlignmentError):
            common_support(g0, g1)

    def test_no_mass_in_overlap(self):
        xs = np.linspace(0, 1, 50)
        left = np.where(xs < 0.4, 1.0, 0.0)
        g0 = DensityGrid(xs, left)
        g1 = DensityGrid(np.linspace(0.6, 1.6, 50), np.ones(50))
        with pytest.raises(AlignmentError):
            common_support(g0, g1)


class TestHellingerGrid:
    def test_self_distance_zero(self):
        g = normal_grid(1.0, 2.0)
        assert hellinger_grid(g, g) == 0.0

    def test_benchmark_shift(self):
        # N(0,1) against N(0.01,1) on [-10, 10] with 4001 points
        g0 = normal_grid(0.0, 1.0)
        g1 = normal_grid(0.01, 1.0)
        assert abs(hellinger_grid(g0, g1) - 0.0035355) <= 1e-6

    def test_disjoint_mass_gives_one(self):
        xs = np.linspace(0, 1, 100)
        f0 = np.where(xs < 0.5, 2.0, 0.0)
        f1 = np.where(xs >= 0.5, 2.0, 0.0)
        g0 = normalize_grid(DensityGrid(xs, f0))
        g1 = normalize_grid(DensityGrid(xs, f1))
        assert hellinger_grid(g0, g1) == 1.0

    def test_same_density_on_different_windows(self):
        # aligned on the overlap, with each grid's own tail mass beyond it
        g0 = normal_grid(0.0, 1.0)
        g1 = normal_grid(0.0, 1.0, -12.0, 12.0, 4801)
        assert hellinger_grid(g0, g1) <= 1e-10

    def test_different_meshes_are_aligned(self):
        g0 = DensityGrid(np.linspace(0, 1, 10), np.ones(10))
        g1 = DensityGrid(np.linspace(0, 1, 11), np.ones(11))
        assert hellinger_grid(g0, g1) <= 1e-12

    def test_gamma_pair_vs_closed_form(self):
        g0 = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34)), Scale.LOG_PARAMETER)
        g1 = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.68)), Scale.LOG_PARAMETER)
        assert abs(hellinger_grid(g0, g1) - 0.239146311738100) <= 1e-5

    def test_normal_pair_vs_closed_form(self):
        g0 = normal_grid(0.0, 1.0, -10.0, 12.0)
        g1 = normal_grid(2.0, 1.0, -10.0, 12.0)
        h = hellinger_grid(g0, g1)
        assert abs(h - math.sqrt(1.0 - math.exp(-0.5))) <= 1e-6

    def test_grid_symmetry(self):
        g0 = normal_grid(0.0, 1.0, -10.0, 11.0)
        g1 = normal_grid(0.7, 2.0, -9.0, 10.0)
        assert abs(hellinger_grid(g0, g1) - hellinger_grid(g1, g0)) <= 1e-12

    @given(
        a0=st.floats(0.5, 20.0),
        b0=st.floats(0.1, 10.0),
        a1=st.floats(0.5, 20.0),
        b1=st.floats(0.1, 10.0),
    )
    def test_range_property(self, a0, b0, a1, b1):
        g0 = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(a0, b0)), Scale.LOG_PARAMETER, 801)
        g1 = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(a1, b1)), Scale.LOG_PARAMETER, 801)
        try:
            h = hellinger_grid(g0, g1)
        except AlignmentError:
            # tabulation windows of extreme pairs need not overlap at all;
            # the distance is saturated rather than computable on a grid
            return
        assert 0.0 <= h <= 1.0

    @pytest.mark.parametrize(
        "p0,p1",
        [
            (ParamPoint(1.0, 0.34), ParamPoint(1.0, 0.68)),
            (ParamPoint(2.0, 1.0), ParamPoint(4.0, 2.0)),
            (ParamPoint(3.0, 0.5), ParamPoint(2.2, 0.9)),
        ],
    )
    def test_scale_invariance(self, p0, p1):
        # the distance does not depend on which scale the grids tabulate
        nat0 = tabulate_prior(PriorSpec(Family.GAMMA, p0), Scale.NATURAL)
        nat1 = tabulate_prior(PriorSpec(Family.GAMMA, p1), Scale.NATURAL)
        log0 = tabulate_prior(PriorSpec(Family.GAMMA, p0), Scale.LOG_PARAMETER)
        log1 = tabulate_prior(PriorSpec(Family.GAMMA, p1), Scale.LOG_PARAMETER)
        assert abs(hellinger_grid(nat0, nat1) - hellinger_grid(log0, log1)) <= 2e-4

    @pytest.mark.parametrize("family", ["normal", "gamma"])
    def test_tiny_distance_has_no_cancellation(self, family):
        # H ~ 1e-6 on one shared support: sqrt(1 - BC) keeps only about
        # five digits here, the (sqrt p0 - sqrt p1)^2 form nearly all
        if family == "normal":
            x = np.linspace(-12.0, 12.0, 2001)
            p0, p1 = (0.0, 1.0), (2.8e-6, 1.0)
            log0, log1 = -0.5 * x**2, -0.5 * (x - p1[0]) ** 2
            scale = Scale.NATURAL
        else:
            x = np.linspace(-8.0, 4.0, 2001)
            p0, p1 = (3.0, 2.0), (3.0 + 4.5e-6, 2.0)
            log0, log1 = p0[0] * x - 2.0 * np.exp(x), p1[0] * x - 2.0 * np.exp(x)
            scale = Scale.LOG_PARAMETER
        g0 = normalize_grid(DensityGrid(x, np.exp(log0), scale))
        g1 = normalize_grid(DensityGrid(x, np.exp(log1), scale))
        expected = hellinger_difference_form(family, p0, p1)
        assert 5e-7 < expected < 2e-6
        assert hellinger_grid(g0, g1) == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize(
        "family,p0,p1,scale,rel",
        [
            ("gamma", (3.0, 2.0), (3.0 + 4.5e-6, 2.0), Scale.LOG_PARAMETER, 2e-7),
            ("normal", (0.0, 1.0), (2.8e-6, 1.0), Scale.NATURAL, 3e-9),
        ],
    )
    def test_tiny_distance_on_different_supports(self, family, p0, p1, scale, rel):
        # each prior tabulated on its own window: the mass beyond the overlap
        # must come from each grid's own nodes, not from a difference of two
        # O(1) trapezoid sums on different meshes; the cubic resampling reads
        # 8.1e-8 (gamma) and 1.1e-9 (normal) relative high, linear 3.8e-3 and 5e-4
        g0, g1 = (
            tabulate_prior(PriorSpec(Family(family), ParamPoint(*p)), scale, 4001)
            for p in (p0, p1)
        )
        assert not np.array_equal(g0.support, g1.support)
        expected = hellinger_difference_form(family, p0, p1)
        assert hellinger_grid(g0, g1) == pytest.approx(expected, rel=rel)

    def test_log_scale_matches_quadrature(self):
        p0, p1 = ParamPoint(2.0, 1.0), ParamPoint(4.0, 2.0)
        g0 = tabulate_prior(PriorSpec(Family.GAMMA, p0), Scale.LOG_PARAMETER)
        g1 = tabulate_prior(PriorSpec(Family.GAMMA, p1), Scale.LOG_PARAMETER)
        h_ref = hellinger_gamma_quad(p0.as_tuple(), p1.as_tuple())
        assert abs(hellinger_grid(g0, g1) - h_ref) <= 1e-5


class TestDensityCsv:
    def test_round_trip(self, tmp_path):
        g = normal_grid(0.3, 2.0, -6.0, 6.0, 501)
        path = tmp_path / "density.csv"
        write_density_csv(path, g)
        back = read_density_csv(path)
        assert np.array_equal(back.support, g.support)
        assert np.array_equal(back.values, g.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.5\n1.0,0.5\n2.0,0.4\n")
        with pytest.raises(IngestionError):
            read_density_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            read_density_csv(tmp_path / "nope.csv")

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,density\n0.0,0.5\noops,0.5\n")
        with pytest.raises(IngestionError):
            read_density_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n0.0\n1.0\n")
        with pytest.raises(IngestionError):
            read_density_csv(path)

    @pytest.mark.parametrize(
        "content",
        [b"x,density\n0.0,0.5\n\xff,0.5\n", b"x,density\n" + b"1" * 200_000 + b",0.5\n"],
        ids=["undecodable", "oversized_field"],
    )
    def test_unreadable_text_rejected(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(IngestionError, match="cannot read"):
            read_density_csv(path)

    def test_error_names_physical_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,density\n\n\n1.0,2.0\nabc,3.0\n")
        with pytest.raises(IngestionError, match=r"gaps\.csv:5: non-numeric"):
            read_density_csv(path)

    def test_scale_flag_carried(self, tmp_path):
        g = DensityGrid(np.linspace(-2, 2, 20), np.ones(20), Scale.LOG_PARAMETER)
        path = tmp_path / "log.csv"
        write_density_csv(path, g)
        assert read_density_csv(path, Scale.LOG_PARAMETER).scale is Scale.LOG_PARAMETER


# Fields that csv, float and numpy read alike (float and numpy both strip
# \x0b, \x0c, \x85 and \u2028, which str.splitlines would take for line
# ends), and odd fields where they may part: underscores and Unicode digits
# parse only with float, and quotes inside a field are literal to csv.
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-999, 999).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "+.5", "1e5"]),
)
_PAD = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x0c", "\x85", "\u2028", "\u00a0"])
_PADDED = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
_FIELD = st.one_of(_PADDED, _PADDED.map('"{}"'.format))
_ODD_FIELD = st.one_of(
    st.sampled_from(['"', '""', "", " ", "x", "1e", "0x10", '"1"2', ' "2"', '"3" ', "1_000",
                     "\u0661\u0662", "#3", "3#", "1\x1c2", "\x00"]),
    st.text(alphabet='0123456789.-+e_"# \t\x0b\x0c\x85\u2028\u0661x', max_size=6),
)
_ROW = st.one_of(st.lists(_FIELD, min_size=2, max_size=3).map(",".join), st.just(""))
_ODD_ROW = st.lists(st.one_of(_FIELD, _ODD_FIELD), max_size=4).map(",".join)
_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """A header (possibly blank, numeric or of one column) and 0 to 12 rows,
    one of them possibly odd, each with its own line end; the last line may
    have none."""
    header = draw(st.sampled_from(["x,density", '"x","density"', "date,count", "count",
                                   "x,", "1,2", "", '"x', 'x,"density']))
    rows = draw(st.lists(_ROW, max_size=12))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(_ODD_ROW))
    ends = draw(st.lists(_END, min_size=len(rows) + 1, max_size=len(rows) + 1))
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    return "".join(line + end for line, end in zip([header, *rows], ends))


def _outcome(read, path):
    """Arrays (or their bytes) of a read, or the message of its IngestionError."""
    try:
        out = read(path)
    except IngestionError as exc:
        return str(exc)
    if isinstance(out, DensityGrid):
        return out.support.tobytes(), out.values.tobytes()
    return out.y.tobytes(), out.kappa


def _row_columns(path, usecols):
    _, rows = _read_csv_rows(path, key=usecols[0])
    return np.array([[float(row[c]) for _, row in rows] for c in usecols])


class TestColumnarParse:
    """numpy's one-call parse keeps only what the row reader returns too."""

    def _check(self, path, text, read, usecols):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _parse_columns(path, usecols)
            if fast is not None:
                assert fast.tobytes() == _row_columns(path, usecols).tobytes()
            with mock.patch.object(grids, "_parse_columns", return_value=None):
                expected = _outcome(read, path)
            assert _outcome(read, path) == expected

    @settings(max_examples=120, derandomize=True)
    @given(text=csv_texts())
    def test_density_routes_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "density.csv"
        self._check(path, text, read_density_csv, (0, 1))

    @settings(max_examples=120, derandomize=True)
    @given(text=csv_texts())
    def test_counts_routes_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "counts.csv"
        self._check(path, text, ingest_timeseries, (-1,))

    @pytest.mark.parametrize(
        "tail,fast",
        [("8,9\n", True), ("8,9," + "9" * 200_000 + "\n", False), ('"8' + " \n" * 70_000 + '",9\n', False)],
        ids=["short", "long_line", "long_quoted_field"],
    )
    def test_field_limit(self, tmp_path, tail, fast):
        # numpy would skip the long third column and strip the quoted
        # whitespace; csv refuses both fields as over its limit
        path = tmp_path / "long.csv"
        path.write_text("x,density\n" + "".join(f"{k},{k + 1}\n" for k in range(8)) + tail)
        assert (_parse_columns(path, (0, 1)) is not None) is fast
        if fast:
            assert len(read_density_csv(path)) == 9
        else:
            with pytest.raises(IngestionError, match="cannot read .*field larger than field limit"):
                read_density_csv(path)


def test_every_line_end_keeps_a_posterior_on_numpy(tmp_path):
    # an 8001-line posterior, as the benchmark and the CLI write it, with each line end
    # csv splits at: numpy parses all three copies, bitwise as the row reader does
    post = tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34)), Scale.LOG_PARAMETER, 8001)
    lines = ["x,density", *(f"{x!r},{v!r}" for x, v in zip(post.support.tolist(), post.values.tolist()))]
    parsed = set()
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes("".join(line + end for line in lines).encode())
        columns = _parse_columns(path, (0, 1))
        assert columns is not None, name
        assert columns.tobytes() == _row_columns(path, (0, 1)).tobytes(), name
        parsed.add(columns.tobytes())
    assert len(parsed) == 1
