import dataclasses
import io
import math
import warnings

import pytest

from kinex import (ParseError, classify_groups, derive, fit_groups, load_countries,
                   percentile_thresholds)

# published x = (1 - lambda) * gamma column for every complete table row,
# used as an against-the-source transcription check (3-decimal rounding)
PUBLISHED_X = {
    "Austria": 0.185, "Belgium": 0.175, "Canada": 0.103, "Chile": 0.144,
    "Colombia": 0.125, "Czech Republic": 0.109, "Denmark": 0.232,
    "Estonia": 0.150, "Finland": 0.159, "France": 0.186, "Greece": 0.235,
    "Hungary": 0.166, "Iceland": 0.179, "Ireland": 0.119, "Italy": 0.194,
    "Latvia": 0.174, "Lithuania": 0.141, "Luxembourg": 0.215, "Mexico": 0.100,
    "Netherlands": 0.160, "Norway": 0.152, "Poland": 0.138, "Portugal": 0.183,
    "Slovak Republic": 0.146, "Slovenia": 0.135, "Spain": 0.108,
    "Sweden": 0.198, "Switzerland": 0.068, "Turkey": 0.126,
    "United Kingdom": 0.221, "United States": 0.086,
}


def load_text(text):
    return load_countries(io.StringIO(text))


@pytest.fixture(scope="module")
def table1(table1_path):
    with pytest.warns(UserWarning, match="Israel"):
        return load_countries(table1_path)


@pytest.fixture(scope="module")
def table1_derived(table1):
    derived, _ = derive(table1)
    return derived


class TestLoadCountries:
    def test_complete_row(self):
        recs = load_text("country,f,g,lambda,gamma\nAustria, 497, 0.303, 0.272, 0.255\n")
        (rec,) = recs
        assert rec.name == "Austria"
        assert (rec.f, rec.g, rec.lam, rec.gamma) == (497.0, 0.303, 0.272, 0.255)
        assert rec.complete

    def test_missing_cells_stay_missing(self):
        recs = load_text("country,f,g,lambda,gamma\nJapan, 393, , 0.280, \n")
        (rec,) = recs
        assert rec.g is None and rec.gamma is None
        assert rec.lam == 0.280
        assert not rec.complete

    def test_dash_counts_as_missing(self):
        recs = load_text("country,f,g,lambda,gamma\nAustralia,555,—,0.220,0.228\n")
        assert recs[0].g is None

    def test_empty_file_after_header_gives_empty_list(self):
        assert load_text("country,f,g,lambda,gamma\n") == []

    def test_zero_gini_is_flagged_invalid(self):
        with pytest.warns(UserWarning, match="Israel"):
            recs = load_text("country,f,g,lambda,gamma\nIsrael,420,0.000,0.245,0.234\n")
        assert recs[0].g is None
        assert not recs[0].complete

    def test_unknown_column_warns_and_is_ignored(self):
        with pytest.warns(UserWarning, match="unknown column"):
            recs = load_text("country,f,g,lambda,gamma,notes\nAustria,497,0.303,0.272,0.255,hi\n")
        assert recs[0].complete

    def test_malformed_number_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_text("country,f,g,lambda,gamma\nAustria,497,0.303,0.272,0.255\nX,oops,,,\n")
        assert err.value.line_number == 3

    def test_row_after_a_two_line_name_reports_its_file_line(self):
        with pytest.raises(ParseError) as err:
            load_text('country,f,g,lambda,gamma\n"Korea,\nRep.",1,0.3,0.2,0.2\nB,abc,,,\n')
        assert err.value.line_number == 4

    def test_short_row_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_text("country,f,g,lambda,gamma\nAustria,497\n")
        assert err.value.line_number == 2

    def test_out_of_range_rate_is_malformed(self):
        with pytest.raises(ParseError):
            load_text("country,f,g,lambda,gamma\nX,10,0.3,1.5,0.2\n")

    def test_missing_required_column_is_an_error(self):
        with pytest.raises(ParseError):
            load_text("country,f,g,lambda\nX,10,0.3,0.2\n")

    # tables that load_countries refuses -> its message and the line it reports
    BAD_TABLES = [
        ("", "missing header row", 1),
        ("# a comment\n\n", "missing header row", 1),
        ("country,f,g,lambda,gamma,F\nX,10,0.3,0.2,0.2,10\n", "duplicate column 'f'", 1),
        ("country,f,g,lambda,gamma\nA,10,0.3,0.2,0.2\n  ,10,0.3,0.2,0.2\n",
         "empty country name", 3),
        ("country,f,g,lambda,gamma\nX,,0.3,0.2,0.2\n", "column 'f' is required", 2),
        ("country,f,g,lambda,gamma\nX,-,0.3,0.2,0.2\n", "column 'f' is required", 2),
        ("country,f,g,lambda,gamma\nX,10,1.0,0.2,0.2\n", "column 'g': 1.0 outside", 2),
        ("country,f,g,lambda,gamma\nX,inf,0.3,0.2,0.2\n", "column 'f': 'inf' is not finite", 2),
        ("country,f,g,lambda,gamma\nX,10,0.3,nan,0.2\n",
         "column 'lambda': 'nan' is not finite", 2),
    ]

    @pytest.mark.parametrize("text, message, line", BAD_TABLES)
    def test_bad_table_reports_its_line(self, text, message, line):
        with pytest.raises(ParseError, match=message) as err:
            load_text(text)
        assert err.value.line_number == line

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs start UTF-8 files with the bytes EF BB BF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfcountry,f,g,lambda,gamma\nAustria,497,0.303,0.272,0.255\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rec,) = load_countries(path)
        assert rec.name == "Austria" and rec.complete

    @pytest.mark.parametrize("as_path", [True, False])
    def test_warnings_point_at_the_caller(self, tmp_path, as_path):
        path = tmp_path / "t.csv"
        path.write_text("country,f,g,lambda,gamma,notes\nIsrael,420,0.000,0.245,0.234,x\n")
        with pytest.warns(UserWarning) as record:
            if as_path:
                load_countries(path)
            else:
                load_text(path.read_text())
        # one for the unknown column, one for the zero Gini; both name this file
        assert [w.filename for w in record] == [__file__, __file__]

    def test_quoted_names_with_commas(self, table1):
        names = {r.name for r in table1}
        assert "Korea, Rep." in names

    def test_shipped_table_has_all_members(self, table1):
        assert len(table1) == 37
        assert sum(r.complete for r in table1) == 31


class TestDerive:
    def test_reference_rows_match_published_values(self, table1_derived):
        by_name = {r.name: r for r in table1_derived}
        golden = {
            "Austria": (0.185, 1.453),
            "Denmark": (0.232, 1.860),
            "Luxembourg": (0.215, 2.861),
            "Mexico": (0.100, 0.188),
        }
        for name, (x, y) in golden.items():
            rec = by_name[name]
            assert rec.x == pytest.approx(x, abs=1e-3)
            assert rec.y == pytest.approx(y, abs=1e-2)

    def test_every_published_x_is_reproduced(self, table1_derived):
        by_name = {r.name: r for r in table1_derived}
        assert set(by_name) == set(PUBLISHED_X)
        for name, x in PUBLISHED_X.items():
            assert by_name[name].x == pytest.approx(x, abs=1e-3), name

    def test_max_f_record_normalizes_to_exactly_one(self, table1_derived):
        by_name = {r.name: r for r in table1_derived}
        assert by_name["Luxembourg"].f_norm == 1.0
        assert sum(r.f_norm == 1.0 for r in table1_derived) == 1
        assert all(r.f_norm <= 1.0 for r in table1_derived)

    def test_incomplete_records_are_reported(self, table1):
        _, incomplete = derive(table1)
        assert {r.name for r in incomplete} == {
            "Australia", "Germany", "Israel", "Japan", "Korea, Rep.", "New Zealand"}

    def test_order_preserved_and_recomputable(self, table1, table1_derived):
        complete_names = [r.name for r in table1 if r.complete]
        assert [r.name for r in table1_derived] == complete_names
        for r in table1_derived:
            assert r.x == (1.0 - r.lam) * r.gamma
            assert r.y == r.f_norm / r.g

    def test_no_complete_records_is_an_error(self):
        recs = load_text("country,f,g,lambda,gamma\nJapan,393,,0.280,\n")
        with pytest.raises(ValueError):
            derive(recs)


class TestClassifyGroups:
    def test_threshold_rule(self, table1_derived):
        classified = classify_groups(table1_derived, (200.0, 450.0))
        by_name = {r.name: r for r in classified}
        assert by_name["Colombia"].group == "low"        # f = 65
        assert by_name["Luxembourg"].group == "high"     # f = 1130
        assert by_name["Italy"].group == "middle"        # f = 334

    def test_partition_is_total(self, table1_derived):
        classified = classify_groups(table1_derived, (200.0, 450.0))
        assert all(r.group in ("high", "middle", "low") for r in classified)
        assert len(classified) == len(table1_derived)

    def test_rejects_inverted_thresholds(self, table1_derived):
        with pytest.raises(ValueError):
            classify_groups(table1_derived, (450.0, 200.0))

    def test_percentile_defaults_bracket_the_data(self, table1_derived):
        lo, hi = percentile_thresholds(table1_derived)
        fs = sorted(r.f for r in table1_derived)
        assert fs[0] < lo < hi < fs[-1]


class TestFitGroups:
    def test_exact_half_log_law_group(self):
        recs = load_text("country,f,g,lambda,gamma\nA,10,0.5,0.0,0.9\nB,20,0.5,0.0,0.5\nC,30,0.5,0.0,0.2\n")
        derived, _ = derive(recs)
        # overwrite y with points exactly on y = 0.5 * ln(x) + 3
        derived = [dataclasses.replace(r, y=0.5 * math.log(r.x) + 3.0) for r in derived]
        (fit,) = fit_groups(derived)
        assert fit.group == "all"
        assert fit.fit.slope == pytest.approx(0.5, rel=1e-12)
        assert fit.fit.intercept == pytest.approx(3.0, rel=1e-12)
        assert fit.fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_whole_table_single_group_golden(self, table1_derived):
        # frozen after first computation on the shipped table
        (fit,) = fit_groups(table1_derived)
        assert fit.fit.n_points == 31
        assert fit.fit.slope == pytest.approx(0.26469766652843973, rel=1e-9)
        assert fit.fit.intercept == pytest.approx(1.6237261912121994, rel=1e-9)
        assert fit.fit.r_squared == pytest.approx(0.010934204727358732, rel=1e-9)

    def test_low_group_fits_worse_than_high_and_middle(self, table1_derived):
        # group thresholds pinned at (450, 650): the bottom group scatters
        # much more around the log law than the upper ones
        classified = classify_groups(table1_derived, (450.0, 650.0))
        fits = {g.group: g for g in fit_groups(classified)}
        assert len(fits["high"].members) == 5
        assert len(fits["middle"].members) == 8
        assert len(fits["low"].members) == 18
        assert fits["high"].fit.r_squared == pytest.approx(0.5834047855444686, rel=1e-9)
        assert fits["middle"].fit.r_squared == pytest.approx(0.6815450890743465, rel=1e-9)
        assert fits["low"].fit.r_squared == pytest.approx(0.15823290067000328, rel=1e-9)
        assert fits["low"].fit.r_squared < min(fits["high"].fit.r_squared,
                                               fits["middle"].fit.r_squared)

    def test_group_order_is_high_middle_low_then_first_seen(self, table1_derived):
        labels = ["low", "ad hoc", "high", None]
        records = [dataclasses.replace(r, group=g) for r, g in zip(table1_derived, labels)]
        assert [gf.group for gf in fit_groups(records)] == ["high", "low", "ad hoc", "all"]

    def test_tiny_group_is_reported_unfittable(self, table1_derived):
        classified = classify_groups(table1_derived, (100.0, 5000.0))  # empty high
        fits = {g.group: g for g in fit_groups(classified)}
        assert "high" not in fits  # no members at all -> no group emitted
        assert fits["low"].fit is not None
        one = classify_groups(table1_derived, (66.0, 5000.0))  # exactly Colombia low
        fits = {g.group: g for g in fit_groups(one)}
        assert fits["low"].fit is None
        assert "need 2" in fits["low"].reason
        assert fits["middle"].fit is not None
