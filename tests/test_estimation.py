import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import chi2

from gerryopt import cli
from gerryopt import estimation as E
from gerryopt.model import GerryOptError


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(E.CSV_FIELDS)
        writer.writerows(rows)


def make_records(shares_by_year, votes=1000, state="AA", district="d0"):
    recs = []
    for year, shares in shares_by_year.items():
        for i, v in enumerate(shares):
            recs.append(
                E.PrecinctRecord(
                    state=state,
                    year=year,
                    precinct_id=f"p{i}",
                    district_id=district,
                    total_votes=votes,
                    rep_share=v,
                    contested=True,
                )
            )
    return recs


def make_returns(shares_by_year, **kwargs):
    return E.Returns.from_records(make_records(shares_by_year, **kwargs))


# ---------------------------------------------------------------------------
# inverse-normal-CDF transform
# ---------------------------------------------------------------------------


def test_norm_ppf_against_scipy():
    p = np.linspace(1e-6, 1 - 1e-6, 2001)
    ours = np.array([E.norm_ppf(float(x)) for x in p])
    ref = ndtri(p)
    assert np.max(np.abs(ours - ref)) < 1e-7


def test_norm_ppf_spot_values():
    assert E.norm_ppf(0.5) == pytest.approx(0.0, abs=1e-15)
    assert E.norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert E.norm_ppf(0.8413447460685429) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1e-12, 1 - 1e-12))
def test_norm_ppf_round_trip(p):
    assert float(E.norm_cdf(E.norm_ppf(p))) == pytest.approx(p, abs=1e-10)


def test_norm_ppf_rejects_boundary():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(GerryOptError):
            E.norm_ppf(p)


# ---------------------------------------------------------------------------
# ingestion and filters
# ---------------------------------------------------------------------------


def test_ingest_filters_in_order(tmp_path):
    path = tmp_path / "returns.csv"
    rows = [
        # district d9 uncontested in 2018 -> all its rows drop, both years
        ["AA", 2016, "p1", "d9", 900, 0.61, 1],
        ["AA", 2018, "p1", "d9", 900, 0.35, 0],
        # small precinct drops at stage 2
        ["AA", 2016, "p2", "d1", 30, 0.52, 1],
        # degenerate share drops at stage 3
        ["AA", 2016, "p3", "d1", 800, 1.0, 1],
        # kept
        ["AA", 2016, "p4", "d1", 700, 0.44, 1],
        ["AA", 2018, "p4", "d1", 750, 0.48, 1],
    ]
    write_csv(path, rows)
    records, report = E.ingest(str(path))
    assert report.n_input == 6
    assert report.dropped_uncontested == 2
    assert report.dropped_small == 1
    assert report.dropped_degenerate == 1
    assert report.n_kept == 2
    assert {r.precinct_id for r in records.rows()} == {"p4"}


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("state,year\nAA,2016\n")
    with pytest.raises(GerryOptError, match="missing columns"):
        E.ingest(str(path))


def test_ingest_bad_rows_reported_with_line_numbers(tmp_path):
    path = tmp_path / "returns.csv"
    rows = [
        ["AA", 2016, "p1", "d1", 900, 0.61, 1],
        ["AA", "not_a_year", "p2", "d1", 900, 0.35, 1],
        ["AA", 2016, "p3", "d1", 900, 1.25, 1],
    ]
    write_csv(path, rows)
    records, report = E.ingest(str(path))
    assert len(records) == 1
    assert [line for line, _ in report.bad_rows] == [3, 4]
    with pytest.raises(GerryOptError, match="line 3"):
        E.ingest(str(path), strict=True)


@pytest.mark.parametrize(
    "row",
    [
        ["A" * 250, "not_a_year", "p" * 250, "d" * 250, 900, 0.35, 1],  # malformed, read by csv
        ["A" * 60, 2016, "p" * 60, "d" * 60, 30, 0.52, 1],  # dropped by the vote filter, read by numpy
    ],
    ids=["malformed", "filtered"],
)
def test_label_arrays_are_as_wide_as_the_kept_labels(tmp_path, row):
    path = tmp_path / "returns.csv"
    write_csv(path, [["AA", 2016, "p1", "d1", 900, 0.61, 1], row, ["AA", 2018, "p123", "d1", 900, 0.55, 1]])
    records, report = E.ingest(str(path))
    assert report.n_kept == 2
    widths = [labels.dtype.str for labels in (records.states, records.precincts, records.districts)]
    assert widths == ["<U2", "<U4", "<U2"]


def test_filters_idempotent(tmp_path):
    src = tmp_path / "a.csv"
    rows = [
        ["AA", 2016, "p1", "d9", 900, 0.61, 1],
        ["AA", 2018, "p1", "d9", 900, 0.35, 0],
        ["AA", 2016, "p2", "d1", 30, 0.52, 1],
        ["AA", 2016, "p4", "d1", 700, 0.44, 1],
        ["AA", 2018, "p4", "d1", 750, 0.48, 1],
    ]
    write_csv(src, rows)
    kept, _ = E.ingest(str(src))
    again = tmp_path / "b.csv"
    write_csv(
        again,
        [
            [r.state, r.year, r.precinct_id, r.district_id, r.total_votes, r.rep_share, 1]
            for r in kept.rows()
        ],
    )
    kept2, report2 = E.ingest(str(again))
    assert report2.n_kept == report2.n_input == len(kept)
    assert [(r.precinct_id, r.year) for r in kept2.rows()] == [(r.precinct_id, r.year) for r in kept.rows()]


def test_from_records_orders_labels_as_numpy_orders_str(tmp_path):
    # non-ASCII labels, and "a" a prefix of "ab"
    labels = ["b", "a", "ab", "é", "Ñu"] * 2
    fields = {"state": labels, "precinct_id": labels[::-1], "district_id": labels[2:] + labels[:2]}
    records = [E.PrecinctRecord(s, 2016, p, d, 100, 0.5, True) for s, p, d in zip(*fields.values())]
    table = E.Returns.from_records(records)
    for (codes, names), values in zip(E._LABELLED, fields.values()):
        want, inverse = np.unique(np.array(values, dtype=str), return_inverse=True)
        for got, expected in ((getattr(table, names), want), (getattr(table, codes), inverse)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert list(table.rows()) == records

    empty = E.Returns.from_records([])
    assert len(empty) == 0
    for _codes, names in E._LABELLED:
        assert getattr(empty, names).dtype == np.unique(np.array([], dtype=str)).dtype

    path = tmp_path / "returns.csv"
    E.simulate_returns(str(path), gamma=8.0, T=3, n_precincts=40, seed=2)
    ingested, _report = E.ingest(str(path))
    back = E.Returns.from_records(ingested.rows())
    for name in (*E.CSV_FIELDS, "states", "precincts", "districts"):
        got, want = getattr(back, name), getattr(ingested, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# gamma estimator
# ---------------------------------------------------------------------------


def test_gamma_estimate_known_means():
    # election means of w are Phi^-1 of constant shares; choose shares so the
    # means are -0.1, 0.0, 0.1 -> sd = 0.1 -> gamma_hat = 10
    shares = {y: [float(E.norm_cdf(m))] * 4 for y, m in [(2016, -0.1), (2018, 0.0), (2020, 0.1)]}
    est = E.estimate_gamma(make_returns(shares))
    assert est.gamma_hat == pytest.approx(10.0, abs=1e-9)
    assert est.T == 3
    assert est.election_means[2016] == pytest.approx(-0.1, abs=1e-9)


def test_gamma_ci_matches_chi2_oracle():
    shares = {y: [float(E.norm_cdf(m))] * 4 for y, m in [(2016, -0.1), (2018, 0.0), (2020, 0.1)]}
    est = E.estimate_gamma(make_returns(shares), alpha=0.1)
    lo = math.sqrt(chi2.ppf(0.05, 2) / 2) * 10.0
    hi = math.sqrt(chi2.ppf(0.95, 2) / 2) * 10.0
    assert est.ci_low == pytest.approx(lo, abs=1e-9)
    assert est.ci_high == pytest.approx(hi, abs=1e-9)
    assert est.ci_low < est.gamma_hat < est.ci_high


def test_reference_ci_arithmetic():
    # frozen oracle: gamma_hat = 14.75, T = 3, alpha = 0.1
    lo = math.sqrt(chi2.ppf(0.05, 2) / 2) * 14.75
    hi = math.sqrt(chi2.ppf(0.95, 2) / 2) * 14.75
    assert lo == pytest.approx(3.340583386, abs=1e-8)
    assert hi == pytest.approx(25.529571143, abs=1e-8)


def test_gamma_estimate_vote_weighting():
    # one heavy precinct dominates its election mean
    recs = make_records({2016: [0.4], 2018: [0.5], 2020: [0.6]})
    heavy = E.PrecinctRecord("AA", 2016, "pH", "d0", 99000, 0.6, True)
    est = E.estimate_gamma(E.Returns.from_records(recs + [heavy]))
    w40, w60 = E.norm_ppf(0.4), E.norm_ppf(0.6)
    expected_2016 = (1000 * w40 + 99000 * w60) / 100000
    assert est.election_means[2016] == pytest.approx(expected_2016, abs=1e-12)


def test_gamma_estimate_location_invariance():
    # shifting every share's probit by a constant leaves gamma_hat unchanged
    base = {2016: [0.35, 0.45], 2018: [0.5, 0.52], 2020: [0.6, 0.66]}
    shifted = {
        y: [float(E.norm_cdf(E.norm_ppf(v) + 0.2)) for v in vs] for y, vs in base.items()
    }
    g1 = E.estimate_gamma(make_returns(base)).gamma_hat
    g2 = E.estimate_gamma(make_returns(shifted)).gamma_hat
    assert g1 == pytest.approx(g2, abs=1e-9)


def test_gamma_estimate_errors():
    with pytest.raises(GerryOptError):
        E.estimate_gamma([])
    with pytest.raises(GerryOptError, match="at least 2"):
        E.estimate_gamma(make_returns({2016: [0.4, 0.6]}))
    with pytest.raises(GerryOptError, match="unidentified"):
        E.estimate_gamma(make_returns({2016: [0.5], 2018: [0.5]}))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_gamma_estimate_alpha_range(alpha):
    returns = make_returns({2016: [0.35, 0.45], 2018: [0.5, 0.52], 2020: [0.6, 0.66]})
    with pytest.raises(GerryOptError, match="alpha"):
        E.estimate_gamma(returns, alpha=alpha)


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------


def test_simulator_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    E.simulate_returns(str(a), gamma=8.0, T=3, n_precincts=50, seed=7)
    E.simulate_returns(str(b), gamma=8.0, T=3, n_precincts=50, seed=7)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    E.simulate_returns(str(c), gamma=8.0, T=3, n_precincts=50, seed=8)
    assert a.read_bytes() != c.read_bytes()


def test_simulator_round_trip_recovers_gamma(tmp_path):
    # many elections shrink the sampling noise of 1/sd(r_t)
    path = tmp_path / "sim.csv"
    E.simulate_returns(str(path), gamma=10.0, T=400, n_precincts=30, seed=3)
    records, report = E.ingest(str(path))
    assert report.dropped_uncontested == 0
    est = E.estimate_gamma(records)
    assert est.gamma_hat == pytest.approx(10.0, rel=0.15)


def reference_simulate(path, gamma, T=3, n_precincts=1000, votes_per_precinct=1000, seed=0, state="SY"):
    """The row-at-a-time writer ``simulate_returns`` must match byte for byte:
    the state quoted by ``csv``, every other field an f-string."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1.0, 1.0, size=n_precincts)
    r = rng.normal(0.0, 1.0 / gamma, size=T)
    quoted = io.StringIO()
    csv.writer(quoted).writerow([state, ""])
    state_field = quoted.getvalue()[: -len(",\r\n")]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(E.CSV_FIELDS) + "\r\n")
        for t in range(T):
            for n, x in enumerate(ndtr(s - r[t]).tolist()):
                fh.write(f"{state_field},{2016 + 2 * t},p{n:05d},d{n % 10:02d},{votes_per_precinct},{x:.12f},1\r\n")


@pytest.mark.parametrize(
    "params",
    [
        {"n_precincts": 100_003, "T": 1},  # precinct ids go from 5 to 6 digits
        {"T": 3993, "n_precincts": 1},  # the last year is 10000
        {"state": "A,B", "votes_per_precinct": 1},
        {"state": 'q"x', "votes_per_precinct": 123456},
        {"state": ""},
        {"state": "Ñu", "n_precincts": 10},
    ],
    ids=["id_width", "year_width", "comma_state", "quote_state", "empty_state", "utf8_state"],
)
def test_simulator_matches_row_at_a_time_writer(tmp_path, params):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    E.simulate_returns(str(got), gamma=7.0, seed=4, **params)
    reference_simulate(str(want), gamma=7.0, seed=4, **params)
    assert got.read_bytes() == want.read_bytes()


def test_share_text_matches_python_format():
    rng = np.random.default_rng(21)
    ties = (2 * rng.integers(0, 10**12, 100_000) + 1) / 2e12  # the doubles nearest to (k + 1/2) * 1e-12
    near_ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
    special = np.array([0.0, 5e-324, 1 - 2**-53, 1.0])
    for x in [*np.split(rng.uniform(0.0, 1.0, 10**6), 10), near_ties, special]:
        assert E._shares(x).tobytes() == "".join(f"{v:.12f}" for v in x.tolist()).encode()
    # the near-tie branch is taken, and needed: rounding the float product
    # alone would misformat some of these shares
    scaled = near_ties * 1e12
    fraction = scaled - np.floor(scaled)
    assert (np.abs(fraction - 0.5) < 1e-3).all()
    rounded = (np.floor(scaled) + (fraction > 0.5)).astype(np.int64).tolist()
    assert any(f"{k // 10**12}.{k % 10**12:012d}" != f"{v:.12f}" for k, v in zip(rounded, near_ties.tolist()))


def test_simulator_rejects_bad_params(tmp_path):
    with pytest.raises(GerryOptError):
        E.simulate_returns(str(tmp_path / "x.csv"), gamma=0.0)
    with pytest.raises(GerryOptError):
        E.simulate_returns(str(tmp_path / "x.csv"), gamma=5.0, T=0)


# ---------------------------------------------------------------------------
# descriptive summaries
# ---------------------------------------------------------------------------


def test_descriptive_summaries_basics(tmp_path):
    path = tmp_path / "sim.csv"
    E.simulate_returns(str(path), gamma=10.0, T=3, n_precincts=200, seed=1)
    records, _ = E.ingest(str(path))
    summ = E.descriptive_summaries(records)
    assert summ.base_year == 2016
    assert summ.share_hist.sum() == pytest.approx(1.0, abs=1e-9)
    assert summ.share_hist.size == E.SHARE_BINS.size - 1
    assert 0.0 <= summ.swing_within_025 <= 1.0
    # base-year identity: quantile-matching a year against itself maps a
    # share value x (inside the sample range) back to approximately x
    base_curve = summ.qq_curves[2016]
    v2016 = np.sort([r.rep_share for r in records.rows() if r.year == 2016])
    interior = (summ.qq_grid > v2016[5]) & (summ.qq_grid < v2016[-6])
    assert np.max(np.abs(base_curve[interior] - summ.qq_grid[interior])) < 0.05
    # every curve is monotone nondecreasing in the share value
    for curve in summ.qq_curves.values():
        assert np.all(np.diff(curve) >= -1e-12)


def test_descriptive_summaries_empty():
    with pytest.raises(GerryOptError):
        E.descriptive_summaries([])


def test_estimates_csv_format(tmp_path, capsys):
    shares = {y: [float(E.norm_cdf(m))] * 4 for y, m in [(2016, -0.1), (2018, 0.0), (2020, 0.1)]}
    path = tmp_path / "returns.csv"
    records = make_records(shares)
    write_csv(path, [[r.state, r.year, r.precinct_id, r.district_id, r.total_votes, r.rep_share, 1] for r in records])
    assert cli.main(["estimate", "--input", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "estimates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state", "gamma_hat", "ci_low", "ci_high", "T", "n_precincts"]
    assert len(rows) == 2 and rows[1][0] == "AA" and rows[1][4:] == ["3", "12"]
    assert float(rows[1][1]) == pytest.approx(10.0, abs=1e-5)
    assert all(len(x.split(".")[1]) == 6 for x in rows[1][1:4])
    assert (tmp_path / "bad_rows.csv").read_bytes() == b"line,message\r\n"  # header only: no malformed row


def test_ingest_integer_outside_int64_is_malformed(tmp_path):
    path = tmp_path / "returns.csv"
    write_csv(path, [["AA", 2016, "p1", "d1", 900, 0.61, 1], ["AA", 2016, "p2", "d1", 2**63, 0.5, 1]])
    records, report = E.ingest(str(path))
    assert len(records) == 1
    assert report.bad_rows == [(3, "line 3: malformed row (integer outside the 64-bit range)")]


# ---------------------------------------------------------------------------
# the contested column, and ingest against a row-at-a-time reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("padded", [False, True], ids=["numpy", "csv"])  # a padded value sends its chunk to csv
@pytest.mark.parametrize("value, contested", [("TRUE", True), ("False", False), ("yes", None), ("", None)])
def test_contested_spellings(tmp_path, capsys, value, contested, padded):
    path = tmp_path / "returns.csv"
    write_csv(path, [
        ["AA", 2016, "p1", "d1", 900, 0.61, f" {value} " if padded else value],
        ["AA", 2018, "p1", "d1", 900, 0.35, 1],
        ["AA", 2016, "p2", "d2", 900, 0.5, 1],
    ])
    if contested is None:
        message = "line 2: contested must be 0, 1, true or false"
        _returns, report = E.ingest(str(path))
        assert report.bad_rows == [(2, message)]
        assert (report.n_input, report.n_kept) == (2, 2)
        with pytest.raises(GerryOptError, match=message):
            E.ingest(str(path), strict=True)
        assert cli.main(["estimate", "--input", str(path), "--strict", "--out", str(tmp_path)]) == 3
        assert json.loads(capsys.readouterr().err) == {"error": "data", "message": message}
        return
    for strict in (False, True):
        returns, report = E.ingest(str(path), strict=strict)
        assert report.bad_rows == []
        # an uncontested d1 drops in both years
        assert report.dropped_uncontested == (0 if contested else 2)
        assert [r.contested for r in returns.rows()] == [True] * (3 if contested else 1)


def test_contested_checked_after_the_other_fields(tmp_path):
    path = tmp_path / "returns.csv"
    write_csv(path, [["AA", 2016, "p1", "d1", 0, 0.61, "yes"], ["AA", 2016, "p2", "d1", 900, 1.5, "yes"]])
    _returns, report = E.ingest(str(path))
    assert report.bad_rows == [(2, "line 2: total_votes must be >= 1"), (3, "line 3: rep_share outside [0, 1]")]


def test_fields_ending_in_nul_are_reported(tmp_path, monkeypatch):
    # a numpy bytes array drops trailing NULs: "1\0" read as "1" kept the row,
    # and "AA\0" merged with "AA"
    rows = [
        ["AA", 2016, "p1", "d1", 900, 0.4, "1"],
        ["AA", 2016, "p2", "d1", 900, 0.4, "1\0"],
        ["AA\0", 2016, "p3", "d1", 900, 0.4, "1"],
        ["AA", 2016, "p4", "d1\0 ", 900, 0.4, "1"],
    ]
    path = tmp_path / "returns.csv"
    write_csv(path, rows)
    returns, report = E.ingest(str(path))
    assert report.n_input == 1
    assert report.bad_rows == [
        (3, "line 3: contested must be 0, 1, true or false"),
        (4, "line 4: malformed row (a label ends in a NUL byte)"),
        (5, "line 5: malformed row (a label ends in a NUL byte)"),
    ]
    assert returns.states.tolist() == ["AA"]
    assert_ingest_matches_oracle(path, monkeypatch)


INT64 = (-(2**63), 2**63)


def read_row_at_a_time(path):
    """The oracle: ``csv.DictReader``, ``_parse_row`` on each record, then the
    three filters on record objects.  Returns the kept records and the report."""
    records, bad = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            try:
                rec = E._parse_row(row, line)
            except GerryOptError as exc:
                bad.append((line, str(exc)))
                continue
            if not all(INT64[0] <= v < INT64[1] for v in (rec.year, rec.total_votes)):
                bad.append((line, f"line {line}: malformed row (integer outside the 64-bit range)"))
                continue
            records.append(rec)
    uncontested = {(r.state, r.district_id) for r in records if not r.contested}
    kept1 = [r for r in records if (r.state, r.district_id) not in uncontested]
    kept2 = [r for r in kept1 if r.total_votes >= 50]
    kept3 = [r for r in kept2 if 0.0 < r.rep_share < 1.0]
    report = E.FilterReport(
        n_input=len(records),
        n_kept=len(kept3),
        dropped_uncontested=len(records) - len(kept1),
        dropped_small=len(kept1) - len(kept2),
        dropped_degenerate=len(kept2) - len(kept3),
        bad_rows=bad,
    )
    return kept3, report


def assert_ingest_matches_oracle(path, monkeypatch):
    kept, report = read_row_at_a_time(path)
    for chunk_rows in (1, 7, 2048):
        monkeypatch.setattr(E, "CHUNK_ROWS", chunk_rows)
        returns, got = E.ingest(str(path))
        assert got == report, chunk_rows
        assert list(returns.rows()) == kept, chunk_rows
        # the labels are those the kept rows use, sorted, so the codes are pinned as well
        for labels, field in (("states", "state"), ("precincts", "precinct_id"), ("districts", "district_id")):
            assert getattr(returns, labels).tolist() == sorted({getattr(r, field) for r in kept}), chunk_rows
        if report.bad_rows:
            with pytest.raises(GerryOptError, match=re.escape(report.bad_rows[0][1])):
                E.ingest(str(path), strict=True)


# (kept, odd, dirty) spellings of each field.  A line of kept and odd
# spellings passes the fast reader's guard; an odd one makes its row
# malformed or filtered out.  A dirty one sends its chunk to csv, or numpy
# rejects it and the chunk falls back.
SPELLINGS = {
    "state": (["AA", "BB"], [""], [" AA ", "A,A", 'A"A', "A\nA", "Ä", "A\tA", "Ñu"]),
    "year": (["2016", "2018", "+2020", "02018"], [], [" 2018", "2_018", "２０１８", "2016.0", "1e3", "", str(2**63), str(-(2**63) - 1)]),
    # labels longer than 8 bytes that share their first 8, and non-ASCII ones
    # (which send their chunk to csv) sorting among them
    "precinct_id": (
        ["p1", "p2", "p3", "precinct-1", "precinct-10", "precinct-9"],
        [],
        [" p1", "p1 ", "p\n1", "p,1", "p\r\n2", "p\x001", "p1\x00", '"p2"', "precinct-é", "pé"],
    ),
    "district_id": (["d1", "d2", "district-a", "district-b"], [], ["d1 ", "d\t1", "d\x0c1", "district-ä", "dΩ"]),
    "total_votes": (["900", "50", "+70", str(2**63 - 1)], ["49", "0", "-3"], ["9_00", "９００", " 900 ", "1e3", "", str(2**63)]),
    "rep_share": (
        ["0.25", "0.5", "1e-1", ".5"],
        ["0", "1", "1.0", "1.5", "-0", "nan", "inf", "-inf", "NaN", "Infinity"],
        ["0_5", "0.5 ", "٠.٥", "nan(1)", "0x1p-1", "", "0.5\x7f"],
    ),
    "contested": (["1", "true", "TRUE"], ["0", "False", "yes", ""], [" 1", "\t1", "TRUE ", "ｔｒｕｅ", "1\x00"]),
}


@st.composite
def returns_files(draw):
    """The text of a returns CSV: a reordered header, maybe an extra column,
    and rows mostly of kept spellings, with odd and dirty fields, blank lines
    and short and long rows among them."""
    header = list(draw(st.permutations(E.CSV_FIELDS))) + draw(st.sampled_from([[], ["note"]]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 40))):
        row = {}
        for name, (kept, odd, _dirty) in SPELLINGS.items():
            row[name] = draw(st.sampled_from(odd if odd and draw(st.integers(0, 9)) == 0 else kept))
        if draw(st.integers(0, 5)) == 0:
            name = draw(st.sampled_from(E.CSV_FIELDS))
            row[name] = draw(st.sampled_from(SPELLINGS[name][2]))
        fields = [row.get(name, "x") for name in header]
        shape = draw(st.sampled_from(["row"] * 12 + ["blank", "short", "long"]))
        if shape == "blank":
            out.write("\r\n")
            continue
        if shape == "short":
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
        elif shape == "long":
            fields.append("x")
        writer.writerow(fields)
    return out.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=returns_files())
def test_ingest_matches_row_at_a_time_reader(tmp_path, monkeypatch, text):
    path = tmp_path / "returns.csv"
    path.write_text(text, newline="")
    assert_ingest_matches_oracle(path, monkeypatch)


def test_ingest_quoted_newline_at_chunk_boundary(tmp_path, monkeypatch):
    # the 7th record, the last of the first 7-record chunk, runs onto the
    # line the next chunk would otherwise start with
    rows = [["AA", 2016 + 2 * (i % 2), f"p{i}", "d1", 900, 0.4, 1] for i in range(20)]
    rows[6][2] = "p\n6"
    rows[13][2] = "p\r\n13"
    rows[3][0] = 'A"A'  # written "A""A"
    rows[10][3] = " d1 "
    path = tmp_path / "returns.csv"
    write_csv(path, rows)
    assert_ingest_matches_oracle(path, monkeypatch)
    returns, _report = E.ingest(str(path))
    kept = list(returns.rows())
    assert [r.precinct_id for r in kept[6:8]] == ["p\n6", "p7"]
    assert (kept[3].state, kept[10].district_id) == ('A"A', "d1")


# ---------------------------------------------------------------------------
# which chunks take the csv fallback
# ---------------------------------------------------------------------------


def fallback_chunks(monkeypatch):
    """Patch ``_read_chunk`` to record the csv rows of each chunk it reads."""
    calls = []
    read_chunk = E._read_chunk

    def spy(chunk, index):
        calls.append(chunk)
        return read_chunk(chunk, index)

    monkeypatch.setattr(E, "_read_chunk", spy)
    return calls


def test_both_readers_hand_over_one_chunk_shape():
    # one entry per row in every column, a string field as each row's stripped
    # bytes (repeated labels stay repeated) and ``contested`` lower-cased
    lines = [
        "x,AA,p1,2016,d1,900,0.25,TRUE\r\n",
        "x,BB,precinct-10,2018,district-a,50,.5,0\r\n",
        "x,AA,p1,+2020,d1,0,1.5,yes\n",
        "x,AA,precinct-9,02018,d1,70,1e-1,False\n",
    ]
    index = [1, 3, 2, 4, 5, 6, 7]  # CSV_FIELDS after a leading extra column
    fast, fast_parsed, _ = E._load_chunk(lines, index)
    slow, slow_parsed, _ = E._read_chunk(list(csv.reader(lines)), index)
    assert fast_parsed is True and slow_parsed.all()
    assert fast.keys() == slow.keys() == set(E.CSV_FIELDS)
    for name in E.CSV_FIELDS:
        assert fast[name].dtype.kind == slow[name].dtype.kind and np.array_equal(fast[name], slow[name]), name
    assert fast["precinct_id"].tolist() == [b"p1", b"precinct-10", b"p1", b"precinct-9"]
    assert fast["contested"].tolist() == [b"true", b"0", b"yes", b"false"]


def test_clean_chunks_skip_the_csv_fallback(tmp_path, monkeypatch):
    path = tmp_path / "sim.csv"
    E.simulate_returns(str(path), gamma=8.0, T=3, n_precincts=1001, seed=5)  # 3003 records
    monkeypatch.setattr(E, "CHUNK_ROWS", 500)
    whole, report = E.ingest(str(path))
    calls = fallback_chunks(monkeypatch)
    returns, got = E.ingest(str(path))
    assert calls == []
    assert got == report and list(returns.rows()) == list(whole.rows())

    # a year numpy rejects at record 1234 sends only its chunk, records
    # 1000..1499, to csv; a bad contested value at record 2345 is rejected on
    # numpy's path
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(1 + 1234, "SY,twenty,bad,d00,1000,0.5,1\n")
    lines.insert(1 + 2345, "SY,2016,bad,d00,1000,0.5,maybe\n")
    path.write_text("".join(lines), newline="")
    returns, got = E.ingest(str(path))
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))[1:]
    assert calls == [records[1000:1500]]
    assert got.bad_rows == [
        (1236, "line 1236: malformed row (invalid literal for int() with base 10: 'twenty')"),
        (2347, "line 2347: contested must be 0, 1, true or false"),
    ]
    assert list(returns.rows()) == list(whole.rows())


def test_numpy_warning_sends_the_chunk_to_csv(tmp_path, monkeypatch):
    # older numpy read 2016.0 into an integer column with only a warning: the
    # fast path never keeps a value numpy warned about
    path = tmp_path / "sim.csv"
    E.simulate_returns(str(path), gamma=8.0, T=3, n_precincts=11, seed=5)
    monkeypatch.setattr(E, "CHUNK_ROWS", 7)
    whole, report = E.ingest(str(path))
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    calls = fallback_chunks(monkeypatch)
    returns, got = E.ingest(str(path))
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))[1:]
    assert calls == [records[i : i + 7] for i in range(0, 33, 7)]  # every chunk of the 33 records
    assert got == report
    assert list(returns.rows()) == list(whole.rows())
