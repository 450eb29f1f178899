"""Aggregate-uncertainty estimation from precinct-level election returns.

Pipeline: ingest and filter returns, probit-transform vote shares, and
estimate gamma from the between-election variance of the vote-weighted state
means, with an exact chi-squared confidence interval.  A seeded simulator
generates synthetic returns for validating the estimator.

Returns are held as columns (``Returns``): one numpy array per CSV field, the
string fields stored as integer codes into sorted label arrays.
``PrecinctRecord`` is the one-row view (``Returns.rows``,
``Returns.from_records``).  ``ingest``'s two chunk readers hand over one shape:
an entry per row in every column, a string field as stripped UTF-8 bytes.
``from_records`` builds its columns the same way, so ``_sorted_codes`` is the
one label coder.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import chain, islice, zip_longest

import numpy as np
from scipy.special import chdtri, ndtr, ndtri

from .model import DataError, GerryOptError, check_gamma


@dataclass(frozen=True)
class PrecinctRecord:
    state: str
    year: int
    precinct_id: str
    district_id: str
    total_votes: int
    rep_share: float
    contested: bool


@dataclass(frozen=True)
class FilterReport:
    n_input: int
    n_kept: int
    dropped_uncontested: int
    dropped_small: int
    dropped_degenerate: int
    bad_rows: list  # (line_number, message)


CSV_FIELDS = ["state", "year", "precinct_id", "district_id", "total_votes", "rep_share", "contested"]
# (code column, label column) of the string fields
_LABELLED = (("state", "states"), ("precinct_id", "precincts"), ("district_id", "districts"))
# the numeric fields' dtypes
_NUMERIC = {"year": "i8", "total_votes": "i8", "rep_share": "f8"}
# the accepted spellings of ``contested``, after ``strip`` and ``lower``
_CONTESTED = {"0": False, "1": True, "false": False, "true": True}
# Records read per chunk.  A chunk whose text is clean is parsed by numpy's C
# reader, any other by ``csv`` and Python's ``int``/``float``, so a dirty
# record costs only its own chunk the slow path.  Small chunks also bound the
# transient arrays and lists, and the fallback's row lists are freed before
# the cyclic garbage collector promotes most of them to its oldest
# generation: 32768-row batches set off about three full collections (0.23 s)
# per 160k-row file in a process holding 300k other objects, 2048-row
# batches none or one.  ``simulate_returns`` builds at most this many rows per
# block, which bounds its transient arrays and its row buffer the same way;
# what it keeps for the whole file, the precinct ids' digits, is O(n) bytes.
CHUNK_ROWS = 2048
# The characters the C reader takes: printable ASCII but space and the quote
# character, and the line terminators.
_FAST_CHARS = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\r\n"
# The longest line the C reader takes.  Its four text fields are stored this
# wide, so a chunk's structured array stays under CHUNK_ROWS * (4 * 256 + 24)
# bytes, about 2 MB.
_FAST_LINE = 256


@dataclass(frozen=True, eq=False)
class Returns:
    """Precinct returns as a table: one array per CSV field, all one length.

    ``state``, ``precinct_id`` and ``district_id`` are integer codes into the
    sorted label arrays ``states``, ``precincts`` and ``districts``; ``year``
    and ``total_votes`` are int64, ``rep_share`` float64, ``contested`` bool.
    """

    state: np.ndarray
    year: np.ndarray
    precinct_id: np.ndarray
    district_id: np.ndarray
    total_votes: np.ndarray
    rep_share: np.ndarray
    contested: np.ndarray
    states: np.ndarray
    precincts: np.ndarray
    districts: np.ndarray

    def __len__(self) -> int:
        return self.year.size

    def select(self, mask) -> Returns:
        """The rows where ``mask`` holds, in order, with the same label arrays."""
        return replace(self, **{name: getattr(self, name)[mask] for name in CSV_FIELDS})

    def rows(self):
        """Iterate the rows as ``PrecinctRecord``."""
        columns = [
            self.states[self.state],
            self.year,
            self.precincts[self.precinct_id],
            self.districts[self.district_id],
            self.total_votes,
            self.rep_share,
            self.contested,
        ]
        for values in zip(*(c.tolist() for c in columns)):
            yield PrecinctRecord(*values)

    @staticmethod
    def from_records(records) -> Returns:
        """The table of ``PrecinctRecord`` rows, coded as ``ingest`` codes a file."""
        records = list(records)
        chunk = {name: np.array([getattr(r, name) for r in records], dtype) for name, dtype in _NUMERIC.items()}
        chunk["contested"] = np.array([r.contested for r in records], bool)
        for name, _ in _LABELLED:
            chunk[name] = np.array([getattr(r, name).encode() for r in records], bytes)
        return _compacted(_concat([chunk]))


def _parse_row(row: dict, line: int) -> PrecinctRecord:
    try:
        rec = PrecinctRecord(
            state=row["state"].strip(),
            year=int(row["year"]),
            precinct_id=row["precinct_id"].strip(),
            district_id=row["district_id"].strip(),
            total_votes=int(row["total_votes"]),
            rep_share=float(row["rep_share"]),
            contested=_CONTESTED.get(row["contested"].strip().lower()),
        )
    except (KeyError, ValueError, AttributeError, TypeError) as exc:
        raise DataError(f"line {line}: malformed row ({exc})") from exc
    if rec.total_votes < 1:
        raise DataError(f"line {line}: total_votes must be >= 1")
    if not 0.0 <= rec.rep_share <= 1.0:
        raise DataError(f"line {line}: rep_share outside [0, 1]")
    if rec.contested is None:
        raise DataError(f"line {line}: contested must be 0, 1, true or false")
    if any(label.endswith("\0") for label in (rec.state, rec.precinct_id, rec.district_id)):
        raise DataError(f"line {line}: malformed row (a label ends in a NUL byte)")
    if not all(-(2**63) <= n < 2**63 for n in (rec.year, rec.total_votes)):
        raise DataError(f"line {line}: malformed row (integer outside the 64-bit range)")
    return rec


def _numbers(texts, parse, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``texts`` converted by ``parse`` (Python's own parsing rules), and the
    mask of entries that ``parse`` rejects or ``dtype`` cannot hold (read as 0)."""
    try:
        return np.fromiter(map(parse, texts), dtype, len(texts)), np.zeros(len(texts), bool)
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(texts), dtype)
    rejected = np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            values[i] = parse(text)
        except (ValueError, OverflowError):
            rejected[i] = True
    return values, rejected


def _read_chunk(chunk: list, index: list) -> tuple:
    """``chunk`` (csv rows) converted with Python's ``int``, ``float`` and
    ``strip``: the chunk's columns, the mask of rows that parsed, and the row
    lookup.  Every column has one entry per row; a string field holds each
    row's stripped UTF-8 bytes, ``contested`` its stripped, lower-cased ones."""
    width = max(index) + 1
    short = np.fromiter(map(len, chunk), np.intp, len(chunk)) < width
    rows = [row + [""] * width for row in chunk] if short.any() else chunk  # a short row is rejected
    columns = list(zip(*rows)) or [()] * width
    field = {name: columns[i] for name, i in zip(CSV_FIELDS, index)}
    texts = {name: [text.strip().encode() for text in field[name]] for name, _ in _LABELLED}
    texts["contested"] = [text.strip().lower().encode() for text in field["contested"]]
    out, nul = {}, np.zeros(len(chunk), bool)
    for name, values in texts.items():
        # a bytes array drops a trailing NUL, so such a row is left to _parse_row
        nul |= np.fromiter((value.endswith(b"\0") for value in values), bool, len(values))
        out[name] = np.array(values, dtype=bytes)
    out["year"], bad_year = _numbers(field["year"], int, np.int64)
    out["total_votes"], bad_votes = _numbers(field["total_votes"], int, np.int64)
    out["rep_share"], bad_share = _numbers(field["rep_share"], float, np.float64)
    return out, ~(short | nul | bad_year | bad_votes | bad_share), chunk.__getitem__


def _load_chunk(lines: list, index: list) -> tuple | None:
    """``lines`` (text lines) parsed by one ``np.loadtxt`` call, in the form
    ``_read_chunk`` returns; or None when a line is one that numpy might read
    otherwise than ``csv`` and Python do: non-ASCII, quoted, blank, padded,
    holding a control character or longer than ``_FAST_LINE``; or when numpy
    rejects a value or warns about one."""
    import warnings

    text = "".join(lines)
    if not (
        lines
        and text.isascii()
        and not text.encode().translate(None, _FAST_CHARS)
        and all(map(str.strip, lines))  # no blank line: only line terminators are left to strip
        and (width := max(map(len, lines))) <= _FAST_LINE
    ):
        return None
    dtype = [(name, _NUMERIC.get(name, f"S{width}")) for name in CSV_FIELDS]  # no field outruns its line
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # older numpy only warned when it read 2016.0 as an int
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=index, ndmin=1)
        except (ValueError, Warning):
            return None
    out = {name: table[name].copy() for name in _NUMERIC}  # a field view would keep the wide table alive
    for name, _ in _LABELLED:
        # cut to the longest value, so the file-wide sort reads no more words than it must
        out[name] = table[name].astype(f"S{max(int(np.char.str_len(table[name]).max()), 1)}")
    out["contested"] = np.frombuffer(table["contested"].tobytes().lower(), table["contested"].dtype)
    return out, True, lambda i: lines[i].rstrip("\r\n").split(",")


def _kept(columns: dict, parsed, record, header: list, first_line: int, bad: list, strict: bool) -> dict:
    """The chunk's columns, ``contested`` as bool, cut to the rows that parsed
    (``parsed``) and pass the range and ``contested`` checks, the first on line
    ``first_line``.  Each other row ``i`` is parsed alone from ``record(i)``,
    its csv fields, by ``_parse_row``, whose message is appended to ``bad``
    or raised under ``strict``."""
    spelled = columns["contested"]
    contested = np.zeros(len(spelled), bool)
    known = np.zeros(len(spelled), bool)
    for spelling, flag in _CONTESTED.items():
        match = spelled == spelling.encode()
        known |= match
        if flag:
            contested |= match
    votes, share = columns["total_votes"], columns["rep_share"]
    ok = parsed & (votes >= 1) & (share >= 0.0) & (share <= 1.0) & known
    for i in np.flatnonzero(~ok).tolist():
        try:
            # a short row reads its missing fields as None, as csv.DictReader does
            _parse_row(dict(zip_longest(header, record(i))), first_line + i)
        except DataError as exc:
            if strict:
                raise
            bad.append((first_line + i, str(exc)))
    return {name: column[ok] for name, column in {**columns, "contested": contested}.items()}


def _sorted_codes(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the bytes array ``texts`` in numpy's order, and
    each entry's index into them.  The values are sorted as big-endian 64-bit
    words, NUL-padded, which compares them byte by byte as numpy does."""
    n, width = len(texts), -(-texts.itemsize // 8)
    words = texts.astype(f"S{8 * width}").view(">u8").astype(np.uint64).reshape(n, width)
    order = np.argsort(words[:, 0]) if width == 1 else np.lexsort(words.T[::-1])
    ordered = words[order]
    first = np.ones(n, bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    codes = np.empty(n, np.intp)
    codes[order] = np.cumsum(first) - 1
    return texts[order[first]], codes


def _concat(chunks: list) -> Returns:
    """One table from the chunks' columns, each string field coded once onto
    the sorted labels of all its rows, which stay UTF-8 bytes until
    ``_compacted``.  UTF-8 byte order is code point order, so the labels come
    out in the order of ``np.unique`` over ``str``."""
    columns = {name: np.concatenate([chunk[name] for chunk in chunks]) for name in (*_NUMERIC, "contested")}
    for codes, labels in _LABELLED:  # one field at a time, so one bytes column is held
        columns[labels], columns[codes] = _sorted_codes(np.concatenate([chunk[codes] for chunk in chunks]))
    return Returns(**columns)


def _compacted(table: Returns) -> Returns:
    """``table`` with each label array cut to the labels its rows use, which
    are decoded from UTF-8."""
    columns = {}
    for codes, labels in _LABELLED:
        code, label = getattr(table, codes), getattr(table, labels)
        used = np.bincount(code, minlength=len(label)) > 0
        columns[codes] = (np.cumsum(used) - 1)[code]
        columns[labels] = np.array([text.decode() for text in label[used].tolist()], dtype=str)
    return replace(table, **columns)


def ingest(path: str, strict: bool = False) -> tuple[Returns, FilterReport]:
    """Read the returns CSV and apply the three filters in order:

    1. a district uncontested in any year is dropped across all years;
    2. precincts with fewer than 50 total votes;
    3. precincts with a vote share of exactly 0 or 1.

    Malformed rows are fatal under ``strict``, otherwise skipped and reported
    with their line numbers, which count non-blank records from 2 (as
    ``csv.DictReader`` does).  A ``contested`` value is 0, 1, true or false in
    any case; any other makes its row malformed, as do an integer field
    outside the 64-bit range and a label that ends in a NUL byte.  The kept
    rows come back in file order.

    Records are read in chunks of ``CHUNK_ROWS``.  A chunk whose lines are
    ASCII, unquoted, not blank, at most ``_FAST_LINE`` characters long and
    free of whitespace and control characters (but the line terminators) is
    parsed by one ``np.loadtxt`` call: each
    number numpy accepts there, Python's ``int``/``float`` read to the same
    value.  Any other chunk, or one where numpy rejects or warns about a
    value (``1_000``, ``2016.0`` in an integer column, an integer outside the
    64-bit range), is read by ``csv.reader`` and converted with Python's
    ``int``, ``float`` and ``strip``.  Both give each row's stripped UTF-8
    bytes in a string field, coded once for the whole file, and leave each
    rejected row's message to ``_parse_row``.  Either way every kept row,
    message and line number is the one a row-at-a-time reader gives.
    """
    bad: list = []
    chunks: list = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
        missing = [c for c in CSV_FIELDS if c not in header]
        if missing:
            raise DataError(f"input CSV missing columns: {', '.join(missing)}")
        position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        index = [position[c] for c in CSV_FIELDS]
        line = 2
        while True:
            lines = list(islice(fh, CHUNK_ROWS))
            parsed = _load_chunk(lines, index)
            n = len(lines)
            if parsed is None:
                # CHUNK_ROWS records span at least CHUNK_ROWS lines, so the csv
                # reader consumes every line read above, then reads on to the
                # end of its last record (a quoted field can hold a newline)
                records = filter(None, csv.reader(chain(lines, fh)))  # blank lines are skipped and not counted
                rows = list(islice(records, CHUNK_ROWS))
                parsed = _read_chunk(rows, index)
                n = len(rows)
            chunks.append(_kept(*parsed, header, line, bad, strict))
            line += n
            if n < CHUNK_ROWS:
                break
    table = _concat(chunks)

    district = table.state * len(table.districts) + table.district_id
    keep1 = ~np.isin(district, district[~table.contested])
    keep2 = keep1 & (table.total_votes >= 50)
    keep3 = keep2 & (table.rep_share > 0.0) & (table.rep_share < 1.0)
    n1, n2, n3 = int(keep1.sum()), int(keep2.sum()), int(keep3.sum())
    report = FilterReport(
        n_input=len(table),
        n_kept=n3,
        dropped_uncontested=len(table) - n1,
        dropped_small=n1 - n2,
        dropped_degenerate=n2 - n3,
        bad_rows=bad,
    )
    return _compacted(table.select(keep3)), report


def norm_ppf(p):
    """Standard normal inverse CDF; raises ``DataError`` outside (0, 1)."""
    p = np.asarray(p, dtype=float)
    outside = ~((p > 0.0) & (p < 1.0))
    if outside.any():
        raise DataError(f"probit transform requires share in (0, 1); got {p[outside][0]}")
    return ndtri(p)


def probit_transform(returns: Returns) -> np.ndarray:
    """w_nt = Q^{-1}(v_nt) per row."""
    return norm_ppf(returns.rep_share)


@dataclass(frozen=True)
class GammaEstimate:
    gamma_hat: float
    ci_low: float
    ci_high: float
    election_means: dict   # year -> vote-weighted mean of w
    T: int
    n_precincts: int


def estimate_gamma(returns: Returns, alpha: float = 0.1) -> GammaEstimate:
    """gamma_hat = 1 / sd(w_t), sd over the T vote-weighted election means.

    (T-1) gamma^2 / gamma_hat^2 is chi-squared with T-1 degrees of freedom,
    giving the exact interval
        sqrt(chi2_{T-1}(alpha/2) / (T-1)) * gamma_hat
            <= gamma <=
        sqrt(chi2_{T-1}(1 - alpha/2) / (T-1)) * gamma_hat.
    """
    if not 0.0 < alpha < 1.0:
        raise GerryOptError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    if not len(returns):
        raise DataError("no records to estimate from")
    w = probit_transform(returns)
    years, row_year = np.unique(returns.year, return_inverse=True)
    k = returns.total_votes.astype(float)
    w_t = np.bincount(row_year, weights=k * w) / np.bincount(row_year, weights=k)  # vote-weighted mean per year
    T = years.size
    if T < 2:
        raise DataError(f"need at least 2 elections, got {T}")
    var = float(np.sum((w_t - w_t.mean()) ** 2) / (T - 1))
    if var <= 0.0:
        raise DataError("zero between-election variance: gamma is unidentified (infinite)")
    gamma_hat = 1.0 / math.sqrt(var)
    # chdtri(k, y) is the chi-squared quantile with upper-tail probability y
    lo = math.sqrt(chdtri(T - 1, 1.0 - alpha / 2.0) / (T - 1)) * gamma_hat
    hi = math.sqrt(chdtri(T - 1, alpha / 2.0) / (T - 1)) * gamma_hat
    return GammaEstimate(
        gamma_hat=gamma_hat,
        ci_low=lo,
        ci_high=hi,
        election_means=dict(zip(years.tolist(), w_t.tolist())),
        T=T,
        n_precincts=len(returns),
    )


# the four-digit strings 0000..9999, each as one 32-bit word of ASCII bytes
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """``f"{n:0{width}d}"`` of each integer ``n`` in ``values`` (0 <= n <
    10**width), as rows of ASCII bytes."""
    groups = -(-width // 4)
    out = np.empty((len(values), groups), np.uint32)
    for j in range(groups - 1, -1, -1):
        values, out[:, j] = np.divmod(values, 10000)
    return _QUADS[out].view(np.uint8)[:, 4 * groups - width :]


def _shares(v: np.ndarray) -> np.ndarray:
    """``f"{x:.12f}"`` of each share ``x`` in ``v`` (0 <= x <= 1), as rows of
    14 ASCII bytes.

    ``v * 1e12`` is below 2**40, so the float product lies within 2**-14 of
    the exact one and rounds to the same integer unless its fraction is
    within 1e-3 of one half; Python formats those few shares."""
    scaled = v * 1e12
    whole = np.floor(scaled)
    fraction = scaled - whole
    rounded = whole.astype(np.int64) + (fraction > 0.5)
    quads = np.empty((len(v), 3), np.int64)  # the 12 decimals in groups of 4
    for j in (2, 1, 0):
        rounded, quads[:, j] = np.divmod(rounded, 10000)
    out = np.empty((len(v), 14), np.uint8)
    out[:, 0] = rounded + ord("0")  # what is left is the units digit, 0 or 1
    out[:, 1] = ord(".")
    out[:, 2:] = _QUADS[quads].view(np.uint8)
    near = np.flatnonzero(np.abs(fraction - 0.5) < 1e-3)
    out[near] = np.frombuffer("".join(f"{x:.12f}" for x in v[near].tolist()).encode(), np.uint8).reshape(-1, 14)
    return out


def simulate_returns(
    path: str,
    gamma: float,
    T: int = 3,
    n_precincts: int = 1000,
    votes_per_precinct: int = 1000,
    seed: int = 0,
    state: str = "SY",
) -> None:
    """Write synthetic returns for the years 2016, 2018, ...: s_n ~ uniform[-1, 1],
    r_t ~ N(0, 1/gamma^2), v_nt = Q(s_n - r_t) exactly (large-precinct limit).
    Deterministic per seed.

    The file is UTF-8 and what ``csv.writer`` writes (``\\r\\n`` line ends,
    shares with 12 decimals); only ``state`` can need quoting, so it alone goes
    through the csv module.  The precincts are cut into blocks of at most
    ``CHUNK_ROWS`` rows of one precinct-id width, and each block's id digits
    are built once and written in every year: n bytes per id digit, no more
    than the 8n bytes of ``s`` up to 10**8 precincts.  Each (year, id width)
    gets one row buffer holding its constant fields; a block fills in only
    its ids and shares and is written with one call.  A gamma that prints
    every share of a year as 0 or 1, which ``ingest`` drops, is rejected
    before the file is opened."""
    check_gamma(gamma)
    if T < 1 or n_precincts < 1 or votes_per_precinct < 1:
        raise GerryOptError("simulator parameters must be positive")
    if seed < 0:
        raise GerryOptError(f"seed must be nonnegative, got {seed!r}")
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1.0, 1.0, size=n_precincts)
    r = rng.normal(0.0, 1.0 / gamma, size=T)  # 1 / gamma overflows to inf below about 1e-308
    # a share rises with s, and s spans 2, far less than the 14 or so between a
    # share printed as 0 and one printed as 1, so the extreme precincts decide
    for t, (low, high) in enumerate(zip(ndtr(s.min() - r).tolist(), ndtr(s.max() - r).tolist())):
        if f"{high:.12f}" == f"{0:.12f}" or f"{low:.12f}" == f"{1:.12f}":
            raise GerryOptError(f"gamma {gamma!r} is too small: every share of {2016 + 2 * t} prints as 0 or 1")
    quoted = io.StringIO()
    csv.writer(quoted).writerow([state, ""])
    state_field = quoted.getvalue()[: -len(",\r\n")]
    votes = f",{votes_per_precinct},".encode()
    blocks, start = [], 0  # (first precinct, id digits) per block
    while start < n_precincts:
        width = max(5, len(str(start)))  # of the precinct number, as p{n:05d} writes it
        stop = min(start + CHUNK_ROWS, 10**width, n_precincts)
        blocks.append((start, np.ascontiguousarray(_digits(np.arange(start, stop), width))))
        start = stop
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_FIELDS) + "\r\n").encode())
        for t in range(T):
            v = ndtr(s - r[t])
            lead = f"{state_field},{2016 + 2 * t},p".encode()
            layout = None
            for start, number in blocks:
                m, width = number.shape
                if width != layout:
                    layout = width
                    # {state},{year},p{n:05d},d{n % 10:02d},{votes},{share:.12f},1 with the id and share left as NULs
                    row = lead + bytes(width) + b",d0" + bytes(1) + votes + bytes(14) + b",1\r\n"
                    rows = np.empty((min(CHUNK_ROWS, n_precincts), len(row)), np.uint8)
                    rows[:] = np.frombuffer(row, np.uint8)
                    ids = slice(len(lead), len(lead) + width)
                rows[:m, ids] = number
                rows[:m, ids.stop + 3] = number[:, -1]
                rows[:m, -18:-4] = _shares(v[start : start + m])  # the 14 bytes before ",1\r\n"
                fh.write(rows[:m])


SHARE_BINS = np.round(np.arange(0.0, 1.0 + 1e-12, 0.05), 10)
SWING_BINS = np.round(np.arange(-0.25, 0.25 + 1e-12, 0.025), 10)


@dataclass(frozen=True)
class DescriptiveSummaries:
    share_bin_edges: np.ndarray
    share_hist: np.ndarray          # vote-weighted density over share bins
    swing_bin_edges: np.ndarray
    swing_hist: np.ndarray          # district-year swing deviations
    swing_within_025: float         # fraction of deviations inside +/-0.025
    qq_grid: np.ndarray
    qq_curves: dict                 # year -> J_t^{-1}(J_base(v)) on qq_grid
    base_year: int


def descriptive_summaries(returns: Returns) -> DescriptiveSummaries:
    """Vote-share histogram, district swing-deviation histogram, and
    cross-election quantile-matching curves against the first year."""
    if not len(returns):
        raise DataError("no records")
    years, row_year = np.unique(returns.year, return_inverse=True)
    base = int(years[0])
    v = returns.rep_share
    k = returns.total_votes.astype(float)
    share_hist, _ = np.histogram(v, bins=SHARE_BINS, weights=k / k.sum())

    # district-year mean shares, then deviations from the district's own
    # across-year mean minus the year effect
    district = returns.state * len(returns.districts) + returns.district_id
    cells, row_cell = np.unique(district * years.size + row_year, return_inverse=True)
    cell_mean = np.bincount(row_cell, weights=k * v) / np.bincount(row_cell, weights=k)
    cell_district, cell_year = np.divmod(cells, years.size)
    year_mean = np.bincount(cell_year, weights=cell_mean) / np.bincount(cell_year)
    centered = cell_mean - year_mean[cell_year]
    _, cell_group = np.unique(cell_district, return_inverse=True)
    n_years = np.bincount(cell_group)
    avg = np.bincount(cell_group, weights=centered) / n_years
    deviations = (centered - avg[cell_group])[n_years[cell_group] >= 2]
    swing_hist, _ = np.histogram(deviations, bins=SWING_BINS)
    within = float(np.mean(np.abs(deviations) <= 0.025)) if deviations.size else 1.0

    qq_grid = np.linspace(0.05, 0.95, 19)
    base_v = np.sort(v[returns.year == base])
    curves: dict = {}
    if base_v.size:
        # J_t^{-1}(J_base(x)): x's quantile in the base year, read off in year t
        u = np.clip(np.searchsorted(base_v, qq_grid, side="right") / base_v.size, 0.0, 1.0)
        for y, year in enumerate(years.tolist()):
            curves[year] = np.quantile(v[row_year == y], u)
    return DescriptiveSummaries(
        share_bin_edges=SHARE_BINS,
        share_hist=share_hist,
        swing_bin_edges=SWING_BINS,
        swing_hist=swing_hist,
        swing_within_025=within,
        qq_grid=qq_grid,
        qq_curves=curves,
        base_year=base,
    )
