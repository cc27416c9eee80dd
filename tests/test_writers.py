"""The block-wise text writers against the line-per-record writers they
replaced, kept in ``helpers`` as oracles: the same bytes, or the same
refusal, for int and string labels, labels that CSV quotes, unknown
settings, record counts on either side of a block edge and windows up to
2^63 - 1."""

import numpy as np
from hypothesis import given, strategies as st

from bellsim.rng import CHUNK
from bellsim.streams import ClickStream, CoincidenceRecords, write_coincidence_csv, write_timetag_file

from helpers import oracle_write_coincidence_csv, oracle_write_timetag_file

LABELS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=4),
    st.sampled_from(("a,b", 'q"x', '"', ",", "x\r\ny", "1", " 1", "a b", "#", "", "é")),
)
SIZES = st.sampled_from((0, 1, 2, 9, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3))
WINDOW_MAX = 2 ** 63 - 1


def written(writer, data, path):
    """The bytes ``writer`` wrote, or its exception's class and message."""
    try:
        writer(data, path)
    except Exception as exc:
        return type(exc), str(exc)
    return path.read_bytes()


def windows(rng, n):
    """n sorted windows from 0 to 2^63 - 1, both ends included when n > 1."""
    w = np.sort(rng.integers(0, WINDOW_MAX, size=n, endpoint=True, dtype=np.int64))
    if n > 1:
        w[0], w[-1] = 0, WINDOW_MAX
    return w


@given(settings_a=st.lists(LABELS, min_size=1, max_size=3, unique=True),
       settings_b=st.lists(LABELS, min_size=1, max_size=3, unique=True),
       n=SIZES, seed=st.integers(0, 2 ** 32 - 1), as_rows=st.booleans())
def test_coincidence_csv_matches_row_writer(tmp_path_factory, settings_a, settings_b, n, seed,
                                            as_rows):
    rng = np.random.default_rng(seed)
    a = rng.integers(-1, 2, size=n).astype(np.int8)
    b = rng.integers(-1, 2, size=n).astype(np.int8)
    a[(a == 0) & (b == 0)] = 1
    records = CoincidenceRecords(windows(rng, n),
                                 rng.integers(-1, len(settings_a), size=n),     # -1: unknown
                                 rng.integers(-1, len(settings_b), size=n),
                                 a, b, tuple(settings_a), tuple(settings_b))
    if as_rows:     # the same records as labelled rows, coded again in label order
        records = CoincidenceRecords.from_rows(
            [(r.window, r.sp.x, r.sp.y, r.a, r.b) for r in records])
    directory = tmp_path_factory.mktemp("csv")
    got = written(write_coincidence_csv, records, directory / "got.csv")
    assert got == written(oracle_write_coincidence_csv, records, directory / "want.csv")


@given(labels=st.lists(LABELS, min_size=1, max_size=4, unique=True), n=SIZES,
       seed=st.integers(0, 2 ** 32 - 1), station=st.sampled_from("AB"))
def test_timetag_file_matches_line_writer(tmp_path_factory, labels, n, seed, station):
    rng = np.random.default_rng(seed)
    stream = ClickStream(station, windows(rng, n), rng.integers(0, len(labels), size=n),
                         rng.choice(np.array([-1, 1], dtype=np.int8), size=n), tuple(labels))
    directory = tmp_path_factory.mktemp("timetag")
    got = written(write_timetag_file, stream, directory / "got.txt")
    assert got == written(oracle_write_timetag_file, stream, directory / "want.txt")
