"""One setting order for every report.

A report lists settings in the label order of its ``CoincidenceRecords``,
keeping the labels that occur in a pair with both settings known.
Readers put labels in canonical order (ints numerically, then strings),
so what ``bellsim analyze`` writes cannot depend on the order of the
records it reads.  Swapping stations A and B transposes every count
table, swaps ``e_a`` and ``e_b``, and moves the CHSH patterns and the
no-signalling deltas to where the swap predicts.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bellsim.cli import main
from bellsim.core import SettingPair
from bellsim.estimators import chsh, estimate_postselected, estimate_raw, no_signalling
from bellsim.errors import EmptyCell, MissingPair
from bellsim.streams import CoincidenceRecords

LABELS = (1, 2, -1, 10, "a", "b", "h")
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (0, -1))


@st.composite
def rows(draw):
    """``(window, x, y, a, b)`` rows over one to three int or string
    labels per station, mostly two; a silent side's setting may be unknown."""
    labels_a, labels_b = (draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n,
                                        unique=True))
                          for n in draw(st.tuples(*[st.sampled_from((2, 2, 2, 1, 3))] * 2)))
    out = []
    for window in range(draw(st.integers(0, 60))):
        a, b = draw(st.sampled_from(OUTCOME_PAIRS))
        x, y = draw(st.sampled_from(labels_a)), draw(st.sampled_from(labels_b))
        if a == 0 and draw(st.booleans()):
            x = None
        if b == 0 and draw(st.booleans()):
            y = None
        out.append((window, x, y, a, b))
    return out


def _analyze(directory: Path, body: list, out_name: str) -> tuple:
    """``bellsim analyze --coincidences`` on a CSV of ``body`` rows, always
    at the same path, so that the report names the same input; the exit
    code, stdout, stderr and every file written to ``out_name``."""
    with (directory / "in.csv").open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "x", "y", "a", "b"])
        writer.writerows(["" if v is None else v for v in row] for row in body)
    out = directory / out_name
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["analyze", "--coincidences", str(directory / "in.csv"),
                     "--out-dir", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(max_examples=60)
@given(body=rows(), data=st.data())
def test_analyze_ignores_the_order_of_csv_rows(body, data):
    permuted = data.draw(st.permutations(body))
    with tempfile.TemporaryDirectory() as tmp:
        want = _analyze(Path(tmp), body, "given")
        assert _analyze(Path(tmp), permuted, "permuted") == want


def test_analyze_reports_the_roadmap_records_in_label_order(tmp_path):
    """Reversing the first four records once reversed the pair order and
    flipped every delta."""
    body = [(0, 1, 1, 1, 1), (1, 1, 2, 1, -1), (2, 2, 1, -1, 1), (3, 2, 2, 1, 1),
            (4, 1, 1, -1, -1)]
    for name, records in (("given", body), ("reversed", body[3::-1] + body[4:])):
        code, _, _, files = _analyze(tmp_path, records, name)
        assert code == 0
        raw = json.loads(files["analysis.json"])["raw"]
        assert raw["chsh"]["pair_order"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert [d["delta"] for d in raw["no_signalling"]["deltas"]] == [-1, -2, -1, -2]


# Inline check-coupling values per (x, y): e_ab, e_a, e_b.  The first set
# is the moments of a classical distribution, so the run prints a witness;
# the second breaks a CHSH bound.
_COUPLING_VALUES = (
    {("2", "1"): (0.5, 0.25, 0.75), ("2", "b"): (0.0, 0.25, 0.25),
     ("10", "1"): (-0.25, 0.0, 0.75), ("10", "b"): (0.25, 0.0, 0.25)},
    {("2", "1"): (0.7, 0.0, 0.0), ("2", "b"): (0.7, 0.0, 0.0),
     ("10", "1"): (0.7, 0.0, 0.0), ("10", "b"): (-0.7, 0.0, 0.0)},
)


def _check_coupling(directory: Path, triples: list) -> tuple:
    """``bellsim check-coupling`` on inline ``(flag, x, y, value)`` triples;
    the exit code, stdout and ``coupling.json``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["check-coupling", *(arg for triple in triples for arg in triple),
                     "--out-dir", str(directory)])
    return code, stdout.getvalue(), (directory / "coupling.json").read_bytes()


@settings(max_examples=40)
@given(values=st.sampled_from(_COUPLING_VALUES), data=st.data())
def test_check_coupling_ignores_the_order_of_inline_flags(values, data):
    triples = [(flag, x, y, str(v[k])) for (x, y), v in values.items()
               for k, flag in enumerate(("--corr", "--mean-a", "--mean-b"))]
    permuted = data.draw(st.permutations(triples))
    with tempfile.TemporaryDirectory() as tmp:
        want = _check_coupling(Path(tmp), triples)
        assert _check_coupling(Path(tmp), permuted) == want
    spec = json.loads(want[2])["spec"]
    assert (spec["settings_a"], spec["settings_b"]) == ([2, 10], [1, "b"])


def _estimates(records):
    out = []
    for estimate in (estimate_raw, estimate_postselected):
        try:
            cs = estimate(records)
        except EmptyCell as exc:
            out.append(str(exc))
        else:
            out.append((cs, list(cs.pairs)))     # dict equality ignores order
    return out


@given(body=rows(), data=st.data())
def test_estimates_ignore_the_order_of_records(body, data):
    permuted = data.draw(st.permutations(body))
    want = _estimates(CoincidenceRecords.from_rows(body))
    assert _estimates(CoincidenceRecords.from_rows(permuted)) == want


def test_labels_are_read_in_canonical_order():
    records = CoincidenceRecords.from_rows(
        [(0, "b", 2, 1, 1), (1, 10, "a", 1, 1), (2, -1, 2, 1, -1), (3, 2, None, 1, 0)])
    assert records.settings_a == (-1, 2, 10, "b")
    assert records.settings_b == (2, "a")


def test_other_labels_follow_ints_and_strings_by_repr():
    """Labels of other types reach the records only through the Python
    API; they sort after ints and strings, by ``repr``, and never raise."""
    labels = [(1, 2), 3, "s", (0,), 2.5, (1, "x"), True]
    body = [(i, label, 1, 1, 1) for i, label in enumerate(labels)]
    for order in (body, body[::-1]):
        records = CoincidenceRecords.from_rows(order)
        assert records.settings_a == (True, 3, "s", (0,), (1, "x"), (1, 2), 2.5)
        cs = estimate_raw(records)
        assert cs.settings_a == records.settings_a
        assert list(cs.pairs) == [SettingPair(x, 1) for x in records.settings_a]


def _swap(pattern: str) -> str:
    """A CHSH pattern after the swap: pair order (x0 y0, x0 y1, x1 y0, x1 y1)
    becomes (y0 x0, y0 x1, y1 x0, y1 x1), which exchanges the middle two."""
    return pattern[0] + pattern[2] + pattern[1] + pattern[3]


@given(body=rows())
def test_swapping_stations_transposes_every_report(body):
    records = CoincidenceRecords.from_rows(body)
    swapped = CoincidenceRecords.from_rows([(w, y, x, b, a) for w, x, y, a, b in body])
    settings_a, settings_b, tables, unassigned = records.count_tables
    assert swapped.count_tables == (
        settings_b, settings_a,
        {SettingPair(y, x): [list(col) for col in zip(*table)]
         for (x, y), table in tables.items()},
        unassigned)
    for estimate in (estimate_raw, estimate_postselected):
        try:
            cs = estimate(records)
        except EmptyCell:
            with pytest.raises(EmptyCell):
                estimate(swapped)
            continue
        cs_swapped = estimate(swapped)
        assert (cs_swapped.settings_a, cs_swapped.settings_b) == (cs.settings_b, cs.settings_a)
        for (x, y), p in cs.pairs.items():
            assert cs_swapped.pairs[SettingPair(y, x)] == p._replace(
                e_a=p.e_b, e_b=p.e_a, se_a=p.se_b, se_b=p.se_a)
        try:
            report = chsh(cs)
        except MissingPair:
            continue
        report_swapped = chsh(cs_swapped)
        swapped_values = dict(report_swapped.s_values)
        for pattern, value in report.s_values:
            # The same four terms summed in another order: equal up to rounding.
            assert math.isclose(swapped_values[_swap(pattern)], value, rel_tol=0, abs_tol=1e-14)
        ns, ns_swapped = no_signalling(cs), no_signalling(cs_swapped)
        assert ns_swapped.deltas == tuple(
            d._replace(station="B" if d.station == "A" else "A")
            for d in ns.deltas[2:] + ns.deltas[:2])
