"""Setting labels: one canonical order and one written text.

``textio._label_order`` orders labels (ints numerically, then strings,
then the rest by ``repr``) for the readers, the inline ``check-coupling``
spec and the setting-conflict message.  ``textio._label_text`` is the text
every writer puts down for a label, refused unless it reads back as the
label: the model and time-tag writers refuse the same labels, the CSV
writer, which quotes, a subset of them, and every label a writer accepts
comes back equal from its reader.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellsim import modelio
from bellsim.core import ExperimentModel, ModelVariant
from bellsim.errors import BellsimError, SettingConflict
from bellsim.streams import (
    ClickStream,
    CoincidenceRecords,
    ingest_timetag_file,
    pair_coincidences,
    read_coincidence_csv,
    write_coincidence_csv,
    write_timetag_file,
)

LABELS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-100, 100).map(np.int64),
    st.integers(-100, 100).map(str),
    st.sampled_from(("01", "+1", "1_0", " 1", "a b", "a\tb", "x\r\ny", "#", "a#b", "#x",
                     "é", "xé", "", "x", "a,b", 'q"x', "True", "1.5")),
    st.text(max_size=4),
    st.booleans(),
    st.floats(),
    st.tuples(st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.sampled_from(("a", "b c"))),
)


def refusal(write, kind, label):
    """None when ``write()`` succeeds; otherwise its BellsimError, whose
    message must be the one label refusal message."""
    try:
        write()
    except BellsimError as exc:
        assert str(exc) == f"label {label!r} would not read back from a {kind} file"
        return exc
    return None


@given(label=LABELS)
def test_writers_share_one_label_rule(tmp_path_factory, label):
    directory = tmp_path_factory.mktemp("labels")
    model = ExperimentModel(ModelVariant.QUANTUM, (label,), (label,), angles_a={label: 0.0},
                            angles_b={label: 0.5})
    clicks = ClickStream("A", [0, 5], [0, 0], [1, -1], (label,))
    records = CoincidenceRecords(np.array([0, 1]), np.array([0, -1]), np.array([0, 0]),
                                 np.array([1, 0], dtype=np.int8),
                                 np.array([-1, 1], dtype=np.int8), (label,), (label,))
    refused = {
        "model": refusal(lambda: modelio.save(model, directory / "m.model"), "model", label),
        "time-tag": refusal(lambda: write_timetag_file(clicks, directory / "t.txt"),
                            "time-tag", label),
        "CSV": refusal(lambda: write_coincidence_csv(records, directory / "c.csv"), "CSV", label),
    }
    assert (refused["model"] is None) == (refused["time-tag"] is None)
    assert refused["time-tag"] is not None or refused["CSV"] is None
    if refused["model"] is None:
        assert modelio.load(directory / "m.model") == model
    if refused["time-tag"] is None:
        again = ingest_timetag_file(directory / "t.txt", "A")
        assert again.labels == (label,)
        assert (again.t.tolist(), again.setting.tolist(), again.value.tolist()) == (
            [0, 5], [0, 0], [1, -1])
    if refused["CSV"] is None:
        assert list(read_coincidence_csv(directory / "c.csv")) == list(records)


@pytest.mark.parametrize("label, refused_by", [
    (1, ()), (np.int64(-4), ()), ("x", ()), ("a b", ("model", "time-tag")),
    ("a#b", ("model", "time-tag")), ("1", ("model", "time-tag", "CSV")),
    ("", ("model", "time-tag", "CSV")), ("é", ("model", "time-tag", "CSV")),
    (True, ("model", "time-tag", "CSV")), (1.5, ("model", "time-tag", "CSV")),
    ((1, 2), ("model", "time-tag", "CSV")),
])
def test_which_writers_refuse_a_label(label, refused_by, tmp_path):
    writers = {
        "model": lambda: modelio.dumps(
            ExperimentModel(ModelVariant.QUANTUM, (label,), (label,), angles_a={label: 0.0},
                            angles_b={label: 0.5})),
        "time-tag": lambda: write_timetag_file(ClickStream("A", [0], [0], [1], (label,)),
                                               tmp_path / "t.txt"),
        "CSV": lambda: write_coincidence_csv(
            CoincidenceRecords.from_rows([(0, label, label, 1, 1)]), tmp_path / "c.csv"),
    }
    got = tuple(kind for kind, write in writers.items() if refusal(write, kind, label))
    assert got == refused_by


@pytest.mark.parametrize("labels", [(2, 10), (10, 2), ("b", 10), (-1, "a", 3)])
def test_setting_conflict_lists_labels_in_label_order(labels):
    stream = ClickStream("A", [3] * len(labels), range(len(labels)), [1] * len(labels), labels)
    other = ClickStream("B", [3], [0], [1], (1,))
    want = sorted(labels, key=lambda v: (isinstance(v, str), v))
    with pytest.raises(SettingConflict) as caught:
        pair_coincidences(stream, other, 10)
    assert str(caught.value) == f"station A, window 0: settings {want}"
