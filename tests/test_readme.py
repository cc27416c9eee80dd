"""The README's library sketch runs as written, and its list of config
keys is the one the command line reads.

The python block under "Library sketch" is executed as a script; the
names it leaves behind are then checked against the package: the stream
pipeline paired every window with a known setting pair, and the joint
spec built by ``JointSpec.from_correlation_set`` carries the estimated
correlators and marginals of each setting pair, and the model built with
the constructor is valid and round-trips through a model file.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from bellsim import modelio
from bellsim.cli import _build_parser, _config_keys
from bellsim.core import validate_model

from helpers import ORACLE_CONFIG_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    names = {"__name__": "readme_sketch"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), str(README), "exec"), names)
    s_max, max_delta = (float(v) for v in out.getvalue().splitlines()[0].split())
    feasible = out.getvalue().splitlines()[1]
    assert 0.0 <= s_max <= 4.0 and max_delta >= 0.0
    assert feasible in ("True", "False")

    records, cs, spec = names["records"], names["cs"], names["spec"]
    assert len(records) > 0 and (records.x >= 0).all() and (records.y >= 0).all()
    assert (spec.settings_a, spec.settings_b) == (cs.settings_a, cs.settings_b)
    for sp in cs.pair_order():
        stats = cs.stats(*sp)
        assert (spec.e_ab[sp], spec.e_a[sp], spec.e_b[sp]) == (stats.e_ab, stats.e_a, stats.e_b)

    model = names["model"]
    assert validate_model(model) == []
    assert modelio.loads(modelio.dumps(model)) == model


def test_config_keys_are_the_readme_keys():
    text = README.read_text(encoding="utf-8")
    sentence = text[text.index("can supply these keys:"):text.index("(a `-` may")]
    keys = re.findall(r"`(\w+)`", sentence)
    assert len(keys) == 12
    config_keys = _config_keys(_build_parser()[1]["simulate"])
    assert list(config_keys) == keys
    assert config_keys == ORACLE_CONFIG_KEYS
