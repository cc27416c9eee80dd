"""Time bellsim's set-up for one workload in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD INPUTS_JSON

Set-up is what the program does before its first op: importing bellsim and
building and validating the workload's scenarios, models or specs.  The
benchmark's inputs are read before the clock starts.  The speed kernel
(see ``speed.py``) runs just before and just after the set-up.  Prints
``{"setup_s": seconds at the reference speed, "wall_s": seconds}``.
"""

import json
import sys
import time
from fractions import Fraction

import speed


def _value(v):
    return Fraction(v) if isinstance(v, str) else v


def main(workload, inputs_path):
    with open(inputs_path, encoding="ascii") as fh:
        inputs = json.load(fh)
    if workload == "coupling":
        with open(inputs["specs"], encoding="ascii") as fh:
            specs = [{key: {(x, y): _value(v) for x, y, v in rows} for key, rows in s.items()}
                     for s in json.load(fh)]

    kernel_before = speed.kernel_seconds()
    start = time.perf_counter()
    if workload in ("simulate", "analyze"):
        import bellsim.cli
        from bellsim.core import ensure_valid
        from bellsim.scenarios import build_scenario

        for name in inputs.get("scenarios", ()):
            ensure_valid(build_scenario(name).model)
    elif workload == "exact":
        from bellsim import modelio
        from bellsim.core import ensure_valid

        for path in inputs["models"]:
            ensure_valid(modelio.load(path))
    elif workload == "coupling":
        from bellsim.coupling import JointSpec

        for s in specs:
            JointSpec((1, 2), (1, 2), s["e_ab"], s["e_a"], s["e_b"])
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    elapsed = time.perf_counter() - start
    kernel = (kernel_before + speed.kernel_seconds()) / 2
    print(json.dumps({"setup_s": elapsed * speed.REFERENCE_S / kernel, "wall_s": elapsed}))


if __name__ == "__main__":
    main(*sys.argv[1:])
