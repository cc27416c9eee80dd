"""Batch command-line front end.

Commands: ``simulate`` (model or scenario -> streams -> coincidences ->
reports), ``analyze`` (time-tag files or a coincidence CSV -> reports),
``check-coupling`` (joint spec -> feasibility verdict), ``scenario``
(export a shipped scenario) and ``list-scenarios``.

Each fallback is the ``default=`` of its flag; ``--out-dir`` falls back
to ``$BELLSIM_OUT``, then ``.``.  A ``--config`` file (the keys of
``_config_keys``: the ``simulate`` flags that take a value) becomes the
invoked command's parser defaults and argv is parsed again, so a flag wins
over the file and the file over the fallback.

Exit codes (``_EXIT_CODES``): 0 success, 2 configuration error (including
a missing or unreadable file), 3 model validation failure, 4 input error
(unparsable line, non-ASCII byte, decreasing timestamp, or two settings at
one station in one window), 5 empty setting cell.  All printed tables are
also written machine-readably; identical configuration and seed produce
byte-identical artifacts whatever the thread count.

``coupling`` and ``modelio`` are imported by the handlers that use them,
so ``simulate`` on a shipped scenario loads neither.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .core import ensure_valid
from .errors import (
    BellsimError,
    EmptyCell,
    InvalidModel,
    MissingPair,
    ParseError,
    SettingConflict,
)
from .estimators import (
    POSTSELECTED,
    RAW,
    PairStats,
    chsh,
    chsh_report_to_dict,
    correlation_set_to_dict,
    estimate_postselected,
    estimate_raw,
    no_signalling,
    nosignalling_report_to_dict,
)
from .scenarios import build_scenario, scenario_names
from .streams import (
    FixedSettings,
    RandomSettings,
    RoundRobinSettings,
    Schedule,
    generate_streams,
    ingest_timetag_file,
    pair_coincidences,
    read_coincidence_csv,
    schedule_settings,
    write_coincidence_csv,
    write_timetag_file,
)
from .textio import _decode_label, _label_order, _lines, _read_ascii

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID_MODEL = 3
EXIT_PARSE = 4
EXIT_EMPTY_CELL = 5

class ConfigError(BellsimError):
    pass


def _config_keys(simulate) -> dict:
    """The keys a config file may set, each with the type its value is read
    as: the ``dest`` of every flag of the ``simulate`` parser that takes a
    value."""
    return {a.dest: a.type or str for a in simulate._actions if a.nargs != 0}


def _load_config(path, keys) -> dict:
    try:
        text = _read_ascii(Path(path))
    except ParseError as exc:      # a bad config file is a configuration error
        raise ConfigError(str(exc)) from None
    values, first = {}, {}
    for line_number, content in _lines(text):
        if "=" not in content:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value'")
        key, _, value = content.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{line_number}: unknown key {key!r}")
        if first.setdefault(key, line_number) != line_number:
            raise ConfigError(f"{path}:{line_number}: repeated key {key!r}, "
                              f"first on line {first[key]}")
        try:
            values[key] = keys[key](value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{line_number}: bad value for {key!r}") from None
    return values


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _write_plot_data(out_dir: Path, stem: str, rows, caption: str) -> list[str]:
    data = out_dir / f"{stem}.dat"
    lines = [f"# {caption}"] + [f"{i} {float(v)!r}" for i, v in rows]
    data.write_text("\n".join(lines) + "\n", encoding="ascii")
    caption_file = out_dir / f"{stem}.caption"
    caption_file.write_text(caption + "\n", encoding="ascii")
    return [data.name, caption_file.name]


def _analysis_payload(records) -> dict:
    """Estimate once per conditioning; every analysis output derives from this."""
    sections = {}
    for conditioning, cs in ((RAW, estimate_raw(records)),
                             (POSTSELECTED, estimate_postselected(records))):
        section = {"correlations": correlation_set_to_dict(cs)}
        # CHSH and no-signalling need all four setting pairs; partial data
        # still gets its correlation table.
        try:
            section["chsh"] = chsh_report_to_dict(chsh(cs))
            section["no_signalling"] = nosignalling_report_to_dict(no_signalling(cs))
        except MissingPair as exc:
            section["unavailable"] = str(exc)
        sections[conditioning] = section
    return sections


_CSV_COLUMNS = ("x", "y") + PairStats._fields


def _emit_analysis(out_dir: Path, payload: dict) -> list[str]:
    written = []
    _write_json(out_dir / "analysis.json", payload)
    written.append("analysis.json")
    for conditioning in (RAW, POSTSELECTED):
        csv_path = out_dir / f"correlations_{conditioning}.csv"
        with csv_path.open("w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(("conditioning",) + _CSV_COLUMNS)
            for pair in payload[conditioning]["correlations"]["pairs"]:
                writer.writerow([conditioning] + [pair[k] for k in _CSV_COLUMNS])
        written.append(csv_path.name)
    for conditioning in (RAW, POSTSELECTED):
        report = payload[conditioning].get("chsh")
        if report is None:
            continue
        s_values = report["s_values"]
        for stem, what, values, order in (
                ("correlators", "correlator per setting pair; pair",
                 report["correlators"], report["pair_order"]),
                ("chsh", "CHSH value per sign pattern; pattern",
                 [v["s"] for v in s_values], [v["pattern"] for v in s_values])):
            caption = f"{conditioning} {what} index order: {order}"
            written += _write_plot_data(out_dir, f"{stem}_{conditioning}",
                                        enumerate(values), caption)
    return written


def _print_summary(payload: dict, header: str, written: list[str]) -> None:
    print(header)
    post = payload[POSTSELECTED]
    raw = payload[RAW]
    print(f"{'pair':>12} {'raw e_ab':>12} {'post e_ab':>12} {'c_hat':>8} {'n_raw':>8}")
    # Both conditionings list the same pairs, in the same order.
    for r, p in zip(raw["correlations"]["pairs"], post["correlations"]["pairs"]):
        print(f"{str((p['x'], p['y'])):>12} {r['e_ab']:>12.5f} {p['e_ab']:>12.5f} "
              f"{p['c_hat']:>8.4f} {p['n_raw']:>8}")
    for conditioning, section in ((RAW, raw), (POSTSELECTED, post)):
        if "chsh" not in section:
            print(f"{conditioning}: CHSH/no-signalling unavailable "
                  f"({section['unavailable']})")
            continue
        report = section["chsh"]
        ns = section["no_signalling"]
        z = ns["max_abs_z"]
        z_text = "n/a" if z is None else f"{z:.2f}"
        print(f"{conditioning}: s_max_abs = {report['s_max_abs']:.6f} "
              f"(se {report['se_s']:.6f}), no-signalling max |delta| = "
              f"{ns['max_abs_delta']:.6f}, max |z| = {z_text}")
    print("wrote: " + " ".join(written))


def _report(out: Path, records, run: dict, header: str, written: list[str]) -> int:
    """The common end of ``simulate`` and ``analyze``: estimate, write the
    analysis files and print the summary."""
    payload = _analysis_payload(records)
    payload["run"] = run
    written += _emit_analysis(out, payload)
    _print_summary(payload, header, written)
    return EXIT_OK


def _build_rule(args):
    if args.setting_rule == "fixed":
        if args.x is None or args.y is None:
            raise ConfigError("fixed rule needs --x and --y")
        return FixedSettings(_decode_label(args.x), _decode_label(args.y))
    if args.setting_rule == "round-robin":
        return RoundRobinSettings()
    if args.setting_rule == "random":
        return RandomSettings()
    raise ConfigError(f"unknown setting rule {args.setting_rule!r}")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    if (args.scenario is None) == (args.model is None):
        raise ConfigError("exactly one of --scenario or --model is required")
    if args.seed is None:
        raise ConfigError("seed required: stochastic commands must be reproducible")
    if args.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if args.threads < 1:
        raise ConfigError("threads must be a positive integer")
    if args.scenario is not None:
        model = build_scenario(args.scenario, p_same=args.p_same).model
        header_name = f"scenario {args.scenario}"
    else:
        if args.p_same is not None:
            raise ConfigError("--p-same only applies to --scenario lhvm-socks")
        from . import modelio

        model = modelio.load(args.model)
        header_name = f"model {args.model}"
    ensure_valid(model)
    if args.windows is None:
        raise ConfigError("--windows is required")
    schedule = Schedule(args.windows, args.window_ns, _build_rule(args))

    stream_a, stream_b = generate_streams(model, schedule, args.detection_rate,
                                          args.seed, workers=args.threads)
    # The output directory exists only once generation has succeeded.
    out = _out_dir(args)
    written = []
    if args.write_streams:
        write_timetag_file(stream_a, out / "stream_a.txt")
        write_timetag_file(stream_b, out / "stream_b.txt")
        written += ["stream_a.txt", "stream_b.txt"]
    assignment = schedule_settings(model, schedule, args.seed)
    pairing = pair_coincidences(stream_a, stream_b, schedule.window_ns, assignment)
    del stream_a, stream_b, assignment      # the records are all that is left to use
    write_coincidence_csv(pairing.records, out / "coincidences.csv")
    written.append("coincidences.csv")
    run = {
        "command": "simulate",
        "source": header_name,
        "windows": schedule.n_windows,
        "window_ns": schedule.window_ns,
        "setting_rule": args.setting_rule,
        "detection_rate": args.detection_rate,
        "seed": args.seed,
        "dropped_a": pairing.dropped_a,
        "dropped_b": pairing.dropped_b,
    }
    return _report(out, pairing.records, run, f"{header_name} | windows {schedule.n_windows} | "
                   f"seed {args.seed} | rule {args.setting_rule}", written)


def _cmd_analyze(args) -> int:
    have_streams = args.stream_a is not None or args.stream_b is not None
    if have_streams == (args.coincidences is not None):
        raise ConfigError("pass either --stream-a/--stream-b or --coincidences")
    if have_streams:
        if args.stream_a is None or args.stream_b is None:
            raise ConfigError("both --stream-a and --stream-b are required")
        stream_a = ingest_timetag_file(args.stream_a, station="A")
        stream_b = ingest_timetag_file(args.stream_b, station="B")
        try:
            pairing = pair_coincidences(stream_a, stream_b, args.window_ns)
        except SettingConflict as exc:
            path = args.stream_a if exc.station == "A" else args.stream_b
            raise SettingConflict(f"{path}: {exc}") from None
        records = pairing.records
        source = f"streams {args.stream_a} {args.stream_b} (W = {args.window_ns} ns)"
    else:
        records = read_coincidence_csv(args.coincidences)
        source = f"coincidences {args.coincidences}"
    # The output directory exists only once the inputs are read and paired.
    out = _out_dir(args)
    written = []
    if have_streams:
        write_coincidence_csv(records, out / "coincidences.csv")
        written.append("coincidences.csv")
    run = {"command": "analyze", "source": source, "records": len(records)}
    return _report(out, records, run, source, written)


def _inline_value(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{flag}: bad value {text!r}") from None


def _spec_from_flags(args):
    from .coupling import jointspec_from_dict

    data = {}
    for label, flag, rows in (("e_ab", "--corr", args.corr), ("e_a", "--mean-a", args.mean_a),
                              ("e_b", "--mean-b", args.mean_b)):
        if not rows:
            raise ConfigError(f"--spec missing and no inline {label} values given")
        data[label] = [[_decode_label(x), _decode_label(y), _inline_value(flag, v)]
                       for x, y, v in rows]
    data["settings_a"] = _label_order(x for x, _, _ in data["e_ab"])
    data["settings_b"] = _label_order(y for _, y, _ in data["e_ab"])
    return jointspec_from_dict(data)


def _cmd_check_coupling(args) -> int:
    from .coupling import (
        coupling_feasibility,
        coupling_result_to_dict,
        jointspec_to_dict,
        load_jointspec,
    )

    if args.spec is not None:
        if args.corr or args.mean_a or args.mean_b:
            raise ConfigError("pass either --spec or inline --corr/--mean-a/--mean-b values")
        spec = load_jointspec(args.spec)
    else:
        spec = _spec_from_flags(args)
    result = coupling_feasibility(spec, exact=args.exact)
    payload = {"spec": jointspec_to_dict(spec), "result": coupling_result_to_dict(result)}
    _write_json(_out_dir(args) / "coupling.json", payload)
    if result.feasible:
        print("feasible: a joint distribution over the sign quadruples exists")
        for atom, p in result.witness.items():
            if p > 0:
                print(f"  p{tuple(atom)} = {float(p)!r}")
    else:
        print("infeasible: no joint distribution matches the spec")
        print(f"  certificate: {result.certificate}")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    from . import modelio

    scenario = build_scenario(args.name)
    out = _out_dir(args)
    modelio.save(scenario.model, out / f"{scenario.name}.model")
    expected = {}
    for conditioning, table in (("raw", scenario.expected_raw),
                                ("postselected", scenario.expected_postselected)):
        expected[conditioning] = [
            {"x": sp.x, "y": sp.y, "e_ab": float(r.e_ab), "e_a": float(r.e_a),
             "e_b": float(r.e_b), "c_xy": float(r.c_xy)}
            for sp, r in table.items()
        ]
    expected["s_max_abs_raw"] = float(scenario.s_max_abs_raw)
    expected["s_max_abs_postselected"] = float(scenario.s_max_abs_postselected)
    _write_json(out / f"{scenario.name}.expected.json", expected)
    print(f"{scenario.name}: {scenario.description}")
    print(f"wrote: {scenario.name}.model {scenario.name}.expected.json")
    return EXIT_OK


def _cmd_list_scenarios(_args) -> int:
    for name in scenario_names():
        print(f"{name:12} {build_scenario(name).description}")
    return EXIT_OK


def _build_parser():
    """The ``bellsim`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="simulate and analyse two-station correlation experiments")
    parser.add_argument("--config", help="plain-text config file (key = value)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a model end to end")
    sim.add_argument("--scenario", help="shipped scenario name")
    sim.add_argument("--model", help="model definition file")
    sim.add_argument("--windows", type=int)
    sim.add_argument("--window-ns", type=int, default=1000)
    sim.add_argument("--setting-rule", choices=("fixed", "round-robin", "random"),
                     default="random")
    sim.add_argument("--x", help="station A setting for the fixed rule")
    sim.add_argument("--y", help="station B setting for the fixed rule")
    sim.add_argument("--p-same", type=float,
                     help="correlation knob of the lhvm-socks scenario")
    sim.add_argument("--detection-rate", type=float, default=1.0)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--write-streams", action="store_true")
    sim.set_defaults(handler=_cmd_simulate)

    ana = sub.add_parser("analyze", help="analyse time-tag files or a coincidence CSV")
    ana.add_argument("--stream-a")
    ana.add_argument("--stream-b")
    ana.add_argument("--window-ns", type=int, default=1000)
    ana.add_argument("--coincidences")
    ana.set_defaults(handler=_cmd_analyze)

    chk = sub.add_parser("check-coupling", help="joint-distribution feasibility")
    chk.add_argument("--spec", help="joint spec JSON file")
    chk.add_argument("--corr", nargs=3, action="append", metavar=("X", "Y", "V"),
                     help="inline correlator e_ab(x, y); repeat four times")
    chk.add_argument("--mean-a", nargs=3, action="append", metavar=("X", "Y", "V"))
    chk.add_argument("--mean-b", nargs=3, action="append", metavar=("X", "Y", "V"))
    chk.add_argument("--exact", action="store_true",
                     help="exact rational arithmetic in the feasibility solve")
    chk.set_defaults(handler=_cmd_check_coupling)

    sce = sub.add_parser("scenario", help="export a shipped scenario")
    sce.add_argument("--name", required=True)
    sce.set_defaults(handler=_cmd_scenario)

    lst = sub.add_parser("list-scenarios", help="list shipped scenarios")
    lst.set_defaults(handler=_cmd_list_scenarios)

    out_dir = os.environ.get("BELLSIM_OUT", ".")
    for p in sub.choices.values():
        p.add_argument("--out-dir", default=out_dir,
                       help="output directory (default: $BELLSIM_OUT or .)")
    return parser, sub.choices


# Exit code of an error: the first row whose classes it is an instance of.
_EXIT_CODES = (
    (InvalidModel, EXIT_INVALID_MODEL),
    ((ParseError, SettingConflict), EXIT_PARSE),
    ((EmptyCell, MissingPair), EXIT_EMPTY_CELL),
    ((BellsimError, OSError), EXIT_CONFIG),
)


def main(argv=None) -> int:
    # A fresh parser per call: the config file's defaults must not outlive it.
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            keys = _config_keys(commands["simulate"])
            commands[args.command].set_defaults(**_load_config(args.config, keys))
            args = parser.parse_args(argv)
        return args.handler(args)
    except (BellsimError, OSError) as exc:
        if isinstance(exc, InvalidModel):
            message = "\n  ".join(["model validation failed", *exc.violations])
        elif isinstance(exc, OSError):
            reason = exc.strerror or str(exc)
            message = reason if exc.filename is None else f"{exc.filename}: {reason}"
        else:
            message = str(exc)
        print(f"error: {message}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
