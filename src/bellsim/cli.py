"""Batch command-line front end.

Commands: ``simulate`` (model or scenario -> streams -> coincidences ->
reports), ``analyze`` (time-tag files or a coincidence CSV -> reports),
``check-coupling`` (joint spec -> feasibility verdict), ``scenario``
(export a shipped scenario) and ``list-scenarios``.

Exit codes: 0 success, 2 configuration error (including a missing or
unreadable file), 3 model validation failure, 4 input error (unparsable
line, non-ASCII byte, decreasing timestamp, or two settings at one station
in one window), 5 empty setting cell.  All printed tables are also
written machine-readably; identical configuration and seed produce
byte-identical artifacts whatever the thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import modelio
from .core import ensure_valid
from .modelio import _decode_label
from .coupling import (
    JointSpec,
    coupling_feasibility,
    coupling_result_to_dict,
    jointspec_to_dict,
    load_jointspec,
)
from .errors import (
    BellsimError,
    EmptyCell,
    InvalidModel,
    MissingPair,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
)
from .estimators import (
    POSTSELECTED,
    RAW,
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID_MODEL = 3
EXIT_PARSE = 4
EXIT_EMPTY_CELL = 5

# Keys accepted in a plain-text config file (key = value per line).
_CONFIG_KEYS = {
    "scenario": str,
    "model": str,
    "windows": int,
    "duration_ns": int,
    "window_ns": int,
    "setting_rule": str,
    "x": str,
    "y": str,
    "p_same": float,
    "detection_rate": float,
    "seed": int,
    "threads": int,
    "out_dir": str,
}


class ConfigError(BellsimError):
    pass


def _load_config(path) -> dict:
    try:
        text = modelio._read_ascii(Path(path))
    except ParseError as exc:      # a bad config file is a configuration error
        raise ConfigError(str(exc)) from None
    values = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_number}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
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


_CSV_COLUMNS = ("x", "y", "e_ab", "e_a", "e_b", "n_raw", "n_post", "c_hat",
                "se_ab", "se_a", "se_b")


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
        section = payload[conditioning]
        if "chsh" not in section:
            continue
        order = section["chsh"]["pair_order"]
        caption = (f"{conditioning} correlator per setting pair; "
                   f"pair index order: {order}")
        rows = list(enumerate(section["chsh"]["correlators"]))
        written += _write_plot_data(out_dir, f"correlators_{conditioning}", rows, caption)
        s_rows = list(enumerate(v["s"] for v in section["chsh"]["s_values"]))
        patterns = [v["pattern"] for v in section["chsh"]["s_values"]]
        caption = (f"{conditioning} CHSH value per sign pattern; "
                   f"pattern index order: {patterns}")
        written += _write_plot_data(out_dir, f"chsh_{conditioning}", s_rows, caption)
    return written


def _print_summary(payload: dict, header: str, written: list[str]) -> None:
    print(header)
    post = payload[POSTSELECTED]
    raw = payload[RAW]
    print(f"{'pair':>12} {'raw e_ab':>12} {'post e_ab':>12} {'c_hat':>8} {'n_raw':>8}")
    raw_pairs = {(p['x'], p['y']): p for p in raw["correlations"]["pairs"]}
    for p in post["correlations"]["pairs"]:
        key = (p["x"], p["y"])
        raw_e = raw_pairs[key]["e_ab"] if key in raw_pairs else float("nan")
        print(f"{str(key):>12} {raw_e:>12.5f} {p['e_ab']:>12.5f} "
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


def _build_rule(args, model):
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
    if args.scenario is not None:
        model = build_scenario(args.scenario, p_same=args.p_same).model
        header_name = f"scenario {args.scenario}"
    else:
        if args.p_same is not None:
            raise ConfigError("--p-same only applies to --scenario lhvm-socks")
        model = modelio.load(args.model)
        header_name = f"model {args.model}"
    ensure_valid(model)
    if args.windows is not None:
        schedule = Schedule.for_windows(args.windows, args.window_ns, _build_rule(args, model))
    elif args.duration_ns is not None:
        schedule = Schedule(args.duration_ns, args.window_ns, _build_rule(args, model))
    else:
        raise ConfigError("one of --windows or --duration-ns is required")

    out = _out_dir(args)
    stream_a, stream_b = generate_streams(model, schedule, args.detection_rate,
                                          args.seed, workers=args.threads)
    written = []
    if args.write_streams:
        write_timetag_file(stream_a, out / "stream_a.txt")
        write_timetag_file(stream_b, out / "stream_b.txt")
        written += ["stream_a.txt", "stream_b.txt"]
    assignment = schedule_settings(model, schedule, args.seed)
    pairing = pair_coincidences(stream_a, stream_b, schedule.window_ns, assignment)
    write_coincidence_csv(pairing.records, out / "coincidences.csv")
    written.append("coincidences.csv")
    payload = _analysis_payload(pairing.records)
    payload["run"] = {
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
    written += _emit_analysis(out, payload)
    _print_summary(payload, f"{header_name} | windows {schedule.n_windows} | "
                            f"seed {args.seed} | rule {args.setting_rule}", written)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    have_streams = args.stream_a is not None or args.stream_b is not None
    if have_streams == (args.coincidences is not None):
        raise ConfigError("pass either --stream-a/--stream-b or --coincidences")
    out = _out_dir(args)
    written = []
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
        write_coincidence_csv(records, out / "coincidences.csv")
        written.append("coincidences.csv")
        source = f"streams {args.stream_a} {args.stream_b} (W = {args.window_ns} ns)"
    else:
        records = read_coincidence_csv(args.coincidences)
        source = f"coincidences {args.coincidences}"
    payload = _analysis_payload(records)
    payload["run"] = {"command": "analyze", "source": source, "records": len(records)}
    written += _emit_analysis(out, payload)
    _print_summary(payload, source, written)
    return EXIT_OK


def _inline_value(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{flag}: bad value {text!r}") from None


def _spec_from_flags(args) -> JointSpec:
    tables = {}
    for label, flag, rows in (("e_ab", "--corr", args.corr), ("e_a", "--mean-a", args.mean_a),
                              ("e_b", "--mean-b", args.mean_b)):
        if not rows:
            raise ConfigError(f"--spec missing and no inline {label} values given")
        tables[label] = {(_decode_label(x), _decode_label(y)): _inline_value(flag, v)
                         for x, y, v in rows}
    xs = tuple(dict.fromkeys(x for x, _ in tables["e_ab"]))
    ys = tuple(dict.fromkeys(y for _, y in tables["e_ab"]))
    return JointSpec(xs, ys, tables["e_ab"], tables["e_a"], tables["e_b"])


def _cmd_check_coupling(args) -> int:
    if args.spec is not None:
        spec = load_jointspec(args.spec)
    else:
        spec = _spec_from_flags(args)
    result = coupling_feasibility(spec, exact=args.exact)
    payload = {"spec": jointspec_to_dict(spec), "result": coupling_result_to_dict(result)}
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "coupling.json", payload)
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
    scenario = build_scenario(args.name)
    out = _out_dir(args)
    modelio.save(scenario.model, out / f"{scenario.name}.model")
    expected = {}
    for conditioning, table in (("raw", scenario.expected_raw),
                                ("postselected", scenario.expected_postselected)):
        expected[conditioning] = [
            {"x": sp.x, "y": sp.y, "e_ab": float(r.e_ab), "e_a": float(r.e_a),
             "e_b": float(r.e_b), "c_xy": float(r.c_xy)}
            for sp, r in sorted(table.items(), key=lambda kv: str(kv[0]))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="simulate and analyse two-station correlation experiments")
    parser.add_argument("--config", help="plain-text config file (key = value)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a model end to end")
    sim.add_argument("--scenario", help="shipped scenario name")
    sim.add_argument("--model", help="model definition file")
    sim.add_argument("--windows", type=int)
    sim.add_argument("--duration-ns", type=int, dest="duration_ns")
    sim.add_argument("--window-ns", type=int, dest="window_ns")
    sim.add_argument("--setting-rule", dest="setting_rule",
                     choices=("fixed", "round-robin", "random"))
    sim.add_argument("--x", help="station A setting for the fixed rule")
    sim.add_argument("--y", help="station B setting for the fixed rule")
    sim.add_argument("--p-same", type=float, dest="p_same",
                     help="correlation knob of the lhvm-socks scenario")
    sim.add_argument("--detection-rate", type=float, dest="detection_rate")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--threads", type=int)
    sim.add_argument("--write-streams", action="store_true", dest="write_streams")
    sim.set_defaults(handler=_cmd_simulate)

    ana = sub.add_parser("analyze", help="analyse time-tag files or a coincidence CSV")
    ana.add_argument("--stream-a", dest="stream_a")
    ana.add_argument("--stream-b", dest="stream_b")
    ana.add_argument("--window-ns", type=int, dest="window_ns")
    ana.add_argument("--coincidences")
    ana.set_defaults(handler=_cmd_analyze)

    chk = sub.add_parser("check-coupling", help="joint-distribution feasibility")
    chk.add_argument("--spec", help="joint spec JSON file")
    chk.add_argument("--corr", nargs=3, action="append", metavar=("X", "Y", "V"),
                     help="inline correlator e_ab(x, y); repeat four times")
    chk.add_argument("--mean-a", nargs=3, action="append", dest="mean_a",
                     metavar=("X", "Y", "V"))
    chk.add_argument("--mean-b", nargs=3, action="append", dest="mean_b",
                     metavar=("X", "Y", "V"))
    chk.add_argument("--exact", action="store_true",
                     help="exact rational arithmetic in the feasibility solve")
    chk.set_defaults(handler=_cmd_check_coupling)

    sce = sub.add_parser("scenario", help="export a shipped scenario")
    sce.add_argument("--name", required=True)
    sce.set_defaults(handler=_cmd_scenario)

    lst = sub.add_parser("list-scenarios", help="list shipped scenarios")
    lst.set_defaults(handler=_cmd_list_scenarios)

    for p in (sim, ana, chk, sce, lst):
        p.add_argument("--out-dir", dest="out_dir",
                       help="output directory (default: $BELLSIM_OUT or .)")
    return parser


# Filled in after flags and config file are merged; flags win over the
# config file, the config file wins over these.
_FALLBACKS = {
    "window_ns": 1000,
    "setting_rule": "random",
    "detection_rate": 1.0,
    "threads": 1,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {} if args.config is None else _load_config(args.config)
        for key, value in {**_FALLBACKS, **overrides}.items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        if getattr(args, "out_dir", None) is None:
            args.out_dir = os.environ.get("BELLSIM_OUT", ".")
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidModel as exc:
        print("error: model validation failed", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except (ParseError, NonMonotonicTimestamps, SettingConflict) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EmptyCell, MissingPair) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CELL
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except BellsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
