import errno
import json
import os
import sys
from fractions import Fraction

import pytest

from bellsim import modelio
from bellsim.cli import main
from bellsim.coupling import JointSpec, save_jointspec
from bellsim.core import SettingPair
from bellsim.scenarios import lf_scenario

from helpers import count_validations


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:       # argparse refuses an unknown flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lf_spec_file(path):
    table = lf_scenario().expected_postselected
    spec = JointSpec.from_exact_results(table, (1, -1), (1, -1))
    save_jointspec(spec, path)
    return path


class TestSimulate:
    def test_lf_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "simulate", "--scenario", "lf",
                              "--windows", "4000", "--seed", "7",
                              "--out-dir", str(out))
        assert code == 0
        payload = json.loads((out / "analysis.json").read_text())
        pairs = {(p["x"], p["y"]): p for p in payload["postselected"]["correlations"]["pairs"]}
        assert pairs[(1, 1)]["e_ab"] == 1.0
        assert pairs[(-1, -1)]["e_ab"] == -1.0
        assert abs(payload["postselected"]["chsh"]["s_max_abs"] - 2) < 0.2
        assert (out / "coincidences.csv").exists()
        assert (out / "chsh_postselected.dat").exists()
        assert (out / "chsh_postselected.caption").exists()
        summary_csv = (out / "correlations_postselected.csv").read_text().splitlines()
        assert summary_csv[0].startswith("conditioning,x,y,e_ab")
        assert len(summary_csv) == 5
        assert "s_max_abs" in stdout

    def test_socks_with_perfect_correlation_hits_the_bound(self, tmp_path, capsys):
        out = tmp_path / "socks"
        code, _, _ = run(capsys, "simulate", "--scenario", "lhvm-socks",
                         "--p-same", "1", "--windows", "2000", "--seed", "11",
                         "--out-dir", str(out))
        assert code == 0
        payload = json.loads((out / "analysis.json").read_text())
        # Perfectly correlated coins: every sampled product is +-1 exactly.
        assert payload["postselected"]["chsh"]["s_max_abs"] == 2.0

    @pytest.mark.parametrize("source", ("scenario", "model"))
    def test_one_validation_per_run(self, source, tmp_path, capsys, monkeypatch):
        if source == "scenario":
            argv = ["--scenario", "m2-demo"]
        else:
            modelio.save(lf_scenario().model, tmp_path / "lf.model")
            argv = ["--model", str(tmp_path / "lf.model")]
        seen = count_validations(monkeypatch)
        code, _, _ = run(capsys, "simulate", *argv, "--windows", "2000", "--seed", "3",
                         "--threads", "2", "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert len(seen) == 1

    @pytest.mark.parametrize("flags, message", [
        (("--detection-rate", "2"), "detection_rate must be within [0, 1]"),
        (("--detection-rate", "nan"), "detection_rate must be within [0, 1]"),
        (("--setting-rule", "fixed", "--x", "5", "--y", "1"),
         "fixed settings (5, 1) not declared by the model"),
    ], ids=["rate-above-one", "rate-nan", "undeclared-fixed-setting"])
    def test_failure_leaves_no_output_directory(self, flags, message, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "simulate", "--scenario", "lf", "--windows", "10",
                           "--seed", "1", *flags, "--out-dir", "d1")
        assert (code, err) == (2, f"error: {message}\n")
        assert not (tmp_path / "d1").exists()

    def test_p_same_rejected_for_other_scenarios(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--scenario", "lf", "--p-same", "0.5",
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "p_same" in err

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--scenario", "lf",
                           "--windows", "10", "--out-dir", str(tmp_path))
        assert code == 2
        assert "seed required" in err

    def test_scenario_and_model_mutually_exclusive(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--scenario", "lf", "--model", "x",
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 2

    def test_invalid_model_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text(
            "variant m1\nsettings A 1 2\nsettings B 1 2\n"
            "begin source\n0 0 9/10\nend\n"
            "begin instruments A 1\n0 1\nend\nbegin instruments A 2\n0 1\nend\n"
            "begin instruments B 1\n0 1\nend\nbegin instruments B 2\n0 1\nend\n"
            "begin responses A 1\n0 0 1\nend\nbegin responses A 2\n0 0 1\nend\n"
            "begin responses B 1\n0 0 1\nend\nbegin responses B 2\n0 0 1\nend\n")
        code, _, err = run(capsys, "simulate", "--model", str(bad),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 3
        assert "sum to" in err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_exits_3(self, angle, tmp_path, capsys):
        path = tmp_path / "q.model"
        path.write_text("variant quantum\nsettings A 1 2\nsettings B 1 2\n"
                        f"begin angles A\n1 0.0\n2 {angle}\nend\n"
                        "begin angles B\n1 0.25\n2 1.0\nend\n")
        code, _, err = run(capsys, "simulate", "--model", str(path),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 3
        assert err == "error: model validation failed\n  angles A: angle for 2 is not finite\n"

    def test_overflowing_angle_difference_exits_3(self, tmp_path, capsys):
        path = tmp_path / "q.model"
        path.write_text("variant quantum\nsettings A 1 2\nsettings B 1 2\n"
                        "begin angles A\n1 1e308\n2 0.0\nend\n"
                        "begin angles B\n1 -1e308\n2 0.0\nend\n")
        code, _, err = run(capsys, "simulate", "--model", str(path),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 3
        assert err.startswith("error: model validation failed\n"
                              "  angles: difference for pair (1, 1) is not finite\n")

    @pytest.mark.parametrize("text, message", [
        ("variant lhvm\nsettings A 1\nsettings B 1\nbegin source\n0 0 1\n",
         "unterminated source block (missing 'end')"),
        ("version 1\n", "missing 'variant' line"),
    ], ids=("unterminated", "no-variant"))
    def test_model_error_without_a_line_exits_4(self, text, message, tmp_path, capsys):
        path = tmp_path / "u.model"
        path.write_text(text)
        code, _, err = run(capsys, "simulate", "--model", str(path),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 4
        assert err == f"error: {path}: {message}\n"

    def test_repeated_model_section_exits_4(self, tmp_path, capsys):
        path = tmp_path / "lf.model"
        scenario = lf_scenario()
        path.write_text(modelio.dumps(scenario.model) + "settings A 1 -1 7\n")
        code, _, err = run(capsys, "simulate", "--model", str(path),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        line = len(modelio.dumps(scenario.model).splitlines()) + 1
        assert code == 4
        assert err == f"error: {path}:{line}: repeated 'settings A', first on line 4\n"

    def test_missing_model_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.model"
        code, _, err = run(capsys, "simulate", "--model", str(missing),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert err == f"error: {missing}: No such file or directory\n"

    def test_unreadable_model_path_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--model", str(tmp_path),
                           "--windows", "10", "--seed", "1", "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"error: {tmp_path}: Is a directory\n"

    def test_seed_reproducibility_and_thread_independence(self, tmp_path, capsys):
        outputs = []
        for label, threads in (("t1", "1"), ("t1b", "1"), ("t4", "4")):
            out = tmp_path / label
            code, _, _ = run(capsys, "simulate", "--scenario", "m2-demo",
                             "--windows", "3000", "--seed", "99",
                             "--threads", threads, "--out-dir", str(out))
            assert code == 0
            outputs.append((
                (out / "coincidences.csv").read_bytes(),
                (out / "analysis.json").read_bytes(),
            ))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_config_file_supplies_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = lf\nwindows = 50\nseed = 5\n")
        out1 = tmp_path / "one"
        code, _, _ = run(capsys, "--config", str(config), "simulate",
                         "--out-dir", str(out1))
        assert code == 0
        run_info = json.loads((out1 / "analysis.json").read_text())["run"]
        assert run_info["seed"] == 5 and run_info["windows"] == 50
        out2 = tmp_path / "two"
        code, _, _ = run(capsys, "--config", str(config), "simulate",
                         "--seed", "6", "--out-dir", str(out2))
        run_info = json.loads((out2 / "analysis.json").read_text())["run"]
        assert run_info["seed"] == 6

    def test_negative_config_seed_exits_2_before_writing(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = lf\nwindows = 10\nseed = -1\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "--config", str(config), "simulate", "--out-dir", str(out))
        assert (code, err) == (2, "error: seed must be a non-negative integer\n")
        assert not out.exists()

    def test_zero_config_threads_exits_2_before_writing(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("scenario = lf\nwindows = 10\nseed = 1\nthreads = 0\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "--config", str(config), "simulate", "--out-dir", str(out))
        assert (code, err) == (2, "error: threads must be a positive integer\n")
        assert not out.exists()

    def test_last_window_start_just_inside_int64_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(capsys, "simulate", "--scenario", "quantum", "--windows", "2",
                         "--window-ns", str(2 ** 62), "--seed", "1", "--out-dir", str(out))
        assert code == 0
        rows = (out / "coincidences.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1"]

    def test_non_ascii_config_names_file_and_line_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"scenario = lf\nseed = 5 # \xff\n")
        code, _, err = run(capsys, "--config", str(config), "simulate",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert err == f"error: {config}:2: non-ASCII byte 0xff\n"

    def test_missing_config_names_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.cfg"
        code, _, err = run(capsys, "--config", str(missing), "simulate",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert err == f"error: {missing}: No such file or directory\n"


class TestAnalyze:
    def test_crafted_streams_match_hand_computed_records(self, tmp_path, capsys):
        # Window width 10.  A: t=3 (+1) and t=7 (-1) in window 0 (duplicate
        # dropped), t=12 (+1) in window 1.  B: t=5 (+1) in window 0,
        # t=13 (-1) in window 1, t=22 (-1) alone in window 2.
        stream_a = tmp_path / "a.txt"
        stream_a.write_text("3\t1\t+1\n7\t1\t-1\n12\t1\t+1\n")
        stream_b = tmp_path / "b.txt"
        stream_b.write_text("5\t2\t+1\n13\t2\t-1\n22\t1\t-1\n")
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "analyze", "--stream-a", str(stream_a),
                              "--stream-b", str(stream_b), "--window-ns", "10",
                              "--out-dir", str(out))
        assert code == 0
        csv_lines = (out / "coincidences.csv").read_text().splitlines()
        assert csv_lines == [
            "window,x,y,a,b",
            "0,1,2,1,1",
            "1,1,2,1,-1",
            "2,,1,0,-1",
        ]
        payload = json.loads((out / "analysis.json").read_text())
        pairs = payload["raw"]["correlations"]["pairs"]
        assert pairs == [{
            "x": 1, "y": 2, "e_ab": 0.0, "e_a": 1.0, "e_b": 0.0,
            "n_raw": 2, "n_post": 2, "c_hat": 1.0,
            "se_ab": pytest.approx(1 / 2 ** 0.5), "se_a": 0.0,
            "se_b": pytest.approx(1 / 2 ** 0.5),
        }]
        assert payload["raw"]["correlations"]["n_unassigned"] == 1
        assert "unavailable" in payload["raw"]

    def test_all_plus_one_csv(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        rows = ["window,x,y,a,b"]
        w = 0
        for x in (1, 2):
            for y in (1, 2):
                for _ in range(5):
                    rows.append(f"{w},{x},{y},1,1")
                    w += 1
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "analyze", "--coincidences", str(csv),
                              "--out-dir", str(out))
        assert code == 0
        payload = json.loads((out / "analysis.json").read_text())
        for pair in payload["postselected"]["correlations"]["pairs"]:
            assert pair["e_ab"] == 1.0
        assert payload["postselected"]["no_signalling"]["max_abs_delta"] == 0.0
        assert payload["postselected"]["chsh"]["s_max_abs"] == 2.0

    def test_garbage_line_exits_4(self, tmp_path, capsys):
        stream_a = tmp_path / "a.txt"
        stream_a.write_text("3\t1\t+1\nbroken line here\n")
        stream_b = tmp_path / "b.txt"
        stream_b.write_text("5\t1\t+1\n")
        code, _, err = run(capsys, "analyze", "--stream-a", str(stream_a),
                           "--stream-b", str(stream_b), "--out-dir", str(tmp_path))
        assert code == 4
        assert "2" in err

    @pytest.mark.parametrize("station", ["A", "B"])
    def test_setting_conflict_names_file_and_window_exits_4(self, station, tmp_path, capsys):
        # Two clicks at settings 1 and 2 in window 1 of one station.
        streams = {"A": tmp_path / "a.txt", "B": tmp_path / "b.txt"}
        streams["A"].write_text("3\t1\t+1\n")
        streams["B"].write_text("5\t1\t+1\n")
        streams[station].write_text("3\t1\t+1\n12\t1\t+1\n17\t2\t-1\n")
        code, _, err = run(capsys, "analyze", "--stream-a", str(streams["A"]),
                           "--stream-b", str(streams["B"]), "--window-ns", "10",
                           "--out-dir", str(tmp_path / "out"))
        assert code == 4
        assert err == (f"error: {streams[station]}: station {station}, window 1: "
                       "settings [1, 2]\n")

    def test_postselection_empty_cell_exits_5(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_text("window,x,y,a,b\n0,1,1,1,0\n1,1,1,0,-1\n")
        code, _, err = run(capsys, "analyze", "--coincidences", str(csv),
                           "--out-dir", str(tmp_path))
        assert code == 5
        assert "non-zero" in err

    def test_needs_exactly_one_input_kind(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "--out-dir", str(tmp_path))
        assert code == 2

    def test_non_ascii_stream_byte_names_file_and_line_exits_4(self, tmp_path, capsys):
        stream_a = tmp_path / "a.txt"
        stream_a.write_bytes(b"3\t1\t+1\n7\t\xe9\t-1\n")
        stream_b = tmp_path / "b.txt"
        stream_b.write_text("5\t1\t+1\n")
        code, _, err = run(capsys, "analyze", "--stream-a", str(stream_a),
                           "--stream-b", str(stream_b), "--out-dir", str(tmp_path / "out"))
        assert code == 4
        assert err == f"error: {stream_a}:2: non-ASCII byte 0xe9\n"

    def test_non_ascii_csv_byte_names_file_and_line_exits_4(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_bytes(b"window,x,y,a,b\n0,1,1,1,1\n1,\xff,1,1,1\n")
        code, _, err = run(capsys, "analyze", "--coincidences", str(csv),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 4
        assert err == f"error: {csv}:3: non-ASCII byte 0xff\n"

    def test_missing_stream_file_exits_2(self, tmp_path, capsys):
        stream_b = tmp_path / "b.txt"
        stream_b.write_text("5\t1\t+1\n")
        missing = tmp_path / "nowhere.txt"
        code, _, err = run(capsys, "analyze", "--stream-a", str(missing),
                           "--stream-b", str(stream_b), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("inputs, code", [
        (("--stream-a", "a.txt", "--stream-b", "a.txt", "--window-ns", str(2 ** 70)), 2),
        (("--coincidences", "nowhere.csv"), 2),
        (("--stream-a", "a.txt", "--stream-b", "bad.txt"), 4),
    ], ids=["width-range", "missing-csv", "bad-stream"])
    def test_failure_leaves_no_output_directory(self, inputs, code, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.txt").write_text("5\t1\t+1\n")
        (tmp_path / "bad.txt").write_text("5\t1\tx\n")
        got, _, _ = run(capsys, "analyze", *inputs, "--out-dir", "o2")
        assert got == code
        assert not (tmp_path / "o2").exists()

    def test_missing_csv_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.csv"
        code, _, err = run(capsys, "analyze", "--coincidences", str(missing),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"error: {missing}: No such file or directory\n"


class TestCheckCoupling:
    def test_lf_spec_file_feasible(self, tmp_path, capsys):
        spec_path = lf_spec_file(tmp_path / "spec.json")
        code, stdout, _ = run(capsys, "check-coupling", "--spec", str(spec_path),
                              "--exact", "--out-dir", str(tmp_path))
        assert code == 0
        assert "feasible" in stdout.splitlines()[0]
        assert "p(1, 1, 1, -1) = 0.5" in stdout
        assert "p(1, -1, 1, 1) = 0.5" in stdout
        payload = json.loads((tmp_path / "coupling.json").read_text())
        assert payload["result"]["feasible"] is True
        witness = payload["result"]["witness"]
        assert len(witness) == 16
        assert sum(1 for entry in witness if entry["p"] > 0) == 2

    def test_pr_box_inline_infeasible(self, tmp_path, capsys):
        argv = ["check-coupling", "--out-dir", str(tmp_path)]
        values = {(1, 1): "1", (1, 2): "1", (2, 1): "1", (2, 2): "-1"}
        for (x, y), v in values.items():
            argv += ["--corr", str(x), str(y), v]
            argv += ["--mean-a", str(x), str(y), "0"]
            argv += ["--mean-b", str(x), str(y), "0"]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert "infeasible" in stdout
        assert "CHSH" in stdout

    def test_quantum_spec_infeasible(self, tmp_path, capsys):
        from bellsim.scenarios import quantum_scenario
        table = quantum_scenario().expected_postselected
        spec = JointSpec.from_exact_results(table, (1, 2), (1, 2))
        path = tmp_path / "q.json"
        save_jointspec(spec, path)
        code, stdout, _ = run(capsys, "check-coupling", "--spec", str(path),
                              "--out-dir", str(tmp_path))
        assert code == 0
        assert "infeasible" in stdout

    def test_non_ascii_spec_exits_4_and_missing_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"settings_a": [1, 2],\n "e_ab": "\xe9"}\n')
        code, _, err = run(capsys, "check-coupling", "--spec", str(spec))
        assert code == 4
        assert err == f"error: {spec}:2: non-ASCII byte 0xe9\n"
        missing = tmp_path / "nowhere.json"
        code, _, err = run(capsys, "check-coupling", "--spec", str(missing))
        assert code == 2
        assert err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("newline", ("\n", "\r", "\r\n"), ids=("lf", "cr", "crlf"))
    def test_invalid_json_spec_names_file_and_line_exits_4(self, newline, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(newline.join(('{"settings_a": [1, 2],', ' "settings_b": [1, 2],',
                                       ' "e_ab": ,', '}')).encode())
        code, _, err = run(capsys, "check-coupling", "--spec", str(spec))
        assert code == 4
        assert err == f"error: {spec}:3: not valid JSON: Expecting value\n"

    @pytest.mark.parametrize("flag", ("--corr", "--mean-a", "--mean-b"))
    def test_non_numeric_inline_value_names_flag_exits_2(self, flag, tmp_path, capsys):
        argv = ["check-coupling", "--out-dir", str(tmp_path)]
        for x, y in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for option in ("--corr", "--mean-a", "--mean-b"):
                value = "x" if (option, x, y) == (flag, 2, 1) else "0"
                argv += [option, str(x), str(y), value]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {flag}: bad value 'x'\n"

    @pytest.mark.parametrize("corr, mean_a, mean_b", [
        # The lf joint's moments with e_a(-1, 1) moved by 1e-10.
        ({(1, 1): "1", (1, -1): "0", (-1, 1): "0", (-1, -1): "-1"},
         {(1, 1): "1", (1, -1): "1", (-1, 1): "1e-10", (-1, -1): "0"},
         {(1, 1): "1", (1, -1): "0", (-1, 1): "1", (-1, -1): "0"}),
        # Zero marginals, one CHSH combination at 2 + 1e-10.
        ({(1, 1): "0.5", (1, 2): "0.5", (2, 1): "0.5", (2, 2): "-0.5000000001"},
         dict.fromkeys(((1, 1), (1, 2), (2, 1), (2, 2)), "0"),
         dict.fromkeys(((1, 1), (1, 2), (2, 1), (2, 2)), "0")),
    ], ids=["marginal", "chsh"])
    def test_exact_mode_allows_no_tolerance(self, corr, mean_a, mean_b, tmp_path, capsys):
        argv = ["check-coupling", "--out-dir", str(tmp_path)]
        for flag, table in (("--corr", corr), ("--mean-a", mean_a), ("--mean-b", mean_b)):
            for (x, y), v in table.items():
                argv += [flag, str(x), str(y), v]
        code, stdout, _ = run(capsys, *argv, "--exact")
        assert code == 0 and stdout.startswith("infeasible: ")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and stdout.startswith("feasible: ")

    def test_closed_stdout_reports_the_reason_alone(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["check-coupling", "--spec", str(lf_spec_file(tmp_path / "spec.json")),
                     "--out-dir", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (2, f"error: {os.strerror(errno.EPIPE)}\n")

    def test_missing_inputs_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "check-coupling", "--out-dir", str(tmp_path))
        assert code == 2

    def test_spec_without_correlators_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"settings_a": [1, 2], "settings_b": [1, 2],
                                    "e_a": [], "e_b": []}))
        code, _, err = run(capsys, "check-coupling", "--spec", str(spec),
                           "--out-dir", str(tmp_path / "out"))
        assert (code, err) == (2, "error: malformed joint spec: 'e_ab'\n")
        assert not (tmp_path / "out").exists()


class TestScenarioCommands:
    def test_list_scenarios(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "list-scenarios", "--out-dir", str(tmp_path))
        assert code == 0
        for name in ("lf", "lhvm-socks", "m2-demo", "m3-demo", "quantum"):
            assert name in stdout

    def test_export_scenario_files_load_back(self, tmp_path, capsys):
        from bellsim import modelio
        code, stdout, _ = run(capsys, "scenario", "--name", "m2-demo",
                              "--out-dir", str(tmp_path))
        assert code == 0
        model = modelio.load(tmp_path / "m2-demo.model")
        from bellsim.scenarios import m2_demo_scenario
        assert model == m2_demo_scenario().model
        expected = json.loads((tmp_path / "m2-demo.expected.json").read_text())
        assert expected["s_max_abs_postselected"] == 4.0

    def test_unknown_scenario_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "scenario", "--name", "nope",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "unknown scenario" in err


_PRODUCT_HEAD = "variant m1\nsettings A 1 2\nsettings B 1 2\n"
_SIMULATE = ("simulate", "--scenario", "lf", "--seed", "1", "--out-dir", "o")
_STREAM = "0\t1\t+1\n"
_LF_MODEL = modelio.dumps(lf_scenario().model)


def _coupling_flags(drop=(), extra=()):
    """Inline e_ab, e_a and e_b values of 0 for the pairs of settings 1 and 2,
    less the ``(flag, x, y)`` entries and the whole flags in ``drop``, plus
    ``extra`` arguments."""
    argv = []
    for flag in ("--corr", "--mean-a", "--mean-b"):
        for x, y in ((1, 1), (1, 2), (2, 1), (2, 2)):
            if (flag, x, y) not in drop and flag not in drop:
                argv += [flag, str(x), str(y), "0"]
    return ["check-coupling", *argv, *extra]


# Zero marginals with these three correlators and e_ab(1, 1) = 1/2 are
# feasible; with e_ab(1, 1) = 1 a CHSH combination is 2.5.
_CORR_BUT_1_1 = ["--corr", "1", "2", "0.5", "--corr", "2", "1", "0.5", "--corr", "2", "2", "-0.5"]


def _spec_json(e_ab):
    """A spec file with settings 1 and 2, zero marginals and ``e_ab`` rows."""
    zeros = [[x, y, 0] for x in (1, 2) for y in (1, 2)]
    return json.dumps({"settings_a": [1, 2], "settings_b": [1, 2], "e_ab": e_ab,
                       "e_a": zeros, "e_b": zeros})


# Each case: files to write (name -> text), argv, exit code, last stderr line.
_INPUT_ERRORS = {
    "model-instruments-heading": (
        {"h.model": "version 1\n" + _PRODUCT_HEAD + "begin instruments A\nend\n"},
        ("simulate", "--model", "h.model"), 4,
        "error: h.model:5: expected 'begin instruments A|B setting'"),
    "model-joint-heading": (
        {"h.model": _PRODUCT_HEAD + "begin joint-instruments 1\nend\n"},
        ("simulate", "--model", "h.model"), 4,
        "error: h.model:4: expected 'begin joint-instruments x y'"),
    "model-responses-heading": (
        {"h.model": _PRODUCT_HEAD + "begin responses A\nend\n"},
        ("simulate", "--model", "h.model"), 4,
        "error: h.model:4: expected 'begin responses A|B setting'"),
    "model-angles-heading": (
        {"h.model": _PRODUCT_HEAD + "begin angles A 1\nend\n"},
        ("simulate", "--model", "h.model"), 4,
        "error: h.model:4: expected 'begin angles A|B'"),
    "model-version": (
        {"v.model": "version 2\n"}, ("simulate", "--model", "v.model"), 4,
        "error: v.model:1: unsupported format version '2'"),
    "model-variant-value": (
        {"v.model": "variant\n"}, ("simulate", "--model", "v.model"), 4,
        "error: v.model:1: variant: expected one value"),
    "model-settings-station": (
        {"v.model": "settings C 1 2\n"}, ("simulate", "--model", "v.model"), 4,
        "error: v.model:1: settings: expected 'settings A|B label...'"),
    "model-angle": (
        {"a.model": "variant quantum\nsettings A 1 2\nsettings B 1 2\n"
                    "begin angles A\n1 0.0\n2 x\nend\n"},
        ("simulate", "--model", "a.model"), 4, "error: a.model:6: bad angle 'x'"),
    "model-section": (
        {"b.model": "variant m1\nbegin bogus\n"}, ("simulate", "--model", "b.model"), 4,
        "error: b.model:2: unknown section 'bogus'"),
    # An empty distribution block, read in one pass or (with a comment) by
    # the line loop.
    "model-empty-source": (
        {"e.model": _PRODUCT_HEAD + "begin source\nend\n"},
        ("simulate", "--model", "e.model"), 4, "error: e.model:4: empty source block"),
    "model-empty-source-line-loop": (
        {"e.model": _PRODUCT_HEAD + "\nbegin source\n# none\nend\n"},
        ("simulate", "--model", "e.model"), 4, "error: e.model:5: empty source block"),
    "model-empty-instruments": (
        {"e.model": _PRODUCT_HEAD + "begin source\n1 1 1\nend\nbegin instruments A 1\nend\n"},
        ("simulate", "--model", "e.model"), 4, "error: e.model:7: empty instruments block"),
    "model-empty-instruments-line-loop": (
        {"e.model": _PRODUCT_HEAD + "begin instruments B 2\n# no rows\nend\n"},
        ("simulate", "--model", "e.model"), 4, "error: e.model:4: empty instruments block"),
    "model-empty-joint": (
        {"e.model": "variant m3\nsettings A 1 2\nsettings B 1 2\nbegin joint-instruments 1 2\nend\n"},
        ("simulate", "--model", "e.model"), 4, "error: e.model:4: empty joint-instruments block"),
    "model-empty-joint-line-loop": (
        {"e.model": "variant m3\nbegin joint-instruments 2 1\n  \nend\n"},
        ("simulate", "--model", "e.model"), 4, "error: e.model:2: empty joint-instruments block"),
    "model-no-source": (
        {"s.model": "variant lhvm\nsettings A 1 2\nsettings B 1 2\n"},
        ("simulate", "--model", "s.model"), 4, "error: s.model: missing source block"),
    # A model file holds only what its model reads, for the settings it declares.
    "model-foreign-block": (
        {"f.model": _LF_MODEL + "begin angles A\n1 0.0\nend\n"},
        ("simulate", "--model", "f.model"), 4,
        f"error: f.model:{_LF_MODEL.count(chr(10)) + 1}: a lhvm model has no angles block"),
    "model-undeclared-setting": (
        {"u.model": _LF_MODEL + "begin responses A 7\n1 0 5\nend\n"},
        ("simulate", "--model", "u.model"), 3, "  responses A: entry for undeclared setting 7"),
    "simulate-fixed-rule": (
        {}, (*_SIMULATE, "--windows", "10", "--setting-rule", "fixed"), 2,
        "error: fixed rule needs --x and --y"),
    "simulate-no-length": (
        {}, _SIMULATE, 2, "error: --windows is required"),
    # --windows alone sets a run's length.
    "simulate-duration-flag": (
        {}, (*_SIMULATE, "--windows", "10", "--duration-ns", "10000"), 2,
        "bellsim: error: unrecognized arguments: --duration-ns 10000"),
    "simulate-config-duration": (
        {"r.cfg": "scenario = lf\nseed = 1\nwindows = 10\nduration_ns = 10000\n"},
        ("--config", "r.cfg", "simulate", "--out-dir", "o"), 2,
        "error: r.cfg:4: unknown key 'duration_ns'"),
    "simulate-zero-windows": (
        {}, (*_SIMULATE, "--windows", "0"), 2,
        "error: a schedule needs at least one window"),
    "simulate-zero-width": (
        {}, (*_SIMULATE, "--windows", "10", "--window-ns", "0"), 2,
        "error: window width must be positive"),
    "simulate-detection-rate": (
        {}, (*_SIMULATE, "--windows", "10", "--detection-rate", "1.5"), 2,
        "error: detection_rate must be within [0, 1]"),
    "simulate-fixed-pair": (
        {}, (*_SIMULATE, "--windows", "10", "--setting-rule", "fixed", "--x", "9", "--y", "1"),
        2, "error: fixed settings (9, 1) not declared by the model"),
    "simulate-p-same-model": (
        {"lf.model": None},
        ("simulate", "--model", "lf.model", "--p-same", "0.5"), 2,
        "error: --p-same only applies to --scenario lhvm-socks"),
    "simulate-negative-seed": (
        {}, ("simulate", "--scenario", "lf", "--windows", "10", "--seed", "-1", "--out-dir", "o"),
        2, "error: seed must be a non-negative integer"),
    "simulate-p-same-nan": (
        {}, ("simulate", "--scenario", "lhvm-socks", "--p-same", "nan"), 2,
        "error: p_same must be within [0, 1]"),
    "simulate-p-same-inf": (
        {}, ("simulate", "--scenario", "lhvm-socks", "--p-same", "inf"), 2,
        "error: p_same must be within [0, 1]"),
    "simulate-p-same-minus-inf": (
        {}, ("simulate", "--scenario", "lhvm-socks", "--p-same=-inf"), 2,
        "error: p_same must be within [0, 1]"),
    # The third window starts at 2·2^62 ns, past int64.
    "simulate-window-start-range": (
        {}, (*_SIMULATE, "--windows", "3", "--window-ns", str(2 ** 62)), 2,
        "error: last window start 9223372036854775808 ns does not fit in a "
        "signed 64-bit integer"),
    "simulate-width-range": (
        {}, (*_SIMULATE, "--windows", "3", "--window-ns", str(2 ** 70)), 2,
        f"error: window width {2 ** 70} ns does not fit in a signed 64-bit integer"),
    "simulate-zero-threads": (
        {}, (*_SIMULATE, "--windows", "10", "--threads", "0"), 2,
        "error: threads must be a positive integer"),
    "simulate-negative-threads": (
        {}, (*_SIMULATE, "--windows", "10", "--threads=-1"), 2,
        "error: threads must be a positive integer"),
    "simulate-config-rule": (
        {"r.cfg": "setting_rule = bogus\n"},
        ("--config", "r.cfg", *_SIMULATE, "--windows", "10"), 2,
        "error: unknown setting rule 'bogus'"),
    "simulate-config-repeated-key": (
        {"r.cfg": "scenario = lf\nwindows = 100\nseed = 1\nwindows = 200\n"},
        ("--config", "r.cfg", "simulate", "--out-dir", "o"), 2,
        "error: r.cfg:4: repeated key 'windows', first on line 2"),
    # Keys are compared after '-' becomes '_'.
    "simulate-config-repeated-spelling": (
        {"r.cfg": "scenario = lf\nseed = 1\nwindows = 10\nwindow-ns = 1000\nwindow_ns = 2000\n"},
        ("--config", "r.cfg", "simulate", "--out-dir", "o"), 2,
        "error: r.cfg:5: repeated key 'window_ns', first on line 4"),
    "analyze-one-stream": (
        {"ok.txt": _STREAM}, ("analyze", "--stream-a", "ok.txt"), 2,
        "error: both --stream-a and --stream-b are required"),
    "analyze-zero-width": (
        {"ok.txt": _STREAM},
        ("analyze", "--stream-a", "ok.txt", "--stream-b", "ok.txt", "--window-ns", "0"), 2,
        "error: window width must be positive"),
    "analyze-width-range": (
        {"ok.txt": _STREAM},
        ("analyze", "--stream-a", "ok.txt", "--stream-b", "ok.txt", "--window-ns", str(2 ** 70)),
        2, f"error: window width {2 ** 70} ns does not fit in a signed 64-bit integer"),
    "analyze-timestamp-range": (
        {"t1.txt": _STREAM + "9223372036854775808\t1\t+1\n", "ok.txt": _STREAM},
        ("analyze", "--stream-a", "t1.txt", "--stream-b", "ok.txt"), 4,
        "error: t1.txt:2: timestamp 9223372036854775808 out of range"),
    "analyze-outcome": (
        {"ok.txt": _STREAM, "t2.txt": "0\t1\tx\n"},
        ("analyze", "--stream-a", "ok.txt", "--stream-b", "t2.txt"), 4,
        "error: t2.txt:1: bad outcome 'x'"),
    "analyze-csv-window-range": (
        {"c.csv": "window,x,y,a,b\n9223372036854775808,1,1,1,1\n"},
        ("analyze", "--coincidences", "c.csv"), 4,
        "error: c.csv:2: window 9223372036854775808 out of range"),
    "analyze-csv-field-size": (
        {"c.csv": "window,x,y,a,b\n0," + "1" * 200_000 + ",1,1,1\n"},
        ("analyze", "--coincidences", "c.csv"), 4,
        "error: c.csv:2: field larger than field limit (131072)"),
    "coupling-range": (
        {}, _coupling_flags(drop=[("--corr", 1, 1)], extra=["--corr", "1", "1", "1.5"]), 2,
        "error: e_ab(1, 1) = 1.5 outside [-1, 1]"),
    "coupling-missing-pair": (
        {}, _coupling_flags(drop=[("--corr", 2, 2)]), 2,
        "error: e_ab: missing entry for pair (2, 2)"),
    "coupling-three-settings": (
        {}, _coupling_flags(extra=["--corr", "3", "1", "0"]), 2,
        "error: a joint spec needs exactly two distinct settings per station"),
    "coupling-repeated-setting": (
        {"s.json": '{"settings_a": [1, 1], "settings_b": [1, 2], "e_ab": [], "e_a": [], '
                   '"e_b": []}'},
        ("check-coupling", "--spec", "s.json"), 2,
        "error: a joint spec needs exactly two distinct settings per station"),
    "coupling-repeated-entry": (
        {}, _coupling_flags(drop=["--corr"], extra=[*_CORR_BUT_1_1, "--corr", "1", "1", "0.5",
                                                     "--corr", "1", "1", "1"]), 2,
        "error: e_ab: repeated entry for pair (1, 1)"),
    "coupling-repeated-entry-swapped": (
        {}, _coupling_flags(drop=["--corr"], extra=[*_CORR_BUT_1_1, "--corr", "01", "1", "1",
                                                     "--corr", "1", "1", "0.5"]), 2,
        "error: e_ab: repeated entry for pair (1, 1)"),
    "coupling-repeated-row": (
        {"s.json": _spec_json([[1, 1, 0.5], [1, 2, 0.5], [2, 1, 0.5], [2, 2, -0.5],
                               [1, 1, 1]])},
        ("check-coupling", "--spec", "s.json"), 2,
        "error: e_ab: repeated entry for pair (1, 1)"),
    "coupling-entry-outside-settings": (
        {}, _coupling_flags(extra=["--mean-a", "3", "1", "0.9"]), 2,
        "error: e_a: entry for pair (3, 1) outside the settings (1, 2) x (1, 2)"),
    "coupling-row-outside-settings": (
        {"s.json": _spec_json([[1, 1, 0], [1, 2, 0], [2, 1, 0], [2, 2, 0], [3, 1, 1]])},
        ("check-coupling", "--spec", "s.json"), 2,
        "error: e_ab: entry for pair (3, 1) outside the settings (1, 2) x (1, 2)"),
    "coupling-string-value": (
        {"s.json": _spec_json([[1, 1, "1"], [1, 2, "1"], [2, 1, "1"], [2, 2, "-1"]])},
        ("check-coupling", "--spec", "s.json"), 2,
        "error: e_ab(1, 1) = '1' is not a number"),
    "coupling-bool-value": (
        {"s.json": _spec_json([[1, 1, True], [1, 2, 0], [2, 1, 0], [2, 2, 0]])},
        ("check-coupling", "--spec", "s.json", "--exact"), 2,
        "error: e_ab(1, 1) = True is not a number"),
    "coupling-no-e-a": (
        {}, _coupling_flags(drop=["--mean-a"]), 2,
        "error: --spec missing and no inline e_a values given"),
    **{f"coupling-spec-and-{flag[2:]}": (
        {"s.json": _spec_json([[1, 1, 0], [1, 2, 0], [2, 1, 0], [2, 2, 0]])},
        ("check-coupling", "--spec", "s.json", flag, "1", "1", "0"), 2,
        "error: pass either --spec or inline --corr/--mean-a/--mean-b values")
       for flag in ("--corr", "--mean-a", "--mean-b")},
}


@pytest.mark.parametrize("files, argv, code, last_line", _INPUT_ERRORS.values(),
                         ids=_INPUT_ERRORS.keys())
def test_input_error_exit_code_and_message(files, argv, code, last_line,
                                           tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if text is None:
            modelio.save(lf_scenario().model, name)
        else:
            (tmp_path / name).write_text(text)
    if argv[0] == "simulate" and "--seed" not in argv:
        argv = (*argv, "--windows", "10", "--seed", "1", "--out-dir", "o")
    if argv[0] in ("analyze", "check-coupling"):
        argv = (*argv, "--out-dir", "o")
    got, _, err = run(capsys, *argv)
    assert (got, err.splitlines()[-1]) == (code, last_line)
    assert not (tmp_path / "o").exists()


class TestPrecedence:
    """A flag wins over the config file, the file over the fallback."""

    @pytest.mark.parametrize("command", ("simulate", "check-coupling"))
    @pytest.mark.parametrize("level", ("flag", "config", "env", "cwd"))
    def test_out_dir(self, command, level, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BELLSIM_OUT", raising=False)
        argv = (["simulate", "--scenario", "lf", "--windows", "10", "--seed", "1"]
                if command == "simulate" else _coupling_flags())
        written = "analysis.json" if command == "simulate" else "coupling.json"
        levels = ("flag", "config", "env", "cwd")
        present = levels[levels.index(level):]
        if "flag" in present:
            argv += ["--out-dir", "flag"]
        if "config" in present:
            (tmp_path / "run.cfg").write_text("out_dir = config\n")
            argv = ["--config", "run.cfg", *argv]
        if "env" in present:
            monkeypatch.setenv("BELLSIM_OUT", "env")
        code, _, _ = run(capsys, *argv)
        assert code == 0
        dirs = {name: tmp_path / ("." if name == "cwd" else name) for name in levels}
        assert [name for name in levels if (dirs[name] / written).exists()] == [level]

    def _simulate_files(self, capsys, out, *argv):
        code, stdout, _ = run(capsys, *argv, "--out-dir", str(out))
        assert code == 0
        return stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    def test_fallbacks_equal_their_flags_and_config_keys(self, tmp_path, capsys):
        base = ("simulate", "--scenario", "m2-demo", "--windows", "500", "--seed", "3")
        config = tmp_path / "run.cfg"
        config.write_text("window_ns = 1000\nsetting_rule = random\n"
                          "detection_rate = 1.0\nthreads = 1\n")
        outputs = [
            self._simulate_files(capsys, tmp_path / "fallback", *base),
            self._simulate_files(capsys, tmp_path / "flags", *base, "--window-ns", "1000",
                                 "--setting-rule", "random", "--detection-rate", "1.0",
                                 "--threads", "1"),
            self._simulate_files(capsys, tmp_path / "config", "--config", str(config), *base),
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_config_defaults_do_not_outlive_their_call(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("window_ns = 2000\nsetting_rule = round-robin\n")
        widths = []
        for name, prefix in (("config", ("--config", str(config))), ("plain", ())):
            out = tmp_path / name
            code, _, _ = run(capsys, *prefix, "simulate", "--scenario", "lf", "--windows", "10",
                             "--seed", "1", "--out-dir", str(out))
            assert code == 0
            run_info = json.loads((out / "analysis.json").read_text())["run"]
            widths.append((run_info["window_ns"], run_info["setting_rule"]))
        assert widths == [(2000, "round-robin"), (1000, "random")]

    def test_config_key_without_a_flag_is_ignored(self, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        csv_path.write_text("window,x,y,a,b\n0,1,1,1,1\n1,1,2,1,-1\n")
        config = tmp_path / "run.cfg"
        config.write_text("seed = 5\nscenario = lf\nthreads = 2\n")
        outputs = []
        for name, prefix in (("plain", ()), ("config", ("--config", str(config)))):
            out = tmp_path / name
            code, stdout, _ = run(capsys, *prefix, "analyze", "--coincidences", str(csv_path),
                                  "--out-dir", str(out))
            assert code == 0
            outputs.append((stdout, (out / "analysis.json").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("prefix", [(), ("--config", "run.cfg")], ids=["plain", "config"])
    def test_main_builds_one_parser(self, tmp_path, capsys, monkeypatch, prefix):
        from bellsim import cli

        build_parser, built = cli._build_parser, []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_build_parser", counting_build_parser)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("windows = 10\nseed = 1\n")
        code, _, _ = run(capsys, *prefix, "simulate", "--scenario", "lf", "--windows", "10",
                         "--seed", "1", "--out-dir", "out")
        assert code == 0
        assert len(built) == 1
