"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rA``)
including its wall time, and enforces the stated runtime budget.  Monte
Carlo checks use five standard errors; exact checks use literal equality
of rationals or 1e-12 for analytic values.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bellsim.core import (
    SettingPair,
    enumerate_postselected,
    enumerate_raw,
)
from bellsim.coupling import (
    JointSpec,
    chsh_characterization,
    coupling_feasibility,
    joint_moments,
    lf_coupling,
    marginal_consistency,
    random_consistent_spec,
)
from bellsim.estimators import (
    POSTSELECTED,
    RAW,
    chsh,
    correlation_set_from_exact,
    estimate_postselected,
    no_signalling,
)
from bellsim.scenarios import build_scenario, lf_scenario, quantum_scenario, scenario_names
from bellsim.streams import (
    RandomSettings,
    Schedule,
    generate_streams,
    pair_coincidences,
    schedule_settings,
    write_coincidence_csv,
)
from bellsim.cli import _analysis_payload

from helpers import fixed_pair_outcomes, mc_tolerance, random_lhvm_model

N_MC = 100_000


class _Budget:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({elapsed:.2f}s / limit {self.limit_s}s): "
              f"{self.description}")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit_s}s")
        return False


def test_criterion_1_lf_exactness():
    with _Budget(1, "lf scenario post-selected table is (1, 0, 0, -1) exactly, CHSH exactly 2", 1.0):
        scenario = lf_scenario()
        got = [enumerate_postselected(scenario.model, sp).e_ab
               for sp in (SettingPair(1, 1), SettingPair(1, -1),
                          SettingPair(-1, 1), SettingPair(-1, -1))]
        assert got == [1, 0, 0, -1]
        assert all(isinstance(v, Fraction) for v in got)
        table = {sp: enumerate_postselected(scenario.model, sp)
                 for sp in scenario.model.pairs()}
        report = chsh(correlation_set_from_exact(table, (1, -1), (1, -1), POSTSELECTED))
        assert report.s_max_abs == 2
        assert report.violating_pattern is None


def test_criterion_2_lf_coupling():
    with _Budget(2, "explicit coupling has two half-weight atoms; feasibility certifies it", 1.0):
        dist = lf_coupling()
        assert dict(dist.items()) == {
            (1, 1, 1, -1): Fraction(1, 2),
            (1, -1, 1, 1): Fraction(1, 2),
        }
        scenario = lf_scenario()
        spec = JointSpec.from_exact_results(scenario.expected_postselected, (1, -1), (1, -1))
        result = coupling_feasibility(spec, exact=True)
        assert result.feasible
        witness_moments = joint_moments(result.witness, (1, -1), (1, -1))
        for sp in spec.pairs():
            assert abs(float(witness_moments.e_ab[sp] - spec.e_ab[sp])) <= 1e-9
            assert abs(float(witness_moments.e_a[sp] - spec.e_a[sp])) <= 1e-9
            assert abs(float(witness_moments.e_b[sp] - spec.e_b[sp])) <= 1e-9


def test_criterion_3_fine_equivalence():
    with _Budget(3, "feasibility solver agrees with the CHSH criterion on 10^4 random specs", 30.0):
        gen = np.random.Generator(np.random.PCG64(20240601))
        verdicts = {True: 0, False: 0}
        for i in range(10_000):
            spec = random_consistent_spec(gen, zero_marginals=(i % 2 == 0))
            ok, _ = marginal_consistency(spec)
            assert ok
            feasible = coupling_feasibility(spec).feasible
            assert feasible == chsh_characterization(spec)
            verdicts[feasible] += 1
        # Both verdict classes must actually be exercised.
        assert verdicts[True] > 100 and verdicts[False] > 100


def test_criterion_4_lhvm_bound_and_mc_agreement():
    with _Budget(4, "100 random classical models: exact CHSH <= 2, MC within 5 SE at N=1e5", 60.0):
        gen = np.random.Generator(np.random.PCG64(424242))
        for index in range(100):
            model = random_lhvm_model(gen, max_source_atoms=12)
            exact = {sp: enumerate_raw(model, sp) for sp in model.pairs()}
            report = chsh(correlation_set_from_exact(exact, model.settings_a,
                                                     model.settings_b, RAW))
            assert report.s_max_abs <= 2 + 1e-12
            for sp in model.pairs():
                a, b = fixed_pair_outcomes(model, sp, N_MC, 7_000_000 + index)
                prod = (a * b).astype(float)
                se = float(prod.std(ddof=0)) / math.sqrt(N_MC)
                assert abs(prod.mean() - float(exact[sp].e_ab)) <= mc_tolerance(se)


def test_criterion_5_postselection_effect():
    with _Budget(5, "m2 demo: raw CHSH classical, post-selected CHSH > 2 with signalling", 5.0):
        scenario = build_scenario("m2-demo")
        scenario.verify()
        raw = {sp: enumerate_raw(scenario.model, sp) for sp in scenario.model.pairs()}
        post = {sp: enumerate_postselected(scenario.model, sp)
                for sp in scenario.model.pairs()}
        raw_report = chsh(correlation_set_from_exact(raw, (1, 2), (1, 2), RAW))
        post_report = chsh(correlation_set_from_exact(post, (1, 2), (1, 2), POSTSELECTED))
        assert raw_report.s_max_abs <= 2
        assert post_report.s_max_abs > 2
        ns = no_signalling(correlation_set_from_exact(post, (1, 2), (1, 2), POSTSELECTED))
        assert ns.max_abs_delta > 0


def test_criterion_6_quantum_reference():
    with _Budget(6, "canonical angles reach 2*sqrt(2) analytically and under MC", 10.0):
        scenario = quantum_scenario()
        report = chsh(correlation_set_from_exact(scenario.expected_raw, (1, 2), (1, 2), RAW))
        assert abs(float(report.s_max_abs) - 2 * math.sqrt(2)) <= 1e-12
        estimates = {}
        variances = {}
        for sp in scenario.model.pairs():
            a, b = fixed_pair_outcomes(scenario.model, sp, N_MC, 616)
            prod = (a * b).astype(float)
            estimates[sp] = prod.mean()
            variances[sp] = prod.var(ddof=0) / N_MC
            exact = float(scenario.expected_raw[sp].e_ab)
            assert abs(estimates[sp] - exact) <= mc_tolerance(math.sqrt(variances[sp]))
        best = max(
            (abs(sum(s * estimates[sp] for s, sp in zip(signs, scenario.model.pairs())))
             for signs in product((1, -1), repeat=4) if signs.count(-1) % 2 == 1))
        se_s = math.sqrt(sum(variances.values()))
        assert abs(best - 2 * math.sqrt(2)) <= mc_tolerance(se_s)


def _pipeline(scenario, seed, workers=1):
    sched = Schedule.for_windows(N_MC, 100, RandomSettings())
    sa, sb = generate_streams(scenario.model, sched, 1.0, seed, workers=workers)
    assignment = schedule_settings(scenario.model, sched, seed)
    pairing = pair_coincidences(sa, sb, 100, assignment)
    return sched, assignment, pairing


def test_criterion_7_pipeline_round_trip():
    with _Budget(7, "streams -> windows -> post-selected estimates match enumeration, all scenarios", 60.0):
        for name in scenario_names():
            scenario = build_scenario(name)
            _, assignment, pairing = _pipeline(scenario, seed=1815)
            cs = estimate_postselected(pairing.records)
            windows_per_pair = {}
            for sp in assignment:
                windows_per_pair[sp] = windows_per_pair.get(sp, 0) + 1
            for sp in scenario.model.pairs():
                exact = enumerate_postselected(scenario.model, sp)
                got = cs.stats(*sp)
                assert abs(got.e_ab - float(exact.e_ab)) <= mc_tolerance(got.se_ab), name
                assert abs(got.e_a - float(exact.e_a)) <= mc_tolerance(got.se_a), name
                assert abs(got.e_b - float(exact.e_b)) <= mc_tolerance(got.se_b), name
                # Unconditional detection rate, recovered via the schedule
                # (records alone cannot see both-silent windows).
                n_windows = windows_per_pair[SettingPair(*sp)]
                c_hat = got.n_post / n_windows
                c = float(exact.c_xy)
                se_c = math.sqrt(max(c * (1 - c), 1e-12) / n_windows)
                assert abs(c_hat - c) <= mc_tolerance(se_c), name


def test_criterion_8_thread_count_determinism(tmp_path):
    with _Budget(8, "same seed, 1 vs many threads: byte-identical CSVs and reports", 120.0):
        for name in scenario_names():
            scenario = build_scenario(name)
            artifacts = []
            for workers in (1, 4):
                _, _, pairing = _pipeline(scenario, seed=999, workers=workers)
                csv_path = tmp_path / f"{name}-{workers}.csv"
                write_coincidence_csv(pairing.records, csv_path)
                payload = _analysis_payload(pairing.records)
                report = json.dumps(payload, indent=2, sort_keys=True)
                artifacts.append((csv_path.read_bytes(), report.encode()))
            assert artifacts[0] == artifacts[1], name
