"""Series-solver tests: coefficient recurrences, homotopy property,
agreement with Newton."""

import numpy as np
import pytest

from conftest import random_sssc_study
from ffheflow import core, newton
from ffheflow.core import _single_stage, ffhe_solve
from ffheflow.devices import ControlTarget, Mode, SsscDevice
from ffheflow.network import Branch, Bus, BusKind, Network
from ffheflow.newton import flat_start, nr_solve, warm_start
from ffheflow.system import build_system, residual


def slack_pq_net(vsp=1.06, p=0.2, q=0.05, r=0.02, x=0.1):
    return Network(
        buses=(Bus(1, BusKind.SLACK, v_setpoint=vsp),
               Bus(2, BusKind.PQ, p_load=p, q_load=q)),
        branches=(Branch(1, 2, r, x),),
        base_mva=100.0)


class TestFirstCoefficients:
    def test_slack_order1_closes_gap(self):
        """Order 1 must move the slack from the reference to its setpoint."""
        sys = build_system(slack_pq_net(vsp=1.06))
        C = np.array([0.9 + 0j, 1.0 + 0j])
        res = _single_stage(sys, C, np.zeros(0, complex), n_max=2, tol=1e-30,
                            pade=False)
        assert res.v_series[0, 1] == pytest.approx(0.16)

    def test_pv_magnitude_coefficients(self):
        """PV magnitude row: order 1 closes half the squared-magnitude gap,
        order 2 cancels -|V1|^2/2 of the order-1 coefficient."""
        net = Network(
            buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0),
                   Bus(2, BusKind.PV, p_gen=0.3, v_setpoint=1.05),
                   Bus(3, BusKind.PQ, p_load=0.4, q_load=0.1)),
            branches=(Branch(1, 2, 0.01, 0.08), Branch(2, 3, 0.02, 0.1),
                      Branch(1, 3, 0.01, 0.06)),
            base_mva=100.0)
        sys = build_system(net)
        C = np.ones(3, dtype=complex)
        res = ffhe_solve(sys, C, np.zeros(0, complex), n_max=12, tol=1e-10)
        assert res.converged
        # the magnitude series |V(a)|^2 = Vsp^2 + (1-a)(|C|^2 - Vsp^2)
        # order by order: sum_d V[d] conj(V[n-d]) is linear in a
        vs = res.v_series[1]
        n_ord = vs.size - 1
        for n in range(2, n_ord + 1):
            s = sum(vs[d] * np.conj(vs[n - d]) for d in range(n + 1))
            assert abs(s) < 1e-9

    def test_order1_equals_newton_step(self):
        """From any reference, order 1 of the series is the Newton step."""
        sys = build_system(slack_pq_net())
        C = np.array([1.02 + 0.01j, 0.97 - 0.03j])
        res = _single_stage(sys, C, np.zeros(0, complex), n_max=1, tol=1e-30,
                            pade=False)
        from ffheflow.system import jacobian
        J = jacobian(sys, C, np.zeros(0, complex)).toarray()
        dx = np.linalg.solve(J, -residual(sys, C, np.zeros(0, complex)))
        dv = dx[0:4:2] + 1j * dx[1:4:2]
        assert np.allclose(res.v_series[:, 1], dv, atol=1e-12)

    def test_companion_current_detection(self, case118):
        d1 = SsscDevice("a", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        d2 = SsscDevice("b", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (d1, d2))
        assert sys.rows.companions.tolist() == [1]


class TestConvergence:
    def test_base_case_from_flat(self, case118):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        res = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=60)
        assert res.converged
        assert res.mismatch <= 1e-10
        nr = nr_solve(sys, tol=1e-12)
        assert np.max(np.abs(res.V - nr.V)) < 1e-8

    def test_warm_reference_needs_fewer_terms(self, case118):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        flat = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=60)
        Vw, Iw, _ = warm_start(sys, iterations=3)
        warm = ffhe_solve(sys, Vw, Iw, tol=1e-10, n_max=60)
        assert warm.converged and flat.converged
        assert warm.terms < flat.terms

    def test_pade_not_worse(self, case118):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        plain = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=60)
        pade = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=60, pade=True)
        assert pade.converged
        assert pade.terms <= plain.terms

    def test_divergent_case_flagged(self):
        sys = build_system(slack_pq_net(p=20.0))   # beyond loadability
        V0, I0 = flat_start(sys)
        res = ffhe_solve(sys, V0, I0, n_max=40)
        assert not res.converged

    @pytest.mark.parametrize("restarts", [0, 3])
    def test_singular_reference_reported_unconverged(self, restarts,
                                                     monkeypatch):
        # at V = 0 every PQ row of the Jacobian vanishes
        monkeypatch.setattr(core, "SERIES_RESTARTS", restarts)
        sys = build_system(slack_pq_net())
        res = ffhe_solve(sys, np.zeros(2, complex), np.zeros(0, complex))
        assert not res.converged
        assert res.terms == 0

    def test_staged_restart_recovers(self, case118):
        # heavy single-stage truncation fails; restarts walk along the
        # homotopy path and finish the job
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        short = _single_stage(sys, V0, I0, tol=1e-10, n_max=4, pade=False)
        assert not short.converged
        staged = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=4)
        assert staged.converged

    @pytest.mark.filterwarnings("error")
    def test_pade_pole_at_one_stops_without_warning(self, case118,
                                                    monkeypatch):
        # 101-102/vse0.1 under method="ffhe", pade=True meets an approximant
        # with a pole at a = 1 at its tenth restart stage; stand one in from
        # the first order, so the non-finite state never reaches residual()
        monkeypatch.setattr(
            core, "evaluate_at_one",
            lambda coeffs, pade=False: np.full(coeffs.shape[:-1], np.inf,
                                               dtype=complex))
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        V0, I0 = flat_start(sys)
        res = _single_stage(sys, V0, I0, tol=1e-8, n_max=60, pade=True)
        assert not res.converged
        assert res.terms == 1
        assert res.mismatch == np.inf

    @pytest.mark.filterwarnings("error")
    def test_walk_back_nudges_its_candidates(self, case118, monkeypatch):
        # a stage whose current series (0.1, -0.1) sums to 0 at a = 1: the
        # walk-back must evaluate that candidate nudged, as the next stage
        # would start from it, not divide 0 by 0 in the v_se row's |I|
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        starts = []

        def stage(sys, C, D, tol, n_max, pade):
            starts.append(D.copy())
            vs = np.column_stack([C, np.zeros_like(C)])
            is_ = np.array([[0.1, -0.1]], dtype=complex)
            return core.FfheResult(C, D, 1, 1.0, False, vs, is_, 1, 1.0)

        monkeypatch.setattr(core, "_single_stage", stage)
        res = ffhe_solve(sys, *flat_start(sys))
        assert not res.converged
        assert res.terms == len(starts)
        assert all(abs(d[0]) >= newton.CURRENT_NUDGE for d in starts)

    def test_unconverged_series_carries_its_best_mismatch(self, case118):
        # truncation at four orders fails; the result keeps the lowest
        # mismatch of any partial sum, not the last one
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        res = _single_stage(sys, V0, I0, tol=1e-14, n_max=4, pade=False)
        assert not res.converged
        mis = [float(np.max(np.abs(residual(
                   sys, res.v_series[:, :k + 1].sum(axis=1),
                   res.i_series[:, :k + 1].sum(axis=1)))))
               for k in range(1, res.terms + 1)]
        assert res.best_mismatch == min(mis)
        assert res.best_term == 1 + int(np.argmin(mis))

    def test_staged_best_mismatch_counts_terms_over_stages(self, case118):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        first = _single_stage(sys, V0, I0, tol=1e-14, n_max=3, pade=False)
        staged = ffhe_solve(sys, V0, I0, tol=1e-14, n_max=3)
        assert not staged.converged
        assert staged.best_mismatch < first.best_mismatch
        assert first.terms < staged.best_term <= staged.terms

    def test_already_converged_reference(self, case118):
        sys = build_system(case118)
        nr = nr_solve(sys, tol=1e-12)
        res = ffhe_solve(sys, nr.V, nr.I, tol=1e-8)
        assert res.converged
        assert res.terms == 0


def embedded_residual_gap(sys, x0, alpha, n_max=12):
    """max |R(x_N(alpha)) - (1 - alpha) R(x0)| for the truncated series."""
    C, D = x0
    res = _single_stage(sys, C, D, tol=1e-30, n_max=n_max, pade=False)
    powers = alpha ** np.arange(res.v_series.shape[1])
    Va = res.v_series @ powers
    Ia = res.i_series @ powers if res.i_series.size else \
        np.zeros(0, complex)
    lhs = residual(sys, Va, Ia)
    rhs = (1.0 - alpha) * residual(sys, C, D)
    return float(np.max(np.abs(lhs - rhs)))


class TestEmbeddedResidualProperty:
    """The truncated series satisfies the homotopy R(x(a)) = (1-a) R(x0)
    up to the truncation order, so the gap at small a is negligible."""

    def test_base_case(self, case118):
        sys = build_system(case118)
        x0 = flat_start(sys)
        assert embedded_residual_gap(sys, x0, 0.05) < 1e-10

    def test_gap_at_zero_is_zero(self, case118):
        sys = build_system(case118)
        x0 = flat_start(sys)
        assert embedded_residual_gap(sys, x0, 0.0) < 1e-14

    @pytest.mark.parametrize("mode,sp", [
        (Mode.P_FLOW, 0.3), (Mode.Q_FLOW, 0.1), (Mode.Q_INJ, 0.05),
        (Mode.V_BUS, 1.0), (Mode.V_SE, 0.1), (Mode.X_EQ, 0.15)])
    def test_each_device_mode(self, case118, mode, sp):
        dev = SsscDevice("s", (101, 102), ControlTarget(mode, sp))
        sys = build_system(case118, (dev,))
        # a couple of Newton steps keep the expansion point inside the
        # series' disc of convergence, so the tail at a = 0.05 is negligible
        x0 = warm_start(sys, iterations=2)[:2]
        assert embedded_residual_gap(sys, x0, 0.05) < 1e-10

    def test_random_small_systems(self, monkeypatch):
        # the expansion point is two full damped Newton steps, each
        # factorising at its own point: with no chord step accepted, the
        # warm start takes exactly those
        monkeypatch.setattr(newton, "CONTRACTION", 0.0)
        rng = np.random.default_rng(2024)
        for _ in range(8):
            net, dev = random_sssc_study(rng)
            sys = build_system(net, (dev,))
            x0 = warm_start(sys, iterations=2)[:2]
            assert embedded_residual_gap(sys, x0, 0.05) < 1e-10
