"""Series-solver tests: coefficient recurrences, homotopy property,
agreement with Newton."""

import numpy as np
import pytest

from conftest import random_sssc_study
from ffheflow import core, newton
from ffheflow.core import expand, ffhe_solve
from ffheflow.devices import ControlTarget, Mode, SeriesDevice, SsscDevice
from ffheflow.network import Branch, Bus, BusKind, Network
from ffheflow.newton import flat_start, nr_solve, warm_start
from ffheflow.system import (build_system, jacobian, lu_factor, lu_solve,
                             residual, unpack_state)


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
        zs = expand(sys, C, np.zeros(0, complex), 2)
        assert zs[0, 1] == pytest.approx(0.16)

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
        vs = expand(sys, C, np.zeros(0, complex), res.terms)[1]
        n_ord = vs.size - 1
        for n in range(2, n_ord + 1):
            s = sum(vs[d] * np.conj(vs[n - d]) for d in range(n + 1))
            assert abs(s) < 1e-9

    def test_order1_equals_newton_step(self):
        """From any reference, order 1 of the series is the Newton step."""
        sys = build_system(slack_pq_net())
        C = np.array([1.02 + 0.01j, 0.97 - 0.03j])
        zs = expand(sys, C, np.zeros(0, complex), 1)
        J = jacobian(sys, C, np.zeros(0, complex)).toarray()
        dx = np.linalg.solve(J, -residual(sys, C, np.zeros(0, complex)))
        dv = dx[0:4:2] + 1j * dx[1:4:2]
        assert np.allclose(zs[:, 1], dv, atol=1e-12)

    def test_companion_current_detection(self, case118):
        d1 = SsscDevice("a", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        d2 = SsscDevice("b", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (d1, d2))
        assert sys.rows.companions.tolist() == [1]


class TestGrownArrays:
    """``_orders`` holds the orders reached so far, doubling its arrays as
    they fill: the coefficients are those of one array of ``n_max`` + 1
    orders, and a yielded array is never written again."""

    N_MAX = 40

    @pytest.fixture
    def companion_start(self, case118):
        """A System with V_SE and X_EQ companion rows, and a one-step warm
        start, whose coefficients stay finite and nonzero to order 40."""
        dev = SeriesDevice("i", ((49, 50), (49, 51)),
                           (ControlTarget(Mode.V_SE, 0.05, branch=0),
                            ControlTarget(Mode.X_EQ, 0.05, branch=1),
                            ControlTarget(Mode.P_FLOW, 0.5, branch=1)))
        sys = build_system(case118, (dev,))
        assert sys.rows.companions.size == 2 and sys.rows.vse.size == 1
        w = warm_start(sys, iterations=1)
        return sys, w.V, w.I

    def test_each_side_of_every_capacity_boundary(self, companion_start):
        sys, V, I = companion_start
        full = expand(sys, V, I, self.N_MAX)
        assert np.isfinite(full).all() and np.abs(full[:, -1]).max() > 0
        ks = sorted({k for b in (2, 4, 8, 16, 32) for k in (b - 1, b, b + 1)}
                    | {self.N_MAX - 1})
        for k in ks:
            zs = expand(sys, V, I, k)
            assert zs.shape == (full.shape[0], k + 1)
            assert zs.tobytes() == full[:, :k + 1].tobytes(), k

    def test_yielded_arrays_stay_as_yielded(self, companion_start):
        sys, V, I = companion_start
        lu = lu_factor(jacobian(sys, V, I), sys.pattern)
        seen = [(zs, zs.copy()) for zs in core._orders(
            sys, V, I, residual(sys, V, I), lu, self.N_MAX)]
        assert len(seen) == self.N_MAX
        for n, (zs, copy) in enumerate(seen, 1):
            assert zs.shape[1] == n + 1
            # held in an array of at most twice the orders reached
            assert zs.base.shape[1] <= min(2 * n, self.N_MAX + 1)
            assert zs.tobytes() == copy.tobytes(), n


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
        w = warm_start(sys, iterations=3)
        warm = ffhe_solve(sys, w.V, w.I, tol=1e-10, n_max=60)
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

    @pytest.mark.parametrize("references", [0, 3])
    def test_singular_reference_reported_unconverged(self, references,
                                                     monkeypatch):
        # at V = 0 every PQ row of the Jacobian vanishes: the walk stops at
        # its start, as a Newton step there would, whatever the cap on
        # references
        monkeypatch.setattr(core, "MAX_ITERS", references)
        sys = build_system(slack_pq_net())
        res = ffhe_solve(sys, np.zeros(2, complex), np.zeros(0, complex))
        assert not res.converged
        assert res.terms == 0
        assert not res.V.any()
        assert res.mismatch == res.best_mismatch > 0

    def test_walk_names_why_it_stopped(self, case118, monkeypatch):
        # a singular Jacobian at the start, a line search that finds no
        # step past the loadability limit, and the cap on references
        sys = build_system(slack_pq_net())
        res = ffhe_solve(sys, np.zeros(2, complex), np.zeros(0, complex))
        assert res.cause == newton.SINGULAR
        sys = build_system(slack_pq_net(p=20.0))
        res = ffhe_solve(sys, *flat_start(sys), n_max=40)
        assert res.cause == newton.STALLED
        sys = build_system(case118)
        monkeypatch.setattr(core, "MAX_ITERS", 1)
        res = ffhe_solve(sys, *flat_start(sys), tol=1e-10, n_max=4)
        assert (res.converged, res.cause) == (False, newton.CAPPED)
        monkeypatch.undo()
        res = ffhe_solve(sys, *flat_start(sys), tol=1e-10, n_max=4)
        assert (res.converged, res.cause) == (True, "")

    def test_zero_orders_rejected(self, case118):
        sys = build_system(case118)
        with pytest.raises(ValueError, match="at least one order"):
            ffhe_solve(sys, *flat_start(sys), n_max=0)

    def test_staged_restart_recovers(self, case118, monkeypatch):
        # one reference truncated at four orders fails; further references,
        # each reached by Newton's damped step, finish the job
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        monkeypatch.setattr(core, "MAX_ITERS", 1)
        short = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=4)
        assert not short.converged
        assert short.terms == 4
        monkeypatch.undo()
        staged = ffhe_solve(sys, V0, I0, tol=1e-10, n_max=4)
        assert staged.converged

    @pytest.mark.filterwarnings("error")
    def test_pade_pole_at_one_stops_without_warning(self, case118,
                                                    monkeypatch):
        # a Pade approximant with a pole at a = 1, stood in from the first
        # order: the non-finite state must stop the expansion before it
        # reaches residual(), and the walk goes on by the damped step
        monkeypatch.setattr(
            core, "evaluate_at_one",
            lambda coeffs, pade=False: np.full(coeffs.shape[:-1], np.inf,
                                               dtype=complex))
        monkeypatch.setattr(core, "MAX_ITERS", 2)
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        V0, I0 = flat_start(sys)
        res = ffhe_solve(sys, V0, I0, tol=1e-8, n_max=60, pade=True)
        assert not res.converged
        assert res.terms == 2
        assert res.best_term == 0
        assert np.isfinite(res.mismatch) and res.mismatch < res.best_mismatch

    @pytest.mark.filterwarnings("error")
    def test_walk_back_nudges_its_candidates(self, case118, monkeypatch):
        # an expansion whose order-1 current coefficient is -D, so the
        # full damped step sums the current to 0 (order 2 gives it back at
        # a = 1): the step must evaluate that point nudged, as the next
        # reference would start from it, not divide 0 by 0 in the v_se
        # row's |I|
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        starts = []

        def orders(sys, C, D, r, lu, n_max):
            starts.append(D.copy())
            yield np.vstack([np.column_stack([C, 0 * C, 0 * C]),
                             np.column_stack([D, -D, D])])

        monkeypatch.setattr(core, "_orders", orders)
        res = ffhe_solve(sys, *flat_start(sys))
        assert not res.converged
        assert res.terms == len(starts)
        assert all(abs(d[0]) >= newton.CURRENT_NUDGE for d in starts)

    def test_failed_stage_takes_newtons_damped_step(self, case118,
                                                    monkeypatch):
        # an expansion whose orders >= 2 are garbage: the next reference
        # still starts at Newton's damped step for the reference's own
        # factorisation, handed to the recurrence.  From half the flat
        # voltages the full step raises the mismatch, so the step is
        # halved once.
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        rng = np.random.default_rng(0)
        starts = []

        def orders(sys, C, D, r, lu, n_max):
            starts.append((C.copy(), D.copy()))
            z = np.concatenate([C, D])
            yield np.column_stack([z, lu_solve(lu, -r).view(complex),
                                   1e3 * rng.normal(size=(z.size, 3))])

        monkeypatch.setattr(core, "_orders", orders)
        monkeypatch.setattr(core, "MAX_ITERS", 2)
        V0, I0 = flat_start(sys)
        ffhe_solve(sys, 0.5 * V0, I0)
        assert len(starts) == 2
        C, D = starts[0]
        r = residual(sys, C, D)
        lu = lu_factor(jacobian(sys, C, D), sys.pattern)
        V, I, _, _ = newton._step(sys, C, D, r, lu, np.max(np.abs(r)),
                                  newton.MAX_BACKTRACKS)
        dV, _ = unpack_state(lu_solve(lu, -r), sys.n_bus)
        assert np.max(np.abs(V - (C + 0.5 * dV))) < 1e-12
        assert np.max(np.abs(starts[1][0] - V)) < 1e-12
        assert np.max(np.abs(starts[1][1] - I)) < 1e-12

    def test_damped_step_reuses_the_order_one_residual(self, case118,
                                                       monkeypatch):
        # the step's full length is the order-1 partial sum, bitwise, so
        # its residual, evaluated by the walk, is not evaluated again
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        calls = []
        monkeypatch.setattr(newton, "residual",
                            lambda *a: calls.append(a) or residual(*a))
        monkeypatch.setattr(core, "MAX_ITERS", 1)
        res = ffhe_solve(sys, V0, I0, tol=1e-14, n_max=3)
        assert not res.converged and res.terms >= 2
        assert calls == []
        order1 = expand(sys, V0, I0, 1).sum(axis=1)
        assert res.V.tobytes() == order1[:sys.n_bus].tobytes()
        r1 = residual(sys, res.V, res.I)
        assert res.mismatch == float(np.max(np.abs(r1)))

    def test_damped_step_evaluates_a_nudged_full_step(self, case118,
                                                      monkeypatch):
        # where the order-1 point has a current to nudge, the full step is
        # another point, and its residual is evaluated
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        V0, I0 = flat_start(sys)
        lu = lu_factor(jacobian(sys, V0, I0), sys.pattern)
        dI = unpack_state(lu_solve(lu, -residual(sys, V0, I0)),
                          sys.n_bus)[1]
        r_full = np.zeros(sys.size)     # a stand-in: must not be used
        stepped = newton._damped_step(sys, V0, I0, 0 * V0, 1e-6 - I0,
                                      np.inf, 1, r_full)
        assert stepped[2] is not r_full
        assert stepped[1][0] == pytest.approx(1e-3)
        stepped = newton._damped_step(sys, V0, I0, 0 * V0, dI, np.inf, 1,
                                      r_full)
        assert stepped[2] is r_full

    def test_unconverged_series_carries_its_best_mismatch(self, case118,
                                                          monkeypatch):
        # one reference truncated at four orders fails; the result keeps
        # the lowest mismatch of any partial sum, not that of the point the
        # damped step reached
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        monkeypatch.setattr(core, "MAX_ITERS", 1)
        res = ffhe_solve(sys, V0, I0, tol=1e-14, n_max=4)
        assert not res.converged
        assert res.terms == 4
        zs, n = expand(sys, V0, I0, 4), sys.n_bus
        sums = [zs[:, :k + 1].sum(axis=1) for k in range(1, 5)]
        mis = [float(np.max(np.abs(residual(sys, z[:n], z[n:]))))
               for z in sums]
        assert res.best_mismatch == min(mis)
        assert res.best_term == 1 + int(np.argmin(mis))

    def test_staged_best_mismatch_counts_terms_over_stages(self, case118,
                                                           monkeypatch):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        monkeypatch.setattr(core, "MAX_ITERS", 1)
        first = ffhe_solve(sys, V0, I0, tol=1e-14, n_max=3)
        monkeypatch.undo()
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


#: truncation order N of the order test, and the gap that counts as the
#: residual's own rounding: case118's residual rows near a solution carry
#: ~1e-13 of it
ORDERS = 4
ROUNDING = 1e-12


def embedded_residual_gap(sys, x0, zs, alpha):
    """max |R(x_N(alpha)) - (1 - alpha) R(x0)| for the series coefficients
    ``zs`` of z = [V; I]."""
    za = zs @ alpha ** np.arange(zs.shape[1])
    n = sys.n_bus
    lhs = residual(sys, za[:n], za[n:])
    rhs = (1.0 - alpha) * residual(sys, *x0)
    return float(np.max(np.abs(lhs - rhs)))


def assert_gap_falls_by_order(sys, x0, n=ORDERS) -> float:
    """The series cut at n orders misses the homotopy by O(alpha**(n+1)),
    so halving alpha cuts the gap by at least 2**n, up to rounding.

    alpha is a quarter of the root-test radius of the coefficients, at most
    0.1, so the first omitted term leads the gap.  Returns the gap.
    """
    zs = expand(sys, *x0, n)
    mag = np.max(np.abs(zs), axis=0)
    radius = min((mag[1] / mag[k]) ** (1 / (k - 1)) for k in range(2, n + 1))
    alpha = min(0.1, radius / 4)
    gap, half = (embedded_residual_gap(sys, x0, zs, a)
                 for a in (alpha, alpha / 2))
    assert half <= gap / 2 ** n + ROUNDING, (alpha, gap, half)
    return gap


def assert_order_from_warm_starts(sys):
    """The order test from warm starts of 1, 2 and 3 Newton steps, chord
    steps included, at least one of them above rounding."""
    warm = [warm_start(sys, iterations=k) for k in (1, 2, 3)]
    gaps = [assert_gap_falls_by_order(sys, (w.V, w.I)) for w in warm]
    assert max(gaps) > ROUNDING


class TestEmbeddedResidualProperty:
    """The truncated series satisfies the homotopy R(x(a)) = (1-a) R(x0)
    up to its truncation order.  Each test also checks that some gap it
    saw lies above rounding, so the order was really measured."""

    def test_base_case(self, case118):
        sys = build_system(case118)
        assert assert_gap_falls_by_order(sys, flat_start(sys)) > ROUNDING

    def test_gap_at_zero_is_zero(self, case118):
        sys = build_system(case118)
        x0 = flat_start(sys)
        zs = expand(sys, *x0, 12)
        assert embedded_residual_gap(sys, x0, zs, 0.0) < 1e-14

    @pytest.mark.parametrize("mode,sp", [
        (Mode.P_FLOW, 0.3), (Mode.Q_FLOW, 0.1), (Mode.Q_INJ, 0.05),
        (Mode.V_BUS, 1.0), (Mode.V_SE, 0.1), (Mode.X_EQ, 0.15)])
    def test_each_device_mode(self, case118, mode, sp):
        dev = SsscDevice("s", (101, 102), ControlTarget(mode, sp))
        assert_order_from_warm_starts(build_system(case118, (dev,)))

    def test_ipfc_with_v_se_and_x_eq_targets(self, case118):
        dev = SeriesDevice("i", ((49, 50), (49, 51)),
                           (ControlTarget(Mode.V_SE, 0.05, branch=0),
                            ControlTarget(Mode.X_EQ, 0.05, branch=1),
                            ControlTarget(Mode.P_FLOW, 0.5, branch=1)))
        assert_order_from_warm_starts(build_system(case118, (dev,)))

    def test_random_small_systems(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            net, dev = random_sssc_study(rng)
            assert_order_from_warm_starts(build_system(net, (dev,)))
