"""Acceptance gate: one test per acceptance criterion.

Each test emits a single PASS/FAIL line (visible via ``pytest -v``; printed
detail appears for failures and with ``-s``).  Two value checks are known
reds, kept in their own tests so the mandatory checks they accompany stay
meaningful; the analysis behind them lives in the decisions ledger
(notes/decisions.md):

* ``test_criterion_03_ipfc_reference_values`` — the published two-converter
  case-1 values are not reachable under any admissible reactive dispatch of
  the displaced bus-49 generator: frozen at its device-free 1.156 p.u. the
  flow misses by 0.261, and at its 2.10 p.u. capability by 0.130; the
  least-squares fit needs q = 3.11 p.u. and still misses Sse1 by 1.5e-3;
* ``test_criterion_04_relaxed_flow_value`` — the relaxed study reproduces
  the pinned injected-voltage magnitude exactly but the resulting active
  flow lands at 0.3847 vs the published 0.3860 (1.3e-3, just outside 1e-3).
"""

import re
import time

import numpy as np
import pytest

from conftest import random_network, random_sssc_study
from ffheflow.core import expand
from ffheflow.devices import ControlTarget, Mode, SeriesDevice, SsscDevice
from ffheflow.network import BusKind
from ffheflow.newton import flat_start, nr_solve
from ffheflow.report import RELEASE_MARGIN, StudyError, StudyOptions, \
    run_study
from ffheflow.series import magnitude_coefficient, reciprocal_coefficient
from ffheflow.system import build_system, jacobian, pack_state, residual, \
    unpack_state
from scalar_kernels import convolve

# ----------------------------------------------------------------- scenarios

SSSC_CASES = {
    # six control modes at branch 49-50
    "49-50/p0.75":  ((49, 50), Mode.P_FLOW, 0.75),
    "49-50/q0":     ((49, 50), Mode.Q_FLOW, 0.0),
    "49-50/qse0.3": ((49, 50), Mode.Q_INJ, 0.3),
    "49-50/v1.0":   ((49, 50), Mode.V_BUS, 1.0),
    "49-50/vse0.2": ((49, 50), Mode.V_SE, 0.2),
    "49-50/x-0.2":  ((49, 50), Mode.X_EQ, -0.2),
    # six control modes at branch 101-102
    "101-102/p0.9":   ((101, 102), Mode.P_FLOW, 0.9),
    "101-102/q0":     ((101, 102), Mode.Q_FLOW, 0.0),
    "101-102/qse0.3": ((101, 102), Mode.Q_INJ, 0.3),
    "101-102/v0.9":   ((101, 102), Mode.V_BUS, 0.9),
    "101-102/vse0.1": ((101, 102), Mode.V_SE, 0.1),
    "101-102/x0.1":   ((101, 102), Mode.X_EQ, 0.1),
}

IPFC_CASES = {
    "49/c1": (((49, 50), (49, 51)),
              ((Mode.P_FLOW, 0.75, 0), (Mode.P_FLOW, 0.75, 1),
               (Mode.Q_FLOW, 0.03, 1))),
    "49/c2": (((49, 50), (49, 51)),
              ((Mode.P_FLOW, 0.75, 0), (Mode.Q_FLOW, 0.01, 0),
               (Mode.Q_FLOW, -0.03, 1))),
    "100/c1": (((100, 104), (100, 106)),
               ((Mode.P_FLOW, 0.80, 0), (Mode.P_FLOW, 1.00, 1),
                (Mode.Q_FLOW, 0.00, 1))),
    "100/c2": (((100, 104), (100, 106)),
               ((Mode.P_FLOW, 0.90, 0), (Mode.Q_FLOW, 0.00, 0),
                (Mode.Q_FLOW, 0.00, 1))),
}

#: reference solution values for the twelve single-converter scenarios:
#: sending-bus voltage, injected voltage, branch current (mag, deg) and
#: sending-end flow; None where no reference value is published
SSSC_REFERENCE = {
    "49-50/p0.75":  dict(v=(1.0385, -9.38), vse=(0.0873, 72.75),
                         ise=(0.7251, -17.25), s=0.75 + 0.1036j, xeq=0.1198),
    "49-50/q0":     dict(v=(1.0438, -8.88), vse=(0.2162, 89.99),
                         ise=(0.0, None), s=0.0 + 0.0j, xeq=np.inf),
    "49-50/qse0.3": dict(v=(1.0101, -9.20), vse=(0.2702, 109.27),
                         ise=(1.1103, 19.27), s=0.9859 - 0.5346j, xeq=None),
    "49-50/v1.0":   dict(v=(1.0, -9.24), vse=(0.2696, 112.54),
                         ise=(1.1113, 22.54), s=0.9447 - 0.5853j, xeq=0.2426),
    "49-50/vse0.2": dict(v=(1.0060, -9.03), vse=(0.2, 100.26),
                         ise=(0.9617, 10.26), s=0.9132 - 0.3196j, xeq=0.2080),
    "49-50/x-0.2":  dict(v=(1.0161, -8.59), vse=(0.0705, -115.49),
                         ise=(0.3524, -25.49), s=0.3426 + 0.1042j, xeq=-0.2),
    "101-102/p0.9":   dict(v=(0.9208, -12.96), vse=(0.5114, 63.82),
                           ise=None, s=0.9 + 0.2115j, xeq=None),
    "101-102/q0":     dict(v=(0.9936, -3.98), vse=None, ise=(0.0, None),
                           s=0.0 + 0.0j, xeq=np.inf),
    "101-102/qse0.3": dict(v=(0.9551, -10.59), vse=None, ise=None,
                           s=0.6823 + 0.0927j, xeq=None),
    "101-102/v0.9":   dict(v=(0.9, 3.4903), vse=None, ise=None,
                           s=-0.69 + 0.7514j, xeq=None),
    "101-102/vse0.1": dict(v=(0.9749, 1.49), vse=None, ise=None,
                           s=-0.5697 + 0.2557j, xeq=None),
    "101-102/x0.1":   dict(v=(0.9845, 0.0522), vse=None, ise=None,
                           s=-0.4844 + 0.1709j, xeq=0.1),
}


def make_devices(label):
    if label == "base":
        return ()
    if label == "relax":
        return (SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                           v_se_max=0.3),)
    if label in SSSC_CASES:
        ends, mode, sp = SSSC_CASES[label]
        return (SsscDevice("s", ends, ControlTarget(mode, sp)),)
    branches, targets = IPFC_CASES[label]
    return (SeriesDevice("i", branches,
                         tuple(ControlTarget(m, sp, branch=b)
                               for m, sp, b in targets)),)


ALL_LABELS = ["base"] + list(SSSC_CASES) + list(IPFC_CASES) + ["relax"]


@pytest.fixture(scope="module")
def study(case118):
    """Cached ``get(label, method)`` -> StudyReport (or StudyError)."""
    cache = {}

    def get(label, method="nr-warm-ffhe"):
        key = (label, method)
        if key not in cache:
            try:
                cache[key] = run_study(case118, make_devices(label),
                                       StudyOptions(method=method))
            except StudyError as exc:
                cache[key] = exc
        out = cache[key]
        if isinstance(out, StudyError):
            raise out
        return out

    return get


def check(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {label}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def polar_dev(value, ref):
    """(magnitude deviation, angle deviation in degrees) vs a reference."""
    mag, deg = ref
    dmag = abs(abs(value) - mag)
    if deg is None or abs(value) < 1e-9:
        return dmag, 0.0
    ddeg = abs((np.degrees(np.angle(value)) - deg + 180.0) % 360.0 - 180.0)
    return dmag, ddeg


def setpoint_error(rep, dev_id="s"):
    """Worst attained-setpoint error over a device's control targets."""
    sysdev = next(d for d in rep.system.devices if d.device_id == dev_id)
    outs = rep.device_outputs[dev_id]
    worst = 0.0
    for t in sysdev.targets:
        out = outs[t.branch]
        if t.mode is Mode.P_FLOW:
            err = abs(out.s_line.real - t.setpoint)
        elif t.mode is Mode.Q_FLOW:
            err = abs(out.s_line.imag - t.setpoint)
        elif t.mode is Mode.Q_INJ:
            err = abs(out.s_se.imag - t.setpoint)
        elif t.mode is Mode.V_BUS:
            bus = rep.system.net.index_of[sysdev.target_bus(t)]
            err = abs(abs(rep.V[bus]) - t.setpoint)
        elif t.mode is Mode.V_SE:
            err = abs(abs(out.v_se) - t.setpoint)
        else:
            err = abs(out.x_eq - t.setpoint)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------- criterion 1

#: outer-loop outcome of each scenario under Newton: clamped generators,
#: displaced regulators held at constant Q, relaxed device branches
BASE_CLAMPED = {19, 32, 34, 92, 103, 105}
OUTER_LOOPS = {
    "base": (BASE_CLAMPED, set(), ()),
    "49-50/p0.75": (BASE_CLAMPED, {49}, ()),
    "49-50/q0": (BASE_CLAMPED | {56}, {49}, ()),
    "49-50/qse0.3": (BASE_CLAMPED | {56}, {49}, ()),
    "49-50/v1.0": (BASE_CLAMPED | {56}, {49}, ()),
    "49-50/vse0.2": (BASE_CLAMPED, {49}, ()),
    "49-50/x-0.2": (BASE_CLAMPED, {49}, ()),
    "101-102/p0.9": (BASE_CLAMPED | {100}, set(), ()),
    "101-102/q0": (BASE_CLAMPED, set(), ()),
    "101-102/qse0.3": (BASE_CLAMPED, set(), ()),
    "101-102/v0.9": (BASE_CLAMPED | {100}, set(), ()),
    "101-102/vse0.1": (BASE_CLAMPED, set(), ()),
    "101-102/x0.1": (BASE_CLAMPED, set(), ()),
    "49/c1": (BASE_CLAMPED, {49}, ()),
    "49/c2": (BASE_CLAMPED, {49}, ()),
    "100/c1": (BASE_CLAMPED, {100}, ()),
    "100/c2": (BASE_CLAMPED, {100}, ()),
    "relax": (BASE_CLAMPED, set(), (("s", 0),)),
}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_outer_loop_outcome(study, label):
    rep = study(label, "nr")
    clamped, frozen, relaxed = OUTER_LOOPS[label]
    assert set(rep.clamped_generators) == clamped
    assert set(rep.frozen_q) == frozen
    assert rep.relaxed_branches == relaxed
    # every pinned bus is solved as a fixed-injection bus at its pin
    for ext, q in {**rep.frozen_q, **rep.clamped_generators}.items():
        bus = rep.system.net.bus(ext)
        assert (bus.kind, bus.q_gen) == (BusKind.PQ, q)


@pytest.mark.parametrize("method", ["nr", "nr-warm-ffhe"])
@pytest.mark.parametrize("label", ALL_LABELS)
def test_clamps_meet_complementarity(study, case118, label, method):
    """A reported clamp holds its generator on the side of the setpoint
    that the clamp can hold: at q_max the bus voltage is at most its
    setpoint, at q_min at least (within RELEASE_MARGIN)."""
    rep = study(label, method)
    for ext, q in rep.clamped_generators.items():
        bus = case118.bus(ext)
        above = abs(rep.voltage(ext)) - bus.v_setpoint
        assert q in (bus.q_min, bus.q_max)
        assert (above if q == bus.q_max else -above) <= RELEASE_MARGIN, ext


#: Newton iterations and series terms of each scenario's final solve, so a
#: refactor is seen to do the same work: (iterations, terms) under nr and
#: under nr-warm-ffhe, chord steps with a held factorisation counted as
#: iterations, then the series terms under ffhe
SOLVE_COUNTS = {
    "base": ((5, 0), (3, 1), 5),
    "49-50/p0.75": ((7, 0), (3, 1), 9),
    "49-50/q0": ((3, 0), (3, 0), 3),
    "49-50/qse0.3": ((3, 0), (3, 0), 3),
    "49-50/v1.0": ((4, 0), (3, 1), 4),
    "49-50/vse0.2": ((7, 0), (3, 2), 8),
    "49-50/x-0.2": ((6, 0), (3, 3), 46),
    "101-102/p0.9": ((4, 0), (3, 1), 4),
    "101-102/q0": ((6, 0), (3, 1), 7),
    "101-102/qse0.3": ((16, 0), (3, 17), 24),
    "101-102/v0.9": ((3, 0), (3, 0), 4),
    "101-102/vse0.1": ((12, 0), (3, 5), 21),
    "101-102/x0.1": ((9, 0), (3, 3), 30),
    "49/c1": ((9, 0), (3, 2), 11),
    "49/c2": ((7, 0), (3, 2), 30),
    "100/c1": ((8, 0), (3, 2), 10),
    "100/c2": ((6, 0), (3, 3), 15),
    "relax": ((10, 0), (3, 2), 11),
}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_solve_counts(study, label):
    nr, warm, ffhe_terms = SOLVE_COUNTS[label]
    for method, pinned in (("nr", nr), ("nr-warm-ffhe", warm),
                           ("ffhe", (0, ffhe_terms))):
        st = study(label, method).stats[method]
        assert (st.iterations, st.terms) == pinned, method


def test_failed_series_reports_its_best_mismatch(case118):
    """A 5 p.u. flow target on 49-50, past what the branch can carry, under
    ffhe raises from both starts.  Each walk's last partial sum reaches a
    mismatch of ~1e+39 or more, but the error names the reference the walk
    stopped at, with its mismatch, and the series' best, which counts the
    references and so is never above it: here that reference, reached by
    the damped step after 14 and 18 terms."""
    dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 5.0))
    with pytest.raises(StudyError) as info:
        run_study(case118, (dev,), StudyOptions(method="ffhe"))
    found = re.findall(r"\((\d+) terms, mismatch (\S+); best (\S+) at term "
                       r"(\d+)\)", str(info.value))
    assert [(int(t), int(k)) for t, _, _, k in found] == [(16, 14), (20, 18)]
    for _, last, best, _ in found:
        assert float(best) <= float(last) < 10


def test_criterion_01_base_case(study):
    """Device-free 118-bus solution matches the reference operating point."""
    t0 = time.perf_counter()
    rep = study("base")
    runtime = time.perf_counter() - t0
    devs = []
    for ext, ref in ((49, (1.0250, -8.97)), (100, (1.0170, -1.91)),
                     (101, (0.9928, -0.35))):
        dmag, ddeg = polar_dev(rep.voltage(ext), ref)
        devs.append((f"V{ext}", dmag, ddeg))
    flow_devs = [
        ("S49-50", abs(rep.branch_flow(49, 50) - (0.5367 + 0.1343j))),
        ("S100-106", abs(rep.branch_flow(100, 106) - (0.6058 + 0.0909j))),
    ]
    ok = (all(dm <= 1e-3 and dd <= 0.05 for _, dm, dd in devs)
          and all(d <= 1e-3 for _, d in flow_devs)
          and runtime < 5.0)
    detail = ", ".join([f"{n} dmag={dm:.1e} ddeg={dd:.3f}"
                        for n, dm, dd in devs] +
                       [f"{n} d={d:.1e}" for n, d in flow_devs] +
                       [f"runtime={runtime:.2f}s"])
    check("criterion 1: base-case reference point", ok, detail)


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_sssc_cases(study):
    """All twelve single-converter scenarios: the setpoint-attainment check
    (1e-6) is mandatory; reference-value agreement is checked at 1e-3 /
    0.1 deg and, where it deviates, reported with the observed deviation."""
    failures = []
    deviations = []
    for label in SSSC_CASES:
        rep = study(label)
        err = setpoint_error(rep)
        if err > 1e-6:
            failures.append(f"{label}: setpoint error {err:.2e}")
        # the zero-reactive-flow scenarios must block the line entirely
        if label.endswith("/q0"):
            (out,) = rep.device_outputs["s"]
            if abs(out.i_se) > 1e-6:
                failures.append(f"{label}: |I| = {abs(out.i_se):.2e} != 0")
            if np.isfinite(out.x_eq):
                failures.append(f"{label}: X_eq not flagged infinite")
        # reference-value comparison (reported, not mandatory)
        ref = SSSC_REFERENCE[label]
        (out,) = rep.device_outputs["s"]
        v_send = rep.voltage(SSSC_CASES[label][0][0])
        items = []
        if ref["v"]:
            dm, dd = polar_dev(v_send, ref["v"])
            if dm > 1e-3 or dd > 0.1:
                items.append(f"V dmag={dm:.1e} ddeg={dd:.2f}")
        if ref["vse"]:
            dm, dd = polar_dev(out.v_se, ref["vse"])
            if dm > 1e-3 or dd > 0.1:
                items.append(f"Vse dmag={dm:.1e} ddeg={dd:.2f}")
        if ref["ise"]:
            dm, dd = polar_dev(out.i_se, ref["ise"])
            if dm > 1e-3 or dd > 0.1:
                items.append(f"I dmag={dm:.1e} ddeg={dd:.2f}")
        if ref["s"] is not None and abs(out.s_line - ref["s"]) > 1e-3:
            items.append(f"S d={abs(out.s_line - ref['s']):.1e}")
        if ref["xeq"] is not None and np.isfinite(ref["xeq"]) \
                and abs(out.x_eq - ref["xeq"]) > 1e-3:
            items.append(f"Xeq d={abs(out.x_eq - ref['xeq']):.1e}")
        if items:
            deviations.append(f"{label}: " + "; ".join(items))
    for line in deviations:
        print(f"  value deviation (reported): {line}")
    check("criterion 2: SSSC setpoint attainment, all 12 scenarios",
          not failures, "; ".join(failures) or
          f"{len(deviations)} scenarios deviate from reference values "
          "(reported above; attributable to the displaced-generator "
          "reactive dispatch, see notes/decisions.md)")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_ipfc_setpoints_and_balance(study):
    """Two-converter scenarios at both locations: setpoints within 1e-6 and
    converter active-power balance Re(S_se1) = -Re(S_se2) within 1e-7."""
    failures = []
    for label in IPFC_CASES:
        rep = study(label)
        err = setpoint_error(rep, "i")
        if err > 1e-6:
            failures.append(f"{label}: setpoint error {err:.2e}")
        o0, o1 = rep.device_outputs["i"]
        bal = abs(o0.s_se.real + o1.s_se.real)
        if bal > 1e-7:
            failures.append(f"{label}: power-exchange imbalance {bal:.2e}")
    check("criterion 3: IPFC setpoints and converter power balance",
          not failures, "; ".join(failures))


def test_criterion_03_ipfc_reference_values(study):
    """KNOWN RED: published two-converter case-1 values.  The deviations
    (S49-50 0.261, Sse1 0.0243) are those under the frozen bus-49 dispatch;
    no dispatch brings both inside 1e-3, and those that come near lie
    beyond the generator's capability (see module docstring and
    notes/decisions.md)."""
    rep = study("49/c1")
    o0, _ = rep.device_outputs["i"]
    d_flow = abs(rep.branch_flow(49, 50) - (0.75 + 0.4716j))
    d_sse = abs(o0.s_se - (0.0459 + 0.0842j))
    check("criterion 3: IPFC case-1 reference values",
          d_flow <= 1e-3 and d_sse <= 1e-3,
          f"S49-50 deviation {d_flow:.2e}, Sse1 deviation {d_sse:.2e}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_vse_limit_relaxation(study):
    """Overloaded flow target relaxes to the injected-voltage ceiling, which
    is then held exactly."""
    rep = study("relax")
    (out,) = rep.device_outputs["s"]
    ok = (rep.relaxed_branches == (("s", 0),)
          and abs(abs(out.v_se) - 0.3) <= 1e-6)
    check("criterion 4: injected-voltage limit relaxation",
          ok, f"relaxed={rep.relaxed_branches}, |Vse|={abs(out.v_se):.8f}")


def test_criterion_04_relaxed_flow_value(study):
    """KNOWN RED: active flow after relaxation lands 1.3e-3 from the
    published value (see module docstring and notes/decisions.md)."""
    rep = study("relax")
    (out,) = rep.device_outputs["s"]
    d = abs(out.s_line.real - 0.3860)
    check("criterion 4: relaxed-scenario flow value", d <= 1e-3,
          f"Re S = {out.s_line.real:.4f} vs 0.3860, deviation {d:.2e}")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_series_identities():
    """Reciprocal (1e-12) and magnitude (1e-10) companion identities on
    1000 random series of order up to 30, in under 10 seconds."""
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    worst_rec = worst_mag = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        # a dominant leading coefficient keeps the reciprocal companion
        # bounded, as it is for a warm-started device-current series
        decay = rng.uniform(0.2, 0.5)
        i = (0.3 * (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
             * decay ** np.arange(n + 1))
        i[0] = rng.uniform(1.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f = np.zeros(n + 1, dtype=complex)
        m = np.zeros(n + 1)
        f[0] = 1.0 / i[0]
        m[0] = abs(i[0])
        for k in range(1, n + 1):
            f[k] = reciprocal_coefficient(f, i, k)
            m[k] = magnitude_coefficient(m, i, k)
        for k in range(n + 1):
            unit = 1.0 if k == 0 else 0.0
            worst_rec = max(worst_rec, abs(convolve(f, i, k) - unit))
            worst_mag = max(worst_mag,
                            abs(convolve(m, m, k) - convolve(i, np.conj(i), k)))
    elapsed = time.perf_counter() - t0
    check("criterion 5: companion-series identities",
          worst_rec <= 1e-12 and worst_mag <= 1e-10 and elapsed < 10.0,
          f"reciprocal {worst_rec:.2e}, magnitude {worst_mag:.2e}, "
          f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_embedded_residual_property():
    """On 50 random small networks with a random-mode series device, the
    truncated series satisfies R(x(a)) = (1 - a) R(x0) to 1e-10."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        net, dev = random_sssc_study(rng)
        sysd = build_system(net, (dev,))
        # expand from a perturbed solution so the truncated tail at
        # a = 0.05 is far below the tolerance being verified
        nr = nr_solve(sysd)
        C = nr.V * (1 + 0.01 * (rng.normal(size=nr.V.size)
                                + 1j * rng.normal(size=nr.V.size)))
        D = nr.I * (1 + 0.01 * (rng.normal(size=nr.I.size)
                                + 1j * rng.normal(size=nr.I.size)))
        zs = expand(sysd, C, D, 14)
        v_series, i_series = zs[:sysd.n_bus], zs[sysd.n_bus:]
        # probe inside the disc of convergence: bound the coefficient
        # growth ratio (including the reciprocal/magnitude companions the
        # magnitude-normalised rows use, which grow fastest) and keep the
        # geometric tail far below the tolerance
        rows = [v_series, i_series]
        if dev.targets[0].mode in (Mode.V_SE, Mode.X_EQ):
            i_ser = i_series[0]
            f = np.zeros(i_ser.size, dtype=complex)
            m = np.zeros(i_ser.size)
            f[0], m[0] = 1.0 / i_ser[0], abs(i_ser[0])
            for k in range(1, i_ser.size):
                f[k] = reciprocal_coefficient(f, i_ser, k)
                m[k] = magnitude_coefficient(m, i_ser, k)
            rows += [f[None, :], m[None, :].astype(complex)]
        norms = np.max(np.abs(np.vstack(rows)), axis=0)
        n_ord = norms.size - 1
        ratio = norms[-1] / max(norms[-2], 1e-12)
        a_probe = min(0.05,
                      (1e-13 / max(norms[-1], 1e-13)) ** (1.0 / n_ord),
                      0.5 / max(ratio, 1e-12))
        base = residual(sysd, np.asarray(C), np.asarray(D))
        for a in (0.0, a_probe):
            powers = a ** np.arange(zs.shape[1])
            Va = v_series @ powers
            Ia = i_series @ powers
            gap = np.max(np.abs(residual(sysd, Va, Ia) - (1 - a) * base))
            worst = max(worst, float(gap))
    check("criterion 6: embedded-residual homotopy property",
          worst <= 1e-10, f"worst gap {worst:.2e}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_series_newton_agreement(study):
    """The pure series method converges on every scenario, and its voltages
    agree with the direct Newton solution to 1e-6."""
    failures = []
    for label in ALL_LABELS:
        nr = study(label, "nr")
        try:
            ffhe = study(label, "ffhe")
        except StudyError as exc:
            failures.append(f"{label}: {exc}")
            continue
        gap = float(np.max(np.abs(ffhe.V - nr.V)))
        if gap > 1e-6:
            failures.append(f"{label}: voltage gap {gap:.2e}")
    check("criterion 7: series/Newton voltage agreement",
          not failures,
          "; ".join(failures) or
          f"{len(ALL_LABELS)} configurations compared")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_jacobian_vs_finite_difference():
    """Analytic Jacobian matches a central finite difference to 1e-5 on 20
    random small systems, half of them carrying a series device."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(20):
        if k % 2 == 0:
            sysk = build_system(random_network(rng))
        else:
            net, dev = random_sssc_study(rng)
            sysk = build_system(net, (dev,))
        V, I = flat_start(sysk)
        V = V * (1 + 0.02 * (rng.normal(size=V.size)
                             + 1j * rng.normal(size=V.size)))
        if I.size:
            I[:] = 0.3 - 0.15j
        J = jacobian(sysk, V, I).toarray()
        x0 = pack_state(V, I)
        h = 1e-7
        for col in range(sysk.size):
            xp, xm = x0.copy(), x0.copy()
            xp[col] += h
            xm[col] -= h
            col_fd = (residual(sysk, *unpack_state(xp, sysk.n_bus))
                      - residual(sysk, *unpack_state(xm, sysk.n_bus))) \
                / (2 * h)
            worst = max(worst, float(np.max(np.abs(J[:, col] - col_fd))))
    check("criterion 8: analytic vs finite-difference Jacobian",
          worst <= 1e-5, f"worst entry deviation {worst:.2e}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_warm_start_efficiency(study):
    """A three-iteration Newton warm start lets the series converge in
    strictly fewer terms than the cold expansion; the error and runtime
    improvement metrics are computed and reported (the runtime one is
    hardware noise and is never asserted)."""
    rep = study("49-50/p0.75", "compare")
    warm = rep.stats["nr-warm-ffhe"]
    cold = rep.stats.get("ffhe")
    assert cold is not None, "cold series run did not converge"
    print(f"  terms: warm {warm.terms} vs cold {cold.terms}; "
          f"error improvement {rep.comparison['delta_e_pct']:.2f}%, "
          f"runtime improvement {rep.comparison['delta_t_pct']:.2f}% "
          "(reported only)")
    check("criterion 9: warm start reduces series terms",
          warm.terms < cold.terms,
          f"warm {warm.terms} vs cold {cold.terms} terms")


def test_criterion_09_one_step_warm_start_runs_the_series(study, case118):
    """Companion to criterion 9, which holds only because a three-step warm
    start leaves the series nothing to do: after a single warm Newton step
    the series itself finishes every scenario, with at least two orders,
    and lands within 1e-6 of the direct Newton solution.  Solved to 1e-10:
    from the base study's clamps a warm step can land within 1e-8, and then
    one order is all that is left to check."""
    opts = StudyOptions(method="nr-warm-ffhe", warm_iters=1, tol=1e-10)
    failures = []
    for label in ALL_LABELS:
        rep = run_study(case118, make_devices(label), opts)
        terms = rep.stats["nr-warm-ffhe"].terms
        gap = float(np.max(np.abs(rep.V - study(label, "nr").V)))
        if terms < 2 or gap > 1e-6:
            failures.append(f"{label}: {terms} terms, voltage gap {gap:.2e}")
    check("criterion 9: one-step warm start, series runs >= 2 orders",
          not failures, "; ".join(failures) or
          f"{len(ALL_LABELS)} scenarios")
