"""Study orchestration: limit handling, warm starts, method dispatch.

A *study* is one case plus an optional set of series devices, solved to
convergence with generator reactive limits and device injected-voltage
limits enforced by outer loops:

* generator limits — after each converged solve the reactive output of every
  voltage-regulating generator is checked against its capability; violators
  are converted to constant-Q buses pinned at the violated limit and the
  study is re-solved until no new violation appears;
* device limits — a branch whose injected-voltage magnitude exceeds its
  configured ceiling has its control target replaced by an
  injected-voltage-magnitude target pinned at the ceiling.

Device studies are warm-started from the device-free Newton solution of the
same case.  That pre-solve is shared: it is memoised per (case, Newton
options), keyed on the content of the :class:`Network` and of the options
it uses, so every device study of a case after the first reuses it; its
voltage and current arrays are read-only.  A device-free study always
solves afresh and returns its own report.  In the warm start, original
buses keep their solved voltages, each auxiliary bus starts from a
transparent-device state (sending-bus voltage, original line current),
except that a zero reactive-flow target starts from the line-blocking
state (receiving-bus voltage, zero current), which is the branch of the
solution manifold such a target is meant to select.

When a generator shares its bus with a device sending end it can no longer
regulate the voltage there; it is converted to constant-Q at its solved
device-free output.  If a voltage-magnitude target on that same bus makes
the frozen value infeasible, the generator is re-pinned at the reactive
limit that admits a solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import FfheResult, ffhe_solve
from .devices import Mode, branch_outputs, relax_violations
from .network import BusKind, Network
from .newton import ConvergenceError, nr_solve, warm_start
from .system import System, build_system, residual

METHODS = ("ffhe", "nr", "nr-warm-ffhe", "compare")

#: mismatch floor used when comparing error magnitudes on a log scale
LOG_FLOOR = 1e-16


class StudyError(RuntimeError):
    """The study could not be completed (divergence, limit cycling, ...)."""


@dataclass(frozen=True)
class StudyOptions:
    method: str = "nr-warm-ffhe"
    tol: float = 1e-8
    max_terms: int = 60
    warm_iters: int = 3
    pade: bool = False
    enforce_q_limits: bool = True
    max_limit_passes: int = 12
    max_relax_passes: int = 5
    restarts: int = 10

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0 or self.max_terms < 1 or self.warm_iters < 1:
            raise ValueError("tol, max_terms and warm_iters must be positive")


@dataclass
class MethodStats:
    """Per-method cost of the final (fully limited) solve."""
    iterations: int = 0        # Newton iterations (full solves + warm starts)
    terms: int = 0             # series terms summed over restarts
    mismatch: float = np.nan
    runtime_s: float = 0.0


@dataclass
class StudyReport:
    converged: bool
    method: str
    system: System
    V: np.ndarray
    I: np.ndarray
    mismatch: float
    runtime_s: float
    clamped_generators: dict = field(default_factory=dict)
    relaxed_branches: tuple = ()
    device_outputs: dict = field(default_factory=dict)
    frozen_q: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)     # method name -> MethodStats
    comparison: dict = field(default_factory=dict)

    def voltage(self, ext_id: int) -> complex:
        return self.V[self.system.net.index_of[ext_id]]

    def branch_flow(self, i: int, j: int) -> complex:
        """Sending-end complex power on branch i-j (device branches via the
        device current)."""
        net = self.system.net
        for dev in self.system.devices:
            for be in dev.branches:
                if (net.buses[be.i_idx].ext_id, be.j_ext) == (i, j):
                    return self.V[be.i_idx] * np.conj(self.I[be.cur_idx])
        bidx = net.find_branch(i, j)
        br = net.branches[bidx]
        ys = 1.0 / br.series_impedance
        bc = 1j * br.charging_b / 2.0
        t = br.tap
        fi, ti = net.index_of[br.from_bus], net.index_of[br.to_bus]
        if br.from_bus == i:
            cur = (self.V[fi] / t * (ys + bc) - self.V[ti] * ys) / np.conj(t)
            return self.V[fi] * np.conj(cur)
        cur = self.V[ti] * (ys + bc) - self.V[fi] / t * ys
        return self.V[ti] * np.conj(cur)


def generator_reactive_output(sys: System, V, I, bus_idx) -> np.ndarray:
    """Reactive power the generators must supply at the internal bus indices
    ``bus_idx`` (an array of them), from one network matvec."""
    bus_idx = np.asarray(bus_idx, dtype=np.intp)
    inet = (sys.ybus @ V + sys.incidence @ I)[bus_idx]
    q_load = np.array([sys.net.buses[b].q_load for b in bus_idx])
    return (V[bus_idx] * np.conj(inet)).imag + q_load


def _clamped_network(net: Network, clamped: dict) -> Network:
    if not clamped:
        return net
    buses = tuple(
        replace(b, kind=BusKind.PQ, q_gen=clamped[b.ext_id])
        if b.ext_id in clamped else b
        for b in net.buses)
    return Network(buses=buses, branches=net.branches,
                   base_mva=net.base_mva, name=net.name)


def _q_violations(sys: System, V, I, limits_net: Network) -> dict:
    pv = np.flatnonzero(sys.pv)
    limits_idx = limits_net.index_of
    viol = {}
    for bi, qg in zip(pv, generator_reactive_output(sys, V, I, pv)):
        ext = sys.net.buses[bi].ext_id
        orig = limits_net.buses[limits_idx[ext]]
        if qg > orig.q_max + 1e-9:
            viol[ext] = orig.q_max
        elif qg < orig.q_min - 1e-9:
            viol[ext] = orig.q_min
    return viol


#: current-seed amplification for voltage-magnitude control, which needs a
#: strong series injection and otherwise settles on the depressed-voltage
#: solution branch
VOLTAGE_TARGET_BOOST = 1.5


def _device_start(sys: System, base_V: np.ndarray, base_report: StudyReport):
    """Warm start for a device study from the device-free solution.

    Auxiliary buses start transparent (sending-bus voltage) with the
    configured current guess.  Two targeted overrides pick the intended
    solution branch: a device whose single job is zero reactive flow starts
    from the line-blocking state (receiving-bus voltage, zero current), and
    voltage-magnitude control seeds the current with an amplified copy of
    the original line current.
    """
    V0 = np.empty(sys.n_bus, dtype=complex)
    V0[:len(base_V)] = base_V
    I0 = np.zeros(sys.n_currents, dtype=complex)
    idx = sys.net.index_of
    for dev in sys.devices:
        blocking = (len(dev.branches) == 1 and len(dev.targets) == 1
                    and dev.targets[0].mode is Mode.Q_FLOW
                    and dev.targets[0].setpoint == 0.0)
        has_vbus = any(t.mode is Mode.V_BUS for t in dev.targets)
        for k, be in enumerate(dev.branches):
            i_ext = sys.net.buses[be.i_idx].ext_id
            if blocking:
                V0[be.m_idx] = base_V[idx[be.j_ext]]
                continue
            V0[be.m_idx] = base_V[be.i_idx]
            I0[be.cur_idx] = dev.current_guesses[k]
            if has_vbus:
                s = base_report.branch_flow(i_ext, be.j_ext)
                I0[be.cur_idx] = VOLTAGE_TARGET_BOOST * \
                    np.conj(s / base_V[be.i_idx])
    return V0, I0


def _solve_method(sys: System, method: str, V0, I0, opts: StudyOptions):
    """One converged solve with the requested method.  Returns
    (V, I, MethodStats)."""
    t0 = time.perf_counter()
    if method == "nr":
        res = nr_solve(sys, V0, I0, tol=opts.tol)
        stats = MethodStats(iterations=res.iterations, terms=0,
                            mismatch=res.mismatch,
                            runtime_s=time.perf_counter() - t0)
        return res.V, res.I, stats

    warm_n = 0
    if method == "nr-warm-ffhe":
        V0, I0, warm_n = warm_start(sys, iterations=opts.warm_iters,
                                    tol=opts.tol, V0=V0, I0=I0)
    elif V0 is None or I0 is None:
        from .newton import flat_start
        V0, I0 = flat_start(sys)
    res = ffhe_solve(sys, V0, I0, tol=opts.tol, n_max=opts.max_terms,
                     pade=opts.pade, restarts=opts.restarts)
    if not res.converged:
        raise ConvergenceError(
            f"series did not converge ({res.terms} terms, "
            f"mismatch {res.mismatch:.3e})")
    stats = MethodStats(iterations=warm_n, terms=res.terms,
                        mismatch=res.mismatch,
                        runtime_s=time.perf_counter() - t0)
    return res.V, res.I, stats


def _limited_solve(net: Network, devices, opts: StudyOptions, frozen_q,
                   start, limits_net: Network):
    """Solve with the generator reactive-limit outer loop.

    ``start`` maps a freshly built system to (V0, I0) or (None, None).
    Returns (sys, V, I, stats, clamped).
    """
    clamped: dict = {}
    prev = None
    for _ in range(opts.max_limit_passes):
        sysi = build_system(_clamped_network(net, clamped), devices,
                            frozen_q=frozen_q)
        if prev is not None:
            V0, I0 = prev
        else:
            V0, I0 = start(sysi)
        V, I, stats = _solve_method(sysi, opts.method if opts.method != "compare"
                                    else "nr", V0, I0, opts)
        if not opts.enforce_q_limits:
            return sysi, V, I, stats, clamped
        viol = _q_violations(sysi, V, I, limits_net)
        if not viol:
            return sysi, V, I, stats, clamped
        clamped.update(viol)
        prev = (V, I)
    raise StudyError(
        f"generator limit enforcement did not settle in "
        f"{opts.max_limit_passes} passes (clamped: {sorted(clamped)})")


def _frozen_q_candidates(net: Network, devices, base_sys, base_V, base_I):
    """Frozen-Q assignment for regulating generators at device sending buses,
    plus fallbacks for voltage-target feasibility."""
    idx = net.index_of
    displaced = list(dict.fromkeys(
        i for dev in devices for (i, _j) in dev.branches
        if net.buses[idx[i]].kind is BusKind.PV))
    q = generator_reactive_output(base_sys, base_V, base_I,
                                  [idx[i] for i in displaced])
    frozen = dict(zip(displaced, q.tolist()))
    vbus_targets = set()
    for dev in devices:
        for t in dev.targets:
            if t.mode is Mode.V_BUS:
                vbus_targets.add(t.bus if t.bus is not None
                                 else dev.branches[t.branch][0])
    candidates = [dict(frozen)]
    for b in sorted(frozen):
        if b in vbus_targets:
            bus = net.bus(b)
            for lim in (bus.q_min, bus.q_max):
                if np.isfinite(lim):
                    alt = dict(frozen)
                    alt[b] = float(lim)
                    candidates.append(alt)
    return candidates


def run_study(net: Network, devices=(), options: StudyOptions | None = None):
    """Solve one study end to end and assemble a :class:`StudyReport`."""
    opts = options or StudyOptions()
    t_start = time.perf_counter()
    devices = tuple(devices)

    if not devices:
        sys_, V, I, stats, clamped = _limited_solve(
            net, (), opts, None, lambda s: (None, None), net)
        report = StudyReport(
            converged=True, method=opts.method, system=sys_, V=V, I=I,
            mismatch=float(np.max(np.abs(residual(sys_, V, I)))),
            runtime_s=time.perf_counter() - t_start,
            clamped_generators=clamped,
            stats={opts.method: stats})
        if opts.method == "compare":
            _attach_comparison(report, net, (), opts, None,
                               lambda s: (None, None), net)
        return report

    # device-free pre-solve of the same case supplies the warm start and the
    # frozen reactive outputs of displaced regulating generators
    base = _base_solution(net, StudyOptions(
        method="nr", tol=opts.tol, enforce_q_limits=opts.enforce_q_limits,
        max_limit_passes=opts.max_limit_passes))

    def start(sysi):
        return _device_start(sysi, base.V, base)

    last_err = None
    for frozen in _frozen_q_candidates(net, devices, base.system,
                                       base.V, base.I):
        try:
            result = _relaxed_solve(net, devices, opts, frozen, start)
            break
        except (ConvergenceError, StudyError) as exc:
            last_err = exc
    else:
        raise StudyError(f"device study did not converge: {last_err}")

    sys_, V, I, stats, clamped, active_devices, relaxed = result
    outputs = _collect_outputs(sys_, V, I)
    report = StudyReport(
        converged=True, method=opts.method, system=sys_, V=V, I=I,
        mismatch=float(np.max(np.abs(residual(sys_, V, I)))),
        runtime_s=time.perf_counter() - t_start,
        clamped_generators=clamped,
        relaxed_branches=tuple(relaxed),
        device_outputs=outputs,
        frozen_q=frozen,
        stats={opts.method: stats})
    if opts.method == "compare":
        _attach_comparison(report, net, active_devices, opts, frozen,
                           start, net)
    return report


@lru_cache(maxsize=8)
def _base_solution(net: Network, opts: StudyOptions) -> StudyReport:
    """Device-free study of ``net`` shared by the device studies of the same
    case; ``opts`` holds only the options a Newton pre-solve uses.  Its
    ``V`` and ``I`` are read-only, so a stray in-place write raises instead
    of corrupting later studies."""
    base = run_study(net, (), opts)
    base.V.setflags(write=False)
    base.I.setflags(write=False)
    return base


def _relaxed_solve(net, devices, opts, frozen, start):
    """Generator-limit solve wrapped in the injected-voltage relaxation
    loop."""
    active = list(devices)
    relaxed_all = []
    for _ in range(opts.max_relax_passes):
        sys_, V, I, stats, clamped = _limited_solve(
            net, tuple(active), opts, frozen, start, net)
        outputs = _collect_outputs(sys_, V, I)
        active, newly = relax_violations(active, outputs)
        if not newly:
            return sys_, V, I, stats, clamped, tuple(active), tuple(relaxed_all)
        relaxed_all.extend(newly)
    raise StudyError(
        f"injected-voltage limit relaxation cycled for "
        f"{opts.max_relax_passes} passes ({relaxed_all})")


def _collect_outputs(sys: System, V, I) -> dict:
    outs: dict = {}
    for dev in sys.devices:
        outs[dev.device_id] = [
            branch_outputs(V[be.i_idx], V[be.m_idx], I[be.cur_idx])
            for be in dev.branches]
    return outs


def _attach_comparison(report: StudyReport, net, devices, opts, frozen,
                       start, limits_net):
    """Run the flat-series, warm-series and Newton variants on the final
    limited configuration and attach agreement/efficiency metrics."""
    clamped_net = _clamped_network(net, report.clamped_generators)
    sys_ = build_system(clamped_net, devices, frozen_q=frozen)
    V0, I0 = start(sys_)

    t0 = time.perf_counter()
    nr_res = nr_solve(sys_, V0, I0, tol=opts.tol)
    t_nr = time.perf_counter() - t0
    report.stats["nr"] = MethodStats(
        iterations=nr_res.iterations, mismatch=nr_res.mismatch,
        runtime_s=t_nr)

    t0 = time.perf_counter()
    Vw, Iw, warm_n = warm_start(sys_, iterations=opts.warm_iters,
                                tol=opts.tol, V0=V0, I0=I0)
    warm_res = ffhe_solve(sys_, Vw, Iw, tol=opts.tol, n_max=opts.max_terms,
                          pade=opts.pade, restarts=opts.restarts)
    t_warm = time.perf_counter() - t0
    report.stats["nr-warm-ffhe"] = MethodStats(
        iterations=warm_n, terms=warm_res.terms,
        mismatch=warm_res.mismatch, runtime_s=t_warm)

    t0 = time.perf_counter()
    if V0 is None or I0 is None:
        from .newton import flat_start
        V0, I0 = flat_start(sys_)
    flat_res = ffhe_solve(sys_, V0, I0, tol=opts.tol,
                          n_max=opts.max_terms, pade=opts.pade,
                          restarts=opts.restarts)
    t_flat = time.perf_counter() - t0
    if flat_res.converged:
        report.stats["ffhe"] = MethodStats(
            terms=flat_res.terms, mismatch=flat_res.mismatch,
            runtime_s=t_flat)

    report.comparison = {
        "voltage_gap": float(np.max(np.abs(warm_res.V - nr_res.V)))
        if warm_res.converged else np.inf,
        "delta_e_pct": error_improvement_pct(warm_res.mismatch,
                                             nr_res.mismatch),
        "delta_t_pct": runtime_improvement_pct(t_nr, t_warm),
    }


def error_improvement_pct(mis_series: float, mis_newton: float) -> float:
    """Relative log-scale mismatch improvement of the series solve over the
    Newton solve, in percent."""
    ls = np.log10(max(abs(mis_series), LOG_FLOOR))
    ln = np.log10(max(abs(mis_newton), LOG_FLOOR))
    return float(abs(ls - ln) / abs(ln) * 100.0)


def runtime_improvement_pct(t_newton: float, t_series: float) -> float:
    """Runtime saving of the series solve relative to Newton, in percent."""
    if t_newton <= 0:
        return 0.0
    return float((t_newton - t_series) / t_newton * 100.0)
