"""Study orchestration: limit handling, warm starts, method dispatch.

A *study* is one case plus an optional set of series devices, solved to
convergence with generator reactive limits and device injected-voltage
limits enforced by one loop of outer passes, :func:`_passes`, at most
:data:`MAX_PASSES` in all.  A device study's first pass starts with the
device-free study's clamped generators already pinned at their limits.
Each pass builds its system, solves it, and:

* generator limits — if any regulating generator's reactive output is
  outside its capability, pins each violator at its limit; the next pass
  starts from this pass's solution;
* release — else, if a pinned generator's bus voltage lies beyond its
  setpoint on the side its clamp cannot hold (pinned at ``q_max`` with
  |V| above the setpoint, or at ``q_min`` with |V| below it, by more than
  :data:`RELEASE_MARGIN`), lets it regulate again; the next pass starts
  from this pass's solution.  A bus is released at most once between
  relaxations, so the passes cannot cycle;
* device limits — else, if a branch's injected-voltage magnitude exceeds
  its ceiling, replaces its target by a magnitude target at the ceiling;
  the next pass starts again from the study's start and its first clamps,
  as one clamped under the old target may not need it now;
* else builds the report, whose clamps hold their generators on the side
  of the setpoint that a clamp can hold.

Studies with and without devices run one path.  Each pass builds its system
from the case, the devices and one map of constant-Q pins, which holds the
clamped generators and the displaced regulators alike.  A device-free study
has one start: no pins, a flat start.  A device study holds its displaced
regulators at one frozen-Q map (see below) and starts from the device-free
clamps, if there are any, then with no generator pinned; the first start
that settles gives the report, and if none does the :class:`StudyError`
names each start with its reason.  Placement errors are found by one
:func:`build_system` call before any solve.

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
regulate the voltage there; it is pinned at its solved device-free output,
unless a voltage-magnitude target holds that bus at or below the
generator's setpoint: then it is pinned at its ``q_min``, which pulls the
voltage the same way as the device, where that limit is finite.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .core import ffhe_solve
from .devices import (DeviceConfigError, Mode, branch_outputs,
                      relax_violations)
from .network import BusKind, Network
from .newton import (ConvergenceError, SolveResult, failure, flat_start,
                     nr_solve, warm_start)
from .system import System, build_system
from .system import residual  # noqa: F401  (perfbench/layers.py times it here)

METHODS = ("ffhe", "nr", "nr-warm-ffhe", "compare")

#: mismatch floor used when comparing error magnitudes on a log scale
LOG_FLOOR = 1e-16

#: cap on a study's outer passes, generator-limit and relaxation alike
MAX_PASSES = 60

#: how far (p.u.) a clamped generator's bus voltage must lie beyond its
#: setpoint, on the side its clamp cannot hold, before the clamp is released
RELEASE_MARGIN = 1e-6


class StudyError(RuntimeError):
    """The study could not be completed (divergence, limit cycling, ...)."""


@dataclass(frozen=True)
class StudyOptions:
    method: str = "nr-warm-ffhe"
    tol: float = 1e-8
    max_terms: int = 60
    warm_iters: int = 3
    pade: bool = False

    def __post_init__(self):
        for key, types, name in (("tol", numbers.Real, "a number"),
                                 ("max_terms", numbers.Integral, "an integer"),
                                 ("warm_iters", numbers.Integral, "an integer"),
                                 ("pade", bool, "true or false")):
            val = getattr(self, key)     # a boolean is not a number
            if not isinstance(val, types) or \
                    isinstance(val, bool) and types is not bool:
                raise ValueError(f"{key} must be {name}, not {val!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.tol < np.inf:       # NaN too
            raise ValueError(f"tol must be positive and finite: {self.tol}")
        if self.max_terms < 1 or self.warm_iters < 1:
            raise ValueError("max_terms and warm_iters must be positive")


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
    stats: dict = field(default_factory=dict)     # method -> SolveResult
    comparison: dict = field(default_factory=dict)

    def voltage(self, ext_id: int) -> complex:
        return self.V[self.system.structure.net.index_of[ext_id]]

    def branch_flow(self, i: int, j: int) -> complex:
        """Complex power at bus i into branch i-j.  At a device's sending
        bus that is the device current's; at its receiving bus, the flow
        into the spliced branch from the auxiliary bus."""
        net = self.system.structure.net
        for branches in self.system.structure.branches:
            for be in branches:
                ends = (net.buses[be.i_idx].ext_id, be.j_ext)
                if ends == (i, j):
                    return self.V[be.i_idx] * np.conj(self.I[be.cur_idx])
                if ends == (j, i):
                    return self.branch_flow(i, net.buses[be.m_idx].ext_id)
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
    inet = (sys.yc @ np.concatenate([V, I]))[bus_idx]
    return (V[bus_idx] * np.conj(inet)).imag + sys.structure.q_load[bus_idx]


def _q_violations(sys: System, V, I) -> dict:
    """Ext id -> violated limit of each regulating generator outside its
    reactive capability."""
    st = sys.structure
    pv = np.flatnonzero(sys.pv)
    qg = generator_reactive_output(sys, V, I, pv)
    q_min, q_max = st.q_min[pv], st.q_max[pv]
    over = qg > q_max + 1e-9
    hit = over | (qg < q_min - 1e-9)
    return {st.net.buses[b].ext_id: q for b, q in zip(
        pv[hit].tolist(), np.where(over, q_max, q_min)[hit].tolist())}


#: current-seed amplification for voltage-magnitude control, which needs a
#: strong series injection and otherwise settles on the depressed-voltage
#: solution branch
VOLTAGE_TARGET_BOOST = 1.5


def _device_start(sys: System, base: StudyReport):
    """Warm start for a device study from the device-free solution.

    Auxiliary buses start transparent (sending-bus voltage) with the
    configured current guess.  Two targeted overrides pick the intended
    solution branch: a device whose single job is zero reactive flow starts
    from the line-blocking state (receiving-bus voltage, zero current), and
    voltage-magnitude control seeds the current with an amplified copy of
    the original line current.
    """
    V0 = np.empty(sys.n_bus, dtype=complex)
    V0[:len(base.V)] = base.V
    I0 = np.zeros(sys.n_currents, dtype=complex)
    net = sys.structure.net
    for dev, branches in zip(sys.devices, sys.structure.branches):
        blocking = (len(branches) == 1 and len(dev.targets) == 1
                    and dev.targets[0].mode is Mode.Q_FLOW
                    and dev.targets[0].setpoint == 0.0)
        has_vbus = any(t.mode is Mode.V_BUS for t in dev.targets)
        for be, guess in zip(branches, dev.current_guess):
            if blocking:
                V0[be.m_idx] = base.V[net.index_of[be.j_ext]]
                continue
            V0[be.m_idx] = base.V[be.i_idx]
            I0[be.cur_idx] = guess
            if has_vbus:
                s = base.branch_flow(net.buses[be.i_idx].ext_id, be.j_ext)
                I0[be.cur_idx] = VOLTAGE_TARGET_BOOST * \
                    np.conj(s / base.V[be.i_idx])
    return V0, I0


def _solve_method(sys: System, method: str, V0, I0,
                  opts: StudyOptions) -> SolveResult:
    """One timed solve with the requested method; a warm-started series
    counts the warm start's Newton steps as its ``iterations``.

    Newton raises :class:`ConvergenceError` when it fails; a series that
    does not converge is returned with ``converged`` False."""
    t0 = time.perf_counter()
    steps = 0
    if method == "nr-warm-ffhe":
        warm = warm_start(sys, iterations=opts.warm_iters, tol=opts.tol,
                          V0=V0, I0=I0)
        V0, I0, steps = warm.V, warm.I, warm.iterations
    if method == "nr":
        res = nr_solve(sys, V0, I0, tol=opts.tol)
    else:
        res = ffhe_solve(sys, V0, I0, tol=opts.tol, n_max=opts.max_terms,
                         pade=opts.pade)
        res.iterations = steps
    res.runtime_s = time.perf_counter() - t0
    return res


def _frozen_q(net: Network, devices, base: StudyReport) -> dict:
    """Constant Q of each regulating generator at a device sending bus: its
    device-free output, or, under a voltage target on its bus at or below
    its setpoint, its finite ``q_min``."""
    idx = net.index_of
    displaced = list(dict.fromkeys(
        i for dev in devices for (i, _j) in dev.branches
        if net.buses[idx[i]].kind is BusKind.PV))
    q = generator_reactive_output(base.system, base.V, base.I,
                                  [idx[i] for i in displaced])
    frozen = dict(zip(displaced, q.tolist()))
    for dev in devices:
        for t in dev.targets:
            b = dev.target_bus(t)
            if t.mode is Mode.V_BUS and b in frozen:
                bus = net.bus(b)
                if t.setpoint <= bus.v_setpoint and np.isfinite(bus.q_min):
                    frozen[b] = float(bus.q_min)
    return frozen


def run_study(net: Network, devices=(), options: StudyOptions | None = None):
    """Solve one study end to end and assemble a :class:`StudyReport`."""
    opts = options or StudyOptions()
    t_start = time.perf_counter()
    devices = tuple(devices)

    if devices:
        _check_devices(net, devices)
        build_system(net, devices)      # placement errors, before any solve
        # device-free pre-solve of the same case supplies the warm start, the
        # frozen reactive outputs of displaced regulating generators and the
        # clamps the first pass starts from
        base = _base_solution(net, StudyOptions(method="nr", tol=opts.tol))
        frozen = _frozen_q(net, devices, base)
        clamps = {b: q for b, q in base.clamped_generators.items()
                  if b not in frozen}
        starts = (clamps, {}) if clamps else ({},)
        start = partial(_device_start, base=base)
    else:
        frozen, starts, start = {}, ({},), flat_start

    failures = []
    for clamps in starts:
        try:
            report = _passes(net, devices, opts, start, frozen, clamps)
            break
        except (ConvergenceError, StudyError) as exc:
            failures.append(f"{exc} [{_start_label(frozen, clamps)}]")
    else:
        raise StudyError("study did not converge: " + "; ".join(failures))

    report.runtime_s = time.perf_counter() - t_start
    if opts.method == "compare":
        _attach_comparison(report, start, opts)
    return report


def _start_label(frozen: dict, clamps: dict) -> str:
    """One start's clamps and frozen map, for an error message."""
    pins = ", ".join(f"{b}: {q:.6g}" for b, q in frozen.items())
    start = f"{len(clamps)} base clamps" if clamps else "unclamped"
    return f"{start}, frozen {{{pins}}}"


def _check_devices(net: Network, devices) -> None:
    """Reject a repeated device id, a device whose branches name a bus that
    ``net`` lacks, and more devices on a bus pair than it has circuits."""
    seen = set()
    placed: dict = {}       # bus pair -> ids of the devices on its circuits
    for dev in devices:
        if dev.device_id in seen:
            raise DeviceConfigError(f"device id {dev.device_id!r} is repeated")
        seen.add(dev.device_id)
        for bus in (b for br in dev.branches for b in br):
            if bus not in net.index_of:
                raise DeviceConfigError(
                    f"device {dev.device_id}: unknown bus {bus}")
        for i, j in dev.branches:
            on = placed.setdefault(frozenset((i, j)), [])
            if on and on[-1] != dev.device_id and len(on) == sum(
                    {br.from_bus, br.to_bus} == {i, j} for br in net.branches):
                raise DeviceConfigError(
                    f"devices {on[-1]!r} and {dev.device_id!r} are both on "
                    f"branch {i}-{j}")
            on.append(dev.device_id)


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


def _wrong_side(net: Network, V, clamped: dict) -> set:
    """Clamped generators whose bus voltage lies beyond its setpoint on the
    side the clamp cannot hold: pinned at ``q_max`` above the setpoint, or
    at ``q_min`` below it, by more than :data:`RELEASE_MARGIN`."""
    out = set()
    for ext, q in clamped.items():
        bus = net.bus(ext)
        above = abs(V[net.index_of[ext]]) - bus.v_setpoint
        if (above if q == bus.q_max else -above) > RELEASE_MARGIN:
            out.add(ext)
    return out


def _passes(net: Network, devices, opts: StudyOptions, start, frozen,
            clamps):
    """The study's outer passes (see the module docstring), with the
    displaced regulators pinned at ``frozen`` and the generators in
    ``clamps`` pinned at their limits from the first pass; ``start`` maps a
    pass's system to (V0, I0).  Returns the :class:`StudyReport` but its
    ``runtime_s``."""
    active, relaxed, prev = devices, [], None
    clamped, released = dict(clamps), set()
    for _ in range(MAX_PASSES):
        sys_ = build_system(net, active, frozen_q={**frozen, **clamped})
        V0, I0 = prev or start(sys_)
        res = _solve_method(sys_, opts.method if opts.method != "compare"
                            else "nr", V0, I0, opts)
        if not res.converged:
            raise ConvergenceError(failure(res, series=True))
        V, I = res.V, res.I
        viol = _q_violations(sys_, V, I)
        if viol:
            clamped.update(viol)
            prev = (V, I)
            continue
        wrong = _wrong_side(net, V, clamped) - released
        if wrong:           # each bus once, so the passes cannot cycle
            released |= wrong
            clamped = {b: q for b, q in clamped.items() if b not in wrong}
            prev = (V, I)
            continue
        outputs = {dev.device_id: [
            branch_outputs(V[be.i_idx], V[be.m_idx], I[be.cur_idx])
            for be in branches]
            for dev, branches in zip(sys_.devices, sys_.structure.branches)}
        active, newly = relax_violations(active, outputs)
        if newly:
            relaxed.extend(newly)
            clamped, released, prev = dict(clamps), set(), None
            continue
        return StudyReport(
            converged=True, method=opts.method, system=sys_, V=V, I=I,
            mismatch=res.mismatch,
            runtime_s=0.0, clamped_generators=clamped,
            relaxed_branches=tuple(relaxed), device_outputs=outputs,
            frozen_q=frozen, stats={opts.method: res})
    raise StudyError(
        f"limits did not settle in {MAX_PASSES} passes (clamped: "
        f"{sorted(clamped)}, relaxed: {relaxed})")


def _attach_comparison(report: StudyReport, start, opts: StudyOptions):
    """Run the Newton, warm-series and flat-series variants on the study's
    final system from the study's start and attach agreement/efficiency
    metrics.  A flat series that does not converge is left out of
    ``report.stats``."""
    sys_ = report.system
    V0, I0 = start(sys_)
    nr, warm, flat = (_solve_method(sys_, method, V0, I0, opts)
                      for method in ("nr", "nr-warm-ffhe", "ffhe"))
    report.stats.update({"nr": nr, "nr-warm-ffhe": warm})
    if flat.converged:
        report.stats["ffhe"] = flat

    report.comparison = {
        "voltage_gap": float(np.max(np.abs(warm.V - nr.V)))
        if warm.converged else np.inf,
        "delta_e_pct": error_improvement_pct(warm.mismatch, nr.mismatch),
        "delta_t_pct": runtime_improvement_pct(nr.runtime_s, warm.runtime_s),
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
