"""Series FACTS device descriptions, outputs and limit handling.

One type, :class:`SeriesDevice`, describes both devices.  It spans n >= 1
branches sharing the sending bus and controls ``2n - 1`` quantities, the
remaining degree of freedom being fixed by the zero net real-power exchange
across its converters.  n = 1 is the SSSC (one branch, one quantity), built
by :func:`SsscDevice`; n >= 2 is the IPFC.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import numbers
from dataclasses import dataclass, replace

#: least magnitude of a V_SE or X_EQ current, in a guess or a solve's point
CURRENT_FLOOR = 1e-3

#: current magnitude below which the equivalent reactance is reported infinite
I_REPORT_ZERO = 1e-6


class DeviceConfigError(ValueError):
    """Inconsistent device description."""


class Mode(str, enum.Enum):
    P_FLOW = "p_flow"    # active power entering the branch at the sending bus
    Q_FLOW = "q_flow"    # reactive power entering the branch
    Q_INJ = "q_inj"      # reactive power injected by the series source
    V_BUS = "v_bus"      # voltage magnitude of a (local or remote) bus
    V_SE = "v_se"        # magnitude of the injected series voltage; the
                         # row pins Im(V_se conj I) / |I|, which is |V_se|
                         # only on a branch that exchanges no real power:
                         # on an IPFC branch, just the part of V_se in
                         # quadrature with I
    X_EQ = "x_eq"        # equivalent series reactance presented by the device


#: control mode -> (row shape, imaginary part?, power p of the divisor |I|),
#: the row shapes of :mod:`ffheflow.system`.  A mode with p > 0 needs the
#: reciprocal (and magnitude) companion series of its current, and so a
#: current of at least ``CURRENT_FLOOR``.
MODE_ROWS = {
    Mode.P_FLOW: ("flow", False, 0),
    Mode.Q_FLOW: ("flow", True, 0),
    Mode.Q_INJ: ("exchange", True, 0),
    Mode.V_SE: ("exchange", True, 1),
    Mode.X_EQ: ("exchange", True, 2),
    Mode.V_BUS: ("v_bus", False, 0),
}

#: excess of |V_se| over its rating that :func:`relax_violations` leaves
#: alone, as solve tolerance
RELAX_TOL = 1e-9


@dataclass(frozen=True)
class ControlTarget:
    mode: Mode
    setpoint: float
    branch: int = 0            # device-branch index the target refers to
    bus: int | None = None     # external bus id, V_BUS only (default: sending)


@dataclass(frozen=True)
class SeriesDevice:
    """Series converters on n >= 1 branches (n = 1: an SSSC).  ``z_se``,
    ``v_se_max`` and ``current_guess`` hold one entry per branch and
    default to 0.01 + 0.01j, no limit and 0.1."""

    device_id: str
    branches: tuple            # ((i, j1), (i, j2), ...), device at the i end
    targets: tuple             # exactly 2*n_branches - 1 control targets
    z_se: tuple = ()
    v_se_max: tuple = ()
    current_guess: tuple = ()

    def __post_init__(self):
        n = len(self.branches)
        for br in self.branches:
            if not isinstance(br, (tuple, list)) or len(br) != 2:
                raise DeviceConfigError(
                    f"{self.device_id}: branch {br!r} is not an (i, j) pair")
        if len({b[0] for b in self.branches}) != 1:
            raise DeviceConfigError(
                f"device {self.device_id}: a device needs branches that "
                "share the sending bus")
        if len(self.targets) != 2 * n - 1:
            raise DeviceConfigError(
                f"device {self.device_id}: a device with {n} branches must "
                f"control {2 * n - 1} quantities")
        if not self.z_se:
            object.__setattr__(self, "z_se", (0.01 + 0.01j,) * n)
        if not self.v_se_max:
            object.__setattr__(self, "v_se_max", (None,) * n)
        if not self.current_guess:
            object.__setattr__(self, "current_guess", (0.1 + 0.0j,) * n)
        if not len(self.z_se) == len(self.v_se_max) == \
                len(self.current_guess) == n:
            raise DeviceConfigError(
                f"{self.device_id}: z_se, v_se_max and current_guess need "
                "one entry per branch")
        seen = set()
        per_branch: dict = {}
        for t in self.targets:
            if not isinstance(t.branch, numbers.Integral) or \
                    isinstance(t.branch, bool):
                raise DeviceConfigError(
                    f"device {self.device_id}: target branch {t.branch!r} is "
                    "not an integer")
            if not 0 <= t.branch < n:
                raise DeviceConfigError(
                    f"device {self.device_id}: target branch {t.branch} out "
                    "of range")
            if t.bus is not None and t.mode is not Mode.V_BUS:
                raise DeviceConfigError(
                    f"{self.device_id}: a {t.mode.value} target takes no bus "
                    f"({t.bus}); only a v_bus target does")
            key = (t.mode, t.branch, t.bus)
            if key in seen:
                raise DeviceConfigError(
                    f"device {self.device_id}: duplicate control target {key}")
            seen.add(key)
            per_branch[t.branch] = per_branch.get(t.branch, 0) + 1
        if max(per_branch.values()) > 2:
            raise DeviceConfigError(
                f"device {self.device_id}: more than two targets on one "
                "device branch is ill posed")
        for what, vals, kind in (
                ("z_se", self.z_se, numbers.Complex),
                ("current_guess", self.current_guess, numbers.Complex),
                ("v_se_max", [v for v in self.v_se_max if v is not None],
                 numbers.Real)):
            for v in vals:
                self._check_finite(what, v, kind)
        for t in self.targets:
            self._check_finite("setpoint", t.setpoint, numbers.Real)
            if MODE_ROWS[t.mode][2] and \
                    abs(self.current_guess[t.branch]) < CURRENT_FLOOR:
                raise DeviceConfigError(
                    f"{self.device_id}: mode {t.mode.value} needs a current "
                    f"guess of magnitude {CURRENT_FLOOR:g} or more")
            vmax = self.v_se_max[t.branch]
            if t.mode is Mode.V_SE and vmax is not None and \
                    abs(t.setpoint) > vmax:
                raise DeviceConfigError(
                    f"{self.device_id}: v_se target {t.setpoint} on branch "
                    f"{t.branch} exceeds its rating {vmax}")

    def _check_finite(self, what, val, kind) -> None:
        """Raise unless ``val`` is a finite number of ``kind``; a boolean
        is not a number."""
        if not isinstance(val, kind) or isinstance(val, bool):
            raise DeviceConfigError(
                f"{self.device_id}: {what} {val!r} is not a number")
        if not cmath.isfinite(val):
            raise DeviceConfigError(
                f"{self.device_id}: {what} {val} is not finite")

    @property
    def branch(self):
        """The first branch's (i, j) ends; an SSSC's only branch."""
        return self.branches[0]

    def target_bus(self, t: ControlTarget) -> int:
        """External id of the bus whose magnitude a V_BUS target holds: its
        own ``bus``, else the sending bus the branches share."""
        return t.bus if t.bus is not None else self.branches[0][0]


def SsscDevice(device_id: str, branch, target: ControlTarget,
               z_se: complex = 0.01 + 0.01j, v_se_max: float | None = None,
               current_guess: complex = 0.1 + 0.0j) -> SeriesDevice:
    """One-branch :class:`SeriesDevice` (an SSSC) with a single target."""
    if not isinstance(branch, str):
        try:
            branch = tuple(branch)
        except TypeError:       # a bare bus id: SeriesDevice names it
            pass
    return SeriesDevice(device_id, (branch,), (target,), (z_se,),
                        (v_se_max,), (current_guess,))


@dataclass(frozen=True)
class BranchOutputs:
    """Converged electrical quantities of one device branch."""

    v_se: complex              # injected series voltage V_m - V_i
    i_se: complex              # current through the branch
    s_se: complex              # power injected by the source, V_se * conj(I)
    s_line: complex            # sending-end line flow, V_i * conj(I)
    x_eq: float                # Im[V_se / I]; inf when the current is ~zero

    def as_dict(self):
        return {
            "v_se_mag": abs(self.v_se),
            "v_se_deg": math.degrees(math.atan2(self.v_se.imag, self.v_se.real)),
            "i_se_mag": abs(self.i_se),
            "i_se_deg": math.degrees(math.atan2(self.i_se.imag, self.i_se.real)),
            "s_se": [self.s_se.real, self.s_se.imag],
            "s_line": [self.s_line.real, self.s_line.imag],
            "x_eq": self.x_eq,
        }


def branch_outputs(v_i: complex, v_m: complex, i_se: complex) -> BranchOutputs:
    """Electrical outputs of one device branch from converged phasors."""
    v_se = v_m - v_i
    if abs(i_se) < I_REPORT_ZERO:
        x_eq = math.inf
    else:
        x_eq = (v_se / i_se).imag
    return BranchOutputs(
        v_se=v_se,
        i_se=i_se,
        s_se=v_se * i_se.conjugate(),
        s_line=v_i * i_se.conjugate(),
        x_eq=x_eq,
    )


def relax_violations(devices, solution_outputs):
    """One pass of limit relaxation.

    ``solution_outputs`` maps device_id -> list of BranchOutputs.  Every
    branch whose injected-voltage magnitude exceeds its limit has its control
    target replaced by an injected-voltage-magnitude target pinned at the
    limit.  Returns ``(new_devices, relaxed)`` where ``relaxed`` lists
    ``(device_id, branch_index)`` pairs changed in this pass.

    A branch that already holds an injected-voltage target has nothing left
    to relax: an SSSC's is left alone (its |V_se| is the setpoint, so an
    excess is solve tolerance), and an IPFC's, whose target pins only the
    part of V_se in quadrature with I, raises :class:`DeviceConfigError`.
    """
    new_devices = []
    relaxed = []
    for dev in devices:
        outs = solution_outputs[dev.device_id]
        dev_new = dev
        for b, (out, vmax) in enumerate(zip(outs, dev.v_se_max)):
            if vmax is None or abs(out.v_se) <= vmax + RELAX_TOL:
                continue
            if any(t.branch == b and t.mode is Mode.V_SE
                   for t in dev.targets):
                if len(dev.branches) == 1:
                    continue
                raise DeviceConfigError(
                    f"{dev.device_id}: branch {b} holds a v_se target but "
                    f"|V_se| = {abs(out.v_se):.6g} exceeds its rating {vmax}")
            # every branch holds a target: 2n - 1 of them, at most two each
            targets = list(dev_new.targets)
            k = next(k for k, t in enumerate(targets) if t.branch == b)
            targets[k] = ControlTarget(Mode.V_SE, float(vmax), branch=b)
            dev_new = replace(dev_new, targets=tuple(targets))
            relaxed.append((dev.device_id, b))
        new_devices.append(dev_new)
    return new_devices, relaxed


def _target_from_record(rec, idx) -> ControlTarget:
    if not isinstance(rec, dict):
        raise DeviceConfigError(f"device {idx}: target is not a JSON object")
    try:
        mode = Mode(rec["mode"])
    except (KeyError, ValueError):
        raise DeviceConfigError(f"device {idx}: bad or missing mode") from None
    bus = rec.get("bus")
    return ControlTarget(mode=mode,
                         setpoint=_number(rec["setpoint"], idx, "setpoint"),
                         branch=_integer(rec.get("branch", 0), idx,
                                         "target branch"),
                         bus=None if bus is None else
                         _integer(bus, idx, "target bus"))


def _integer(val, idx, what) -> int:
    """A JSON integer, not coerced from a float, a string or a boolean."""
    if not isinstance(val, int) or isinstance(val, bool):
        raise DeviceConfigError(f"device {idx}: {what} {val!r} is not an "
                                "integer")
    return val


def _number(val, idx, what) -> float:
    """A JSON number, not coerced from a string or a boolean."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise DeviceConfigError(f"device {idx}: {what} {val!r} is not a "
                                "number")
    return float(val)


def _as_complex(val, default, idx, what) -> complex:
    """A JSON number or ``[re, im]`` pair of numbers; ``default`` if absent."""
    if val is None:
        return default
    if isinstance(val, list) and len(val) == 2:
        return complex(_number(val[0], idx, what), _number(val[1], idx, what))
    return complex(_number(val, idx, what))


def _device_from_record(rec: dict, idx: int) -> SeriesDevice:
    kind = rec.get("type")
    if kind == "sssc":
        # "branch" names the line ends; the single target is on branch 0
        branches, targets = [rec["branch"]], [{**rec, "branch": 0}]
        z_se, v_se_max, guesses = ([rec.get(key)] for key in
                                   ("z_se", "v_se_max", "current_guess"))
    elif kind == "ipfc":
        branches, targets = rec["branches"], rec["targets"]
        n = len(branches)
        if n < 2:
            raise DeviceConfigError(
                f"device {idx}: an IPFC needs at least two branches")
        z_se = rec.get("z_se")
        if not (isinstance(z_se, list) and z_se and isinstance(z_se[0], list)):
            z_se = [z_se] * n       # one impedance for every branch
        v_se_max = rec.get("v_se_max", [None] * n)
        guesses = rec.get("current_guess", [None] * n)
    else:
        raise DeviceConfigError(f"device {idx}: unknown type {kind!r}")
    device_id = rec.get("id", f"{kind}{idx}")
    if not isinstance(device_id, str):
        raise DeviceConfigError(f"device {idx}: id {device_id!r} is not a "
                                "string")
    return SeriesDevice(
        device_id=device_id,
        branches=tuple(tuple(_integer(b, idx, "bus") for b in br)
                       for br in branches),
        targets=tuple(_target_from_record(t, idx) for t in targets),
        z_se=tuple(_as_complex(z, 0.01 + 0.01j, idx, "z_se") for z in z_se),
        v_se_max=tuple(None if v is None else _number(v, idx, "v_se_max")
                       for v in v_se_max),
        current_guess=tuple(_as_complex(g, 0.1 + 0j, idx, "current_guess")
                            for g in guesses))


def load_devices(text: str):
    """Parse the JSON device-config format.

    The file holds a list of records, e.g.::

        [{"type": "sssc", "branch": [49, 50],
          "mode": "p_flow", "setpoint": 0.75,
          "z_se": [0.01, 0.01], "v_se_max": 0.3},
         {"type": "ipfc", "branches": [[49, 50], [49, 51]],
          "targets": [{"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                      {"branch": 1, "mode": "p_flow", "setpoint": 0.75},
                      {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]}]

    Each record becomes a :class:`SeriesDevice`; a malformed one raises
    :class:`DeviceConfigError`.
    """
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DeviceConfigError(f"device config is not valid JSON: {exc}")
    if not isinstance(records, list):
        raise DeviceConfigError("device config must be a JSON list")
    devices = []
    for idx, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise DeviceConfigError(f"device {idx}: not a JSON object")
        try:
            devices.append(_device_from_record(rec, idx))
        except DeviceConfigError:
            raise
        except KeyError as exc:
            raise DeviceConfigError(f"device {idx}: missing {exc}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise DeviceConfigError(f"device {idx}: {exc}") from None
    return devices
