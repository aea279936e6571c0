"""The 18 acceptance scenarios on case118, kept as the benchmark's own copy.

Labels and targets match the acceptance suite (base case, six SSSC control
modes on each of two branches, four two-converter IPFC set-ups, and the
injected-voltage relaxation study).  They are also written out as the JSON
device-config format for the batch workload.
"""

from __future__ import annotations

SSSC_TARGETS = {
    "49-50/p0.75": ((49, 50), "p_flow", 0.75),
    "49-50/q0": ((49, 50), "q_flow", 0.0),
    "49-50/qse0.3": ((49, 50), "q_inj", 0.3),
    "49-50/v1.0": ((49, 50), "v_bus", 1.0),
    "49-50/vse0.2": ((49, 50), "v_se", 0.2),
    "49-50/x-0.2": ((49, 50), "x_eq", -0.2),
    "101-102/p0.9": ((101, 102), "p_flow", 0.9),
    "101-102/q0": ((101, 102), "q_flow", 0.0),
    "101-102/qse0.3": ((101, 102), "q_inj", 0.3),
    "101-102/v0.9": ((101, 102), "v_bus", 0.9),
    "101-102/vse0.1": ((101, 102), "v_se", 0.1),
    "101-102/x0.1": ((101, 102), "x_eq", 0.1),
}

IPFC_TARGETS = {
    "49/c1": (((49, 50), (49, 51)),
              (("p_flow", 0.75, 0), ("p_flow", 0.75, 1), ("q_flow", 0.03, 1))),
    "49/c2": (((49, 50), (49, 51)),
              (("p_flow", 0.75, 0), ("q_flow", 0.01, 0), ("q_flow", -0.03, 1))),
    "100/c1": (((100, 104), (100, 106)),
               (("p_flow", 0.80, 0), ("p_flow", 1.00, 1), ("q_flow", 0.00, 1))),
    "100/c2": (((100, 104), (100, 106)),
               (("p_flow", 0.90, 0), ("q_flow", 0.00, 0), ("q_flow", 0.00, 1))),
}

LABELS = ("base",) + tuple(SSSC_TARGETS) + tuple(IPFC_TARGETS) + ("relax",)


def device_records(label: str, offset: int = 0, suffix: str = "") -> list:
    """Device-config records (the CLI's JSON format) for one scenario.

    ``offset`` shifts every bus id, for scenarios placed on a tiled copy of
    the case; ``suffix`` keeps device ids unique across copies.
    """
    if label == "base":
        return []
    if label == "relax":
        return [{"type": "sssc", "id": "s" + suffix,
                 "branch": [101 + offset, 102 + offset],
                 "mode": "p_flow", "setpoint": 0.9, "v_se_max": 0.3}]
    if label in SSSC_TARGETS:
        (i, j), mode, sp = SSSC_TARGETS[label]
        return [{"type": "sssc", "id": "s" + suffix,
                 "branch": [i + offset, j + offset],
                 "mode": mode, "setpoint": sp}]
    branches, targets = IPFC_TARGETS[label]
    return [{"type": "ipfc", "id": "i" + suffix,
             "branches": [[i + offset, j + offset] for i, j in branches],
             "targets": [{"branch": b, "mode": m, "setpoint": sp}
                         for m, sp, b in targets]}]
