"""Two-converter interline device (IPFC) steering two branches at once.

Two series converters share bus 49 and a common DC link: three quantities
are commanded, the fourth degree of freedom is consumed by the zero net
active-power exchange between the converters, which the solver enforces to
machine precision.

Run:  python3 demos/03_ipfc.py
"""

from ffheflow import ControlTarget, Mode, SeriesDevice, load_bundled_case
from ffheflow.report import StudyOptions, run_study


def main():
    net = load_bundled_case()
    dev = SeriesDevice(
        "ipfc", ((49, 50), (49, 51)),
        (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
         ControlTarget(Mode.P_FLOW, 0.75, branch=1),
         ControlTarget(Mode.Q_FLOW, 0.03, branch=1)))
    rep = run_study(net, (dev,), StudyOptions(method="nr-warm-ffhe"))

    print("commanded: P(49-50) = 0.75, P(49-51) = 0.75, Q(49-51) = 0.03\n")
    outs = rep.device_outputs["ipfc"]
    for k, (out, (i, j)) in enumerate(zip(outs, dev.branches)):
        print(f"branch {i}-{j}:")
        print(f"  sending-end flow   {out.s_line.real:+.4f}"
              f"{out.s_line.imag:+.4f}j")
        print(f"  injected voltage   |Vse| = {abs(out.v_se):.4f}")
        print(f"  converter power    {out.s_se.real:+.5f}"
              f"{out.s_se.imag:+.5f}j")
    balance = outs[0].s_se.real + outs[1].s_se.real
    print(f"\nDC-link active-power balance: {balance:+.2e} "
          "(zero by construction)")
    print(f"sending-bus voltage |V49| = {abs(rep.voltage(49)):.4f}")


if __name__ == "__main__":
    main()
