#!/usr/bin/env python
"""Dependable routing under a Gnutella-grade churn storm.

Replays two simulated hours of Gnutella-style churn (lognormal sessions,
diurnal arrivals) against a transit-stub network and reports the paper's
four metrics: lookup loss, incorrect deliveries, RDP, control traffic.

Run:  python examples/churn_storm.py
"""

from repro.experiments.scenarios import Scenario


def main() -> None:
    scenario = Scenario(seed=23, topology="gatech")
    print("running ~2 h of Gnutella churn on the GATech transit-stub "
          "topology (this takes a minute)...")
    result = scenario.run_gnutella(scale=0.06, duration=7200.0)

    stats = result.stats
    print(f"\ntrace: {result.trace_name}, duration {result.duration / 3600:.1f} h")
    print(f"final active nodes:        {result.final_active}")
    print(f"joins completed:           {len(stats.join_latencies)}")
    print(f"nodes that died joining:   {result.nodes_never_activated}")
    print(f"lookups issued:            {stats.n_lookups}")
    print(f"lookup loss rate:          {result.loss_rate:.2e}")
    print(f"incorrect delivery rate:   {result.incorrect_delivery_rate:.2e}")
    print(f"relative delay penalty:    {result.rdp:.2f} (median "
          f"{result.rdp_median:.2f})")
    print(f"control traffic:           {result.control_traffic:.3f} "
          f"msg/s/node (paper: < 0.5)")

    print("\ncontrol traffic over time:")
    for t, value in stats.traffic_series():
        bar = "#" * int(value * 120)
        print(f"  {t / 60:5.0f} min  {value:5.3f}  {bar}")


if __name__ == "__main__":
    main()
