#!/usr/bin/env python3
"""Quickstart: the library in five minutes.

1. Build a classic data link protocol (the alternating-bit protocol).
2. Run it over a lossy FIFO physical channel and watch it deliver.
3. Check the resulting behavior against the paper's DL specification.
4. Run the paper's Theorem 7.5 construction against it and print the
   machine-checked counterexample showing it cannot survive host
   crashes.

Run:  python examples/quickstart.py
"""

from repro.alphabets import MessageFactory
from repro.channels import PermissiveChannelState, random_lossy_fifo
from repro.datalink import dl_module
from repro.impossibility import refute_crash_tolerance
from repro.protocols import alternating_bit_protocol
from repro.sim import delivery_stats, fifo_system


def main() -> None:
    # -- 1. A protocol is a pair of I/O automata -----------------------
    protocol = alternating_bit_protocol()
    print(f"protocol: {protocol.name} -- {protocol.description}")

    # -- 2. Compose it with two FIFO physical channels, started lossy ---
    # A channel's adversary is its start state: a seeded delivery set
    # that loses each packet with probability 0.4 (paper, Section 6.1).
    system = fifo_system(protocol).started(
        PermissiveChannelState(delivery=random_lossy_fifo(1, 0.4)),
        PermissiveChannelState(delivery=random_lossy_fifo(2, 0.4)),
    )
    factory = MessageFactory()
    messages = factory.fresh_many(5)
    fragment = system.run_fair(
        system.initial_state(),
        inputs=[system.wake_t(), system.wake_r()]
        + [system.send(m) for m in messages],
    )
    stats = delivery_stats(fragment)
    print(
        f"\nover a 40%-lossy FIFO link: delivered "
        f"{stats.delivered}/{stats.sent} messages in {len(fragment)} "
        f"steps (mean latency {stats.mean_latency:.1f} steps, "
        f"0 duplicates: {stats.duplicates == 0})"
    )

    # -- 3. The behavior satisfies the DL specification ----------------
    behavior = system.behavior(fragment)
    verdict = dl_module("t", "r").check(behavior)
    print(f"behavior in scheds(DL^t,r): {verdict.in_module}")
    print("external events:")
    for action in behavior:
        print(f"  {action}")

    # -- 4. ... but no crashing protocol survives host crashes ---------
    print("\nTheorem 7.5: running the crash-impossibility construction")
    certificate = refute_crash_tolerance(protocol)
    print(certificate.describe())
    print(f"\ncertificate independently validated: {certificate.validate()}")


if __name__ == "__main__":
    main()
