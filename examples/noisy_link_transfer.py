#!/usr/bin/env python3
"""A realistic workload: bulk transfer over a noisy link.

Transfers a batch of records across progressively worse FIFO links with
a Go-Back-N sliding window, comparing window sizes.  Shows the numbers
an operator would care about -- delivery, latency, retransmission
overhead -- and verifies every run against the DL specification, so the
simulation doubles as a conformance check.

Run:  python examples/noisy_link_transfer.py
"""

from repro.alphabets import MessageFactory
from repro.channels import PermissiveChannelState, random_lossy_fifo
from repro.datalink import dl_module
from repro.protocols import sliding_window_protocol
from repro.sim import DataLinkSystem, channel_stats, delivery_stats, fifo_system

RECORDS = 20
LOSS_RATES = (0.0, 0.2, 0.4, 0.6)
WINDOWS = (1, 4)


def transfer(system: DataLinkSystem, loss_rate: float, seed: int = 7):
    system = system.started(
        PermissiveChannelState(delivery=random_lossy_fifo(seed, loss_rate)),
        PermissiveChannelState(delivery=random_lossy_fifo(seed + 1, loss_rate)),
    )
    factory = MessageFactory()
    messages = factory.fresh_many(RECORDS)
    fragment = system.run_fair(
        system.initial_state(),
        inputs=[system.wake_t(), system.wake_r()]
        + [system.send(m) for m in messages],
        max_steps=500_000,
    )
    ok = dl_module("t", "r").contains(system.behavior(fragment))
    return fragment, ok


def main() -> None:
    print(f"bulk transfer of {RECORDS} records over a lossy FIFO link\n")
    header = (
        f"{'window':>6s} {'loss':>5s} {'delivered':>9s} "
        f"{'steps':>7s} {'mean lat':>8s} {'pkts sent':>9s} "
        f"{'overhead':>8s} {'DL ok':>5s}"
    )
    print(header)
    print("-" * len(header))
    for window in WINDOWS:
        system = fifo_system(sliding_window_protocol(window))
        for loss_rate in LOSS_RATES:
            fragment, ok = transfer(system, loss_rate)
            stats = delivery_stats(fragment)
            link = channel_stats(fragment, "t", "r")
            overhead = link.packets_sent / max(stats.delivered, 1)
            print(
                f"{window:6d} {loss_rate:5.1f} "
                f"{stats.delivered:6d}/{RECORDS:<2d} "
                f"{len(fragment):7d} {stats.mean_latency:8.1f} "
                f"{link.packets_sent:9d} {overhead:8.2f} "
                f"{str(ok):>5s}"
            )
    print(
        "\nexpected shape: every run delivers all records and satisfies"
        "\nDL; packet overhead and latency grow with the loss rate."
        "\n(This simulator counts events with zero propagation delay, so"
        "\nwindow pipelining -- a latency optimization -- shows up only"
        "\nas seed-level noise between window sizes.)"
    )


if __name__ == "__main__":
    main()
