#!/usr/bin/env python3
"""Crash recovery with and without non-volatile memory (experiment E5).

The paper proves (Theorem 7.5) that *zero* non-volatile memory makes
crash-tolerant data links impossible; Baratz & Segall showed a little
non-volatile state suffices.  This example walks the boundary:

1. subjects the non-volatile protocol to crash storms and verifies the
   safety properties (DL4)/(DL5) hold in every run, and that messages
   submitted after the storms settle are delivered;
2. shows the volatile variant of the *same* protocol being defeated by
   the crash engine.

Run:  python examples/crash_recovery_session.py
"""

from repro.datalink import dl4, dl5
from repro.impossibility import EngineError, refute_crash_tolerance
from repro.protocols import baratz_segall_protocol
from repro.sim import Session, crash_storm, delivery_stats, fifo_system


def storm_run(crashes: int, seed: int):
    system = fifo_system(baratz_segall_protocol(nonvolatile=True))
    script = crash_storm(system, crashes=crashes, seed=seed)
    result = Session(system, tuple(script.actions), seed=seed).run()
    return script, result


def main() -> None:
    print("part 1: non-volatile incarnations under crash storms\n")
    header = (
        f"{'crashes':>7s} {'seed':>4s} {'sent':>4s} {'delivered':>9s} "
        f"{'DL4':>4s} {'DL5':>4s} {'quiescent':>9s}"
    )
    print(header)
    print("-" * len(header))
    for crashes in (1, 3, 6, 10):
        for seed in range(3):
            script, result = storm_run(crashes, seed)
            stats = delivery_stats(result.fragment)
            safe4 = dl4(result.behavior, "t", "r").holds
            safe5 = dl5(result.behavior, "t", "r").holds
            print(
                f"{crashes:7d} {seed:4d} {len(script.messages):4d} "
                f"{stats.delivered:9d} {str(safe4):>4s} "
                f"{str(safe5):>4s} {str(result.quiescent):>9s}"
            )
    print(
        "\nmessages submitted around a crash may be lost (they were in"
        "\ndoubt and discarded at session reset) but no message is ever"
        "\nduplicated or invented: (DL4)/(DL5) hold in every run."
    )

    print("\npart 2: the same protocol with volatile incarnations\n")
    certificate = refute_crash_tolerance(
        baratz_segall_protocol(nonvolatile=False)
    )
    print(certificate.describe())

    print("\npart 3: the non-volatile variant escapes the theorem --")
    try:
        refute_crash_tolerance(baratz_segall_protocol(nonvolatile=True))
    except EngineError as exc:
        print(f"  rejected: {exc}")


if __name__ == "__main__":
    main()
