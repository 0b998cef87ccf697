"""Tests for the message-sequence-chart renderer."""

from __future__ import annotations

from repro.alphabets import Message, MessageFactory, Packet
from repro.analysis import render_fragment, render_msc
from repro.channels import (
    PermissiveChannelState,
    crash,
    fail,
    random_lossy_fifo,
    receive_pkt,
    send_pkt,
    wake,
)
from repro.datalink import receive_msg, send_msg
from repro.protocols import alternating_bit_protocol
from repro.sim import fifo_system

M1 = Message(1)


class TestRenderMsc:
    def test_columns(self):
        trace = [
            wake("t", "r"),
            wake("r", "t"),
            send_msg("t", "r", M1),
            receive_msg("t", "r", M1),
        ]
        text = render_msc(trace)
        lines = text.splitlines()
        assert "t station" in lines[0] and "r station" in lines[0]
        wake_t = next(line for line in lines if line.strip() == "wake")
        assert wake_t.startswith("wake")  # left column
        recv = next(line for line in lines if "receive_msg" in line)
        assert recv.startswith(" " * 40)  # right column

    def test_packet_arrows(self):
        p = Packet(("DATA", 0), (M1,), uid=1)
        a = Packet(("ACK", 0), (), uid=1)
        trace = [
            wake("t", "r"),
            send_pkt("t", "r", p),
            receive_pkt("t", "r", p),
            send_pkt("r", "t", a),
            receive_pkt("r", "t", a),
        ]
        text = render_msc(trace)
        assert "->" in text  # t->r arrow
        assert "<-" in text  # r->t arrow
        assert "(lost)" not in text

    def test_lost_packet_marked(self):
        p = Packet(("DATA", 0), (M1,), uid=1)
        trace = [wake("t", "r"), send_pkt("t", "r", p)]
        assert "(lost)" in render_msc(trace)

    def test_crash_and_fail_rendered(self):
        trace = [wake("t", "r"), fail("t", "r"), crash("r", "t")]
        text = render_msc(trace)
        assert "fail" in text and "CRASH" in text

    def test_full_run_renders(self):
        system = fifo_system(alternating_bit_protocol()).started(
            PermissiveChannelState(delivery=random_lossy_fifo(1, 0.4)),
            PermissiveChannelState(delivery=random_lossy_fifo(2, 0.4)),
        )
        factory = MessageFactory()
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[
                system.wake_t(),
                system.wake_r(),
                system.send(factory.fresh()),
            ],
        )
        text = render_fragment(fragment)
        assert "receive_msg" in text
        assert text.count("\n") >= 5


class TestCliMsc:
    def test_simulate_msc_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "simulate",
                    "abp",
                    "--messages",
                    "2",
                    "--loss",
                    "0.0",
                    "--msc",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t station" in out and "-->" in out
