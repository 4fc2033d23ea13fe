"""Tests for downlink commands, the node FSM, and command-level inventory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.link.commands import (
    COMMAND_BITS,
    Command,
    Opcode,
    crc4,
    decode_command,
    encode_command,
)
from repro.link.node_fsm import NodeController, NodeState
from repro.link.protocol import CommandLevelInventory, read_selected
from repro.phy.downlink import pie_decode, pie_encode


class TestCommands:
    def test_roundtrip_all_opcodes(self):
        for cmd in (
            Command.query(3),
            Command.query_rep(),
            Command.ack(42),
            Command.select(7),
            Command.sleep(2),
        ):
            bits = encode_command(cmd)
            assert len(bits) == COMMAND_BITS
            assert decode_command(bits) == cmd

    @given(st.sampled_from(list(Opcode)), st.integers(min_value=0, max_value=255))
    @settings(max_examples=40)
    def test_roundtrip_property(self, opcode, arg):
        cmd = Command(opcode, arg)
        assert decode_command(encode_command(cmd)) == cmd

    def test_single_bit_flip_rejected(self):
        bits = encode_command(Command.ack(9))
        for pos in range(COMMAND_BITS):
            corrupted = bits.copy()
            corrupted[pos] ^= 1
            decoded = decode_command(corrupted)
            assert decoded != Command.ack(9)

    def test_bad_length_rejected(self):
        assert decode_command([1, 0, 1]) is None

    def test_unknown_opcode_rejected(self):
        # Craft bits with opcode 0xF and a valid CRC.
        body = [1, 1, 1, 1] + [0] * 8
        fcs = crc4(body)
        bits = body + [(fcs >> (3 - i)) & 1 for i in range(4)]
        assert decode_command(bits) is None

    def test_through_pie_waveform(self):
        """Commands survive the actual PIE envelope round trip."""
        fs = 32_000.0
        for cmd in (Command.query(4), Command.ack(200), Command.sleep(1)):
            env = pie_encode(encode_command(cmd), fs)
            bits = pie_decode(env, fs)
            assert decode_command(bits) == cmd

    @pytest.mark.parametrize("bad", [2, -1])
    def test_crc4_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            crc4([1, 0, bad, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            Command(Opcode.ACK, 300)
        with pytest.raises(ValueError):
            Command.query(16)


class TestNodeFSM:
    def test_query_slot_zero_responds(self):
        node = NodeController(node_id=1, seed=0)
        # q=0 -> window of 1 -> always slot 0.
        assert node.on_command(Command.query(0))
        assert node.state is NodeState.REPLIED

    def test_ack_moves_to_inventoried(self):
        node = NodeController(node_id=5, seed=0)
        node.on_command(Command.query(0))
        node.on_command(Command.ack(5))
        assert node.state is NodeState.INVENTORIED
        # Inventoried nodes stay silent.
        assert not node.on_command(Command.query(0))

    def test_ack_for_other_node_ignored(self):
        node = NodeController(node_id=5, seed=0)
        node.on_command(Command.query(0))
        node.on_command(Command.ack(6))
        assert node.state is NodeState.REPLIED

    def test_arbitration_counts_down(self):
        node = NodeController(node_id=3, seed=1)
        # Find a seed/window where the first draw is not slot 0.
        responded = node.on_command(Command.query(4))
        if responded:
            pytest.skip("seed drew slot 0; covered elsewhere")
        slots = node.slot_counter
        for __ in range(slots - 1):
            assert not node.on_command(Command.query_rep())
        assert node.on_command(Command.query_rep())
        assert node.state is NodeState.REPLIED

    def test_select_overrides_arbitration(self):
        node = NodeController(node_id=9, seed=0)
        node.on_command(Command.select(9))
        for __ in range(5):
            assert node.on_command(Command.query(4))
            node.state = NodeState.READY

    def test_select_other_silences(self):
        node = NodeController(node_id=9, seed=0)
        node.on_command(Command.select(4))
        assert not node.selected

    def test_select_zero_clears(self):
        node = NodeController(node_id=9, seed=0)
        node.on_command(Command.select(9))
        node.on_command(Command.select(0))
        assert not node.selected

    def test_sleep_and_wake(self):
        node = NodeController(node_id=2, seed=0)
        node.on_command(Command.sleep(1))  # 2 superframes
        assert node.state is NodeState.ASLEEP
        assert not node.on_command(Command.query(0))
        node.on_superframe()
        assert node.state is NodeState.ASLEEP
        node.on_superframe()
        assert node.state is NodeState.READY
        assert node.on_command(Command.query(0))

    def test_lost_command_ignored(self):
        node = NodeController(node_id=2, seed=0)
        assert not node.on_command(None)
        assert node.state is NodeState.READY

    def test_reset_inventory(self):
        node = NodeController(node_id=2, seed=0)
        node.on_command(Command.query(0))
        node.on_command(Command.ack(2))
        node.reset_inventory()
        assert node.state is NodeState.READY

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeController(node_id=0)


class TestCommandLevelInventory:
    def make_nodes(self, n, seed=3):
        return [NodeController(node_id=i, seed=seed) for i in range(1, n + 1)]

    def test_reads_everyone_clean(self):
        nodes = self.make_nodes(6)
        trace = CommandLevelInventory(q=3, seed=4).run(nodes)
        assert sorted(trace.inventoried) == [1, 2, 3, 4, 5, 6]
        assert all(n.state is NodeState.INVENTORIED for n in nodes)

    def test_slot_accounting(self):
        nodes = self.make_nodes(4)
        trace = CommandLevelInventory(q=2, seed=5).run(nodes)
        assert trace.slots_single >= 4  # at least one per read
        assert trace.total_slots > 0
        assert trace.acks_sent == len(trace.inventoried)

    def test_downlink_loss_slows_but_completes(self):
        clean_nodes = self.make_nodes(5, seed=6)
        lossy_nodes = self.make_nodes(5, seed=6)
        clean = CommandLevelInventory(q=3, seed=7).run(clean_nodes)
        lossy = CommandLevelInventory(q=3, seed=7, downlink_loss=0.2).run(lossy_nodes)
        assert sorted(lossy.inventoried) == [1, 2, 3, 4, 5]
        assert lossy.commands_sent >= clean.commands_sent

    def test_uplink_loss_retries(self):
        nodes = self.make_nodes(3, seed=8)
        trace = CommandLevelInventory(q=2, seed=9, uplink_loss=0.3).run(nodes)
        assert sorted(trace.inventoried) == [1, 2, 3]

    def test_deterministic(self):
        t1 = CommandLevelInventory(q=2, seed=10).run(self.make_nodes(4, seed=11))
        t2 = CommandLevelInventory(q=2, seed=10).run(self.make_nodes(4, seed=11))
        assert t1.inventoried == t2.inventoried
        assert t1.commands_sent == t2.commands_sent

    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            CommandLevelInventory().run([])


class TestSelectedPolling:
    def test_perfect_polling(self):
        node = NodeController(node_id=7, seed=0)
        assert read_selected(node, rounds=10) == 10

    def test_lossy_polling(self):
        node = NodeController(node_id=7, seed=0)
        reads = read_selected(node, rounds=200, downlink_loss=0.25, seed=3)
        assert 100 < reads < 190
