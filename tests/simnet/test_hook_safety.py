"""Delivery-hook lifecycle edges: detach mid-iteration, redundant heal.

The churn harness tears injectors down *while traffic is in flight*, so
the network must tolerate hooks detaching themselves (or each other)
from inside delivery, and removing a hook twice must be a no-op.
"""

from repro.simnet import (
    DropInjector,
    FixedLatency,
    Network,
    PartitionInjector,
)


def make_pair(net):
    a = net.add_node("a")
    b = net.add_node("b")
    got = []
    b.open_port("inbox", lambda frame: got.append(frame.payload))
    return a, b, got


class TestDetachDuringDelivery:
    def test_hook_can_detach_itself_mid_frame(self):
        net = Network(latency=FixedLatency(0.001))
        a, b, got = make_pair(net)
        dropper = DropInjector(net, p=1.0)

        calls = []

        def self_detaching(frame):
            calls.append(frame.payload)
            dropper.detach()  # removes the *other* hook mid-iteration
            net.remove_delivery_hook(self_detaching)  # and itself
            return True

        # hook order: dropper first, then self_detaching — ensure the
        # snapshot iteration still consults both for the current frame
        net._delivery_hooks.remove(dropper._hook)
        net.add_delivery_hook(self_detaching)
        net.add_delivery_hook(dropper._hook)

        a.send("b", "inbox", "one")
        net.run()
        # frame one: self_detaching ran, then the (still-snapshotted)
        # dropper dropped it
        assert calls == ["one"] and got == []
        # both hooks are gone now: traffic flows
        a.send("b", "inbox", "two")
        net.run()
        assert got == ["two"]

    def test_detach_is_idempotent(self):
        net = Network(latency=FixedLatency(0.001))
        make_pair(net)
        dropper = DropInjector(net, p=0.5)
        dropper.detach()
        dropper.detach()  # second detach: no ValueError

    def test_remove_never_attached_hook_is_noop(self):
        net = Network(latency=FixedLatency(0.001))
        net.remove_delivery_hook(lambda frame: True)


class TestPartitionHealRoundTrip:
    def test_partition_heal_restores_traffic(self):
        net = Network(latency=FixedLatency(0.001))
        a, b, got = make_pair(net)
        injector = PartitionInjector(net, [["a"], ["b"]])
        a.send("b", "inbox", "blocked")
        net.run()
        assert got == [] and injector.blocked == 1
        injector.detach()
        a.send("b", "inbox", "flows")
        net.run()
        assert got == ["flows"]

    def test_heal_twice_is_noop(self):
        net = Network(latency=FixedLatency(0.001))
        make_pair(net)
        injector = PartitionInjector(net, [["a"], ["b"]])
        injector.detach()
        injector.detach()  # no ValueError

    def test_heal_from_inside_another_hook(self):
        """A schedule's heal fired by a delivery-adjacent callback must
        not corrupt the hook walk of the in-flight frame."""
        net = Network(latency=FixedLatency(0.001))
        a, b, got = make_pair(net)
        injector = PartitionInjector(net, [["a"], ["b"]])

        def healing_hook(frame):
            injector.detach()
            return True

        net._delivery_hooks.insert(0, healing_hook)
        a.send("b", "inbox", "first")
        net.run()
        # the snapshot still contained the partition hook for this frame
        assert got == []
        a.send("b", "inbox", "second")
        net.run()
        assert got == ["second"]
