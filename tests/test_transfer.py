"""The callback-driven fabric transfer: FIFO port grants, wire-time
arithmetic, interrupt safety at every stage, the shared medium, loopback and
the fault verdicts."""

import pytest

from repro.machine import Environment, Fabric, FabricSpec, Interrupt, LinkSpec
from repro.machine.interconnect import TransferOutcome

INTER = LinkSpec(latency=10e-6, bandwidth=100e6, sw_overhead=2e-6)
INTRA = LinkSpec(latency=1e-6, bandwidth=400e6, sw_overhead=0.5e-6)


def fabric(env, crossbar=True):
    spec = FabricSpec(name="test", inter_board=INTER, intra_board=INTRA,
                      crossbar=crossbar, shared_channels=1)
    # nodes 0,1 on board 0; nodes 2,3 on board 1
    return Fabric(env, spec, {0: 0, 1: 0, 2: 1, 3: 1})


def wire(link, nbytes):
    return link.sw_overhead + link.latency + nbytes / link.bandwidth


def all_ports(fab):
    return [*fab._inject.values(), *fab._eject.values(), fab._shared]


def assert_idle(fab):
    for port in all_ports(fab):
        assert (port.count, port.queue_length) == (0, 0)


def sender(env, fab, src, dst, nbytes, log):
    outcome = yield fab.transfer(src, dst, nbytes)
    log.append((src, env.now, outcome))


def test_three_senders_on_one_eject_port_are_served_fifo():
    env = Environment()
    fab = fabric(env)
    log = []
    sizes = {0: 3e5, 1: 1e5, 2: 2e5}
    for src in (0, 1, 2):  # 0 and 1 cross boards to 3; 2 shares its board
        env.process(sender(env, fab, src, 3, sizes[src], log))
    env.run()
    d0, d1, d2 = wire(INTER, sizes[0]), wire(INTER, sizes[1]), wire(INTRA, sizes[2])
    assert [(src, t) for src, t, _ in log] == [
        (0, d0), (1, d0 + d1), (2, d0 + d1 + d2)]
    assert all(outcome.ok for _, _, outcome in log)
    assert_idle(fab)


def test_ports_are_released_before_waiters_resume():
    env = Environment()
    fab = fabric(env)
    seen = []

    def prog():
        yield fab.transfer(0, 2, 1e4)
        seen.append([(p.count, p.queue_length) for p in all_ports(fab)])

    env.process(prog())
    env.run()
    assert seen == [[(0, 0)] * 3]


def interruptible(env, fab, src, dst, nbytes, log):
    transfer = fab.transfer(src, dst, nbytes)
    try:
        yield transfer
    except Interrupt:
        transfer.cancel()
        log.append(("cancelled", env.now))


@pytest.mark.parametrize("stage", ["queued_on_inject", "queued_on_eject",
                                   "on_the_wire"])
def test_interrupt_at_each_stage_leaves_every_port_idle(stage):
    env = Environment()
    fab = fabric(env)
    log = []
    if stage == "queued_on_inject":
        env.process(sender(env, fab, 0, 3, 1e6, log))   # holds inject 0
        victim = env.process(interruptible(env, fab, 0, 2, 1e6, log))
    elif stage == "queued_on_eject":
        env.process(sender(env, fab, 1, 2, 1e6, log))   # holds eject 2
        victim = env.process(interruptible(env, fab, 0, 2, 1e6, log))
    else:
        victim = env.process(interruptible(env, fab, 0, 2, 1e6, log))
    env.run(until=1e-4)
    waiting = {"queued_on_inject": (fab._inject[0], 1),
               "queued_on_eject": (fab._eject[2], 1),
               "on_the_wire": (fab._eject[2], 0)}[stage]
    port, queued = waiting
    assert (port.count, port.queue_length) == (1, queued)
    victim.interrupt("test")
    env.run()
    assert ("cancelled", 1e-4) in log
    assert_idle(fab)


def test_a_frozen_transfer_keeps_its_ports_until_cancelled():
    env = Environment()
    fab = fabric(env)
    transfer = fab.transfer(0, 2, 1e3)
    env.run(until=1e-6)
    transfer.freeze()
    env.run()  # the wire-end entry passes: no release, no verdict
    assert (fab._inject[0].count, fab._eject[2].count) == (1, 1)
    transfer.cancel()
    assert_idle(fab)
    transfer.cancel()  # idempotent
    assert_idle(fab)


def test_shared_medium_serialises_inter_board_transfers():
    env = Environment()
    fab = fabric(env, crossbar=False)
    log = []
    env.process(sender(env, fab, 0, 2, 1e5, log))
    env.process(sender(env, fab, 1, 3, 1e5, log))
    env.process(sender(env, fab, 2, 3, 1e5, log))  # intra-board: no medium
    env.run()
    d, d_intra = wire(INTER, 1e5), wire(INTRA, 1e5)
    # 2->3 holds eject 3 first; 1->3 waits for it, then crosses the medium
    # after 0->2 has released it.
    assert [(src, t) for src, t, _ in log] == [
        (2, d_intra), (0, d), (1, d + d)]
    assert_idle(fab)


def test_loopback_touches_no_port():
    env = Environment()
    fab = fabric(env)
    log = []
    env.process(sender(env, fab, 1, 1, 1e9, log))
    env.run()
    assert log == [(1, 0.0, TransferOutcome())]
    assert fab._inject == {} and fab._eject == {}


class StubFaults:
    """A fault layer with a scripted verdict, for the verdict paths."""

    def __init__(self, alive=True, link_up=True, sampled="delivered"):
        self._alive, self._link_up, self._sampled = alive, link_up, sampled
        self.samples = 0

    def check_node(self, node):
        pass

    def check_link(self, src, dst):
        pass

    def link_factor(self, src, dst):
        return 1.0

    def sample_jitter(self, src, dst):
        return 0.0

    def alive(self, node):
        return self._alive

    def link_up(self, src, dst):
        return self._link_up

    def sample_delivery(self, src, dst, nbytes):
        self.samples += 1
        return self._sampled


@pytest.mark.parametrize("faults,expected", [
    (StubFaults(), TransferOutcome()),
    (StubFaults(sampled="lost"),
     TransferOutcome(delivered=False, reason="message lost")),
    (StubFaults(sampled="corrupted"),
     TransferOutcome(corrupted=True, reason="message corrupted")),
    (StubFaults(alive=False),
     TransferOutcome(delivered=False, reason="node 2 died in flight")),
    (StubFaults(link_up=False),
     TransferOutcome(delivered=False, reason="link 0<->2 dropped in flight")),
], ids=["delivered", "lost", "corrupted", "died_in_flight", "link_dropped"])
def test_fault_verdicts(faults, expected):
    env = Environment()
    fab = fabric(env)
    fab.faults = faults
    log = []
    env.process(sender(env, fab, 0, 2, 1e4, log))
    env.run()
    assert log == [(0, wire(INTER, 1e4), expected)]
    # Only a live destination over a live link draws a delivery sample.
    assert faults.samples == (1 if faults._alive and faults._link_up else 0)
    assert_idle(fab)
