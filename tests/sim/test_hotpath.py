"""Hot-path equivalence: the flattened fast paths are bit-identical.

``hot_path=True`` (production) replaces the straight-line reference
implementations with hoisted/indexed fast paths — the per-bank candidate
scan with its memoized result, the flattened cache walk, prebuilt stat
keys. ``hot_path=False`` keeps the reference model. Nothing about the
*model* may differ, so:

* full simulations agree on every latency and every stats counter,
  including a WT 4096 B point that keeps the write queue at capacity
  (the regime that exercises the per-bank scan and make-space loops);
* 8-program multi-core runs agree the same way, with every core's
  appends landing out of time order in the shared write queue;
* the scheduler's per-bank candidate scan picks the exact same entry as
  the reference scan under randomized append/read/drain interleavings
  (which also exercises the candidate-cache invalidation rules), from
  one core and from four cores with independent clocks, under every
  drain policy, and for entries queued out of ``enq_time`` order. The
  scan assumes only that every queued ``enq_time`` is at or below the
  controller clock, which each multi-core step re-checks.
"""

import dataclasses
import random

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.stats import Stats
from repro.core.schemes import Scheme
from repro.experiments.common import experiment_base_config, get_scale
from repro.memory.controller import MemoryController
from repro.memory.write_queue import WQEntry
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.simulator import simulate_workload


def _run(workload, scheme, size, hot):
    base = dataclasses.replace(
        experiment_base_config(get_scale("smoke")), hot_path=hot
    )
    return simulate_workload(
        workload,
        scheme,
        n_ops=12,
        request_size=size,
        footprint=1 << 20,
        seed=1,
        base_config=base,
    )


class TestSimulationEquivalence:
    @pytest.mark.parametrize(
        "workload,scheme,size",
        [
            ("array", Scheme.SUPERMEM, 256),
            ("btree", Scheme.SUPERMEM, 1024),
            ("queue", Scheme.UNSEC, 256),
            ("btree", Scheme.SCA, 1024),
            # Integrity tree: the walk helpers have their own fast twins.
            ("array", Scheme.SUPERMEM_BMT, 256),
            ("btree", Scheme.SUPERMEM_BMT, 1024),
            # Large requests keep the write queue saturated: the per-bank
            # scan, candidate cache, and make-space loop all run hot.
            ("array", Scheme.WT_BASE, 4096),
            ("btree", Scheme.WT_BASE, 4096),
            ("array", Scheme.SUPERMEM, 4096),
            ("queue", Scheme.SUPERMEM_BMT, 4096),
        ],
    )
    def test_hot_matches_reference(self, workload, scheme, size):
        fast = _run(workload, scheme, size, hot=True)
        ref = _run(workload, scheme, size, hot=False)
        assert fast.total_time_ns == ref.total_time_ns
        assert fast.txn_latencies == ref.txn_latencies
        assert fast.stats.snapshot() == ref.stats.snapshot()


class TestMulticoreEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        [Scheme.WT_BASE, Scheme.WT_CWC, Scheme.SUPERMEM, Scheme.SUPERMEM_BMT],
    )
    def test_hot_matches_reference(self, scheme):
        fast, ref = (
            simulate_multiprogrammed(
                "hashtable",
                scheme,
                n_programs=8,
                n_ops=12,
                request_size=4096,
                seed=1,
                base_config=dataclasses.replace(
                    experiment_base_config(get_scale("smoke")), hot_path=hot
                ),
            )
            for hot in (True, False)
        )
        assert fast.total_time_ns == ref.total_time_ns
        assert fast.txn_latencies == ref.txn_latencies
        assert fast.stats.snapshot() == ref.stats.snapshot()


def _controller(policy="defer-counters", cwc=False):
    return MemoryController(
        SimConfig(
            memory=MemoryConfig(drain_policy=policy),
            cwc_enabled=cwc,
            hot_path=True,
        ),
        Stats(),
    )


def _assert_same_candidate(mc):
    fast = mc._best_candidate()
    ref = mc._best_candidate_ref()
    if ref is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast[0] == ref[0]
        assert fast[1] is ref[1]


class TestCandidateScan:
    def test_randomized_interleaving_matches_reference(self):
        """Fast scan == reference scan after every mutation.

        Mutations cover all the candidate-cache invalidation paths:
        appends (queue version), issues via advance_to (version + bank/
        bus state), and demand reads (bank/bus state with *no* version
        bump — the explicit invalidation).
        """
        rng = random.Random(99)
        mc = _controller()
        t = 0.0
        for _ in range(300):
            action = rng.randrange(4)
            t += rng.choice((0.0, 1.0, 17.0))
            if action == 0:
                mc.append_write(t, rng.randrange(256))
            elif action == 1:
                mc.append_write(
                    t, 4096 + rng.randrange(64), is_counter=True
                )
            elif action == 2:
                mc.read(t, rng.randrange(256))
            else:
                mc.advance_to(t)
            _assert_same_candidate(mc)
        mc.drain_all()
        assert len(mc.wq) == 0

    def test_repeated_probe_uses_consistent_candidate(self):
        """Back-to-back scans (cache hit path) stay equal to reference."""
        mc = _controller()
        for line in range(6):
            mc.append_write(float(line), line)
        for _ in range(5):
            _assert_same_candidate(mc)

    def test_out_of_order_appends_match_reference(self):
        """Entries queued out of ``enq_time`` order, at reachable clocks.

        Every queued ``enq_time`` stays at or below the clock, as the
        controller guarantees. The second counter write on bank 3 carries
        the earlier stamp, so while the FIFO-first one is held back the
        scan must walk on to it.
        """
        mc = _controller()
        defer = mc._counter_defer_ns
        mc.clock = 60.0
        for line, bank, is_counter, enq_time in (
            (1, 0, False, 50.0),
            (2, 1, False, 10.0),
            (3, 3, True, 60.0),
            (4, 3, True, 20.0),
        ):
            mc.wq.append(
                WQEntry(
                    line=line,
                    bank=bank,
                    row=0,
                    is_counter=is_counter,
                    enq_time=enq_time,
                )
            )
        for clock in (60.0, 80.0):
            mc.clock = clock
            _assert_same_candidate(mc)
        # Drop the data writes: the counters then compete alone, and the
        # earlier-stamped one is released first.
        for entry in [e for e in mc.wq if not e.is_counter]:
            mc.wq.remove(entry)
        _assert_same_candidate(mc)
        assert mc._best_candidate()[1].line == 4
        for clock in (20.0 + defer, 60.0 + defer, 1000.0):
            mc.clock = clock
            _assert_same_candidate(mc)
        mc.wq.append(
            WQEntry(line=5, bank=2, row=0, is_counter=False, enq_time=70.0)
        )
        _assert_same_candidate(mc)

    @pytest.mark.parametrize("policy", ["defer-counters", "frfcfs", "fifo"])
    def test_multicore_appends_match_reference(self, policy):
        """Four cores with independent clocks drive one controller.

        Cores behind the controller clock append, read and advance
        through the public API, so appends reach the queue out of
        ``enq_time`` order. After every mutation the per-bank scan must
        equal the reference, and no queued entry may be stamped after
        the controller clock.
        """
        for seed in range(40):
            rng = random.Random(seed)
            mc = _controller(policy, cwc=seed % 2 == 1)
            n_banks = len(mc.banks)
            clocks = [0.0] * 4
            for _ in range(200):
                core = rng.randrange(4)
                t = clocks[core] + rng.choice((0.0, 1.0, 17.0, 361.0))
                action = rng.randrange(5)
                if action == 0:
                    t = mc.append_write(t, rng.randrange(1024), core=core)
                elif action == 1:
                    line = 8192 + rng.randrange(32)
                    t = mc.append_write(
                        t,
                        line,
                        bank=line % n_banks,
                        row=0,
                        is_counter=True,
                        core=core,
                    )
                elif action == 2:
                    data = rng.randrange(1024)
                    counter = 8192 + rng.randrange(32)
                    t = mc.append_pair(
                        t,
                        WQEntry(
                            line=data,
                            bank=mc.amap.bank_of_line(data),
                            row=0,
                            is_counter=False,
                            enq_time=t,
                            core=core,
                        ),
                        WQEntry(
                            line=counter,
                            bank=counter % n_banks,
                            row=0,
                            is_counter=True,
                            enq_time=t,
                            core=core,
                        ),
                    )
                elif action == 3:
                    t = mc.read_fast(t, rng.randrange(1024))
                else:
                    mc.advance_to(t)
                clocks[core] = t
                assert all(entry.enq_time <= mc.clock for entry in mc.wq)
                _assert_same_candidate(mc)
            mc.drain_all()
            assert len(mc.wq) == 0
