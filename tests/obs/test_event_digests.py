"""Pinned traced event streams: what a traced run emits does not drift.

One small point per evaluated scheme and fidelity is simulated with an
enabled :class:`~repro.obs.Tracer` (gauge sampling on), once *recording*
the hierarchy outcome stream and once *replaying* that recording. A
sha256 over every emitted event (category, name, track, timestamp,
phase, duration, arguments — in emission order) is compared against the
scheme's digest below, so a traced run is pinned to emit exactly what it
emitted when these were taken: no event may be dropped, added, reordered
or re-timed by a change to the simulation chain. Fidelity and
record/replay change no simulated time, so all four runs of a scheme
share one digest.

A traced 8-program :func:`~repro.sim.multicore.simulate_multiprogrammed`
run per scheme is pinned the same way (``MULTICORE_GOLDEN``): it fixes
the order in which the cores interleave and the drain scheduler's picks
under out-of-time-order appends from several cores.

Regenerate (only for an intended change to the event vocabulary) with::

    PYTHONPATH=src python tests/obs/test_event_digests.py
"""

import dataclasses
import hashlib

import pytest

from repro.common.config import SimConfig
from repro.core.schemes import EVALUATED_SCHEMES, scheme_config
from repro.obs import Tracer
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.simulator import Simulator
from repro.workloads.generator import generate_trace

SAMPLE_NS = 500.0
FIDELITIES = ("timing", "full")

#: scheme -> sha256 of the traced event stream.
GOLDEN = {
    "unsec": "27839c6a2e0120e3edb90cd9cee2a5d7ae2bc912b27b3cf609ae8e0cc706c8c1",
    "wb": "a008a39584b799be97917a91e93b89847d5181ce56141b0287a99ea02cfb0657",
    "wt": "78bf0ff83d4f7a3c6abd9dd8a67e3e7cc2978ef2774ec9683638b7106b819f24",
    "wt+cwc": "b05ec49a7d9171ddd5ffea943122df4d54651eb45cc4d549ed6f10776d6bc2a1",
    "wt+xbank": "076552e972a653c6ed829b9843979374e16dee98efbfd34f71b5fd8f7612fe17",
    "supermem": "451ab117f06e270a35e2fe4c27d7b55a3bb0ff203d599142c65c80fe5f6da90b",
    "supermem+bmt": "6fe8cb02f4427002d2acc58b807212711f89cdcd917657edb84b86376fb9604d",
}

#: scheme -> sha256 of the traced event stream of an 8-program run.
MULTICORE_GOLDEN = {
    "unsec": "609a21d47fbf98dd6ff34c04eed9b581d740bb5522e1562918c1baaf53267547",
    "wb": "3f5c37e539a0471f55202343b27ed50af7b61bd50fbd313969f8d649f0144cf5",
    "wt": "79ef5ececf597829804790d119d2e3bad1b0293d4240e25fee8beafc592c2f17",
    "wt+cwc": "3ec5b29124107b66eb392d918d0dc01d70c91c356ac2c948ae8f6979baad62d7",
    "wt+xbank": "7464dcdbe1877700fb189f3fd032ab5c4875fde269aee1c2302f6cdf97d1ead3",
    "supermem": "fe21992b68935d8284cbaf1a8448a0b10aa23e63ec8951791bc7b891da723cce",
    "supermem+bmt": "0ab93d0266911a708415472dffd88f09b7931df1d0509b10d11d4d684433a8ae",
}


def point_config(scheme, fidelity):
    return dataclasses.replace(scheme_config(scheme, SimConfig()), fidelity=fidelity)


def point_trace(cfg):
    return generate_trace(
        "hashtable",
        n_ops=30,
        request_size=1024,
        footprint=1 << 18,
        seed=3,
        warmup_ops=6,
        track_payloads=cfg.functional,
    )


def run_point(cfg, trace, outcomes=None, tracer=None, arm=None):
    """Simulate one point; records outcomes unless ``outcomes`` is given.

    ``arm`` is an optional ``(point, occurrence)`` crash point to arm
    before the run. Returns ``(result, simulator)``.
    """
    sim = Simulator(cfg, tracer=tracer)
    if arm is not None:
        sim.system.crash_ctl.arm(*arm)
    result = sim.run(
        trace.ops,
        warmup_ops=trace.warmup_ops,
        outcomes=outcomes,
        record_outcomes=outcomes is None,
    )
    return result, sim


def events_digest(tracer) -> str:
    h = hashlib.sha256()
    for e in tracer.events:
        h.update(repr((e.cat, e.name, e.track, e.ts, e.ph, e.dur, e.args)).encode())
    return h.hexdigest()


def traced_digests(scheme, fidelity):
    """``{"record": digest, "replay": digest}`` for one point."""
    cfg = point_config(scheme, fidelity)
    trace = point_trace(cfg)
    tracer = Tracer(sample_interval_ns=SAMPLE_NS)
    _, sim = run_point(cfg, trace, tracer=tracer)
    recorded = events_digest(tracer)
    tracer = Tracer(sample_interval_ns=SAMPLE_NS)
    run_point(cfg, trace, outcomes=sim.recorded_outcomes, tracer=tracer)
    return {"record": recorded, "replay": events_digest(tracer)}


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_traced_event_stream_matches_golden(scheme, fidelity):
    got = traced_digests(scheme, fidelity)
    assert got == {mode: GOLDEN[scheme.value] for mode in ("record", "replay")}


def multicore_digest(scheme) -> str:
    tracer = Tracer(sample_interval_ns=SAMPLE_NS)
    simulate_multiprogrammed(
        "hashtable",
        scheme,
        n_programs=8,
        n_ops=8,
        request_size=1024,
        seed=3,
        tracer=tracer,
    )
    return events_digest(tracer)


@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_multicore_event_stream_matches_golden(scheme):
    assert multicore_digest(scheme) == MULTICORE_GOLDEN[scheme.value]


if __name__ == "__main__":
    print("GOLDEN = {")
    for scheme in EVALUATED_SCHEMES:
        print(f'    "{scheme.value}": "{traced_digests(scheme, "timing")["record"]}",')
    print("}")
    print("MULTICORE_GOLDEN = {")
    for scheme in EVALUATED_SCHEMES:
        print(f'    "{scheme.value}": "{multicore_digest(scheme)}",')
    print("}")
