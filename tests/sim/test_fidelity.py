"""Fidelity-mode equivalence: ``timing`` must be a pure fast path.

``SimConfig.fidelity = "timing"`` skips functional byte crypto and NVM
payload bookkeeping but must charge *identical* latencies and count
*identical* events — the whole point of the mode is that experiment
results are bit-for-bit the same, only cheaper. These tests pin that:

* per-point: total time, every transaction latency, and every stats
  counter agree between ``full`` and ``timing`` across schemes and
  workloads (including the ``array`` workload, whose op stream once
  diverged between the modes — see ``ArrayWorkload.run_op``);
* sweep-level: the fig13 smoke golden digest is the same under both
  fidelities, and equals the pinned constant in test_runner.py;
* config plumbing: ``functional`` is derived from ``fidelity`` (never
  set on its own), and crash/recovery entry points force themselves
  back to full;
* the functional image itself: a full-fidelity crash image (NVM bytes,
  MACs, tree root) is pinned by digest, and rebuilding the integrity
  tree from it costs exactly the hashes the recovery model prices.
"""

import dataclasses
import hashlib

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.core.recovery import RecoveredSystem
from repro.core.schemes import Scheme, scheme_config
from repro.crypto import integrity
from repro.experiments import fig13
from repro.experiments.common import experiment_base_config, get_scale
from repro.sim.simulator import Simulator, simulate_workload
from repro.workloads.generator import generate_trace

from tests.experiments.test_runner import FIG13_SMOKE_1KB_DIGEST, _digest


def _point(fidelity: str, workload: str, scheme: Scheme, size: int = 256):
    scale = get_scale("smoke")
    base = experiment_base_config(scale)
    return simulate_workload(
        workload,
        scheme,
        n_ops=12,
        request_size=size,
        footprint=1 << 20,
        seed=1,
        base_config=base,
        fidelity=fidelity,
    )


class TestConfig:
    def test_timing_fidelity_forces_non_functional(self):
        cfg = SimConfig(fidelity="timing")
        assert cfg.functional is False

    def test_full_fidelity_keeps_functional(self):
        cfg = SimConfig(fidelity="full")
        assert cfg.functional is True

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(fidelity="fast-and-loose")

    def test_replace_recomputes_functional(self):
        """``functional`` is derived, so a fidelity change cannot leave
        it stale."""
        timing = SimConfig(fidelity="timing")
        assert dataclasses.replace(timing, fidelity="full").functional is True
        assert dataclasses.replace(timing, cwc_enabled=True).functional is False

    def test_functional_is_not_settable(self):
        with pytest.raises(TypeError):
            SimConfig(functional=False)
        with pytest.raises(ValueError):
            dataclasses.replace(SimConfig(), functional=False)


class TestPointEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        [
            Scheme.UNSEC,
            Scheme.WT_BASE,
            Scheme.SUPERMEM,
            Scheme.SUPERMEM_BMT,
            Scheme.SCA,
            Scheme.OSIRIS,
        ],
    )
    @pytest.mark.parametrize("workload", ["array", "btree", "queue"])
    def test_timing_matches_full(self, workload, scheme):
        full = _point("full", workload, scheme)
        timing = _point("timing", workload, scheme)
        assert full.total_time_ns == timing.total_time_ns
        assert full.txn_latencies == timing.txn_latencies
        assert full.stats.snapshot() == timing.stats.snapshot()


class TestSweepDigest:
    @pytest.mark.slow
    def test_fig13_smoke_digest_identical_across_fidelities(self):
        timing = fig13.run("smoke", request_sizes=(1024,), fidelity="timing")
        full = fig13.run("smoke", request_sizes=(1024,), fidelity="full")
        assert _digest(timing) == FIG13_SMOKE_1KB_DIGEST
        assert _digest(full) == FIG13_SMOKE_1KB_DIGEST


def _crash_image(workload: str, scheme: Scheme, n_ops: int = 200):
    """Run ``n_ops`` at full fidelity, then crash the memory system."""
    base = experiment_base_config(get_scale("smoke"))
    cfg = dataclasses.replace(scheme_config(scheme, base), fidelity="full")
    trace = generate_trace(
        workload,
        n_ops=n_ops,
        request_size=1024,
        footprint=1 << 20,
        seed=1,
        track_payloads=True,
    )
    sim = Simulator(cfg)
    sim.run(trace.ops, warmup_ops=trace.warmup_ops)
    return sim.system.crash()


def _image_digest(image) -> str:
    h = hashlib.sha256()
    for line in sorted(image.nvm):
        h.update(line.to_bytes(8, "little") + image.nvm[line])
    h.update(b"|macs|")
    for line in sorted(image.macs):
        h.update(line.to_bytes(8, "little") + image.macs[line])
    h.update(b"|root|" + (image.tree_root or b""))
    return h.hexdigest()


#: sha256 of the crash image after 200 full-fidelity ops (smoke scale,
#: 1 KB requests, 1 MiB footprint, seed 1). The perfbench goldens hash
#: only timing and stats; these pin the counter-line bytes, the
#: ciphertexts, the Osiris MACs and the integrity-tree root.
CRASH_IMAGE_DIGESTS = {
    ("mixed", Scheme.SUPERMEM): "4f35bc85479806f4f77fc08e07eff3fb8e0c1031d51bd5ce6092239a4da94d76",
    ("mixed", Scheme.SUPERMEM_BMT): "3d0e1d4b9c286598d6febd122759fa3e902ff270a5b4d20b298b050fe5bdd95b",
    ("mixed", Scheme.OSIRIS): "a72e297d4dd6e4852308a7ca43be8d803fdc48bed47c56de842bb448998ff3b0",
    ("hashtable", Scheme.SUPERMEM): "98f6a043d663a0e8a8147129f4512cb72d7ba532b69bb31bd7818dd7ae0286e9",
    ("hashtable", Scheme.SUPERMEM_BMT): "9eb9428d8f069da95bb6fd51ebd000b76e94f2ec5b68879ca42dc67dbf0dde5e",
    ("hashtable", Scheme.OSIRIS): "1b419ec887693be78517cd69a7338a5922f803bfc28c46c1ce0185228f539c81",
}


class TestFunctionalImage:
    @pytest.mark.parametrize(
        "workload, scheme",
        sorted(CRASH_IMAGE_DIGESTS, key=lambda k: (k[0], k[1].value)),
        ids=lambda v: v.value if isinstance(v, Scheme) else v,
    )
    def test_crash_image_matches_golden(self, workload, scheme):
        image = _crash_image(workload, scheme)
        assert (image.tree_root is not None) == (scheme is Scheme.SUPERMEM_BMT)
        assert _image_digest(image) == CRASH_IMAGE_DIGESTS[workload, scheme]

    def test_tree_rebuild_hashes_what_recovery_prices(self, monkeypatch):
        """The rebuild hashes each persisted leaf and each touched node
        once; building the empty tree adds one hash per level."""
        image = _crash_image("mixed", Scheme.SUPERMEM_BMT)
        calls = []
        real = integrity._h

        def counting_h(data: bytes) -> bytes:
            calls.append(data)
            return real(data)

        monkeypatch.setattr(integrity, "_h", counting_h)
        recovered = RecoveredSystem(image)
        leaves, nodes_rehashed, root = recovered.rebuild_integrity_tree()
        assert root == image.tree_root
        depth = recovered.rebuilt_tree.depth
        assert leaves > 0
        assert len(calls) == leaves + nodes_rehashed + depth + 1
