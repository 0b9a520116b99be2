"""Split-counter storage: one 64 B counter line per 4 KB page.

SuperMem adopts the *split counter* organisation (paper Figure 9): each
4 KB page shares a single 64-bit **major** counter and carries one 7-bit
**minor** counter per 64 B memory line. The whole bundle is
``64 + 64 * 7 = 512`` bits = 64 bytes, exactly one memory line. Two
consequences drive the design:

* *Spatial locality of counter storage* — the counters of 64 consecutive
  data lines live in **one** counter line, which is what counter write
  coalescing (CWC) exploits;
* *Overflow handling* — a minor counter saturates after
  ``2**7 - 1 = 127`` increments, at which point the page's major counter is
  bumped, all minors reset, and every line of the page is re-encrypted
  (:mod:`repro.core.reencrypt`).

The encryption counter of a line is the concatenation
``major << minor_bits | minor``, which is unique per write as long as the
major counter never overflows (a 64-bit major outlives NVM cell endurance,
Section 3.4.1).

A *monolithic* organisation (one private 64-bit counter per line, as in the
pre-split-counter literature) is also provided for the ablation benchmark:
it never overflows but packs only 8 counters per counter line, so CWC has
an eighth of the reach.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.common.address import LINES_PER_PAGE
from repro.common.errors import ConfigError

#: Maximum value of a 7-bit minor counter.
MINOR_COUNTER_MAX = (1 << 7) - 1

_MASK64 = (1 << 64) - 1


def _pack7_steps():
    """Masks that squeeze 64 byte lanes of 7-bit minors to 448 bits.

    Step ``k`` joins neighbouring groups of ``2**k`` lanes: each group
    holds ``7 * 2**k`` data bits at the bottom of an ``8 * 2**k``-bit
    field, so the upper group's data moves down by ``2**k`` bits to sit
    right above the lower group's.
    """
    steps = []
    for k in range(6):
        field_bits, data_bits = 8 << k, 7 << k
        low = 0
        for base in range(0, 8 * LINES_PER_PAGE, 2 * field_bits):
            low |= ((1 << data_bits) - 1) << base
        steps.append((low, low << field_bits, 1 << k))
    return tuple(steps)


#: Low 7 bits of every byte lane of the 64-minor int.
_LANES7 = int.from_bytes(b"\x7f" * LINES_PER_PAGE, "little")
_PACK7_STEPS = _pack7_steps()
_PACKED7_BYTES = 7 * LINES_PER_PAGE // 8


@dataclass
class CounterBlock:
    """The split counters of one page: a major and 64 minors.

    Attributes
    ----------
    major:
        The page's shared 64-bit major counter.
    minors:
        64 per-line minor counters (each < 2**minor_bits).
    minor_bits:
        Width of each minor counter; 7 in the paper.
    """

    major: int = 0
    minors: List[int] = field(default_factory=lambda: [0] * LINES_PER_PAGE)
    minor_bits: int = 7

    def __post_init__(self) -> None:
        if len(self.minors) != LINES_PER_PAGE:
            raise ConfigError(
                f"split counter block needs {LINES_PER_PAGE} minors, "
                f"got {len(self.minors)}"
            )

    @property
    def minor_max(self) -> int:
        """Largest representable minor counter value."""
        return (1 << self.minor_bits) - 1

    def encryption_counter(self, slot: int) -> int:
        """Combined counter encrypting line ``slot`` of the page.

        The value is unique per (page, slot, write) because the major
        counter increments whenever any minor wraps.
        """
        return (self.major << self.minor_bits) | self.minors[slot]

    def bump(self, slot: int) -> bool:
        """Increment the minor counter of ``slot`` for a new write.

        Returns
        -------
        bool
            ``True`` when the minor overflowed. The caller must then run
            page re-encryption: :meth:`start_reencryption` gives the new
            counters and every line of the page must be re-encrypted under
            them (Section 3.4.4). The minor is left saturated until
            re-encryption resets it, so the overflow is never silently
            dropped.
        """
        if self.minors[slot] >= self.minor_max:
            return True
        self.minors[slot] += 1
        return False

    def start_reencryption(self) -> int:
        """Bump the major counter; return the old major.

        Minor counters are **not** reset here: each minor is zeroed
        individually (:meth:`reset_minor`) as its line is re-encrypted.
        This is what makes a crash mid-re-encryption recoverable — the NVM
        counter-line image still carries the *old* minors of
        not-yet-re-encrypted lines, and the RSR's old major (recorded by
        the caller) completes their decryption counters.
        """
        old_major = self.major
        self.major += 1
        return old_major

    def reset_minor(self, slot: int) -> None:
        """Zero one minor as its line is re-encrypted under the new major."""
        self.minors[slot] = 0

    def copy(self) -> "CounterBlock":
        """An independent copy (used when snapshotting durable state)."""
        return CounterBlock(
            major=self.major, minors=list(self.minors), minor_bits=self.minor_bits
        )

    # ------------------------------------------------------------------
    # Wire format: 8-byte little-endian major + 64 minors packed 7 bits
    # each (for minor_bits == 7; wider minors use one byte each and the
    # block is then larger than a line, which only the ablation uses).
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the 64 B memory-line image stored in NVM.

        The 7-bit packing is word-parallel: the 64 minors become one
        512-bit int with a byte lane each, every lane is masked to its
        low 7 bits, and :data:`_PACK7_STEPS` closes the one-bit gaps in
        six halving steps, so a persist costs a handful of big-int ops.
        Each minor must fit in a byte; only its low 7 bits are kept.
        """
        out = struct.pack("<Q", self.major & _MASK64)
        if self.minor_bits == 7:
            bits = int.from_bytes(bytes(self.minors), "little") & _LANES7
            for low, high, shift in _PACK7_STEPS:
                bits = (bits & low) | ((bits & high) >> shift)
            return out + bits.to_bytes(_PACKED7_BYTES, "little")
        for minor in self.minors:
            out += struct.pack("<H", minor)
        return out

    @classmethod
    def from_bytes(cls, data: bytes, minor_bits: int = 7) -> "CounterBlock":
        """Parse a memory-line image produced by :meth:`to_bytes`."""
        major = struct.unpack_from("<Q", data, 0)[0]
        minors: List[int] = []
        if minor_bits == 7:
            bits = 0
            nbits = 0
            pos = 8
            while len(minors) < LINES_PER_PAGE:
                while nbits < 7:
                    bits |= data[pos] << nbits
                    nbits += 8
                    pos += 1
                minors.append(bits & 0x7F)
                bits >>= 7
                nbits -= 7
        else:
            for slot in range(LINES_PER_PAGE):
                minors.append(struct.unpack_from("<H", data, 8 + 2 * slot)[0])
        return cls(major=major, minors=minors, minor_bits=minor_bits)


@dataclass
class MonolithicCounterBlock:
    """Eight private 64-bit line counters packed in one 64 B line.

    Used only by the counter-organisation ablation: no overflow ever
    happens, but one counter line covers just 8 data lines, shrinking both
    counter-cache reach and CWC's coalescing opportunity by 8x.
    """

    LINES_PER_BLOCK = 8

    counters: List[int] = field(default_factory=lambda: [0] * 8)

    def encryption_counter(self, slot: int) -> int:
        """The private counter of line ``slot`` in this block."""
        return self.counters[slot]

    def bump(self, slot: int) -> bool:
        """Increment; a 64-bit counter never overflows in practice."""
        self.counters[slot] += 1
        return False

    def copy(self) -> "MonolithicCounterBlock":
        return MonolithicCounterBlock(counters=list(self.counters))

    def to_bytes(self) -> bytes:
        return struct.pack("<8Q", *(c & ((1 << 64) - 1) for c in self.counters))

    @classmethod
    def from_bytes(cls, data: bytes) -> "MonolithicCounterBlock":
        return cls(counters=list(struct.unpack_from("<8Q", data, 0)))
