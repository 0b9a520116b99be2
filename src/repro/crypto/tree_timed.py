"""Timed integrity-tree machinery: geometry, coalesced walk, reference.

Three pieces promote :mod:`repro.crypto.integrity` from functional-only
to a *timed, evaluated* scheme (``Scheme.SUPERMEM_BMT``):

* :class:`TreeGeometry` — the NVM placement of the Bonsai counter tree.
  Leaves are the counter blocks themselves (already persisted in the
  counter region at ``amap.n_lines + page``); internal nodes are 16 B
  hashes packed four to a 64 B line in a region *above* the counters,
  at ``amap.n_lines + n_pages + k``. The root lives in an on-chip
  register and has no NVM line. Node lines stripe across banks by line
  index, so with page-interleaved data they also stripe across memory
  channels — the placement the ``fig-channels`` sweep exercises.

* :class:`CoalescedTreeModel` — the functional twin of the timed write
  path: a real :class:`~repro.crypto.integrity.MerkleCounterTree`
  (which defers its hashing to the next root or audit read, so roots
  and verify outcomes are exact), with hash work counted per the
  Freij-style walk — climb leaf→root through the node cache and *stop
  at the first dirty cached ancestor*, whose eventual rehash folds the
  pending update in.

* :class:`NaiveTreeReference` — the retained full-path-update oracle:
  every counter write rehashes the entire leaf→root path. The
  differential suite (tests/crypto/test_tree_timed.py) drives both over
  randomized write/read sequences and asserts identical roots and
  verify outcomes with ``coalesced.hash_ops <= naive.hash_ops``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.address import AddressMap, CACHE_LINE_SIZE
from repro.common.config import CacheConfig, _default_tree_cache
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.cache.tree_cache import TreeNodeCache
from repro.crypto.integrity import _HASH_BYTES, MerkleCounterTree

#: 16 B hashes pack four to a 64 B NVM line.
NODES_PER_LINE = CACHE_LINE_SIZE // _HASH_BYTES


class TreeGeometry:
    """Node numbering and NVM placement of the counter Merkle tree.

    Internal nodes (levels ``1 .. depth-1``; the root register is not a
    node) get dense ids: level 1 first, then level 2, and so on. Node
    ``k`` lives in NVM line ``base_line + k // NODES_PER_LINE``.
    """

    def __init__(self, n_leaves: int, amap: Optional[AddressMap] = None):
        if n_leaves <= 0:
            raise ConfigError("tree needs at least one leaf")
        size = 1
        while size < n_leaves:
            size *= 2
        self.n_leaves = size
        self.depth = size.bit_length() - 1
        # Id offset of each internal level (1 .. depth-1).
        self._offsets: List[int] = [0, 0]
        count = 0
        for level in range(1, self.depth):
            count += size >> level
            self._offsets.append(count)
        #: Internal (cacheable, NVM-resident) nodes, root excluded.
        self.n_nodes = count
        self.amap = amap
        #: First NVM line of the tree-node region (just above the
        #: counter region's index extension).
        self.base_line = amap.n_lines + amap.n_pages if amap is not None else 0
        self.n_node_lines = -(-self.n_nodes // NODES_PER_LINE)

    def ancestors(self, leaf: int) -> List[int]:
        """Internal-node ids on the leaf→root path (root excluded)."""
        if not 0 <= leaf < self.n_leaves:
            raise ConfigError(f"leaf index {leaf} outside 0..{self.n_leaves - 1}")
        node = leaf
        out = []
        for level in range(1, self.depth):
            node >>= 1
            out.append(self._offsets[level] + node)
        return out

    def node_line(self, node: int) -> int:
        """NVM line holding ``node``'s 16 B hash."""
        return self.base_line + node // NODES_PER_LINE

    def placement(self, node: int, n_banks: int) -> Tuple[int, int, int]:
        """``(line, bank, row)`` of a tree node — bank-striped by line
        index so adjacent node lines spread over banks (and channels)."""
        line = self.node_line(node)
        bank = line % n_banks
        row = self.amap.row_of_line(line) if self.amap is not None else 0
        return line, bank, row


class NaiveTreeReference:
    """Full-path-update oracle: one leaf write rehashes leaf→root."""

    def __init__(self, n_leaves: int):
        self.tree = MerkleCounterTree(n_leaves)
        self.hash_ops = 0

    @property
    def root(self) -> bytes:
        return self.tree.root

    def update(self, leaf: int, block_image: bytes) -> bytes:
        self.tree.update_leaf(leaf, block_image)
        # One leaf hash + every internal level + the root register.
        self.hash_ops += 1 + self.tree.depth
        return self.tree.root

    def verify(self, leaf: int, block_image: bytes) -> bool:
        path = self.tree.audit_path(leaf)
        return MerkleCounterTree.verify_path(block_image, path, self.tree.root)


class CoalescedTreeModel:
    """Node-cached, coalesced twin of :class:`NaiveTreeReference`.

    Functionally identical (every root read flushes the underlying
    tree's pending leaves, so the root is always exact); only the
    *counted hash work* follows the timed walk: stop at the first dirty
    cached ancestor, pay a fetch for every cache miss, write back dirty
    victims.
    """

    def __init__(self, n_leaves: int, cache_config: Optional[CacheConfig] = None):
        self.tree = MerkleCounterTree(n_leaves)
        self.geometry = TreeGeometry(self.tree.n_leaves)
        self.cache = TreeNodeCache(cache_config or _default_tree_cache(), Stats())
        self.hash_ops = 0
        self.node_fetches = 0
        self.node_writebacks = 0
        self.coalesced_stops = 0

    @property
    def root(self) -> bytes:
        return self.tree.root

    def update(self, leaf: int, block_image: bytes) -> bytes:
        self.tree.update_leaf(leaf, block_image)
        self.hash_ops += 1  # the leaf (counter-block) rehash
        for node in self.geometry.ancestors(leaf):
            if self.cache.is_dirty(node):
                self.cache.note_coalesced()
                self.coalesced_stops += 1
                return self.tree.root
            _, writeback, fetch = self.cache.access(node, update=True)
            if fetch:
                self.node_fetches += 1
            if writeback is not None:
                self.node_writebacks += 1
            self.hash_ops += 1
        if self.tree.depth:  # a single-leaf tree's leaf hash IS the root
            self.hash_ops += 1  # root register rehash
        return self.tree.root

    def verify(self, leaf: int, block_image: bytes) -> bool:
        path = self.tree.audit_path(leaf)
        return MerkleCounterTree.verify_path(block_image, path, self.tree.root)
