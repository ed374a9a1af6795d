"""Blocked-vs-flat store equivalence under randomized op interleavings.

The engine-level fuzz suite (``test_fuzz_parity.py``) only drives the
stores through TreeMatch's access pattern. These property tests attack
the stores directly: any seeded interleaving of ``set_ssim`` /
``scale_block`` calls (with reads mixed in, so lazy tiles materialize
at arbitrary points) must leave :class:`BlockedSimilarityStore` and
:class:`DenseSimilarityStore` with byte-identical matrix reads — every
ssim/lsim/wsim cell, every ``structural_fraction``, and the identical
dirty-set crossing stamps — on both the numpy and stdlib backends and
across tile sizes (including non-power-of-two edges).
"""

from __future__ import annotations

import random

import pytest

from repro.config import CupidConfig
from repro.datasets.generator import PerturbationConfig, SchemaGenerator
from repro.linguistic.matcher import LinguisticMatcher, LsimTable
from repro.linguistic.lexicon import builtin_thesaurus
from repro.model.datatypes import default_compatibility_table
from repro.structure.blocked import (
    DEFAULT_BLOCK_SIZE,
    BlockedSimilarityStore,
    resolve_block_size,
)
from repro.structure.dense import DenseSimilarityStore, numpy_available
from repro.tree.construction import construct_schema_tree

BACKENDS = ["stdlib"] + (["numpy"] if numpy_available() else [])


def _tree_pair(seed: int, n_leaves: int = 24):
    generator = SchemaGenerator(seed=seed)
    schema = generator.generate(n_leaves=n_leaves, max_depth=3)
    copy, _ = generator.perturb(
        schema, PerturbationConfig(abbreviate=0.3, synonym=0.2)
    )
    return construct_schema_tree(schema), construct_schema_tree(copy)


def _lsim_table(source_tree, target_tree, config):
    """A real (dict-form) lsim table for the pair."""
    matcher = LinguisticMatcher(builtin_thesaurus(), config)
    prep_s = matcher.prepare(source_tree.schema)
    prep_t = matcher.prepare(target_tree.schema)
    table = matcher.compute_prepared(prep_s, prep_t)
    # Force the plain dict form so both stores take the scatter path
    # (the factored gather path is covered by the engine fuzz suite).
    dict_table = LsimTable()
    for (id1, id2), value in table.items():
        dict_table._table[(id1, id2)] = value
    return dict_table


def _make_stores(seed, backend, block_size, n_leaves=24):
    source_tree, target_tree = _tree_pair(seed, n_leaves)
    config = CupidConfig(dense_backend=backend, block_size=block_size)
    compat = default_compatibility_table()
    table = _lsim_table(source_tree, target_tree, config)
    flat = DenseSimilarityStore(
        table, config, compat, source_tree, target_tree
    )
    blocked = BlockedSimilarityStore(
        table, config, compat, source_tree, target_tree
    )
    return source_tree, target_tree, flat, blocked


def _assert_stores_equal(source_tree, target_tree, flat, blocked):
    """Byte-identical reads over the full plane + identical stamps."""
    s_leaves = source_tree.leaves()
    t_leaves = target_tree.leaves()
    for s in s_leaves:
        for t in t_leaves:
            assert blocked.ssim(s, t) == flat.ssim(s, t)
            assert blocked.lsim(s, t) == flat.lsim(s, t)
            assert blocked.wsim(s, t) == flat.wsim(s, t)
    assert blocked.mutation_seq == flat.mutation_seq
    assert blocked._row_seq == flat._row_seq
    assert blocked._col_seq == flat._col_seq


#: (thhigh, thlow, cinc, cdec) settings the sweep interleavings cycle
#: through: the default band, and a narrow band with factors large
#: enough to clamp.
SWEEP_SETTINGS = ((0.6, 0.35, 1.2, 0.9), (0.55, 0.45, 2.0, 0.5))


def _sweep_both(flat, blocked, settings):
    """Leaf sweep on both stores; same counts, same bulk reads."""
    assert flat.sweep_leaf_pairs(*settings) == blocked.sweep_leaf_pairs(
        *settings
    )
    assert blocked.leaf_wsim_values() == flat.leaf_wsim_values()
    assert list(blocked.leaf_wsim_columns(0.5)) == list(
        flat.leaf_wsim_columns(0.5)
    )


def _run_interleaving(seed, backend, block_size, ops=120, sweep_every=0):
    """Random op sequence on both stores; with ``sweep_every`` > 0 a
    whole-plane leaf sweep also runs before every that-many-th op."""
    source_tree, target_tree, flat, blocked = _make_stores(
        seed, backend, block_size
    )
    rng = random.Random(seed * 31 + ops)
    s_leaves = source_tree.leaves()
    t_leaves = target_tree.leaves()
    s_nodes = source_tree.postorder()
    t_nodes = target_tree.postorder()
    factors = (0.5, 0.9, 1.0, 1.2, 2.0, 2.4)

    for step in range(ops):
        if sweep_every and step % sweep_every == 0:
            settings = SWEEP_SETTINGS[(step // sweep_every) % 2]
            _sweep_both(flat, blocked, settings)
        op = rng.random()
        if op < 0.35:
            s = rng.choice(s_leaves)
            t = rng.choice(t_leaves)
            value = rng.choice((0.0, 0.2, 0.45, 0.5, 0.55, 0.9, 1.0, 1.4))
            flat.set_ssim(s, t, value)
            blocked.set_ssim(s, t, value)
        elif op < 0.75:
            s = rng.choice(s_nodes)
            t = rng.choice(t_nodes)
            factor = rng.choice(factors)
            assert flat.scale_block(s, t, factor) == blocked.scale_block(
                s, t, factor
            )
        else:
            # Reads interleave with writes so tiles materialize (or
            # stay lazy) at arbitrary points of the op sequence.
            s = rng.choice(s_nodes)
            t = rng.choice(t_nodes)
            s_frontier = s.leaves_with_required_flag()
            t_frontier = t.leaves_with_required_flag()
            assert blocked.structural_fraction(
                s, t, s_frontier, t_frontier, 0.5, True
            ) == flat.structural_fraction(
                s, t, s_frontier, t_frontier, 0.5, True
            )
            seq = rng.randrange(max(1, flat.mutation_seq + 1))
            assert blocked.block_dirty_since(s, t, seq) == (
                flat.block_dirty_since(s, t, seq)
            )
        if step % 40 == 39:
            _assert_stores_equal(source_tree, target_tree, flat, blocked)
    _assert_stores_equal(source_tree, target_tree, flat, blocked)
    return blocked


class TestRandomizedInterleavings:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_default_tiles(self, seed, backend, record_property):
        record_property("seed", seed)
        record_property("backend", backend)
        _run_interleaving(seed, backend, block_size=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_size", [3, 8, 16])
    def test_small_tiles(self, block_size, backend, record_property):
        """Tiny (and non-power-of-two) tiles: every block op crosses
        tile boundaries, edge tiles are everywhere."""
        record_property("block_size", block_size)
        record_property("backend", backend)
        _run_interleaving(7, backend, block_size=block_size)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_forced_vectorization(self, monkeypatch, record_property):
        """Drive the numpy region paths of both stores on every op."""
        monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)
        record_property("forced_vectorization", True)
        _run_interleaving(13, "numpy", block_size=5)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_size", [0, 5])
    def test_leaf_sweeps_interleaved(
        self, block_size, backend, record_property
    ):
        """Whole-plane leaf sweeps between random writes and scales:
        identical cells, counts, bulk reads and crossing stamps."""
        record_property("block_size", block_size)
        record_property("backend", backend)
        _run_interleaving(
            17, backend, block_size=block_size, sweep_every=25
        )

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_leaf_sweeps_forced_vectorization(
        self, monkeypatch, record_property
    ):
        """Every tile, however small, through the numpy sweep path."""
        monkeypatch.setattr(DenseSimilarityStore, "_VECTOR_MIN_CELLS", 1)
        record_property("forced_vectorization", True)
        _run_interleaving(23, "numpy", block_size=5, sweep_every=20)

    def test_sweep_leaves_unchanged_tiles_virtual(self):
        """A sweep whose decisions change no cell allocates nothing
        (zero-compatibility cells scaled by cdec stay 0)."""
        source_tree, target_tree, flat, blocked = _make_stores(
            5, BACKENDS[-1], block_size=8
        )
        # Every cell is below thlow=2.0; cdec=1.0 changes no value.
        counts = blocked.sweep_leaf_pairs(3.0, 2.0, 1.5, 1.0)
        assert counts == flat.sweep_leaf_pairs(3.0, 2.0, 1.5, 1.0)
        assert counts[0] == blocked.leaf_cells()
        assert blocked.tiles_allocated() == 0
        assert blocked.overlay_cells() == 0
        assert blocked.mutation_seq == 0
        _assert_stores_equal(source_tree, target_tree, flat, blocked)

    def test_overlay_solidify_transition(self, record_property):
        """An op sequence long enough to push overlay tiles over the
        solidify threshold mid-run (tiny limit forced)."""
        record_property("scenario", "overlay-solidify")
        source_tree, target_tree, flat, blocked = _make_stores(
            19, "stdlib", block_size=16
        )
        blocked._overlay_limit = 4
        rng = random.Random(19)
        s_leaves = source_tree.leaves()
        t_leaves = target_tree.leaves()
        for _ in range(200):
            s = rng.choice(s_leaves)
            t = rng.choice(t_leaves)
            value = rng.choice((0.0, 0.3, 0.6, 1.0))
            flat.set_ssim(s, t, value)
            blocked.set_ssim(s, t, value)
        assert blocked.tiles_allocated() > 0
        _assert_stores_equal(source_tree, target_tree, flat, blocked)


class TestBlockedStoreUnit:
    def test_resolve_block_size(self):
        assert resolve_block_size(0) == DEFAULT_BLOCK_SIZE
        assert resolve_block_size(17) == 17

    def test_virtual_reads_allocate_nothing(self):
        """Pure reads — including full strong-link scans — must leave
        every tile virtual: allocation happens on first write only."""
        source_tree, target_tree, _flat, blocked = _make_stores(
            23, "stdlib", block_size=8
        )
        for s in source_tree.leaves()[:6]:
            for t in target_tree.leaves()[:6]:
                blocked.ssim(s, t)
                blocked.wsim(s, t)
        root_s, root_t = source_tree.root, target_tree.root
        blocked.structural_fraction(
            root_s,
            root_t,
            root_s.leaves_with_required_flag(),
            root_t.leaves_with_required_flag(),
            0.5,
            True,
        )
        assert blocked.tiles_allocated() == 0
        assert blocked.overlay_cells() == 0
        assert blocked.tiles_touched() > 0

    def test_noop_writes_stay_lazy(self):
        """Writes that do not change the value (scale by 1.0, rewrite
        of the base value) must not allocate tiles either."""
        source_tree, target_tree, _flat, blocked = _make_stores(
            23, "stdlib", block_size=8
        )
        s = source_tree.leaves()[0]
        t = target_tree.leaves()[0]
        blocked.set_ssim(s, t, blocked.ssim(s, t))
        blocked.scale_block(source_tree.root, target_tree.root, 1.0)
        assert blocked.tiles_allocated() == 0
        assert blocked.overlay_cells() == 0

    def test_describe_occupancy_fields(self):
        source_tree, target_tree, _flat, blocked = _make_stores(
            29, "stdlib", block_size=8
        )
        blocked.scale_block(source_tree.root, target_tree.root, 0.9)
        facts = blocked.describe()
        assert facts["store"] == "blocked"
        assert facts["block_size"] == 8
        assert facts["tiles_allocated"] <= facts["tiles_touched"]
        assert facts["tiles_touched"] <= facts["tiles_total"]
        assert facts["store_bytes"] > 0
        # A whole-plane cdec scale on a perturbed-copy pair changes
        # most cells: the plane must actually have solidified.
        assert facts["tiles_allocated"] > 0

    def test_store_bytes_tracks_allocation(self):
        source_tree, target_tree, _flat, blocked = _make_stores(
            29, "stdlib", block_size=8
        )
        before = blocked.store_bytes()
        blocked.scale_block(source_tree.root, target_tree.root, 0.9)
        assert blocked.store_bytes() > before
