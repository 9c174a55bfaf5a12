//! Compiled route tables: flat indexed storage for the simulation hot path.
//!
//! A trace replay or a seed campaign asks for the same pairs' routes over
//! and over. Recomputing each one per message means a route computation, a
//! validation pass and a label-arithmetic expansion into channel indices
//! every time — fine for a few hundred leaves, but it dominates the cost of
//! the paper's 40–60-seed campaigns long before the event queue does.
//!
//! [`CompiledRouteTable`] is the flat form the repeated readers use
//! instead: a one-off build step flattens all routes into per-source arrays
//! of *channel-index sequences* (indices into [`xgft_topo::ChannelTable`]'s
//! dense numbering). A lookup reads the source's row of stored
//! destinations, binary-searches it and returns a borrowed slice — no
//! hashing, no allocation, no validation, no expansion. The index holds
//! only the pairs the table stores, so a sparse pattern's table costs
//! O(leaves + pairs + hops), not O(leaves²): the routing-state
//! representation is itself a first-class cost (Czerner & Räcke,
//! arXiv:2007.02427).
//!
//! [`CompiledRouteTable::route`] decodes a stored path back into its
//! up-port [`Route`] (the ascent half of a path *is* the route's up-port
//! sequence), and misses stay typed — an absent pair yields `None`, which
//! the network layer surfaces as `NetworkError::MissingRoute`.

use crate::algorithm::RoutingAlgorithm;
use crate::degraded::degraded_route;
use crate::overlay::{decode_route, PatchBase};
use xgft_topo::{ChannelTable, DegradedXgft, FaultSet, Route, Xgft};

/// Routes for a set of ordered pairs, flattened into dense indexed storage.
///
/// For every stored pair `(s, d)` the full channel path (ascent then
/// descent) is kept as a contiguous run of `u32` dense channel indices. A
/// per-source index maps the pair to its run: source `s`'s row lists its
/// stored destinations in ascending order, and a lookup binary-searches
/// that row. A pair absent from its row is a miss; self-pairs are never
/// stored. The table holds `(num_leaves + 1) · 4 + routes · 8 + 4 + hops ·
/// 4` bytes of flat storage ([`CompiledRouteTable::storage_bytes`]).
///
/// # Example
///
/// ```
/// use xgft_core::{CompiledRouteTable, DModK};
/// use xgft_topo::Xgft;
///
/// let xgft = Xgft::k_ary_n_tree(4, 2);
/// let table = CompiledRouteTable::compile(&xgft, &DModK::new(), [(0, 5), (5, 0)]);
/// assert_eq!(table.len(), 2);
///
/// // A hit is a borrowed slice of dense channel indices (no allocation).
/// let path = table.path(0, 5).expect("compiled pair");
/// assert!(path.len() >= 2);
///
/// // Pairs outside the compiled set stay typed misses, never a panic.
/// assert!(table.path(1, 2).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledRouteTable {
    algorithm: String,
    pattern_aware: bool,
    num_leaves: usize,
    /// `rows[s] .. rows[s + 1]` bounds source `s`'s stored pairs in `dsts`
    /// and `ends` (`num_leaves + 1` entries).
    rows: Vec<u32>,
    /// The destination of each stored pair, ascending within each row.
    dsts: Vec<u32>,
    /// `ends[i] .. ends[i + 1]` bounds stored pair `i`'s run in `hops`
    /// (`routes + 1` entries).
    ends: Vec<u32>,
    /// Concatenated channel paths, pair-major in `(s, d)` order.
    hops: Vec<u32>,
    /// Channel numbering of the topology the table was compiled for (used to
    /// decode paths back into up-port routes).
    channels: ChannelTable,
}

impl PatchBase for CompiledRouteTable {
    fn channels(&self) -> &ChannelTable {
        &self.channels
    }

    fn routes(&self) -> usize {
        self.len()
    }

    fn for_each_path(&self, mut visit: impl FnMut(usize, usize, &[u32])) {
        for ((s, d), path) in self.iter_paths() {
            visit(s, d, path);
        }
    }
}

/// Two tables are equal when they store the same routes for the same
/// machine under the same algorithm label — i.e. their flat storage is
/// byte-identical. The channel numbering is a pure function of the spec the
/// equal index and hops were built against, so it is not compared.
impl PartialEq for CompiledRouteTable {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.pattern_aware == other.pattern_aware
            && self.num_leaves == other.num_leaves
            && self.rows == other.rows
            && self.dsts == other.dsts
            && self.ends == other.ends
            && self.hops == other.hops
    }
}

impl CompiledRouteTable {
    /// Compile routes for an explicit set of pairs. Self-pairs are skipped
    /// and duplicates keep the first route.
    ///
    /// # Panics
    /// Panics if a pair references a leaf outside the topology.
    pub fn compile<A: RoutingAlgorithm + ?Sized>(
        xgft: &Xgft,
        algo: &A,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        xgft_obs::span!("core.compile");
        let n = xgft.num_leaves();
        let mut picked: Vec<(usize, Route)> = pairs
            .into_iter()
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| (s * n + d, algo.route(xgft, s, d)))
            .collect();
        // Deduplicate keeping the first route per pair (stable sort keeps
        // duplicates in arrival order) — scratch stays O(pairs), not
        // O(num_leaves²), so sparse pattern compiles on big machines don't
        // pay dense bookkeeping.
        picked.sort_by_key(|(idx, _)| *idx);
        picked.dedup_by_key(|(idx, _)| *idx);
        Self::from_sorted_routes(xgft, algo.name(), algo.is_pattern_aware(), picked)
    }

    /// Compile routes for every ordered pair of distinct leaves.
    pub fn compile_all_pairs<A: RoutingAlgorithm + ?Sized>(xgft: &Xgft, algo: &A) -> Self {
        xgft_obs::span!("core.compile");
        let n = xgft.num_leaves();
        let mut picked = Vec::with_capacity(n * (n - 1));
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    picked.push((s * n + d, algo.route(xgft, s, d)));
                }
            }
        }
        Self::from_sorted_routes(xgft, algo.name(), algo.is_pattern_aware(), picked)
    }

    /// Compile routes for an explicit set of pairs against a degraded
    /// topology: each pair gets its scheme's pristine route when it
    /// survives the fault set, the deterministic fault-aware fallback of
    /// [`crate::degraded::reroute`] otherwise, and a typed miss (empty run)
    /// when no minimal route survives. Self-pairs are skipped and
    /// duplicates keep the first route, matching
    /// [`CompiledRouteTable::compile`].
    ///
    /// # Panics
    /// Panics if a pair references a leaf outside the topology, or if the
    /// fault set was drawn on another machine.
    #[expect(clippy::expect_used, reason = "see # Panics")]
    pub fn compile_degraded<A: RoutingAlgorithm + ?Sized>(
        xgft: &Xgft,
        faults: &FaultSet,
        algo: &A,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        xgft_obs::span!("core.compile_degraded");
        let degraded = DegradedXgft::new(xgft, faults).expect("fault set matches the topology");
        let n = xgft.num_leaves();
        let mut picked: Vec<(usize, Route)> = pairs
            .into_iter()
            .filter(|&(s, d)| s != d)
            .filter_map(|(s, d)| {
                degraded_route(&degraded, algo, s, d)
                    .ok()
                    .map(|route| (s * n + d, route))
            })
            .collect();
        picked.sort_by_key(|(idx, _)| *idx);
        picked.dedup_by_key(|(idx, _)| *idx);
        Self::from_sorted_routes(xgft, algo.name(), algo.is_pattern_aware(), picked)
    }

    /// Shared build step: expand each route into its dense channel path, lay
    /// the paths out contiguously and index them by source. `picked` must be
    /// sorted by pair index and free of duplicates and self-pairs. Also used by
    /// [`crate::CompactRoutes::to_compiled`], which is why it is
    /// crate-visible.
    #[expect(clippy::expect_used, reason = "schemes route in-range pairs validly")]
    pub(crate) fn from_sorted_routes(
        xgft: &Xgft,
        algorithm: impl Into<String>,
        pattern_aware: bool,
        picked: Vec<(usize, Route)>,
    ) -> Self {
        let n = xgft.num_leaves();
        assert!(
            xgft.channels().len() <= u32::MAX as usize && n <= u32::MAX as usize,
            "channel and leaf indices must fit in u32"
        );
        let total_hops: usize = picked.iter().map(|(_, r)| 2 * r.nca_level()).sum();
        assert!(
            total_hops <= u32::MAX as usize,
            "flattened hop storage must fit u32 offsets"
        );
        let mut rows = Vec::with_capacity(n + 1);
        let mut dsts = Vec::with_capacity(picked.len());
        let mut ends = Vec::with_capacity(picked.len() + 1);
        let mut hops = Vec::with_capacity(total_hops);
        rows.push(0);
        ends.push(0);
        for &(idx, ref route) in &picked {
            let (s, d) = (idx / n, idx % n);
            // Open row `s`, closing every row before it (empty ones too).
            rows.resize(s + 1, dsts.len() as u32);
            let path = xgft
                .route_channels(s, d, route)
                .expect("algorithms must produce valid routes");
            hops.extend(path.iter().map(|&c| c as u32));
            dsts.push(d as u32);
            ends.push(hops.len() as u32);
        }
        // Close the last row with a pair and every empty row after it.
        rows.resize(n + 1, dsts.len() as u32);
        let table = CompiledRouteTable {
            algorithm: algorithm.into(),
            pattern_aware,
            num_leaves: n,
            rows,
            dsts,
            ends,
            hops,
            channels: xgft.channels().clone(),
        };
        let metrics = xgft_obs::global();
        metrics
            .counter("core.compile.routes")
            .add(table.len() as u64);
        metrics
            .counter("core.compile.hops")
            .add(table.hops.len() as u64);
        metrics
            .gauge("core.route_state_bytes")
            .set_max(table.storage_bytes() as u64);
        if xgft_obs::trace_enabled() {
            xgft_obs::trace(
                "compile_finished",
                &[
                    ("algorithm", table.algorithm.as_str().into()),
                    ("num_leaves", table.num_leaves.into()),
                    ("routes", table.len().into()),
                    ("storage_bytes", table.storage_bytes().into()),
                ],
            );
        }
        table
    }

    /// The name of the algorithm that produced the table.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// True if the producing algorithm was pattern-aware.
    pub fn is_pattern_aware(&self) -> bool {
        self.pattern_aware
    }

    /// Number of leaves the table was compiled for.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Number of stored routes.
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// True if no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// The dense channel path stored for `(s, d)` — the hot lookup. Returns
    /// `None` on a miss (self-pairs, which are never stored, and
    /// out-of-range leaves); the
    /// network layer turns that into its typed `MissingRoute` error.
    #[inline]
    pub fn path(&self, s: usize, d: usize) -> Option<&[u32]> {
        if s >= self.num_leaves || d >= self.num_leaves {
            return None;
        }
        let row = self.rows[s] as usize..self.rows[s + 1] as usize;
        let i = self.dsts[row.clone()].binary_search(&(d as u32)).ok()?;
        Some(self.run(row.start + i))
    }

    /// The channel path of stored pair `i`.
    #[inline]
    fn run(&self, i: usize) -> &[u32] {
        &self.hops[self.ends[i] as usize..self.ends[i + 1] as usize]
    }

    /// The up-port [`Route`] stored for `(s, d)`, decoded from the ascent
    /// half of its channel path. Allocates; the simulators use
    /// [`CompiledRouteTable::path`] instead.
    pub fn route(&self, s: usize, d: usize) -> Option<Route> {
        self.path(s, d)
            .map(|path| decode_route(&self.channels, path))
    }

    /// Iterate over `((source, destination), path)` entries in pair-major
    /// order (ascending `source · num_leaves + destination`).
    pub fn iter_paths(&self) -> impl Iterator<Item = ((usize, usize), &[u32])> {
        self.rows.windows(2).enumerate().flat_map(move |(s, row)| {
            (row[0] as usize..row[1] as usize)
                .map(move |i| ((s, self.dsts[i] as usize), self.run(i)))
        })
    }

    /// Bytes of flat storage held by the table (index plus hops) — the
    /// quantity the compact-routing literature budgets:
    /// `(num_leaves + 1) · 4 + routes · 8 + 4 + hops · 4`.
    pub fn storage_bytes(&self) -> usize {
        [&self.rows, &self.dsts, &self.ends, &self.hops]
            .iter()
            .map(|v| std::mem::size_of_val(&v[..]))
            .sum()
    }

    /// Validate every stored path against the topology: each decoded route
    /// must expand to exactly the stored channel sequence.
    pub fn validate(&self, xgft: &Xgft) -> Result<(), xgft_topo::TopologyError> {
        for ((s, d), path) in self.iter_paths() {
            let route = decode_route(&self.channels, path);
            let expanded = xgft.route_channels(s, d, &route)?;
            if expanded.len() != path.len()
                || expanded.iter().zip(path).any(|(&a, &b)| a != b as usize)
            {
                return Err(xgft_topo::TopologyError::InvalidRoute {
                    reason: format!("stored path for ({s},{d}) does not match its route"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::{DModK, SModK};
    use crate::overlay::tests::{all_pairs, assert_resolves_like, cut_switch_zero};
    use crate::random::RandomRouting;
    use crate::{RouteSource, UndoableTable};
    use xgft_topo::XgftSpec;

    #[test]
    fn compile_matches_the_algorithm_route_for_route() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let algo = DModK::new();
        let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &algo);
        assert_eq!(compiled.len(), 16 * 15);
        assert_eq!(compiled.num_leaves(), 16);
        for s in 0..16 {
            for d in 0..16 {
                let expected = (s != d).then(|| algo.route(&xgft, s, d));
                assert_eq!(compiled.route(s, d), expected);
            }
        }
        assert!(compiled.validate(&xgft).is_ok());
    }

    #[test]
    fn paths_match_topology_expansion() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 3).unwrap()).unwrap();
        let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &RandomRouting::new(7));
        let mut visited = 0;
        for ((s, d), path) in compiled.iter_paths() {
            let route = compiled.route(s, d).unwrap();
            let expanded = xgft.route_channels(s, d, &route).unwrap();
            assert_eq!(
                path.iter().map(|&c| c as usize).collect::<Vec<_>>(),
                expanded
            );
            visited += 1;
        }
        assert_eq!(visited, compiled.len());
        assert!(compiled.storage_bytes() > 0);
    }

    #[test]
    fn partial_tables_miss_typed_and_round_trip() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let pairs = vec![(0usize, 1usize), (0, 1), (3, 3), (5, 9), (9, 5)];
        let compiled = CompiledRouteTable::compile(&xgft, &SModK::new(), pairs.clone());
        assert_eq!(compiled.len(), 3);
        assert!(compiled.path(0, 1).is_some());
        assert!(compiled.path(3, 3).is_none(), "self-pairs are never stored");
        assert!(compiled.path(1, 0).is_none(), "unrequested pair is a miss");
        // Out-of-range leaves miss instead of aliasing into another pair's
        // flat run.
        assert!(compiled.path(0, 16).is_none());
        assert!(compiled.path(16, 0).is_none());
        assert!(compiled.path(15, 16).is_none());
        assert!(compiled.route(0, 16).is_none());
        assert!(!compiled.is_empty());

        // Round trip: every stored path decodes back into the scheme's own
        // route.
        for (s, d) in [(0, 1), (5, 9), (9, 5)] {
            assert_eq!(compiled.route(s, d), Some(SModK::new().route(&xgft, s, d)));
        }
    }

    #[test]
    fn patch_with_no_faults_is_a_no_op() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let mut table = UndoableTable::new(&pristine);
        let stats = table.patch(&xgft, &FaultSet::none(&xgft));
        assert_eq!(stats.untouched, pristine.len());
        assert_eq!(stats.rerouted, 0);
        assert_eq!(stats.unroutable, 0);
        assert_eq!(table.patched_pairs(), 0);
        assert_resolves_like(&table, &pristine);
    }

    #[test]
    fn patch_matches_degraded_compile_and_misses_stay_typed() {
        let algo = SModK::new();
        // Cut one up cable of switch 0: routes through root 1 from its
        // leaves reroute; nothing becomes unroutable yet.
        let (xgft, faults) = cut_switch_zero(1);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &algo);
        let mut table = UndoableTable::new(&pristine);
        let stats = table.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(&xgft, &faults, &algo, all_pairs(16));
        assert_resolves_like(&table, &scratch);
        assert!(stats.rerouted > 0);
        assert_eq!(stats.unroutable, 0);
        assert_eq!(stats.untouched + stats.rerouted, table.len());
        assert_eq!(table.patched_pairs(), stats.rerouted);
        assert!(scratch.validate(&xgft).is_ok());
        // Every surviving path avoids the dead channels.
        for (s, d) in all_pairs(16) {
            if let Some(path) = table.path(s, d) {
                assert!(path.iter().all(|&c| !faults.is_failed(c as usize)));
            }
        }

        // Now cut the second up cable too: cross-switch pairs of switch 0
        // become typed misses.
        let (xgft, faults) = cut_switch_zero(2);
        let stats = table.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(&xgft, &faults, &algo, all_pairs(16));
        assert_resolves_like(&table, &scratch);
        assert!(stats.unroutable > 0);
        assert_eq!(table.patched_pairs(), stats.rerouted + stats.unroutable);
        assert!(table.path(0, 5).is_none(), "cut-off pair must miss");
        assert!(table.path(0, 1).is_some(), "intra-switch pair survives");
    }

    #[test]
    fn patch_is_idempotent() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap();
        let faults = FaultSet::uniform_links(&xgft, 0.3, 17);
        let algo = RandomRouting::new(2);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &algo);
        let mut table = UndoableTable::new(pristine);
        let once = table.patch(&xgft, &faults);
        let twice = table.patch(&xgft, &faults);
        assert_eq!(once, twice);
        let scratch = CompiledRouteTable::compile_degraded(&xgft, &faults, &algo, all_pairs(16));
        assert_resolves_like(&table, &scratch);
    }

    #[test]
    fn undoable_revert_restores_pristine_resolution() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap();
        let algo = RandomRouting::new(9);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &algo);
        let mut table = UndoableTable::new(&pristine);
        let faults = FaultSet::uniform_links(&xgft, 0.25, 5);
        table.patch(&xgft, &faults);
        assert!(table.patched_pairs() > 0);

        table.revert();
        assert_eq!(table.patched_pairs(), 0);
        assert_resolves_like(&table, &pristine);

        // A full repair epoch resolves like the pristine table too, and a
        // patch after the repair matches a fresh degraded compile — misses
        // heal because every patch starts from the untouched base.
        table.patch(&xgft, &FaultSet::none(&xgft));
        assert_resolves_like(&table, &pristine);
        table.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(&xgft, &faults, &algo, all_pairs(16));
        assert_resolves_like(&table, &scratch);
    }

    #[test]
    fn undoable_table_is_a_route_source() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let table = UndoableTable::new(pristine.clone());
        let mut scratch = Vec::new();
        assert_eq!(RouteSource::algorithm(&table), "d-mod-k");
        assert_eq!(RouteSource::num_leaves(&table), 16);
        assert!(!RouteSource::is_pattern_aware(&table));
        // No per-pair index: an unpatched overlay costs nothing.
        assert_eq!(table.route_state_bytes(), pristine.storage_bytes());
        assert_eq!(table.path_in(0, 5, &mut scratch), pristine.path(0, 5));
        // Out-of-range leaves miss instead of aliasing another pair.
        assert!(table.path_in(0, 16, &mut scratch).is_none());
        assert!(table.path_in(16, 0, &mut scratch).is_none());
        assert_eq!(table.base(), &pristine);
        assert!(!table.is_empty());
    }

    #[test]
    fn storage_counts_the_index_of_stored_pairs_only() {
        // 1024 leaves, two pairs: the index is one row bound per source
        // plus two entries per stored pair, not one entry per pair slot.
        let xgft = Xgft::k_ary_n_tree(32, 2);
        let compiled = CompiledRouteTable::compile(&xgft, &DModK::new(), [(0, 1), (5, 1000)]);
        let hops = 2 + 4;
        assert_eq!(compiled.storage_bytes(), 1025 * 4 + 2 * 8 + 4 + hops * 4);
    }

    #[test]
    fn empty_table_has_only_misses() {
        let xgft = Xgft::k_ary_n_tree(2, 2);
        let compiled = CompiledRouteTable::compile(&xgft, &DModK::new(), std::iter::empty());
        assert!(compiled.is_empty());
        assert_eq!(compiled.len(), 0);
        for s in 0..4 {
            for d in 0..4 {
                assert!(compiled.path(s, d).is_none());
                assert!(compiled.route(s, d).is_none());
            }
        }
    }
}
