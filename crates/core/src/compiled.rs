//! Compiled route tables: flat indexed storage for the simulation hot path.
//!
//! A trace replay or a seed campaign asks for the same pairs' routes over
//! and over. Recomputing each one per message means a route computation, a
//! validation pass and a label-arithmetic expansion into channel indices
//! every time — fine for a few hundred leaves, but it dominates the cost of
//! the paper's 40–60-seed campaigns long before the event queue does.
//!
//! [`CompiledRouteTable`] is the dense form the repeated readers use
//! instead: a one-off build step flattens all routes into per-source arrays
//! of *channel-index sequences* (indices into [`xgft_topo::ChannelTable`]'s
//! dense numbering). A lookup is two array reads and returns a borrowed
//! slice — no hashing, no allocation, no validation, no expansion — which is
//! exactly what compact-routing work argues for: the routing-state
//! representation is itself a first-class cost.
//!
//! [`CompiledRouteTable::route`] decodes a stored path back into its
//! up-port [`Route`] (the ascent half of a path *is* the route's up-port
//! sequence), and misses stay typed — an absent pair yields `None`, which
//! the network layer surfaces as `NetworkError::MissingRoute`.

use crate::algorithm::RoutingAlgorithm;
use crate::degraded::{degraded_route, reroute};
use xgft_topo::{ChannelTable, DegradedXgft, FaultSet, Route, Xgft};

/// What an incremental [`CompiledRouteTable::patch`] did to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Stored routes whose path never touched a failed channel (kept as-is,
    /// at memcpy cost only).
    pub untouched: usize,
    /// Routes whose path crossed a fault and were rerouted inside their NCA
    /// group.
    pub rerouted: usize,
    /// Routes that lost every minimal alternative and became typed misses.
    pub unroutable: usize,
}

/// Record what a patch did into the global metrics registry, plus a trace
/// event when a sink is installed. Shared by [`CompiledRouteTable::patch`]
/// and [`crate::CompactRoutes::patch`].
pub(crate) fn record_patch(stats: &PatchStats, num_faults: usize) {
    let metrics = xgft_obs::global();
    metrics
        .counter("core.patch.untouched")
        .add(stats.untouched as u64);
    metrics
        .counter("core.patch.rerouted")
        .add(stats.rerouted as u64);
    metrics
        .counter("core.patch.unroutable")
        .add(stats.unroutable as u64);
    if xgft_obs::trace_enabled() {
        xgft_obs::trace(
            "patch_applied",
            &[
                ("faults", num_faults.into()),
                ("untouched", stats.untouched.into()),
                ("rerouted", stats.rerouted.into()),
                ("unroutable", stats.unroutable.into()),
            ],
        );
    }
}

/// Routes for a set of ordered pairs, flattened into dense indexed storage.
///
/// For every stored pair `(s, d)` the full channel path (ascent then
/// descent) is kept as a contiguous run of `u32` dense channel indices; a
/// flat `(num_leaves² + 1)`-entry prefix-sum array maps the pair to its run.
/// An empty run encodes a miss (a real path for `s != d` always has at
/// least two hops, and self-pairs are never stored).
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
    /// `offsets[s * num_leaves + d] .. offsets[s * num_leaves + d + 1]`
    /// bounds the pair's run in `hops`.
    offsets: Vec<u32>,
    /// Concatenated channel paths, pair-major in `(s, d)` order.
    hops: Vec<u32>,
    /// Channel numbering of the topology the table was compiled for (used to
    /// decode paths back into up-port routes).
    channels: ChannelTable,
    /// Number of stored (present) routes.
    routes: usize,
}

/// Two tables are equal when they store the same routes for the same
/// machine under the same algorithm label — i.e. their flat storage is
/// byte-identical. The channel numbering is a pure function of the spec the
/// equal offsets/hops were built against, so it is not compared.
impl PartialEq for CompiledRouteTable {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.pattern_aware == other.pattern_aware
            && self.num_leaves == other.num_leaves
            && self.offsets == other.offsets
            && self.hops == other.hops
    }
}

impl CompiledRouteTable {
    /// Compile routes for an explicit set of pairs. Self-pairs are skipped
    /// and duplicates keep the first route.
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

    /// Incrementally patch the table against a fault set, in place: only
    /// pairs whose stored channel path crosses a failed channel are
    /// recomputed (through the fault-aware fallback, preferring the stored
    /// route's own ports); everything else is kept verbatim. Sources whose
    /// whole per-source slice is untouched are moved with one copy and an
    /// offset shift — no per-pair work at all.
    ///
    /// When applied to a pristine-compiled table, the result is
    /// byte-identical to compiling the same pairs from scratch against the
    /// degraded topology ([`CompiledRouteTable::compile_degraded`]),
    /// including pairs that become typed misses, but costs a scan plus the
    /// affected routes instead of a full recompile.
    ///
    /// Patching is **one-way**: faults only accumulate. Re-patching an
    /// already-patched table is byte-identical to a degraded recompile only
    /// when the new fault set is a superset of the earlier one — misses
    /// never heal (an empty run stays an empty run even if its channels
    /// come back), and kept routes keep the detours chosen under the
    /// earlier faults. To model repair or fault *churn*, restart from the
    /// pristine routes with [`CompiledRouteTable::repatch`] rather than
    /// patching forward.
    ///
    /// # Panics
    /// Panics if the table, topology and fault set disagree on machine size
    /// or channel numbering.
    pub fn patch(&mut self, xgft: &Xgft, faults: &FaultSet) -> PatchStats {
        xgft_obs::span!("core.patch");
        let degraded = DegradedXgft::new(xgft, faults).expect("fault set matches the topology");
        assert_eq!(
            self.num_leaves,
            xgft.num_leaves(),
            "table compiled for a different machine size"
        );
        assert_eq!(
            self.channels.len(),
            xgft.channels().len(),
            "table compiled for a different channel numbering"
        );
        let mut stats = PatchStats::default();
        if faults.is_empty() {
            stats.untouched = self.routes;
            record_patch(&stats, 0);
            return stats;
        }
        let n = self.num_leaves;
        let mut new_offsets = vec![0u32; n * n + 1];
        let mut new_hops: Vec<u32> = Vec::with_capacity(self.hops.len());
        for s in 0..n {
            let region_start = self.offsets[s * n] as usize;
            let region_end = self.offsets[(s + 1) * n] as usize;
            let region = &self.hops[region_start..region_end];
            if region.iter().all(|&c| !faults.is_failed(c as usize)) {
                // Clean source slice: shift its offsets and copy its hops.
                let delta = new_hops.len() as i64 - region_start as i64;
                for (new, old) in new_offsets[s * n..(s + 1) * n]
                    .iter_mut()
                    .zip(&self.offsets[s * n..(s + 1) * n])
                {
                    *new = (*old as i64 + delta) as u32;
                }
                new_hops.extend_from_slice(region);
                stats.untouched += (s * n..(s + 1) * n)
                    .filter(|&idx| self.offsets[idx] != self.offsets[idx + 1])
                    .count();
                continue;
            }
            for d in 0..n {
                let idx = s * n + d;
                new_offsets[idx] = new_hops.len() as u32;
                let start = self.offsets[idx] as usize;
                let end = self.offsets[idx + 1] as usize;
                if start == end {
                    continue; // a miss stays a miss
                }
                let path = &self.hops[start..end];
                if path.iter().all(|&c| !faults.is_failed(c as usize)) {
                    new_hops.extend_from_slice(path);
                    stats.untouched += 1;
                    continue;
                }
                // Decode the stored route's up-ports as the preference.
                let ascent = path.len() / 2;
                let preferred = Route::new(
                    path[..ascent]
                        .iter()
                        .map(|&dense| self.channels.channel(dense as usize).up_port)
                        .collect(),
                );
                match reroute(&degraded, s, d, &preferred) {
                    Ok(route) => {
                        let new_path = xgft
                            .route_channels(s, d, &route)
                            .expect("fault-aware fallback produces valid routes");
                        new_hops.extend(new_path.iter().map(|&c| c as u32));
                        stats.rerouted += 1;
                    }
                    Err(_) => stats.unroutable += 1,
                }
            }
        }
        new_offsets[n * n] = new_hops.len() as u32;
        self.offsets = new_offsets;
        self.hops = new_hops;
        self.routes -= stats.unroutable;
        record_patch(&stats, faults.num_failed_channels());
        stats
    }

    /// The repair direction of incremental patching: restore this table to
    /// `pristine` (reusing this table's allocations) and patch against
    /// `faults` in one step. Because [`CompiledRouteTable::patch`] is
    /// one-way — misses never heal and kept routes keep their old detours —
    /// fault *churn* (repairs, or any fault set that is not a superset of
    /// the previous one) must restart from the pristine routes; `repatch`
    /// is that restart without a recompile, and its result is byte-identical
    /// to [`CompiledRouteTable::compile_degraded`] on the same pairs.
    ///
    /// Epoch-wise timeline drivers (the chaos lab) call this once per epoch
    /// whose cumulative fault set changed, holding one pristine table per
    /// scheme and one working table per shard.
    ///
    /// # Panics
    /// Panics if the pristine table, topology and fault set disagree on
    /// machine size or channel numbering.
    pub fn repatch(&mut self, pristine: &Self, xgft: &Xgft, faults: &FaultSet) -> PatchStats {
        self.clone_from(pristine);
        self.patch(xgft, faults)
    }

    /// Shared build step: expand each route into its dense channel path and
    /// lay the paths out contiguously. `picked` must be sorted by pair index
    /// and free of duplicates and self-pairs. Also used by
    /// [`crate::CompactRoutes::to_compiled`], which is why it is
    /// crate-visible.
    pub(crate) fn from_sorted_routes(
        xgft: &Xgft,
        algorithm: impl Into<String>,
        pattern_aware: bool,
        picked: Vec<(usize, Route)>,
    ) -> Self {
        let n = xgft.num_leaves();
        assert!(
            xgft.channels().len() <= u32::MAX as usize,
            "channel indices must fit in u32"
        );
        let total_hops: usize = picked.iter().map(|(_, r)| 2 * r.nca_level()).sum();
        assert!(
            total_hops <= u32::MAX as usize,
            "flattened hop storage must fit u32 offsets"
        );
        let mut offsets = vec![0u32; n * n + 1];
        let mut hops = Vec::with_capacity(total_hops);
        let mut cursor = 0usize;
        for &(idx, ref route) in &picked {
            let (s, d) = (idx / n, idx % n);
            // Pairs between `cursor` and `idx` have no route: give them the
            // same start offset so their run is empty.
            offsets[cursor..=idx].fill(hops.len() as u32);
            cursor = idx + 1;
            let path = xgft
                .route_channels(s, d, route)
                .expect("algorithms must produce valid routes");
            hops.extend(path.iter().map(|&c| c as u32));
        }
        offsets[cursor..=n * n].fill(hops.len() as u32);
        let table = CompiledRouteTable {
            algorithm: algorithm.into(),
            pattern_aware,
            num_leaves: n,
            offsets,
            hops,
            channels: xgft.channels().clone(),
            routes: picked.len(),
        };
        let metrics = xgft_obs::global();
        metrics
            .counter("core.compile.routes")
            .add(table.routes as u64);
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
                    ("routes", table.routes.into()),
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
        self.routes
    }

    /// True if no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.routes == 0
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
        let idx = s * self.num_leaves + d;
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        if start == end {
            None
        } else {
            Some(&self.hops[start..end])
        }
    }

    /// The up-port [`Route`] stored for `(s, d)`, decoded from the ascent
    /// half of its channel path. Allocates; the simulators use
    /// [`CompiledRouteTable::path`] instead.
    pub fn route(&self, s: usize, d: usize) -> Option<Route> {
        let path = self.path(s, d)?;
        let ascent = path.len() / 2;
        Some(Route::new(
            path[..ascent]
                .iter()
                .map(|&dense| self.channels.channel(dense as usize).up_port)
                .collect(),
        ))
    }

    /// Iterate over `((source, destination), path)` entries in pair-major
    /// order.
    pub fn iter_paths(&self) -> impl Iterator<Item = ((usize, usize), &[u32])> {
        let n = self.num_leaves;
        (0..n).flat_map(move |s| {
            (0..n).filter_map(move |d| self.path(s, d).map(|path| ((s, d), path)))
        })
    }

    /// Bytes of flat storage held by the table (offsets plus hops) — the
    /// quantity the compact-routing literature budgets.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.hops[..])
    }

    /// Validate every stored path against the topology: each decoded route
    /// must expand to exactly the stored channel sequence.
    pub fn validate(&self, xgft: &Xgft) -> Result<(), xgft_topo::TopologyError> {
        for ((s, d), path) in self.iter_paths() {
            let route = self.route(s, d).expect("path implies a route");
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

/// Sentinel in [`UndoableTable::overlay_idx`]: the pair resolves through
/// the untouched pristine base.
const OVERLAY_PRISTINE: u32 = u32::MAX;
/// Sentinel in [`UndoableTable::overlay_idx`]: the current patch declared
/// the pair unroutable (a typed miss that reverts with the epoch).
const OVERLAY_MISS: u32 = u32::MAX - 1;

/// A pristine [`CompiledRouteTable`] plus a revertible patch overlay.
///
/// [`CompiledRouteTable::repatch`] models fault churn by cloning the whole
/// pristine table and rebuilding its flat storage every epoch — O(routes)
/// per epoch even when only a handful of paths cross a failed channel. The
/// shared prefix-sum fence of the flat layout forces that: patched runs
/// change length, so every downstream offset moves.
///
/// `UndoableTable` keeps the pristine flat storage immutable and records
/// each epoch's displaced pairs in a side overlay (`pair → replacement run`
/// or `pair → miss`). [`UndoableTable::patch`] walks the same clean-source
/// fast path as [`CompiledRouteTable::patch`] but *writes* only the
/// affected pairs; [`UndoableTable::revert`] (called implicitly on the next
/// `patch`) undoes them in O(patched pairs). Lookups go through one extra
/// indexed branch, which only the chaos lab's working tables pay — the
/// pristine campaign path keeps using [`CompiledRouteTable`] directly.
///
/// For any fault set, `patch` resolves every pair to exactly the path (or
/// typed miss) that [`CompiledRouteTable::repatch`] produces — the reroute
/// decisions are the same code on the same pristine inputs. The
/// `fault_timeline` proptest pins that equivalence across whole
/// fail/repair campaigns.
#[derive(Debug, Clone)]
pub struct UndoableTable {
    base: CompiledRouteTable,
    /// `num_leaves²` entries: [`OVERLAY_PRISTINE`], [`OVERLAY_MISS`], or an
    /// index into `entries`.
    overlay_idx: Vec<u32>,
    /// `(start, len)` runs of the current epoch's replacement paths in
    /// `overlay_hops`.
    entries: Vec<(u32, u32)>,
    /// Concatenated replacement channel paths for the current epoch.
    overlay_hops: Vec<u32>,
    /// Pair indices whose `overlay_idx` entry differs from pristine — the
    /// undo log `revert` walks.
    dirty: Vec<u32>,
    /// Live (routable) pairs under the current overlay.
    routes: usize,
}

impl UndoableTable {
    /// Wrap a pristine table. The overlay starts empty: every lookup
    /// passes through to `pristine` until the first [`UndoableTable::patch`].
    pub fn new(pristine: CompiledRouteTable) -> Self {
        let n = pristine.num_leaves;
        let routes = pristine.routes;
        UndoableTable {
            base: pristine,
            overlay_idx: vec![OVERLAY_PRISTINE; n * n],
            entries: Vec::new(),
            overlay_hops: Vec::new(),
            dirty: Vec::new(),
            routes,
        }
    }

    /// The immutable pristine table underneath the overlay.
    pub fn base(&self) -> &CompiledRouteTable {
        &self.base
    }

    /// Undo the current epoch's patch in O(patched pairs): every dirty pair
    /// snaps back to its pristine resolution and the overlay arenas are
    /// truncated (allocations kept for the next epoch).
    pub fn revert(&mut self) {
        for &idx in &self.dirty {
            self.overlay_idx[idx as usize] = OVERLAY_PRISTINE;
        }
        self.dirty.clear();
        self.entries.clear();
        self.overlay_hops.clear();
        self.routes = self.base.routes;
    }

    /// Repatch from pristine against `faults`: revert the previous epoch's
    /// overlay, then record this epoch's displaced pairs. Pair-for-pair the
    /// result resolves identically to
    /// [`CompiledRouteTable::repatch`] on the same pristine table — same
    /// clean-region scan, same per-pair preference decoding, same
    /// [`crate::degraded::reroute`] fallback — but costs O(scan + patched)
    /// instead of O(all routes).
    ///
    /// # Panics
    /// Panics if the pristine table, topology and fault set disagree on
    /// machine size or channel numbering.
    pub fn patch(&mut self, xgft: &Xgft, faults: &FaultSet) -> PatchStats {
        xgft_obs::span!("core.patch_overlay");
        self.revert();
        assert_eq!(
            self.base.num_leaves,
            xgft.num_leaves(),
            "table compiled for a different machine size"
        );
        assert_eq!(
            self.base.channels.len(),
            xgft.channels().len(),
            "table compiled for a different channel numbering"
        );
        let mut stats = PatchStats::default();
        if faults.is_empty() {
            stats.untouched = self.base.routes;
            record_patch(&stats, 0);
            return stats;
        }
        let degraded = DegradedXgft::new(xgft, faults).expect("fault set matches the topology");
        let n = self.base.num_leaves;
        let base = &self.base;
        for s in 0..n {
            let region_start = base.offsets[s * n] as usize;
            let region_end = base.offsets[(s + 1) * n] as usize;
            let region = &base.hops[region_start..region_end];
            if region.iter().all(|&c| !faults.is_failed(c as usize)) {
                // Clean source slice: nothing to record — pristine
                // passthrough already resolves every pair.
                stats.untouched += (s * n..(s + 1) * n)
                    .filter(|&idx| base.offsets[idx] != base.offsets[idx + 1])
                    .count();
                continue;
            }
            for d in 0..n {
                let idx = s * n + d;
                let start = base.offsets[idx] as usize;
                let end = base.offsets[idx + 1] as usize;
                if start == end {
                    continue; // a miss stays a miss
                }
                let path = &base.hops[start..end];
                if path.iter().all(|&c| !faults.is_failed(c as usize)) {
                    stats.untouched += 1;
                    continue;
                }
                // Decode the stored route's up-ports as the preference.
                let ascent = path.len() / 2;
                let preferred = Route::new(
                    path[..ascent]
                        .iter()
                        .map(|&dense| base.channels.channel(dense as usize).up_port)
                        .collect(),
                );
                match reroute(&degraded, s, d, &preferred) {
                    Ok(route) => {
                        let new_path = xgft
                            .route_channels(s, d, &route)
                            .expect("fault-aware fallback produces valid routes");
                        let hop_start = self.overlay_hops.len() as u32;
                        self.overlay_hops.extend(new_path.iter().map(|&c| c as u32));
                        self.overlay_idx[idx] = self.entries.len() as u32;
                        self.entries.push((hop_start, new_path.len() as u32));
                        self.dirty.push(idx as u32);
                        stats.rerouted += 1;
                    }
                    Err(_) => {
                        self.overlay_idx[idx] = OVERLAY_MISS;
                        self.dirty.push(idx as u32);
                        stats.unroutable += 1;
                    }
                }
            }
        }
        self.routes = self.base.routes - stats.unroutable;
        record_patch(&stats, faults.num_failed_channels());
        stats
    }

    /// The dense channel path of `(s, d)` under the current overlay — the
    /// hot lookup, one indexed branch on top of
    /// [`CompiledRouteTable::path`].
    #[inline]
    pub fn path(&self, s: usize, d: usize) -> Option<&[u32]> {
        let n = self.base.num_leaves;
        if s >= n || d >= n {
            return None;
        }
        match self.overlay_idx[s * n + d] {
            OVERLAY_PRISTINE => self.base.path(s, d),
            OVERLAY_MISS => None,
            entry => {
                let (start, len) = self.entries[entry as usize];
                Some(&self.overlay_hops[start as usize..(start + len) as usize])
            }
        }
    }

    /// Number of routable pairs under the current overlay.
    pub fn len(&self) -> usize {
        self.routes
    }

    /// True if no pairs are routable.
    pub fn is_empty(&self) -> bool {
        self.routes == 0
    }

    /// Pairs displaced by the current patch (rerouted plus unroutable).
    pub fn patched_pairs(&self) -> usize {
        self.dirty.len()
    }

    /// Flat storage held by the base plus the overlay.
    pub fn storage_bytes(&self) -> usize {
        self.base.storage_bytes()
            + std::mem::size_of_val(&self.overlay_idx[..])
            + std::mem::size_of_val(&self.entries[..])
            + std::mem::size_of_val(&self.overlay_hops[..])
            + std::mem::size_of_val(&self.dirty[..])
    }
}

impl crate::RouteSource for UndoableTable {
    fn algorithm(&self) -> &str {
        self.base.algorithm()
    }

    fn is_pattern_aware(&self) -> bool {
        self.base.is_pattern_aware()
    }

    fn num_leaves(&self) -> usize {
        self.base.num_leaves()
    }

    fn route_state_bytes(&self) -> usize {
        self.storage_bytes()
    }

    fn path_in<'a>(&'a self, s: usize, d: usize, _scratch: &'a mut Vec<u32>) -> Option<&'a [u32]> {
        self.path(s, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::{DModK, SModK};
    use crate::random::RandomRouting;
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
        let mut patched = pristine.clone();
        let faults = xgft_topo::FaultSet::none(&xgft);
        let stats = patched.patch(&xgft, &faults);
        assert_eq!(stats.untouched, pristine.len());
        assert_eq!(stats.rerouted, 0);
        assert_eq!(stats.unroutable, 0);
        assert_eq!(patched, pristine);
    }

    #[test]
    fn patch_matches_degraded_compile_and_misses_stay_typed() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
        // Cut one up cable of switch 0: routes through root 1 from its
        // leaves reroute; nothing becomes unroutable yet.
        let mut faults = xgft_topo::FaultSet::none(&xgft);
        faults.fail_cable(xgft.channels(), 1, 0, 1);
        let algo = SModK::new();
        let mut patched = CompiledRouteTable::compile_all_pairs(&xgft, &algo);
        let stats = patched.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(
            &xgft,
            &faults,
            &algo,
            (0..16).flat_map(|s| (0..16).map(move |d| (s, d))),
        );
        assert_eq!(patched, scratch);
        assert!(stats.rerouted > 0);
        assert_eq!(stats.unroutable, 0);
        assert_eq!(stats.untouched + stats.rerouted, patched.len());
        assert!(patched.validate(&xgft).is_ok());
        // Every surviving path avoids the dead channels.
        for (_, path) in patched.iter_paths() {
            assert!(path.iter().all(|&c| !faults.is_failed(c as usize)));
        }

        // Now cut the second up cable too: cross-switch pairs of switch 0
        // become typed misses, identically in both construction orders.
        faults.fail_cable(xgft.channels(), 1, 0, 0);
        let stats = patched.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(
            &xgft,
            &faults,
            &algo,
            (0..16).flat_map(|s| (0..16).map(move |d| (s, d))),
        );
        assert_eq!(patched, scratch);
        assert!(stats.unroutable > 0);
        assert!(patched.path(0, 5).is_none(), "cut-off pair must miss");
        assert!(patched.route(0, 5).is_none());
        assert!(patched.path(0, 1).is_some(), "intra-switch pair survives");
        assert_eq!(patched.len(), scratch.len());
    }

    #[test]
    fn patch_is_one_way_misses_do_not_heal() {
        // The documented contract: patch accumulates faults and never
        // heals. Cutting off switch 0 turns its cross-switch pairs into
        // misses; a later patch with an empty fault set must NOT bring
        // them back — repair is modelled by re-patching the pristine table.
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let mut faults = xgft_topo::FaultSet::none(&xgft);
        faults.fail_cable(xgft.channels(), 1, 0, 0);
        faults.fail_cable(xgft.channels(), 1, 0, 1);

        let mut patched = pristine.clone();
        patched.patch(&xgft, &faults);
        assert!(patched.path(0, 5).is_none());

        let repaired = xgft_topo::FaultSet::none(&xgft);
        patched.patch(&xgft, &repaired);
        assert!(
            patched.path(0, 5).is_none(),
            "misses must not heal on re-patch"
        );
        // Repair done right: patch the pristine clone with the new set.
        let mut fresh = pristine.clone();
        fresh.patch(&xgft, &repaired);
        assert_eq!(fresh, pristine);
        assert!(fresh.path(0, 5).is_some());
    }

    #[test]
    fn patch_is_idempotent() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap();
        let faults = xgft_topo::FaultSet::uniform_links(&xgft, 0.3, 17);
        let mut once = CompiledRouteTable::compile_all_pairs(&xgft, &RandomRouting::new(2));
        once.patch(&xgft, &faults);
        let mut twice = once.clone();
        let stats = twice.patch(&xgft, &faults);
        assert_eq!(stats.rerouted, 0, "already-patched paths are all live");
        assert_eq!(stats.unroutable, 0);
        assert_eq!(once, twice);
    }

    /// Every pair an [`UndoableTable`] resolves must match what the
    /// clone-and-repatch path produces from the same pristine table.
    fn assert_resolves_like(undoable: &UndoableTable, repatched: &CompiledRouteTable) {
        let n = repatched.num_leaves();
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    undoable.path(s, d),
                    repatched.path(s, d),
                    "overlay and repatch disagree on ({s}, {d})"
                );
            }
        }
        assert_eq!(undoable.len(), repatched.len());
    }

    #[test]
    fn undoable_patch_resolves_identically_to_repatch() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &SModK::new());
        let mut undoable = UndoableTable::new(pristine.clone());
        let mut working = pristine.clone();

        // One cut: reroutes only.
        let mut faults = xgft_topo::FaultSet::none(&xgft);
        faults.fail_cable(xgft.channels(), 1, 0, 1);
        let overlay_stats = undoable.patch(&xgft, &faults);
        let clone_stats = working.repatch(&pristine, &xgft, &faults);
        assert_eq!(overlay_stats, clone_stats);
        assert!(overlay_stats.rerouted > 0);
        assert_eq!(
            undoable.patched_pairs(),
            overlay_stats.rerouted + overlay_stats.unroutable
        );
        assert_resolves_like(&undoable, &working);

        // Both cuts: switch 0's cross-switch pairs become typed misses.
        faults.fail_cable(xgft.channels(), 1, 0, 0);
        let overlay_stats = undoable.patch(&xgft, &faults);
        let clone_stats = working.repatch(&pristine, &xgft, &faults);
        assert_eq!(overlay_stats, clone_stats);
        assert!(overlay_stats.unroutable > 0);
        assert!(undoable.path(0, 5).is_none(), "cut-off pair must miss");
        assert_resolves_like(&undoable, &working);
    }

    #[test]
    fn undoable_revert_restores_pristine_resolution() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap();
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &RandomRouting::new(9));
        let mut undoable = UndoableTable::new(pristine.clone());
        let faults = xgft_topo::FaultSet::uniform_links(&xgft, 0.25, 5);
        undoable.patch(&xgft, &faults);
        assert!(undoable.patched_pairs() > 0);

        undoable.revert();
        assert_eq!(undoable.patched_pairs(), 0);
        assert_resolves_like(&undoable, &pristine);

        // A full repair epoch resolves like the pristine table too, and a
        // re-patch after the repair matches a fresh repatch — misses heal
        // because every epoch restarts from pristine.
        undoable.patch(&xgft, &xgft_topo::FaultSet::none(&xgft));
        assert_resolves_like(&undoable, &pristine);
        let mut working = pristine.clone();
        undoable.patch(&xgft, &faults);
        working.repatch(&pristine, &xgft, &faults);
        assert_resolves_like(&undoable, &working);
    }

    #[test]
    fn undoable_table_is_a_route_source() {
        use crate::RouteSource;
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let undoable = UndoableTable::new(pristine.clone());
        let mut scratch = Vec::new();
        assert_eq!(RouteSource::algorithm(&undoable), "d-mod-k");
        assert_eq!(RouteSource::num_leaves(&undoable), 16);
        assert!(!RouteSource::is_pattern_aware(&undoable));
        assert!(undoable.route_state_bytes() > pristine.storage_bytes());
        assert_eq!(
            RouteSource::path_in(&undoable, 0, 5, &mut scratch),
            pristine.path(0, 5)
        );
        // Out-of-range leaves miss instead of indexing out of the overlay.
        assert!(RouteSource::path_in(&undoable, 0, 16, &mut scratch).is_none());
        assert!(RouteSource::path_in(&undoable, 16, 0, &mut scratch).is_none());
        assert_eq!(undoable.base(), &pristine);
        assert!(!undoable.is_empty());
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
