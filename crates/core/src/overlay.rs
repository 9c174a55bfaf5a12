//! Fault patching: one revertible overlay over an untouched route base.
//!
//! Under faults every oblivious scheme keeps its own choice wherever it
//! can: a pair whose stored path survives keeps it, and a damaged pair is
//! rerouted with its stored up-ports as the preference
//! ([`crate::degraded::reroute`]), or becomes a typed miss when no minimal
//! route survives. [`UndoableTable`] is the one place that decision is
//! coded. It never writes to its base — a [`CompiledRouteTable`] (owned or
//! borrowed) or the closed-form [`crate::CompactRoutes`] — and records
//! only the damaged pairs, in a sparse overlay that the next
//! [`UndoableTable::patch`] reverts before it writes. So the route state
//! is the scheme plus what the faults actually damage (Räcke & Schmid,
//! arXiv:1812.09887), and every patch resolves exactly like a from-scratch
//! [`CompiledRouteTable::compile_degraded`] of the same pairs.

use crate::compiled::CompiledRouteTable;
use crate::degraded::reroute;
use crate::source::RouteSource;
use std::borrow::Borrow;
use xgft_topo::{ChannelTable, DegradedXgft, FaultSet, Route, Xgft};

/// What an [`UndoableTable::patch`] did to its base's routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Routes whose path never touched a failed channel (resolved through
    /// the untouched base).
    pub untouched: usize,
    /// Routes whose path crossed a fault and were rerouted inside their NCA
    /// group.
    pub rerouted: usize,
    /// Routes that lost every minimal alternative and became typed misses.
    pub unroutable: usize,
}

/// A route representation an [`UndoableTable`] can patch over: it walks
/// its routed pairs with their dense channel paths.
pub trait PatchBase: RouteSource {
    /// The channel numbering the paths index into.
    fn channels(&self) -> &ChannelTable;

    /// Number of routed pairs.
    fn routes(&self) -> usize;

    /// Visit every routed pair `(s, d)` with its dense channel path, in
    /// ascending `s · num_leaves + d` order.
    fn for_each_path(&self, visit: impl FnMut(usize, usize, &[u32]));
}

impl<T: PatchBase> PatchBase for &T {
    fn channels(&self) -> &ChannelTable {
        (**self).channels()
    }

    fn routes(&self) -> usize {
        (**self).routes()
    }

    fn for_each_path(&self, visit: impl FnMut(usize, usize, &[u32])) {
        (**self).for_each_path(visit)
    }
}

/// Decode a dense channel path into its up-port [`Route`]: the ascent
/// half of a path is the route's up-port sequence.
pub(crate) fn decode_route(channels: &ChannelTable, path: &[u32]) -> Route {
    Route::new(
        path[..path.len() / 2]
            .iter()
            .map(|&dense| channels.channel(dense as usize).up_port)
            .collect(),
    )
}

/// One damaged pair of the current patch: its replacement run in
/// [`UndoableTable`]'s hop arena, or a typed miss when `len` is 0 (a real
/// path has at least two hops).
#[derive(Debug, Clone, Copy)]
struct Patched {
    /// `s · num_leaves + d`.
    pair: u64,
    start: u32,
    len: u32,
}

/// An untouched route base plus a revertible fault-patch overlay.
///
/// The base is a [`CompiledRouteTable`], a borrowed `&CompiledRouteTable`
/// (so shards share one pristine table without cloning it) or
/// [`crate::CompactRoutes`]. [`UndoableTable::patch`] walks the base's
/// routed pairs, keeps every clean path where it is, and records each
/// damaged pair's detour or typed miss in the overlay: a vector sorted by
/// pair index (the base walks in ascending order), looked up by binary
/// search.
/// There is no per-pair index, so the overlay costs O(damaged pairs) on
/// any machine — a compact base on a million leaves stays compact.
///
/// Every `patch` first reverts the previous one, so the overlay always
/// describes pristine routes plus exactly the given fault set: a shrinking
/// fault set (a repair) heals its misses. For any fault set the result
/// resolves pair for pair, misses included, like
/// [`CompiledRouteTable::compile_degraded`] on the same pairs — the
/// `degraded_patch`, `fault_timeline` and `compact_equivalence` property
/// tests pin that for both bases.
///
/// ```
/// use xgft_core::{CompiledRouteTable, DModK, UndoableTable};
/// use xgft_topo::{FaultSet, Xgft, XgftSpec};
///
/// let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
/// let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
/// let mut table = UndoableTable::new(&pristine);
///
/// // Cut both up cables of switch 0: its leaves lose their cross-switch
/// // partners.
/// let mut faults = FaultSet::none(&xgft);
/// faults.fail_cable(xgft.channels(), 1, 0, 0);
/// faults.fail_cable(xgft.channels(), 1, 0, 1);
/// let stats = table.patch(&xgft, &faults);
/// assert!(stats.unroutable > 0);
/// assert!(table.path(0, 5).is_none());
///
/// // The repair: patching the empty set heals every miss.
/// table.patch(&xgft, &FaultSet::none(&xgft));
/// assert_eq!(table.path(0, 5), pristine.path(0, 5));
/// ```
#[derive(Debug, Clone)]
pub struct UndoableTable<B = CompiledRouteTable> {
    base: B,
    /// The current patch's damaged pairs, ascending by pair index.
    patched: Vec<Patched>,
    /// Concatenated replacement channel paths of the current patch.
    hops: Vec<u32>,
    /// Routable pairs under the current patch.
    routes: usize,
}

impl<B: PatchBase> UndoableTable<B> {
    /// Wrap an untouched base. Every lookup passes through to it until the
    /// first [`UndoableTable::patch`].
    pub fn new(base: B) -> Self {
        let routes = base.routes();
        UndoableTable {
            base,
            patched: Vec::new(),
            hops: Vec::new(),
            routes,
        }
    }

    /// The untouched base underneath the overlay.
    pub fn base(&self) -> &B {
        &self.base
    }

    /// Undo the current patch in O(patched pairs): every pair resolves
    /// through the base again (allocations are kept for the next patch).
    pub fn revert(&mut self) {
        self.patched.clear();
        self.hops.clear();
        self.routes = self.base.routes();
    }

    /// Revert the previous patch, then reroute every base route that
    /// crosses a channel of `faults`: its stored up-ports are the
    /// preference of [`crate::degraded::reroute`], and a pair with no
    /// surviving minimal route becomes a typed miss. Clean routes are only
    /// read, never copied.
    ///
    /// # Panics
    /// Panics if the base, topology and fault set disagree on machine size
    /// or channel numbering.
    #[expect(clippy::expect_used, reason = "see # Panics; reroute checks routes")]
    pub fn patch(&mut self, xgft: &Xgft, faults: &FaultSet) -> PatchStats {
        xgft_obs::span!("core.patch");
        self.revert();
        let degraded = DegradedXgft::new(xgft, faults).expect("fault set matches the topology");
        let UndoableTable {
            base,
            patched,
            hops,
            routes,
        } = self;
        let base = &*base;
        let n = xgft.num_leaves();
        assert_eq!(
            base.num_leaves(),
            n,
            "routes built for a different machine size"
        );
        assert_eq!(
            base.channels().len(),
            xgft.channels().len(),
            "routes built for a different channel numbering"
        );
        let mut stats = PatchStats::default();
        if faults.is_empty() {
            stats.untouched = base.routes();
        } else {
            base.for_each_path(|s, d, path| {
                if path.iter().all(|&c| !faults.is_failed(c as usize)) {
                    stats.untouched += 1;
                    return;
                }
                let start = hop_offset(hops);
                let preferred = decode_route(base.channels(), path);
                match reroute(&degraded, s, d, &preferred) {
                    Ok(route) => {
                        let detour = xgft
                            .route_channels(s, d, &route)
                            .expect("fault-aware fallback produces valid routes");
                        hops.extend(detour.iter().map(|&c| c as u32));
                        stats.rerouted += 1;
                    }
                    Err(_) => stats.unroutable += 1,
                }
                patched.push(Patched {
                    pair: (s * n + d) as u64,
                    start,
                    len: hop_offset(hops) - start,
                });
            });
        }
        *routes -= stats.unroutable;
        record_patch(&stats, faults.num_failed_channels());
        stats
    }

    /// The overlay's verdict on `(s, d)`: `None` when the pair resolves
    /// through the base, `Some(None)` for a typed miss, `Some(Some(path))`
    /// for a detour.
    #[inline]
    fn overlaid(&self, s: usize, d: usize) -> Option<Option<&[u32]>> {
        let n = self.base.num_leaves();
        if self.patched.is_empty() || s >= n || d >= n {
            return None;
        }
        let pair = (s * n + d) as u64;
        let at = self.patched.binary_search_by_key(&pair, |p| p.pair).ok()?;
        let Patched { start, len, .. } = self.patched[at];
        Some((len > 0).then(|| &self.hops[start as usize..(start + len) as usize]))
    }

    /// Number of routable pairs under the current patch.
    pub fn len(&self) -> usize {
        self.routes
    }

    /// True if no pairs are routable.
    pub fn is_empty(&self) -> bool {
        self.routes == 0
    }

    /// Pairs displaced by the current patch (rerouted plus unroutable).
    pub fn patched_pairs(&self) -> usize {
        self.patched.len()
    }

    /// Route state held by the base plus the overlay.
    pub fn storage_bytes(&self) -> usize {
        self.base.route_state_bytes()
            + std::mem::size_of_val(&self.patched[..])
            + std::mem::size_of_val(&self.hops[..])
    }
}

impl<B: PatchBase + Borrow<CompiledRouteTable>> UndoableTable<B> {
    /// The dense channel path of `(s, d)` under the current patch, borrowed
    /// from the overlay or the compiled base — the simulators' hot lookup.
    #[inline]
    pub fn path(&self, s: usize, d: usize) -> Option<&[u32]> {
        match self.overlaid(s, d) {
            Some(verdict) => verdict,
            None => Borrow::<CompiledRouteTable>::borrow(&self.base).path(s, d),
        }
    }
}

impl<B: PatchBase> RouteSource for UndoableTable<B> {
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

    fn path_in<'a>(&'a self, s: usize, d: usize, scratch: &'a mut Vec<u32>) -> Option<&'a [u32]> {
        match self.overlaid(s, d) {
            Some(verdict) => verdict,
            None => self.base.path_in(s, d, scratch),
        }
    }
}

/// The arena offset of the next detour hop.
#[expect(clippy::expect_used, reason = "u32 offsets cover 16 GiB of detours")]
fn hop_offset(hops: &[u32]) -> u32 {
    u32::try_from(hops.len()).expect("overlay detours must fit u32 offsets")
}

/// Record what a patch did into the global metrics registry, plus a trace
/// event when a sink is installed.
fn record_patch(stats: &PatchStats, num_faults: usize) {
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

#[cfg(test)]
pub(crate) mod tests {
    //! Helpers shared by the patch tests of the compiled and compact bases.
    use super::*;
    use xgft_topo::XgftSpec;

    /// Every pair — out-of-range leaves included — must resolve through
    /// the overlay exactly as in `expected`.
    pub(crate) fn assert_resolves_like<B: PatchBase>(
        table: &UndoableTable<B>,
        expected: &CompiledRouteTable,
    ) {
        let n = expected.num_leaves();
        let mut scratch = Vec::new();
        for s in 0..=n {
            for d in 0..=n {
                assert_eq!(
                    table.path_in(s, d, &mut scratch),
                    expected.path(s, d),
                    "overlay and expected table disagree on ({s}, {d})"
                );
            }
        }
        assert_eq!(table.len(), expected.len());
    }

    pub(crate) fn all_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..n).flat_map(move |s| (0..n).map(move |d| (s, d)))
    }

    /// `XGFT(2; 4, 4; 1, 2)` with `cuts` of switch 0's two up cables cut.
    pub(crate) fn cut_switch_zero(cuts: usize) -> (Xgft, FaultSet) {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
        let mut faults = FaultSet::none(&xgft);
        for port in [1, 0].into_iter().take(cuts) {
            faults.fail_cable(xgft.channels(), 1, 0, port);
        }
        (xgft, faults)
    }
}
