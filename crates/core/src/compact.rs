//! Closed-form compact routes: every hop computed from `(source,
//! destination)` labels in O(height), with near-zero route state.
//!
//! [`crate::CompiledRouteTable`] stores the full channel path of every pair
//! it holds — O(N + pairs · pathlen) memory, so an all-pairs table is
//! O(N² · pathlen) and walls out long before the million-leaf machines the
//! paper's schemes are meant for, and even a sparse pattern pays its hops
//! per pair. But every oblivious scheme of the paper is *pure label
//! arithmetic*: d-mod-k and s-mod-k read digits of
//! one endpoint's label, Random draws from a per-pair seeded stream, and the
//! r-NCA family reads per-subtree relabeling maps whose size depends on the
//! topology, not on the pair count. That is exactly the regime of compact
//! oblivious routing (Räcke & Schmid, arXiv:1812.09887): the routing *state*
//! is a constant-size function, not a table.
//!
//! [`CompactRoutes`] packages one such closed form per scheme behind the
//! same observable behaviour as the compiled table:
//!
//! * the same route for every pair, byte-identical down to the dense channel
//!   indices (pinned by property tests against
//!   [`crate::CompiledRouteTable`]);
//! * the same typed miss semantics — self-pairs, out-of-range leaves and
//!   pairs outside the built domain return `None`, which the network layer
//!   surfaces as `MissingRoute`;
//! * the same fault patching: a [`crate::UndoableTable`] over a compact base
//!   stores only the fault-crossing pairs, so every clean pair keeps
//!   costing zero bytes.
//!
//! # Cost per hop
//!
//! Each engine builds a level table once: per level `l`, the reciprocals
//! of `m_{l+1}` and `w_{l+1}` (a crate-private `Divisor`, Lemire, Kaser &
//! Kurz 2019) and the dense offset of the level's channel block. The NCA
//! search and the walk then evaluate every route with multiplications
//! only: per level, one multiply-high each for the source's and the
//! destination's quotient, one for the guiding digit and one for the port
//! remainder, and a multiply-add for each dense channel index
//! (`offset + 2·((hi·w_place + w_low)·w + port) + dir`). No hop runs a
//! hardware division or goes through [`ChannelTable::index`]. Random adds
//! its draw per level, reduced with one 64-bit remainder.
//!
//! The reciprocal identities hold for dividends and divisors below 2³², so
//! every engine asserts at build time that leaf and channel indices fit in
//! a `u32` — the width the paths are handed out in anyway.

use crate::compiled::CompiledRouteTable;
use crate::divisor::Divisor;
use crate::overlay::{decode_route, PatchBase};
use crate::random::pair_stream;
use crate::relabel::RelabelMaps;
use rand::Rng;
use xgft_topo::{ChannelTable, Route, Xgft};

/// The closed-form port arithmetic of one oblivious scheme.
///
/// The pattern-aware Colored scheme has no closed form (its choices are the
/// output of a pattern-level optimisation), so it is deliberately absent:
/// colored routes stay in the compiled representation.
#[derive(Debug, Clone)]
pub enum CompactScheme {
    /// Source-mod-k: ascent ports are digits of the source label.
    SModK,
    /// Destination-mod-k: ascent ports are digits of the destination label.
    DModK,
    /// Static random routing: ports drawn from the per-pair seeded stream of
    /// [`crate::RandomRouting`], reproduced draw-for-draw from the seed.
    Random {
        /// The table-fill seed (one seed is one routing-table fill).
        seed: u64,
    },
    /// r-NCA-u: balanced-relabeled self-routing guided by the source.
    RandomNcaUp {
        /// The balanced relabeling maps (the scheme's entire state).
        maps: RelabelMaps,
    },
    /// r-NCA-d: balanced-relabeled self-routing guided by the destination.
    RandomNcaDown {
        /// The balanced relabeling maps (the scheme's entire state).
        maps: RelabelMaps,
    },
}

impl CompactScheme {
    /// The r-NCA-u scheme with maps freshly drawn from `seed` (matches
    /// [`crate::RandomNcaUp::new`]).
    pub fn random_nca_up(xgft: &Xgft, seed: u64) -> Self {
        CompactScheme::RandomNcaUp {
            maps: RelabelMaps::random(xgft, seed),
        }
    }

    /// The r-NCA-d scheme with maps freshly drawn from `seed` (matches
    /// [`crate::RandomNcaDown::new`]).
    pub fn random_nca_down(xgft: &Xgft, seed: u64) -> Self {
        CompactScheme::RandomNcaDown {
            maps: RelabelMaps::random(xgft, seed),
        }
    }

    /// The algorithm name, identical to the corresponding
    /// [`crate::RoutingAlgorithm::name`] so compiled and compact forms of the
    /// same scheme compare equal.
    pub fn name(&self) -> &'static str {
        match self {
            CompactScheme::SModK => "s-mod-k",
            CompactScheme::DModK => "d-mod-k",
            CompactScheme::Random { .. } => "random",
            CompactScheme::RandomNcaUp { .. } => "r-NCA-u",
            CompactScheme::RandomNcaDown { .. } => "r-NCA-d",
        }
    }

    /// Bytes of scheme state (the only state that scales with anything at
    /// all: the relabeling maps scale with the *topology*, never with the
    /// pair count).
    fn state_bytes(&self) -> usize {
        match self {
            CompactScheme::SModK | CompactScheme::DModK => 0,
            CompactScheme::Random { .. } => std::mem::size_of::<u64>(),
            CompactScheme::RandomNcaUp { maps } | CompactScheme::RandomNcaDown { maps } => {
                maps.storage_bytes()
            }
        }
    }
}

/// Which ordered pairs the engine answers for (the analogue of which pairs a
/// table was compiled with).
#[derive(Debug, Clone)]
enum PairDomain {
    /// Every ordered pair of distinct leaves.
    AllPairs,
    /// An explicit sorted, deduplicated set of `s·n + d` pair codes.
    Pairs(Vec<u64>),
}

/// Closed-form routes for one scheme on one topology: the route
/// representation for machines too large to table, next to the flat
/// [`CompiledRouteTable`] and the algorithm computing each route per call.
///
/// Lookups compute the dense channel path on the fly from the pair's labels;
/// nothing per-pair is stored (fault patches go into a
/// [`crate::UndoableTable`] over the engine). Memory is O(height) for the
/// mod-k and Random schemes
/// and O(topology) for the r-NCA relabeling maps — compare
/// [`CompactRoutes::storage_bytes`] against
/// [`CompiledRouteTable::storage_bytes`] for the numbers the docs table
/// reports.
///
/// ```
/// use xgft_core::{CompactRoutes, CompactScheme, CompiledRouteTable, DModK};
/// use xgft_topo::Xgft;
///
/// let xgft = Xgft::k_ary_n_tree(4, 2);
/// let compact = CompactRoutes::all_pairs(&xgft, CompactScheme::DModK);
/// let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
///
/// // Same routes, a fraction of the bytes.
/// assert_eq!(compact.to_compiled(&xgft), compiled);
/// assert!(compact.storage_bytes() < compiled.storage_bytes() / 10);
///
/// // Same miss semantics: self-pairs and out-of-range leaves miss.
/// let mut path = Vec::new();
/// assert!(compact.path_into(0, 9, &mut path));
/// assert_eq!(Some(path.as_slice()), compiled.path(0, 9));
/// assert!(!compact.path_into(3, 3, &mut path));
/// assert!(!compact.path_into(0, 16, &mut path));
/// ```
#[derive(Debug, Clone)]
pub struct CompactRoutes {
    num_leaves: usize,
    /// Channel numbering (embeds the spec; decodes paths into routes).
    channels: ChannelTable,
    /// The walk's per-level reciprocals and channel offsets.
    levels: LevelTable,
    scheme: CompactScheme,
    domain: PairDomain,
}

impl CompactRoutes {
    /// The engine answering every ordered pair of distinct leaves — the
    /// compact analogue of [`CompiledRouteTable::compile_all_pairs`], at
    /// O(height) instead of O(N²·pathlen) memory.
    pub fn all_pairs(xgft: &Xgft, scheme: CompactScheme) -> Self {
        Self::with_domain(xgft, scheme, PairDomain::AllPairs)
    }

    /// The engine answering exactly the given pairs (the compact analogue of
    /// [`CompiledRouteTable::compile`]): self-pairs are skipped, duplicates
    /// collapse, and pairs outside the set are typed misses.
    ///
    /// # Panics
    /// Panics if a pair references a leaf outside the topology.
    pub fn for_pairs(
        xgft: &Xgft,
        scheme: CompactScheme,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let n = xgft.num_leaves();
        let mut codes: Vec<u64> = pairs
            .into_iter()
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| {
                assert!(s < n && d < n, "pair ({s}, {d}) outside {n} leaves");
                (s * n + d) as u64
            })
            .collect();
        codes.sort_unstable();
        codes.dedup();
        Self::with_domain(xgft, scheme, PairDomain::Pairs(codes))
    }

    fn with_domain(xgft: &Xgft, scheme: CompactScheme, domain: PairDomain) -> Self {
        xgft_obs::span!("core.compact");
        xgft_obs::global().counter("core.compact.engines").incr();
        let channels = xgft.channels();
        assert!(
            xgft.num_leaves() <= u32::MAX as usize && channels.len() <= u32::MAX as usize,
            "channel and leaf indices must fit in u32"
        );
        CompactRoutes {
            num_leaves: xgft.num_leaves(),
            channels: channels.clone(),
            levels: LevelTable::new(channels),
            scheme,
            domain,
        }
    }

    /// Materialise into the flat compiled form, byte-identical to compiling
    /// the same pairs directly — the property the differential tests pin.
    pub fn to_compiled(&self, xgft: &Xgft) -> CompiledRouteTable {
        self.assert_same_machine(xgft);
        let n = self.num_leaves;
        let mut picked: Vec<(usize, Route)> = Vec::with_capacity(self.len());
        let mut scratch = Vec::new();
        self.for_each_pair(|s, d| {
            self.closed_form_into(s, d, &mut scratch);
            picked.push((s * n + d, decode_route(&self.channels, &scratch)));
        });
        CompiledRouteTable::from_sorted_routes(xgft, self.algorithm(), false, picked)
    }

    /// Compute the dense channel path of `(s, d)` into `out`. Returns
    /// `false` — leaving `out` empty — on exactly the misses the compiled
    /// form has: self-pairs, out-of-range leaves and pairs outside the
    /// built domain.
    pub fn path_into(&self, s: usize, d: usize, out: &mut Vec<u32>) -> bool {
        out.clear();
        if s >= self.num_leaves || d >= self.num_leaves || s == d {
            return false;
        }
        if !self.domain_contains((s * self.num_leaves + d) as u64) {
            return false;
        }
        self.closed_form_into(s, d, out);
        true
    }

    /// The dense channel path of `(s, d)` as an owned vector (`None` on a
    /// miss). Allocates; the hot paths use [`CompactRoutes::path_into`].
    pub fn path(&self, s: usize, d: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        self.path_into(s, d, &mut out).then_some(out)
    }

    /// The up-port [`Route`] of `(s, d)`, decoded from the ascent half of
    /// its channel path — the same decode as
    /// [`CompiledRouteTable::route`].
    pub fn route(&self, s: usize, d: usize) -> Option<Route> {
        self.path(s, d)
            .map(|path| decode_route(&self.channels, &path))
    }

    /// The name of the scheme.
    pub fn algorithm(&self) -> &str {
        self.scheme.name()
    }

    /// Always false: every closed form is oblivious.
    pub fn is_pattern_aware(&self) -> bool {
        false
    }

    /// Number of leaves of the machine the engine answers for.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Number of routable pairs: the size of the domain.
    pub fn len(&self) -> usize {
        match &self.domain {
            PairDomain::AllPairs => self.num_leaves * self.num_leaves - self.num_leaves,
            PairDomain::Pairs(codes) => codes.len(),
        }
    }

    /// True if no pair is routable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of route state: scheme state (zero for mod-k, one seed for
    /// Random, the relabeling maps for r-NCA) plus the explicit pair domain
    /// (if any) — the quantity the compact-routing literature budgets, and
    /// the number the docs size table reports against
    /// [`CompiledRouteTable::storage_bytes`].
    pub fn storage_bytes(&self) -> usize {
        let domain = match &self.domain {
            PairDomain::AllPairs => 0,
            PairDomain::Pairs(codes) => std::mem::size_of_val(&codes[..]),
        };
        self.scheme.state_bytes() + domain
    }

    /// Validate every routable pair against the topology: the decoded route
    /// must expand to exactly the path the engine hands out (mirrors
    /// [`CompiledRouteTable::validate`]).
    pub fn validate(&self, xgft: &Xgft) -> Result<(), xgft_topo::TopologyError> {
        self.assert_same_machine(xgft);
        let mut result = Ok(());
        let mut out = Vec::new();
        self.for_each_pair(|s, d| {
            if result.is_err() {
                return;
            }
            self.closed_form_into(s, d, &mut out);
            let route = decode_route(&self.channels, &out);
            match xgft.route_channels(s, d, &route) {
                Ok(expanded) => {
                    if expanded.len() != out.len()
                        || expanded.iter().zip(&out).any(|(&a, &b)| a != b as usize)
                    {
                        result = Err(xgft_topo::TopologyError::InvalidRoute {
                            reason: format!("computed path for ({s},{d}) does not match its route"),
                        });
                    }
                }
                Err(err) => result = Err(err),
            }
        });
        result
    }

    fn assert_same_machine(&self, xgft: &Xgft) {
        assert_eq!(
            self.num_leaves,
            xgft.num_leaves(),
            "engine built for a different machine size"
        );
        assert_eq!(
            self.channels.len(),
            xgft.channels().len(),
            "engine built for a different channel numbering"
        );
    }

    fn domain_contains(&self, code: u64) -> bool {
        match &self.domain {
            PairDomain::AllPairs => true,
            PairDomain::Pairs(codes) => codes.binary_search(&code).is_ok(),
        }
    }

    /// Visit every domain pair in ascending `s·n + d` order.
    fn for_each_pair(&self, mut f: impl FnMut(usize, usize)) {
        let n = self.num_leaves;
        match &self.domain {
            PairDomain::AllPairs => {
                for s in 0..n {
                    for d in 0..n {
                        if s != d {
                            f(s, d);
                        }
                    }
                }
            }
            PairDomain::Pairs(codes) => {
                for &code in codes {
                    f((code as usize) / n, (code as usize) % n);
                }
            }
        }
    }

    /// Compute the closed-form dense channel path of a distinct in-range
    /// pair into `out`: [`LevelTable::walk_channels`] with the scheme's port
    /// rule, so no digit, port or label buffer is built.
    fn closed_form_into(&self, s: usize, d: usize, out: &mut Vec<u32>) {
        let level = self.levels.nca_level(s, d);
        out.clear();
        out.resize(2 * level, 0);
        let mut rng = match self.scheme {
            CompactScheme::Random { seed } => Some(pair_stream(seed, s, d)),
            _ => None,
        };
        let guide_is_source = matches!(
            self.scheme,
            CompactScheme::SModK | CompactScheme::RandomNcaUp { .. }
        );
        // The guiding leaf's digit at position `l` (1-based), read one step
        // before it is needed.
        let mut digit_below = 0;
        let port = |step: WalkLevel| {
            let guide_hi = if guide_is_source {
                step.s_hi
            } else {
                step.d_hi
            };
            let digit = step.m.rem(guide_hi);
            // Position max(l, 1): the adapter hop reads digit 1 too.
            let guide_digit = if step.level == 0 { digit } else { digit_below };
            digit_below = digit;
            match &self.scheme {
                CompactScheme::SModK | CompactScheme::DModK => step.w.rem(guide_digit),
                CompactScheme::Random { .. } => rng
                    .as_mut()
                    .expect("seeded above")
                    .gen_range(0..step.w.get()),
                CompactScheme::RandomNcaUp { maps } | CompactScheme::RandomNcaDown { maps } => {
                    if step.level == 0 {
                        step.w.rem(guide_digit)
                    } else {
                        maps.port_in_context(step.level, guide_hi, guide_digit)
                    }
                }
            }
        };
        self.levels.walk_channels(s, d, level, port, |l, up, down| {
            out[l] = up;
            out[2 * level - 1 - l] = down;
        });
    }
}

impl PatchBase for CompactRoutes {
    fn channels(&self) -> &ChannelTable {
        &self.channels
    }

    fn routes(&self) -> usize {
        self.len()
    }

    fn for_each_path(&self, mut visit: impl FnMut(usize, usize, &[u32])) {
        let mut path = Vec::new();
        self.for_each_pair(|s, d| {
            self.closed_form_into(s, d, &mut path);
            visit(s, d, &path);
        });
    }
}

/// One level's constants of the closed-form walk.
#[derive(Debug, Clone, Copy)]
struct WalkConsts {
    /// `m_{l+1}`: children per node one level up.
    m: Divisor,
    /// `w_{l+1}`: up-ports per node at this level.
    w: Divisor,
    /// Dense index of the level's first channel
    /// (`ChannelTable::level_range(l).start`).
    offset: usize,
}

/// The per-level constants of the closed-form walk — the reciprocals of
/// `m_1…m_h` and `w_1…w_h` and each level's channel offset — built once per
/// machine, so that [`LevelTable::nca_level`] and
/// [`LevelTable::walk_channels`] multiply where they would divide and never
/// go through [`ChannelTable::index`].
///
/// Every leaf index and NCA index the walk divides must be below 2³² (the
/// [`Divisor`] domain); the builders of [`CompactRoutes`] and
/// [`crate::ColoredRouting`] assert it.
#[derive(Debug, Clone)]
pub(crate) struct LevelTable {
    levels: Vec<WalkConsts>,
}

impl LevelTable {
    pub(crate) fn new(channels: &ChannelTable) -> Self {
        let spec = channels.spec();
        let levels = (0..spec.height())
            .map(|l| WalkConsts {
                m: Divisor::new(spec.m(l + 1)),
                w: Divisor::new(spec.w(l + 1)),
                offset: channels.level_range(l).start,
            })
            .collect();
        LevelTable { levels }
    }

    /// `w_{l+1}`: up-ports per node at level `l`.
    pub(crate) fn w(&self, l: usize) -> Divisor {
        self.levels[l].w
    }

    /// The NCA level of two leaves: the lowest level whose subtrees (leaves
    /// agreeing on every digit above it) hold both, 0 when equal.
    pub(crate) fn nca_level(&self, mut s: usize, mut d: usize) -> usize {
        let mut level = 0;
        while s != d {
            let m = self.levels[level].m;
            s = m.div(s);
            d = m.div(d);
            level += 1;
        }
        level
    }

    /// Walk the dense channels of the route from `s` to `d` that climbs to
    /// `level` (their NCA level), taking at each level the up-port that
    /// `port` picks — the digit walk of `Xgft::route_path`, done on the leaf
    /// indices themselves. `visit(l, up, down)` receives level `l`'s up
    /// channel (on the source side) and down channel (on the destination
    /// side).
    ///
    /// A level-`l` node on the path is numbered by its label digits: the
    /// ports chosen below `l` (a `w`-radix number, `w_low`) and the
    /// endpoint's digits above `l` (`hi` = the leaf index divided by
    /// `m_1⋯m_l`), so its index is `hi · (w_1⋯w_l) + w_low`. On the way up
    /// `hi` is the source's, on the way down the destination's; the up and
    /// down channels of one level share the port and `w_low`, so both are
    /// found in the same step. A cable is numbered `node · w_{l+1} + port`
    /// within its level, and its up and down channels are the even and odd
    /// dense index after the level's offset.
    #[inline]
    pub(crate) fn walk_channels(
        &self,
        s: usize,
        d: usize,
        level: usize,
        mut port: impl FnMut(WalkLevel) -> usize,
        mut visit: impl FnMut(usize, u32, u32),
    ) {
        let (mut s_hi, mut d_hi) = (s, d);
        let (mut w_low, mut w_place) = (0, 1);
        for (l, consts) in self.levels[..level].iter().enumerate() {
            let port = port(WalkLevel {
                level: l,
                m: consts.m,
                w: consts.w,
                s_hi,
                d_hi,
            });
            let w = consts.w.get();
            let channel = |hi: usize| consts.offset + 2 * ((hi * w_place + w_low) * w + port);
            visit(l, channel(s_hi) as u32, channel(d_hi) as u32 + 1);
            w_low += port * w_place;
            w_place *= w;
            s_hi = consts.m.div(s_hi);
            d_hi = consts.m.div(d_hi);
        }
    }
}

/// What a port rule of [`LevelTable::walk_channels`] may read at one level
/// of a walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkLevel {
    /// The level the hop leaves upwards (0 = the leaf's adapter hop).
    pub(crate) level: usize,
    /// `m_{level+1}`: children per node one level up.
    pub(crate) m: Divisor,
    /// `w_{level+1}`: up-ports per node at this level.
    pub(crate) w: Divisor,
    /// The source's leaf index divided by `m_1⋯m_level`: its digits above
    /// `level`.
    pub(crate) s_hi: usize,
    /// The destination's leaf index divided by `m_1⋯m_level`.
    pub(crate) d_hi: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RoutingAlgorithm;
    use crate::modk::{DModK, SModK};
    use crate::overlay::tests::{all_pairs, assert_resolves_like, cut_switch_zero};
    use crate::random::RandomRouting;
    use crate::rnca::{RandomNcaDown, RandomNcaUp};
    use crate::{RouteSource, UndoableTable};
    use xgft_topo::{FaultSet, XgftSpec};

    fn schemes_for(xgft: &Xgft) -> Vec<(CompactScheme, Box<dyn RoutingAlgorithm>)> {
        vec![
            (CompactScheme::SModK, Box::new(SModK::new())),
            (CompactScheme::DModK, Box::new(DModK::new())),
            (
                CompactScheme::Random { seed: 11 },
                Box::new(RandomRouting::new(11)),
            ),
            (
                CompactScheme::random_nca_up(xgft, 5),
                Box::new(RandomNcaUp::new(xgft, 5)),
            ),
            (
                CompactScheme::random_nca_down(xgft, 5),
                Box::new(RandomNcaDown::new(xgft, 5)),
            ),
        ]
    }

    #[test]
    fn all_pairs_matches_compiled_for_every_scheme() {
        for spec in [
            XgftSpec::k_ary_n_tree(4, 2),
            XgftSpec::slimmed_two_level(4, 3).unwrap(),
            XgftSpec::new(vec![3, 3, 3], vec![1, 2, 2]).unwrap(),
        ] {
            let xgft = Xgft::new(spec).unwrap();
            for (scheme, algo) in schemes_for(&xgft) {
                let compact = CompactRoutes::all_pairs(&xgft, scheme);
                let compiled = CompiledRouteTable::compile_all_pairs(&xgft, algo.as_ref());
                assert_eq!(compact.to_compiled(&xgft), compiled, "{}", algo.name());
                assert_eq!(compact.len(), compiled.len());
                let mut path = Vec::new();
                for s in 0..xgft.num_leaves() {
                    for d in 0..xgft.num_leaves() {
                        let hit = compact.path_into(s, d, &mut path);
                        assert_eq!(
                            hit.then_some(path.as_slice()),
                            compiled.path(s, d),
                            "{} ({s}, {d})",
                            algo.name()
                        );
                    }
                }
                assert!(compact.validate(&xgft).is_ok());
            }
        }
    }

    #[test]
    fn partial_domains_miss_like_partial_tables() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let pairs = vec![(0usize, 1usize), (0, 1), (3, 3), (5, 9), (9, 5)];
        let compact = CompactRoutes::for_pairs(&xgft, CompactScheme::SModK, pairs.clone());
        let compiled = CompiledRouteTable::compile(&xgft, &SModK::new(), pairs);
        assert_eq!(compact.to_compiled(&xgft), compiled);
        assert_eq!(compact.len(), 3);
        assert!(compact.path(0, 1).is_some());
        assert!(compact.path(3, 3).is_none(), "self-pairs always miss");
        assert!(compact.path(1, 0).is_none(), "outside the domain");
        assert!(compact.path(0, 16).is_none());
        assert!(compact.path(16, 0).is_none());
        assert!(compact.route(0, 16).is_none());
        assert!(!compact.is_empty());
    }

    #[test]
    fn patch_matches_compiled_patch_byte_for_byte() {
        let (xgft, faults) = cut_switch_zero(1);
        for (scheme, algo) in schemes_for(&xgft) {
            let compact = CompactRoutes::all_pairs(&xgft, scheme);
            let pristine_bytes = compact.storage_bytes();
            let mut over_compact = UndoableTable::new(compact);
            let compact_stats = over_compact.patch(&xgft, &faults);
            let compiled = CompiledRouteTable::compile_all_pairs(&xgft, algo.as_ref());
            let compiled_stats = UndoableTable::new(&compiled).patch(&xgft, &faults);
            assert_eq!(compact_stats, compiled_stats, "{}", algo.name());
            let scratch =
                CompiledRouteTable::compile_degraded(&xgft, &faults, algo.as_ref(), all_pairs(16));
            assert_resolves_like(&over_compact, &scratch);
            // Only the fault-crossing pairs are stored.
            assert_eq!(over_compact.patched_pairs(), compact_stats.rerouted);
            assert!(over_compact.storage_bytes() > pristine_bytes);
        }
    }

    #[test]
    fn patch_unroutable_pairs_become_typed_misses_and_heal_on_repair() {
        let (xgft, faults) = cut_switch_zero(2);
        let compact = CompactRoutes::all_pairs(&xgft, CompactScheme::DModK);
        let mut table = UndoableTable::new(compact);
        let pristine_len = table.len();
        let stats = table.patch(&xgft, &faults);
        assert!(stats.unroutable > 0);
        let mut scratch = Vec::new();
        assert!(
            table.path_in(0, 5, &mut scratch).is_none(),
            "cut-off pair must miss"
        );
        assert!(
            table.path_in(0, 1, &mut scratch).is_some(),
            "intra-switch pair survives"
        );
        assert_eq!(table.len(), pristine_len - stats.unroutable);
        let expected =
            CompiledRouteTable::compile_degraded(&xgft, &faults, &DModK::new(), all_pairs(16));
        assert_resolves_like(&table, &expected);

        // The repair: the empty set heals every miss.
        let stats = table.patch(&xgft, &FaultSet::none(&xgft));
        assert_eq!(stats.untouched, pristine_len);
        assert_resolves_like(&table, &table.base().to_compiled(&xgft));
    }

    #[test]
    fn pristine_patch_with_no_faults_is_free() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let mut table = UndoableTable::new(CompactRoutes::all_pairs(&xgft, CompactScheme::SModK));
        let stats = table.patch(&xgft, &FaultSet::none(&xgft));
        assert_eq!(stats.untouched, table.len());
        assert_eq!(stats.rerouted, 0);
        assert_eq!(table.patched_pairs(), 0);
        assert_eq!(
            table.storage_bytes(),
            0,
            "s-mod-k over all pairs has no state"
        );
    }

    #[test]
    fn storage_stays_near_zero_for_closed_forms() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 10).unwrap()).unwrap();
        let compact = CompactRoutes::all_pairs(&xgft, CompactScheme::DModK);
        let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        assert_eq!(compact.storage_bytes(), 0, "d-mod-k needs no state at all");
        assert!(compiled.storage_bytes() > 1_000_000);
        let random = CompactRoutes::all_pairs(&xgft, CompactScheme::Random { seed: 1 });
        assert_eq!(random.storage_bytes(), 8, "random carries only its seed");
        let rnca = CompactRoutes::all_pairs(&xgft, CompactScheme::random_nca_up(&xgft, 1));
        assert!(rnca.storage_bytes() > 0);
        assert!(rnca.storage_bytes() < compiled.storage_bytes() / 100);
    }
}
