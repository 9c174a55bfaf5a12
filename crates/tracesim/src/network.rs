//! The network abstraction the replay engine drives.
//!
//! The replay engine only needs three operations from a network: schedule a
//! message, advance to the next delivery, and report the current time —
//! the [`Network`] trait. The routed XGFT simulator, [`RoutedNetwork`], is
//! the only network in the library: the Full-Crossbar reference is the same
//! type on the degenerate `XGFT(1; N; 1)` ([`RoutedNetwork::crossbar`]), so
//! every replay, reference included, runs the same code path — the
//! Dimemas/Venus coupling of the paper.

use std::borrow::BorrowMut;
use std::fmt;
use xgft_core::{CompactRoutes, CompactScheme, CompiledRouteTable, RouteSource};
use xgft_netsim::sim::Completion;
use xgft_netsim::{
    crossbar_config, crossbar_xgft, MessageId, NetworkConfig, NetworkSim, SimReport,
};
use xgft_topo::TopologyError;

/// Errors a network model can hit when a message is scheduled.
///
/// Incomplete route tables are a real operational condition (a pattern-built
/// table replayed against a trace that communicates outside the pattern), so
/// the miss surfaces as a typed error through the replay API rather than a
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkError {
    /// The route table holds no route for the pair.
    MissingRoute {
        /// Source leaf of the unroutable message.
        src: usize,
        /// Destination leaf of the unroutable message.
        dst: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::MissingRoute { src, dst } => {
                write!(f, "no route for pair ({src}, {dst}) in the route table")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// What the replay engine needs from a network model.
pub trait Network {
    /// Schedule a message for injection at `at_ps`.
    fn schedule_message(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<MessageId, NetworkError>;
    /// Advance the network to the next message delivery.
    fn run_until_next_completion(&mut self) -> Option<Completion>;
    /// Current network time (ps).
    fn now_ps(&self) -> u64;
    /// Final report of everything delivered so far.
    fn report(&self) -> SimReport;
}

/// A replay engine consumes its network by value; implementing the trait
/// for mutable references lets callers keep the network — and inspect its
/// post-replay state, e.g. `NetworkSim::channel_busy_ps` — by passing
/// `&mut net` instead. The engine-agreement differential harness relies on
/// this.
impl<N: Network + ?Sized> Network for &mut N {
    fn schedule_message(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<MessageId, NetworkError> {
        (**self).schedule_message(at_ps, src, dst, bytes)
    }

    fn run_until_next_completion(&mut self) -> Option<Completion> {
        (**self).run_until_next_completion()
    }

    fn now_ps(&self) -> u64 {
        (**self).now_ps()
    }

    fn report(&self) -> SimReport {
        (**self).report()
    }
}

/// An XGFT network simulator paired with a route representation: each
/// injection asks the [`RouteSource`] for the pair's dense channel path and
/// hands it straight to the simulator — no hashing, cloning, validation or
/// route expansion on the hot path.
///
/// The default representation is the flat [`CompiledRouteTable`] (a lookup
/// searches the source's short row of stored destinations and returns a
/// borrowed slice); the closed-form
/// [`xgft_core::CompactRoutes`] engine computes the path into a reusable
/// scratch buffer instead, trading a few arithmetic operations per hop for
/// near-zero route state.
///
/// The simulator slot `S` accepts either an owned [`NetworkSim`] (the
/// default) or `&mut NetworkSim`, so campaign shards can pair one
/// [reset](NetworkSim::reset)-recycled simulator with a fresh route table
/// per seed or epoch without reallocating the simulator's event queue,
/// message slab and channel state every time.
#[derive(Debug)]
pub struct RoutedNetwork<R: RouteSource = CompiledRouteTable, S: BorrowMut<NetworkSim> = NetworkSim>
{
    sim: S,
    table: R,
    /// Reusable path buffer for representations that compute rather than
    /// store (stays empty for the compiled form).
    scratch: Vec<u32>,
}

impl<R: RouteSource, S: BorrowMut<NetworkSim>> RoutedNetwork<R, S> {
    /// Pair a simulator — owned, or borrowed for reuse across runs — with
    /// any route representation.
    ///
    /// # Panics
    /// Panics if the representation was built for a different machine size.
    pub fn with_source(sim: S, table: R) -> Self {
        assert_eq!(
            table.num_leaves(),
            sim.borrow().xgft().num_leaves(),
            "route table compiled for a different machine size"
        );
        RoutedNetwork {
            sim,
            table,
            scratch: Vec::new(),
        }
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &NetworkSim {
        self.sim.borrow()
    }

    /// The route representation in use.
    pub fn table(&self) -> &R {
        &self.table
    }
}

impl RoutedNetwork<CompactRoutes> {
    /// The paper's ideal Full-Crossbar reference for `n` nodes: a simulator
    /// on the single-switch `XGFT(1; N; 1)` with unlimited internal
    /// buffering ([`crossbar_config`]), routed in closed form. D-mod-k on
    /// that machine is its one route — up to the switch and down to the
    /// destination, the path `Route <0>` expands to — and holds no per-pair
    /// state.
    ///
    /// # Errors
    /// [`TopologyError::ZeroParameter`] if `n == 0`.
    pub fn crossbar(n: usize, config: &NetworkConfig) -> Result<Self, TopologyError> {
        let xgft = crossbar_xgft(n)?;
        let routes = CompactRoutes::all_pairs(&xgft, CompactScheme::DModK);
        Ok(RoutedNetwork::with_source(
            NetworkSim::new(&xgft, crossbar_config(config)),
            routes,
        ))
    }
}

impl<R: RouteSource, S: BorrowMut<NetworkSim>> Network for RoutedNetwork<R, S> {
    fn schedule_message(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<MessageId, NetworkError> {
        let RoutedNetwork {
            sim,
            table,
            scratch,
        } = self;
        let path: &[u32] = if src == dst {
            &[]
        } else {
            table
                .path_in(src, dst, scratch)
                .ok_or(NetworkError::MissingRoute { src, dst })?
        };
        Ok(sim
            .borrow_mut()
            .schedule_message_on_path(at_ps, src, dst, bytes, path))
    }

    fn run_until_next_completion(&mut self) -> Option<Completion> {
        self.sim.borrow_mut().run_until_next_completion()
    }

    fn now_ps(&self) -> u64 {
        self.sim.borrow().now_ps()
    }

    fn report(&self) -> SimReport {
        self.sim.borrow().report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_core::{CompiledRouteTable, DModK};
    use xgft_topo::{Route, Xgft, XgftSpec};

    #[test]
    fn routed_network_uses_table_routes() {
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let table = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let mut net =
            RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), table);
        net.schedule_message(0, 0, 9, 4096).unwrap();
        net.schedule_message(0, 3, 3, 4096).unwrap(); // self message needs no route
        let mut count = 0;
        while net.run_until_next_completion().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
        assert_eq!(net.report().completed_messages, 2);
        assert_eq!(net.table().algorithm(), "d-mod-k");
        assert!(net.sim().num_messages() == 2);
    }

    #[test]
    fn missing_route_is_a_typed_error() {
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let table = CompiledRouteTable::compile(&xgft, &DModK::new(), [(0, 1)]);
        let mut net =
            RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), table);
        let err = net.schedule_message(0, 2, 9, 4096).unwrap_err();
        assert_eq!(err, NetworkError::MissingRoute { src: 2, dst: 9 });
        assert!(err.to_string().contains("(2, 9)"));
        // A trace with more ranks than the machine has leaves must also
        // surface as a typed miss, not alias into another pair's path.
        let err = net.schedule_message(0, 0, 16, 4096).unwrap_err();
        assert_eq!(err, NetworkError::MissingRoute { src: 0, dst: 16 });
        let err = net.schedule_message(0, 17, 3, 4096).unwrap_err();
        assert_eq!(err, NetworkError::MissingRoute { src: 17, dst: 3 });
        // The network stays usable after a miss.
        net.schedule_message(0, 0, 1, 4096).unwrap();
        assert!(net.run_until_next_completion().is_some());
    }

    #[test]
    fn compact_source_replays_identically_to_compiled() {
        use xgft_core::{CompactRoutes, CompactScheme, RandomRouting};
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap();
        let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &RandomRouting::new(7));
        let compact = CompactRoutes::all_pairs(&xgft, CompactScheme::Random { seed: 7 });
        let mut a =
            RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), compiled);
        let mut b =
            RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), compact);
        for (i, (s, d)) in [(0usize, 5usize), (3, 9), (9, 3), (1, 15), (2, 2)]
            .into_iter()
            .enumerate()
        {
            a.schedule_message(i as u64 * 10, s, d, 4096).unwrap();
            b.schedule_message(i as u64 * 10, s, d, 4096).unwrap();
        }
        loop {
            match (a.run_until_next_completion(), b.run_until_next_completion()) {
                (None, None) => break,
                (ca, cb) => {
                    let (ca, cb) = (ca.unwrap(), cb.unwrap());
                    assert_eq!(
                        (ca.src, ca.dst, ca.completed_at_ps),
                        (cb.src, cb.dst, cb.completed_at_ps)
                    );
                }
            }
        }
        assert_eq!(a.report(), b.report());
        // Misses stay typed through the generic path.
        let err = b.schedule_message(0, 0, 99, 64).unwrap_err();
        assert_eq!(err, NetworkError::MissingRoute { src: 0, dst: 99 });
    }

    #[test]
    fn crossbar_implements_network() {
        let mut net = RoutedNetwork::crossbar(8, &NetworkConfig::default()).unwrap();
        // Every pair rides the crossbar's one route, `<0>`.
        let xgft = crossbar_xgft(8).unwrap();
        let mut scratch = Vec::new();
        for s in 0..8 {
            for d in (0..8).filter(|&d| d != s) {
                let expected: Vec<u32> = xgft
                    .route_channels(s, d, &Route::new(vec![0]))
                    .unwrap()
                    .into_iter()
                    .map(|c| c as u32)
                    .collect();
                assert_eq!(net.table().path_in(s, d, &mut scratch).unwrap(), expected);
            }
        }
        Network::schedule_message(&mut net, 0, 0, 1, 2048).unwrap();
        let c = Network::run_until_next_completion(&mut net).unwrap();
        assert_eq!(c.dst, 1);
        assert_eq!(Network::report(&net).completed_messages, 1);
        assert_eq!(
            RoutedNetwork::crossbar(0, &NetworkConfig::default()).unwrap_err(),
            TopologyError::ZeroParameter { level: 1 }
        );
    }
}
