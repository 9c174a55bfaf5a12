//! Routes-per-NCA distributions (Fig. 4 of the paper).
//!
//! Fig. 4 plots, for each root switch (NCA), the number of routes a routing
//! algorithm assigns to it over the complete set of (source, destination)
//! pairs. An even distribution is necessary — but, as the paper shows, not
//! sufficient — for good performance.

use crate::algorithm::RoutingAlgorithm;
use xgft_topo::Xgft;

/// Count how many of the routes `algo` assigns to the pairs in `flows`
/// have their apex (NCA) at each node of `level`, restricted to the pairs
/// whose NCA level equals `level`. Each pair is routed as it is read.
///
/// The returned vector has one entry per node of `level`, indexed by the
/// node's index within the level (the "NCA number" of Fig. 4).
#[expect(clippy::expect_used, reason = "schemes route in-range pairs validly")]
pub fn nca_route_distribution<A: RoutingAlgorithm + ?Sized>(
    xgft: &Xgft,
    algo: &A,
    flows: impl IntoIterator<Item = (usize, usize)>,
    level: usize,
) -> Vec<usize> {
    let mut counts = vec![0usize; xgft.nodes_at_level(level)];
    for (s, d) in flows {
        if s == d || xgft.nca_level(s, d) != level {
            continue;
        }
        let nca = xgft
            .nca_of_route(s, &algo.route(xgft, s, d))
            .expect("algorithms must produce valid routes");
        counts[nca.index] += 1;
    }
    counts
}

/// Convenience: the Fig. 4 distribution over *all* ordered pairs whose NCAs
/// are at the top level.
pub fn top_level_distribution_all_pairs<A: RoutingAlgorithm + ?Sized>(
    xgft: &Xgft,
    algo: &A,
) -> Vec<usize> {
    let n = xgft.num_leaves();
    let pairs = (0..n).flat_map(move |s| (0..n).map(move |d| (s, d)));
    nca_route_distribution(xgft, algo, pairs, xgft.height())
}

/// Simple imbalance measure of a distribution: `(max − min)` over the mean.
/// Zero means perfectly even.
pub fn imbalance(counts: &[usize]) -> f64 {
    let (Some(&max), Some(&min)) = (counts.iter().max(), counts.iter().min()) else {
        return 0.0;
    };
    let (max, min) = (max as f64, min as f64);
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        (max - min) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::{DModK, SModK};
    use crate::random::RandomRouting;
    use crate::rnca::RandomNcaDown;
    use xgft_topo::XgftSpec;

    fn tree(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    #[test]
    fn full_tree_mod_k_distribution_is_perfectly_even() {
        // Fig. 4(a): on XGFT(2;16,16;1,16) S-mod-k and D-mod-k assign exactly
        // the same number of routes to every root: 256*240/16 = 3840.
        let xgft = tree(16);
        for algo in [&SModK::new() as &dyn RoutingAlgorithm, &DModK::new()] {
            let dist = top_level_distribution_all_pairs(&xgft, algo);
            assert_eq!(dist.len(), 16);
            assert!(dist.iter().all(|&c| c == 3840), "{dist:?}");
            assert_eq!(imbalance(&dist), 0.0);
        }
    }

    #[test]
    fn slimmed_tree_mod_k_distribution_shows_the_wrap_imbalance() {
        // Fig. 4(b): on XGFT(2;16,16;1,10) the modulo wrap loads roots 0-5
        // with the routes of digit values 10-15 as well, so they carry ~1.67x
        // the routes of roots 6-9.
        let xgft = tree(10);
        let dist = top_level_distribution_all_pairs(&xgft, &DModK::new());
        assert_eq!(dist.len(), 10);
        let low: Vec<usize> = dist[..6].to_vec();
        let high: Vec<usize> = dist[6..].to_vec();
        assert!(low.iter().all(|&c| c == 2 * 16 * 240));
        assert!(high.iter().all(|&c| c == 16 * 240));
        assert!(imbalance(&dist) > 0.3);
    }

    #[test]
    fn random_and_rnca_distributions_are_more_even_than_mod_k_on_slimmed_tree() {
        let xgft = tree(10);
        let dmodk_imb = imbalance(&top_level_distribution_all_pairs(&xgft, &DModK::new()));
        let random = RandomRouting::new(2);
        let rnca = RandomNcaDown::new(&xgft, 2);
        for algo in [&random as &dyn RoutingAlgorithm, &rnca] {
            let dist = top_level_distribution_all_pairs(&xgft, algo);
            assert_eq!(dist.iter().sum::<usize>(), 256 * 240);
            let imb = imbalance(&dist);
            assert!(
                imb < dmodk_imb,
                "{} imbalance {:.3} should beat d-mod-k's {:.3}",
                algo.name(),
                imb,
                dmodk_imb
            );
        }
        // Pure Random is close to uniform over ~61k routes.
        assert!(imbalance(&top_level_distribution_all_pairs(&xgft, &random)) < 0.1);
    }

    #[test]
    fn distribution_only_counts_requested_level() {
        let xgft = tree(16);
        let algo = DModK::new();
        // Intra-switch pairs have their NCA at level 1.
        let intra_pairs: Vec<(usize, usize)> =
            (0..16).flat_map(|s| (0..16).map(move |d| (s, d))).collect();
        let level1 = nca_route_distribution(&xgft, &algo, intra_pairs.iter().copied(), 1);
        assert_eq!(level1.iter().sum::<usize>(), 16 * 15);
        assert_eq!(level1[0], 16 * 15);
        let level2 = nca_route_distribution(&xgft, &algo, intra_pairs.iter().copied(), 2);
        assert_eq!(level2.iter().sum::<usize>(), 0);
    }

    #[test]
    fn imbalance_edge_cases() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0, 0]), 0.0);
        assert_eq!(imbalance(&[5, 5, 5]), 0.0);
        assert!(imbalance(&[10, 0]) > 1.9);
    }
}
