//! The one shard executor behind the sweep, campaign, resilience and chaos
//! runners.
//!
//! Every campaign decomposes into shards whose enumeration order keeps the
//! shards of one point — one `(w2, scheme)` or `(rate, scheme)` —
//! consecutive. [`run_grouped`] splits the shard list into those runs, makes
//! one rayon work item and one scratch value (a topology, replay engine and
//! simulator) per run, and returns the results per group in shard order.
//! Because groups partition the shard list in order and the parallel map
//! preserves input order, results are identical for any worker count, and
//! every group is exactly one point, so callers assemble points straight
//! from the groups. Chaos keys every shard as its own group.
//!
//! [`PristineTables`] is the matching route-table cache: it compiles each
//! deterministic scheme once per machine and lends it to every shard, which
//! patches a fault overlay over the borrowed table
//! ([`xgft_core::UndoableTable`]) instead of cloning it; each seeded shard
//! compiles its own table because it routes differently per seed.

use crate::sweep::AlgorithmSpec;
use rayon::prelude::*;
use std::borrow::Cow;
use xgft_core::CompiledRouteTable;
use xgft_patterns::Pattern;
use xgft_topo::Xgft;

/// Run `shards` grouped into maximal runs of consecutive shards for which
/// `same_point` holds. Each group is one parallel work item: `make_scratch`
/// builds its scratch from the group's first shard, then `run_shard` runs
/// the group's shards in order against that scratch. Returns one result
/// vector per group, groups in shard order.
pub(crate) fn run_grouped<S, C, R>(
    shards: &[S],
    same_point: impl FnMut(&S, &S) -> bool,
    make_scratch: impl Fn(&S) -> C + Sync,
    run_shard: impl Fn(&mut C, &S) -> R + Sync,
) -> Vec<Vec<R>>
where
    S: Sync,
    R: Send,
{
    let groups: Vec<&[S]> = shards.chunk_by(same_point).collect();
    groups
        .par_iter()
        .map(|group| {
            let mut scratch = make_scratch(&group[0]);
            group
                .iter()
                .map(|shard| run_shard(&mut scratch, shard))
                .collect()
        })
        .collect()
}

/// Compile `algorithm` (instantiated with `seed`) for `pairs` on `xgft`.
pub(crate) fn compile(
    xgft: &Xgft,
    pattern: &Pattern,
    pairs: &[(usize, usize)],
    algorithm: AlgorithmSpec,
    seed: u64,
) -> CompiledRouteTable {
    let algo = algorithm.instantiate(xgft, pattern, seed);
    CompiledRouteTable::compile(xgft, algo.as_ref(), pairs.iter().copied())
}

/// Pristine compiled route tables of one machine for one pair set.
pub(crate) struct PristineTables<'a> {
    xgft: &'a Xgft,
    pattern: &'a Pattern,
    pairs: &'a [(usize, usize)],
    deterministic: Vec<(AlgorithmSpec, CompiledRouteTable)>,
}

impl<'a> PristineTables<'a> {
    /// Compile every deterministic scheme of `algorithms` once, up front.
    pub(crate) fn new(
        xgft: &'a Xgft,
        pattern: &'a Pattern,
        pairs: &'a [(usize, usize)],
        algorithms: &[AlgorithmSpec],
    ) -> Self {
        let mut deterministic = Vec::with_capacity(algorithms.len());
        for &a in algorithms.iter().filter(|a| !a.is_seeded()) {
            deterministic.push((a, compile(xgft, pattern, pairs, a, 0)));
        }
        PristineTables {
            xgft,
            pattern,
            pairs,
            deterministic,
        }
    }

    /// The pristine table of `algorithm`: the cached one, borrowed, for a
    /// deterministic scheme; a fresh compile at `seed` for a seeded one.
    pub(crate) fn get(&self, algorithm: AlgorithmSpec, seed: u64) -> Cow<'_, CompiledRouteTable> {
        match self.deterministic.iter().find(|(a, _)| *a == algorithm) {
            Some((_, table)) => Cow::Borrowed(table),
            None => Cow::Owned(compile(
                self.xgft,
                self.pattern,
                self.pairs,
                algorithm,
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::ThreadPoolBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Shards are `(point, index)` pairs; the point key repeats in runs.
    fn shards() -> Vec<(u32, usize)> {
        [3u32, 3, 3, 1, 4, 4, 1, 5, 9, 9, 9, 9, 2]
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect()
    }

    fn same(a: &(u32, usize), b: &(u32, usize)) -> bool {
        a.0 == b.0
    }

    #[test]
    fn groups_partition_the_input_in_order() {
        let shards = shards();
        let groups = run_grouped(&shards, same, |_| (), |_, &s| s);
        let points: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|s| s.0).collect())
            .collect();
        assert_eq!(
            points,
            vec![
                vec![3, 3, 3],
                vec![1],
                vec![4, 4],
                vec![1],
                vec![5],
                vec![9, 9, 9, 9],
                vec![2],
            ]
        );
    }

    #[test]
    fn results_flatten_back_to_shard_order() {
        let shards = shards();
        let groups = run_grouped(&shards, same, |_| (), |_, s| s.1 * 10);
        let flat: Vec<usize> = groups.into_iter().flatten().collect();
        assert_eq!(flat, (0..shards.len()).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_is_made_once_per_group_and_reused_within_it() {
        let shards = shards();
        let made = AtomicUsize::new(0);
        let groups = run_grouped(
            &shards,
            same,
            |first| {
                made.fetch_add(1, Ordering::Relaxed);
                (first.0, 0usize)
            },
            |(point, runs), shard| {
                assert_eq!(*point, shard.0, "scratch belongs to the shard's point");
                *runs += 1;
                *runs
            },
        );
        assert_eq!(made.load(Ordering::Relaxed), groups.len());
        assert_eq!(groups.len(), 7);
        // The scratch persisted across the group: run counters climb.
        assert_eq!(groups[5], vec![1, 2, 3, 4]);
    }

    #[test]
    fn output_is_identical_for_any_worker_count() {
        let shards: Vec<(u32, usize)> = (0..97).map(|i| ((i / 5) as u32, i)).collect();
        let run = |workers: usize| {
            ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .unwrap()
                .install(|| {
                    run_grouped(&shards, same, |first| first.1, |base, s| (*base, s.1 * s.1))
                })
        };
        let single = run(1);
        assert_eq!(single.len(), 20);
        assert_eq!(single, run(7));
    }

    #[test]
    fn empty_input_has_no_groups() {
        let none: Vec<(u32, usize)> = Vec::new();
        let groups = run_grouped(&none, same, |_| (), |_, s| s.1);
        assert!(groups.is_empty());
    }

    #[test]
    fn deterministic_tables_are_cached_and_seeded_ones_are_fresh() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let pattern = xgft_patterns::generators::shift(16, 4, 1024);
        let pairs: Vec<(usize, usize)> = pattern
            .combined()
            .network_flows()
            .map(|f| (f.src, f.dst))
            .collect();
        let tables = PristineTables::new(
            &xgft,
            &pattern,
            &pairs,
            &[AlgorithmSpec::DModK, AlgorithmSpec::Random],
        );
        assert_eq!(tables.deterministic.len(), 1, "only d-mod-k is cached");
        let cached = tables.get(AlgorithmSpec::DModK, 0);
        assert!(
            matches!(cached, Cow::Borrowed(_)),
            "cached tables are lent, not cloned"
        );
        let cached_direct = compile(&xgft, &pattern, &pairs, AlgorithmSpec::DModK, 0);
        let seeded = tables.get(AlgorithmSpec::Random, 5);
        let seeded_direct = compile(&xgft, &pattern, &pairs, AlgorithmSpec::Random, 5);
        for &(s, d) in &pairs {
            assert_eq!(cached.path(s, d), cached_direct.path(s, d));
            assert_eq!(seeded.path(s, d), seeded_direct.path(s, d));
        }
    }
}
