//! Pattern generators: the application patterns of the paper's evaluation
//! and the synthetic patterns common in fat-tree routing studies.
//!
//! ## WRF-256 (Sec. VII-A)
//!
//! "The communication pattern of WRF-256 consists of pairwise exchanges in a
//! 16 × 16 mesh. Every task `T_i` initiates two outstanding communications
//! to nodes `T_(i±16)` (except for the first and last 16 tasks, which only
//! send to `T_(i+16)` and `T_(i−16)` respectively)."
//!
//! ## CG.D-128 (Sec. VII-A, Fig. 3)
//!
//! "CG has a communication pattern that consists of five exchanges of equal
//! size, four of which are local to the first-level switch for the radix we
//! have used (m1 = 16). Only the fifth phase is non-local … each processor
//! `s` inside a switch communicates to a processor
//! `d = s/2 · 16 + (s mod 2)`" with 750 KB messages.
//!
//! The four local phases are modelled as the recursive-halving exchanges of
//! the NAS CG row reduction: partner `s XOR 2^j` for `j = 0..3`, which stay
//! inside every aligned block of 16 ranks. The fifth phase is the NAS CG
//! transpose exchange for a `nprows × npcols = 8 × 16` process grid,
//! `d = 2·(((s/2) mod 8)·8 + (s/2)/8) + (s mod 2)`, which reduces to the
//! paper's formula `d = (s/2)·16 + (s mod 2)` for the ranks of the first
//! switch and is an involutive permutation over all 128 ranks.

use crate::matrix::{ConnectivityMatrix, Flow};
use crate::pattern::Pattern;
use crate::permutation::Permutation;
use rand::Rng;
use std::fmt;

/// Default per-message size used for the WRF-256 synthetic trace (bytes).
pub const WRF_DEFAULT_BYTES: u64 = 512 * 1024;
/// Per-message size of the CG.D-128 exchanges reported by the paper (bytes).
pub const CG_D_PHASE_BYTES: u64 = 750 * 1024;

/// Why a generator refused its inputs: the generator's workload name and
/// the rule the inputs broke, with the offending values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// The workload name of the generator (`shift`, `cg`, …).
    pub generator: String,
    /// The broken rule, e.g. `needs a power-of-two rank count, got 36`.
    pub rule: String,
}

impl PatternError {
    pub(crate) fn new(generator: impl Into<String>, rule: impl Into<String>) -> Self {
        PatternError {
            generator: generator.into(),
            rule: rule.into(),
        }
    }
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload `{}` {}", self.generator, self.rule)
    }
}

impl std::error::Error for PatternError {}

/// `Ok` when `holds`, else the generator's error with the rule `rule()`.
fn require(
    holds: bool,
    generator: &str,
    rule: impl FnOnce() -> String,
) -> Result<(), PatternError> {
    if holds {
        Ok(())
    } else {
        Err(PatternError::new(generator, rule()))
    }
}

fn power_of_two(generator: &str, n: usize) -> Result<(), PatternError> {
    require(n.is_power_of_two(), generator, || {
        format!("needs a power-of-two rank count, got {n}")
    })
}

/// The WRF-256 pairwise mesh-exchange pattern on a `rows × cols` task mesh
/// (the paper's WRF-256 is 16 × 16): every task exchanges with the tasks
/// one row above and one row below (`±cols` in task numbering). A single
/// phase with all messages outstanding.
///
/// Requires `rows × cols` to fit a `usize`.
pub fn wrf_mesh_exchange(rows: usize, cols: usize, bytes: u64) -> Result<Pattern, PatternError> {
    let n = rows.checked_mul(cols).ok_or_else(|| {
        PatternError::new(
            "wrf",
            format!("needs rows × cols to fit usize, got {rows} × {cols}"),
        )
    })?;
    let mut m = ConnectivityMatrix::new(n);
    for t in 0..n {
        if t + cols < n {
            m.add_flow(t, t + cols, bytes);
        }
        if t >= cols {
            m.add_flow(t, t - cols, bytes);
        }
    }
    Ok(Pattern::single_phase(format!("WRF-{n}"), m))
}

/// The CG transpose-exchange permutation for `n` ranks (`n` a power of two).
/// For an even power the grid is square and the exchange is the matrix
/// transpose of rank indices; for an odd power (`npcols = 2·nprows`) the NAS
/// CG formula pairs even/odd ranks as described in the module docs.
///
/// # Panics
/// Panics if `n` is not a power of two.
pub fn cg_transpose_partner(s: usize, n: usize) -> usize {
    assert!(n.is_power_of_two(), "CG requires a power-of-two rank count");
    let log = n.trailing_zeros() as usize;
    if log.is_multiple_of(2) {
        let side = 1usize << (log / 2);
        let row = s / side;
        let col = s % side;
        col * side + row
    } else {
        let nprows = 1usize << ((log - 1) / 2);
        let half = s / 2;
        let parity = s % 2;
        2 * ((half % nprows) * nprows + half / nprows) + parity
    }
}

/// The five-phase CG.D pattern for `n` ranks (the paper's CG.D-128 has
/// `n = 128` and [`CG_D_PHASE_BYTES`]): four XOR-exchange phases local to
/// every aligned block of 16 ranks followed by the non-local transpose
/// exchange. Every phase moves `bytes` bytes per rank, matching the paper's
/// "five exchanges of equal size".
///
/// Requires `n` to be a power of two and at least 32.
pub fn cg_d(n: usize, bytes: u64) -> Result<Pattern, PatternError> {
    require(n.is_power_of_two() && n >= 32, "cg", || {
        format!("needs a power-of-two rank count >= 32, got {n}")
    })?;
    let mut phases = Vec::with_capacity(5);
    for j in 0..4 {
        let mut m = ConnectivityMatrix::new(n);
        for s in 0..n {
            m.add_flow(s, s ^ (1usize << j), bytes);
        }
        phases.push(m);
    }
    let mut fifth = ConnectivityMatrix::new(n);
    for s in 0..n {
        let d = cg_transpose_partner(s, n);
        if d != s {
            fifth.add_flow(s, d, bytes);
        }
    }
    phases.push(fifth);
    Ok(Pattern::new(format!("CG.D-{n}"), phases))
}

/// Cyclic shift by `offset`: node `i` sends to `(i + offset) mod n`. Any
/// offset is accepted; only its residue mod `n` moves traffic.
#[expect(clippy::expect_used, reason = "a rotation of 0..n is a permutation")]
pub fn shift(n: usize, offset: usize, bytes: u64) -> Pattern {
    let step = offset.checked_rem(n).unwrap_or(0);
    let mapping: Vec<usize> = (0..n).map(|i| (i + step) % n).collect();
    let p = Permutation::new(mapping).expect("shift is a permutation");
    Pattern::single_phase(format!("shift-{offset}"), p.to_matrix(bytes))
}

/// Matrix transpose on a square grid of `side × side` nodes: node
/// `(r, c)` sends to `(c, r)`.
///
/// Requires `side × side` to fit a `usize`.
#[expect(
    clippy::expect_used,
    reason = "a transpose of a square grid is a permutation"
)]
pub fn transpose(side: usize, bytes: u64) -> Result<Pattern, PatternError> {
    let n = side.checked_mul(side).ok_or_else(|| {
        PatternError::new(
            "transpose",
            format!("needs side × side to fit usize, got side {side}"),
        )
    })?;
    let mapping: Vec<usize> = (0..n).map(|i| (i % side) * side + i / side).collect();
    let p = Permutation::new(mapping).expect("transpose is a permutation");
    Ok(Pattern::single_phase(
        format!("transpose-{side}x{side}"),
        p.to_matrix(bytes),
    ))
}

/// Bit-reversal permutation on `n = 2^b` nodes.
///
/// Requires `n` to be a power of two.
#[expect(clippy::expect_used, reason = "reversing b bits permutes 0..2^b")]
pub fn bit_reversal(n: usize, bytes: u64) -> Result<Pattern, PatternError> {
    power_of_two("bit_reversal", n)?;
    let bits = n.trailing_zeros();
    let mapping: Vec<usize> = (0..n)
        .map(|i| {
            i.reverse_bits()
                .checked_shr(usize::BITS - bits)
                .unwrap_or(0)
        })
        .collect();
    let p = Permutation::new(mapping).expect("bit reversal is a permutation");
    Ok(Pattern::single_phase("bit-reversal", p.to_matrix(bytes)))
}

/// Bit-complement permutation on `n = 2^b` nodes: node `i` sends to `!i`.
///
/// Requires `n` to be a power of two.
#[expect(clippy::expect_used, reason = "complementing b bits permutes 0..2^b")]
pub fn bit_complement(n: usize, bytes: u64) -> Result<Pattern, PatternError> {
    power_of_two("bit_complement", n)?;
    let mapping: Vec<usize> = (0..n).map(|i| (!i) & (n - 1)).collect();
    let p = Permutation::new(mapping).expect("bit complement is a permutation");
    Ok(Pattern::single_phase("bit-complement", p.to_matrix(bytes)))
}

/// All-to-all personalised exchange: every node sends `bytes` to every other
/// node, in a single phase.
pub fn all_to_all(n: usize, bytes: u64) -> Pattern {
    let mut m = ConnectivityMatrix::new(n);
    for s in 0..n {
        for d in 0..n {
            if s != d {
                m.add_flow(s, d, bytes);
            }
        }
    }
    Pattern::single_phase("all-to-all", m)
}

/// A uniformly random permutation pattern.
pub fn random_permutation<R: Rng + ?Sized>(n: usize, bytes: u64, rng: &mut R) -> Pattern {
    let p = Permutation::random(n, rng);
    Pattern::single_phase("random-permutation", p.to_matrix(bytes))
}

/// Uniform random traffic: `flows_per_node` destinations drawn uniformly at
/// random (with replacement, excluding self) for every source.
///
/// Requires `flows_per_node < n`, so the pattern costs no more draws than
/// all-to-all has flows.
pub fn uniform_random<R: Rng + ?Sized>(
    n: usize,
    flows_per_node: usize,
    bytes: u64,
    rng: &mut R,
) -> Result<Pattern, PatternError> {
    require(flows_per_node < n, "uniform_random", || {
        format!("needs flows_per_node < n, got {flows_per_node} for n = {n}")
    })?;
    let mut m = ConnectivityMatrix::new(n);
    for s in 0..n {
        for _ in 0..flows_per_node {
            let mut d = rng.gen_range(0..n);
            if d == s {
                d = (d + 1) % n;
            }
            m.add_flow(s, d, bytes);
        }
    }
    Ok(Pattern::single_phase("uniform-random", m))
}

/// A hot-spot pattern: every source still emits `bytes` bytes in total,
/// but a `skew` fraction of it converges on `spots` evenly spaced hot
/// destinations (the classic server/IO-node congestion scenario) while the
/// remaining `1 - skew` fraction goes to the source's ring successor as
/// background traffic. Deterministic: no sampling, identical for every run.
///
/// Requires `1 <= spots <= n` and `0.0 <= skew <= 1.0`.
pub fn hot_spot(n: usize, spots: usize, skew: f64, bytes: u64) -> Result<Pattern, PatternError> {
    require((1..=n).contains(&spots), "hot_spot", || {
        format!("needs 1 <= spots <= n, got {spots} for n = {n}")
    })?;
    require((0.0..=1.0).contains(&skew), "hot_spot", || {
        format!("needs skew in [0, 1], got {skew}")
    })?;
    // Hot destinations are spread evenly over the node range so they land
    // under different first-level switches (the interesting case).
    let hot: Vec<usize> = (0..spots).map(|i| i * n / spots).collect();
    let mut is_hot = vec![false; n];
    for &h in &hot {
        is_hot[h] = true;
    }
    let hot_bytes = ((bytes as f64 * skew / spots as f64).round() as u64).min(bytes);
    let background = bytes.saturating_sub(hot_bytes.saturating_mul(spots as u64));
    let mut flows = Vec::new();
    for s in 0..n {
        if hot_bytes > 0 {
            flows.extend(hot.iter().filter(|&&h| h != s).map(|&h| Flow {
                src: s,
                dst: h,
                bytes: hot_bytes,
            }));
        }
        if background > 0 {
            // Keep background off the hot nodes so `skew` really is the
            // fraction of traffic they receive: walk the ring until a
            // non-hot, non-self destination appears (there may be none
            // when every node is hot).
            let d = (1..n).map(|step| (s + step) % n).find(|&d| !is_hot[d]);
            if let Some(d) = d {
                flows.push(Flow {
                    src: s,
                    dst: d,
                    bytes: background,
                });
            }
        }
    }
    let m = ConnectivityMatrix::from_flows(n, flows);
    Ok(Pattern::single_phase(format!("hot-spot-{spots}x{skew}"), m))
}

/// The tornado permutation: node `i` sends to `(i + ⌈n/2⌉ - 1) mod n` —
/// the adversarial near-half-ring shift of Dally & Towles. The `- 1` keeps
/// the pattern asymmetric on even `n` (a plain `n/2` shift degenerates to
/// pairwise exchange).
///
/// Requires `n >= 3`.
#[expect(clippy::expect_used, reason = "a rotation of 0..n is a permutation")]
pub fn tornado(n: usize, bytes: u64) -> Result<Pattern, PatternError> {
    require(n >= 3, "tornado", || {
        format!("needs at least three ranks, got {n}")
    })?;
    let offset = n.div_ceil(2) - 1;
    let mapping: Vec<usize> = (0..n).map(|i| (i + offset) % n).collect();
    let p = Permutation::new(mapping).expect("tornado is a permutation");
    Ok(Pattern::single_phase("tornado", p.to_matrix(bytes)))
}

/// The k-shift family: node `i` sends `bytes` to each of
/// `(i + j·k) mod n` for `j = 1..=shifts` — a superposition of `shifts`
/// cyclic shifts at stride `k`. With `k` equal to the first-level switch
/// radix every flow leaves its switch through the same label arithmetic,
/// which is exactly the congruence structure that stresses mod-k routing.
///
/// Requires `k >= 1`, `1 <= shifts < n`, and `n - 1 + shifts·k` to fit a
/// `usize`.
pub fn k_shift(n: usize, k: usize, shifts: usize, bytes: u64) -> Result<Pattern, PatternError> {
    require(k >= 1, "k_shift", || {
        "needs a stride k >= 1, got 0".to_string()
    })?;
    require((1..n).contains(&shifts), "k_shift", || {
        format!("needs 1 <= shifts < n, got {shifts} for n = {n}")
    })?;
    let reach = shifts.checked_mul(k).and_then(|r| r.checked_add(n - 1));
    require(reach.is_some(), "k_shift", || {
        format!("needs n - 1 + shifts × k to fit usize, got shifts {shifts} × k {k}")
    })?;
    let mut m = ConnectivityMatrix::new(n);
    for s in 0..n {
        for j in 1..=shifts {
            let d = (s + j * k) % n;
            if d != s {
                m.add_flow(s, d, bytes);
            }
        }
    }
    Ok(Pattern::single_phase(format!("k-shift-{k}x{shifts}"), m))
}

/// A ring exchange: every node sends to both neighbours on a ring.
pub fn ring_exchange(n: usize, bytes: u64) -> Pattern {
    let mut m = ConnectivityMatrix::new(n);
    for s in 0..n {
        m.add_flow(s, (s + 1) % n, bytes);
        m.add_flow(s, (s + n - 1) % n, bytes);
    }
    Pattern::single_phase("ring-exchange", m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wrf_256_matches_paper_description() {
        let p = wrf_mesh_exchange(16, 16, WRF_DEFAULT_BYTES).unwrap();
        assert_eq!(p.num_nodes(), 256);
        assert_eq!(p.num_phases(), 1);
        let m = &p.phases()[0];
        // First 16 tasks only send downwards, last 16 only upwards.
        for t in 0..16 {
            assert_eq!(m.out_degree(t), 1, "task {t}");
            assert_eq!(m.bytes(t, t + 16), WRF_DEFAULT_BYTES);
        }
        for t in 240..256 {
            assert_eq!(m.out_degree(t), 1, "task {t}");
            assert_eq!(m.bytes(t, t - 16), WRF_DEFAULT_BYTES);
        }
        // Interior tasks send both ways.
        for t in 16..240 {
            assert_eq!(m.out_degree(t), 2, "task {t}");
        }
        // The pattern is symmetric, as the paper notes.
        assert!(m.is_symmetric());
        // Total flows: 2*256 - 32.
        assert_eq!(m.num_flows(), 480);
    }

    #[test]
    fn cg_transpose_matches_paper_formula_inside_first_switch() {
        // For s < 16 the partner is (s/2)*16 + (s mod 2) -- Eq. (2).
        for s in 0..16 {
            assert_eq!(
                cg_transpose_partner(s, 128),
                (s / 2) * 16 + (s % 2),
                "s={s}"
            );
        }
    }

    #[test]
    fn cg_transpose_is_an_involutive_permutation() {
        for &n in &[32usize, 64, 128, 256] {
            let mut seen = vec![false; n];
            for s in 0..n {
                let d = cg_transpose_partner(s, n);
                assert!(d < n);
                assert!(!seen[d], "n={n}: destination {d} repeated");
                seen[d] = true;
                assert_eq!(cg_transpose_partner(d, n), s, "involution broken at {s}");
            }
        }
    }

    #[test]
    fn cg_d_128_has_four_local_and_one_nonlocal_phase() {
        let p = cg_d(128, CG_D_PHASE_BYTES).unwrap();
        assert_eq!(p.num_phases(), 5);
        assert_eq!(p.num_nodes(), 128);
        // Phases 0-3 stay within aligned blocks of 16 (same level-1 switch
        // under sequential mapping with m1 = 16).
        for (i, phase) in p.phases()[..4].iter().enumerate() {
            for f in phase.network_flows() {
                assert_eq!(f.src / 16, f.dst / 16, "phase {i} leaks out of the switch");
                assert_eq!(f.bytes, CG_D_PHASE_BYTES);
            }
        }
        // The fifth phase is a permutation and mostly non-local.
        let fifth = &p.phases()[4];
        assert!(fifth.is_permutation());
        let nonlocal = fifth
            .network_flows()
            .filter(|f| f.src / 16 != f.dst / 16)
            .count();
        assert!(
            nonlocal > 100,
            "fifth phase should be dominated by non-local flows"
        );
        // All phases carry equal per-message sizes.
        assert!(p
            .phases()
            .iter()
            .flat_map(|m| m.network_flows())
            .all(|f| f.bytes == CG_D_PHASE_BYTES));
    }

    #[test]
    fn fifth_phase_first_port_congruence() {
        // The pathological behaviour: under D-mod-16 the first up-port is
        // d mod 16, which given Eq. (2) is only ever 0 or 1 for the sources
        // of one switch.
        let p = cg_d(128, CG_D_PHASE_BYTES).unwrap();
        let fifth = &p.phases()[4];
        for f in fifth.network_flows().filter(|f| f.src < 16) {
            assert!(f.dst % 16 <= 1, "src {} -> dst {}", f.src, f.dst);
        }
    }

    #[test]
    fn synthetic_permutations_are_valid() {
        assert!(shift(64, 5, 1).phases()[0].is_permutation());
        assert!(transpose(8, 1).unwrap().phases()[0].is_permutation());
        assert!(bit_reversal(64, 1).unwrap().phases()[0].is_permutation());
        assert!(bit_complement(64, 1).unwrap().phases()[0].is_permutation());
        // One node has zero bits to reverse.
        assert_eq!(bit_reversal(1, 1).unwrap().num_nodes(), 1);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(random_permutation(64, 1, &mut rng).phases()[0].is_permutation());
    }

    #[test]
    fn all_to_all_and_ring_flow_counts() {
        let a2a = all_to_all(8, 1);
        assert_eq!(a2a.phases()[0].num_flows(), 8 * 7);
        let ring = ring_exchange(8, 1);
        assert_eq!(ring.phases()[0].num_flows(), 16);
        assert!(ring.phases()[0].is_symmetric());
    }

    #[test]
    fn uniform_random_respects_flow_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = uniform_random(32, 3, 10, &mut rng).unwrap();
        let m = &p.phases()[0];
        // Every node emits exactly 3 flows worth of bytes (possibly merged).
        for s in 0..32 {
            let bytes: u64 = m.flows().filter(|f| f.src == s).map(|f| f.bytes).sum();
            assert_eq!(bytes, 30);
        }
    }

    #[test]
    fn hot_spot_concentrates_the_skewed_fraction() {
        let n = 64;
        let bytes = 1 << 20;
        let p = hot_spot(n, 4, 0.8, bytes).unwrap();
        let m = &p.phases()[0];
        // Hot nodes sit at 0, 16, 32, 48 and absorb ~80% of all traffic.
        let hot = [0usize, 16, 32, 48];
        let total: u64 = m.flows().map(|f| f.bytes).sum();
        let to_hot: u64 = m
            .flows()
            .filter(|f| hot.contains(&f.dst))
            .map(|f| f.bytes)
            .sum();
        let hot_fraction = to_hot as f64 / total as f64;
        assert!(
            (hot_fraction - 0.8).abs() < 0.02,
            "hot fraction {hot_fraction}"
        );
        // Every source emits at most `bytes` (rounding may shave a little;
        // hot sources additionally skip their own self-flow) and never
        // sends to itself.
        for s in 0..n {
            let out: u64 = m.flows().filter(|f| f.src == s).map(|f| f.bytes).sum();
            assert!(out <= bytes, "source {s} emits {out}");
            if !hot.contains(&s) {
                assert!(out >= bytes - 8, "source {s} emits only {out}");
            }
        }
        assert!(m.flows().all(|f| f.src != f.dst));
        // Degenerate skews still produce valid patterns.
        let uniform = hot_spot(n, 1, 0.0, bytes).unwrap();
        assert!(uniform.phases()[0].num_flows() > 0);
        let all_hot = hot_spot(n, 1, 1.0, bytes).unwrap();
        assert!(all_hot.phases()[0].flows().all(|f| f.dst == 0));
        // Rounding the hot share of u64::MAX bytes up must not overflow.
        assert!(hot_spot(4, 2, 1.0, u64::MAX).is_ok());
    }

    #[test]
    fn hot_spot_background_never_lands_on_adjacent_hot_nodes() {
        // With spots > n/2 the hot nodes are adjacent on the ring; the
        // background redirect must walk past *all* of them, not just one,
        // or the delivered hot fraction exceeds the requested skew.
        let bytes = 1u64 << 20;
        let p = hot_spot(4, 3, 0.5, bytes).unwrap();
        let hot = [0usize, 1, 2];
        let hot_bytes = (bytes as f64 * 0.5 / 3.0).round() as u64;
        let background = bytes - hot_bytes * 3;
        assert_ne!(hot_bytes, background);
        for f in p.phases()[0].flows() {
            if f.bytes == background {
                assert!(
                    !hot.contains(&f.dst),
                    "background flow {} -> {} lands on a hot node",
                    f.src,
                    f.dst
                );
            }
        }
        // Every node hot: background has nowhere to go and is dropped
        // rather than inflating the hot fraction.
        let saturated = hot_spot(4, 4, 0.5, bytes).unwrap();
        let per_spot = (bytes as f64 * 0.5 / 4.0).round() as u64;
        assert!(saturated.phases()[0].flows().all(|f| f.bytes == per_spot));
    }

    #[test]
    fn tornado_is_the_near_half_ring_shift() {
        for &n in &[8usize, 9, 64, 256] {
            let p = tornado(n, 100).unwrap();
            let m = &p.phases()[0];
            assert!(m.is_permutation(), "n={n}");
            let offset = (n.div_ceil(2) - 1).max(1);
            for f in m.network_flows() {
                assert_eq!(f.dst, (f.src + offset) % n, "n={n} src={}", f.src);
            }
            // The even-n case must not collapse to a pairwise exchange.
            if n % 2 == 0 {
                assert!(!m.is_symmetric(), "n={n} degenerated to an exchange");
            }
        }
    }

    #[test]
    fn k_shift_superposes_strided_shifts() {
        let p = k_shift(64, 16, 3, 10).unwrap();
        let m = &p.phases()[0];
        for s in 0..64 {
            let dsts: Vec<usize> = m.flows().filter(|f| f.src == s).map(|f| f.dst).collect();
            assert_eq!(dsts.len(), 3, "source {s}");
            for j in 1..=3usize {
                assert!(dsts.contains(&((s + j * 16) % 64)), "source {s} shift {j}");
            }
        }
        // A stride that wraps onto the source merges away the self-flow.
        let wrap = k_shift(16, 16, 1, 10).unwrap();
        assert_eq!(wrap.phases()[0].num_flows(), 0);
        // shifts = 1 at stride 1 is the plain neighbour shift.
        let plain = k_shift(8, 1, 1, 10).unwrap();
        assert!(plain.phases()[0].is_permutation());
    }

    #[test]
    fn meshes_and_grids_whose_size_overflows_are_refused() {
        let side = 1usize << (usize::BITS / 2);
        assert_eq!(
            wrf_mesh_exchange(side, side, 1).unwrap_err().generator,
            "wrf"
        );
        assert_eq!(transpose(side, 1).unwrap_err().generator, "transpose");
    }

    #[test]
    fn wrf_shape_generalises_to_other_meshes() {
        let p = wrf_mesh_exchange(4, 8, 100).unwrap();
        assert_eq!(p.num_nodes(), 32);
        let m = &p.phases()[0];
        assert_eq!(m.out_degree(0), 1);
        assert_eq!(m.out_degree(15), 2);
        assert!(m.is_symmetric());
    }
}
