//! Permutation patterns: every source sends to a distinct destination.

use crate::matrix::{ConnectivityMatrix, Flow};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A permutation of `N` nodes: node `i` sends to `mapping[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permutation {
    mapping: Vec<usize>,
}

impl Permutation {
    /// Build a permutation from an explicit mapping, validating bijectivity.
    pub fn new(mapping: Vec<usize>) -> Result<Self, String> {
        let n = mapping.len();
        let mut seen = vec![false; n];
        for &d in &mapping {
            if d >= n {
                return Err(format!("destination {d} out of range for {n} nodes"));
            }
            if seen[d] {
                return Err(format!("destination {d} appears twice"));
            }
            seen[d] = true;
        }
        Ok(Permutation { mapping })
    }

    /// The identity permutation (every node "sends" to itself).
    pub fn identity(n: usize) -> Self {
        Permutation {
            mapping: (0..n).collect(),
        }
    }

    /// A uniformly random permutation drawn from `rng`.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut mapping: Vec<usize> = (0..n).collect();
        mapping.shuffle(rng);
        Permutation { mapping }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.mapping.is_empty()
    }

    /// The destination of source `s`.
    pub fn dest(&self, s: usize) -> usize {
        self.mapping[s]
    }

    /// The raw mapping.
    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// True if every node maps to itself.
    pub fn is_identity(&self) -> bool {
        self.mapping.iter().enumerate().all(|(i, &d)| i == d)
    }

    /// The inverse permutation (`D → S` of Sec. VII-B: destinations become
    /// sources and vice versa).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.len()];
        for (s, &d) in self.mapping.iter().enumerate() {
            inv[d] = s;
        }
        Permutation { mapping: inv }
    }

    /// Compose with another permutation: `(self ∘ other)(i) = self(other(i))`.
    ///
    /// # Panics
    /// Panics if the sizes differ.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "size mismatch in composition");
        Permutation {
            mapping: other.mapping.iter().map(|&i| self.mapping[i]).collect(),
        }
    }

    /// Convert to a connectivity matrix where every non-self flow carries
    /// `bytes` bytes.
    pub fn to_matrix(&self, bytes: u64) -> ConnectivityMatrix {
        ConnectivityMatrix::from_flows(
            self.len(),
            self.pairs().map(|(src, dst)| Flow { src, dst, bytes }),
        )
    }

    /// Iterate over the (source, destination) pairs, excluding fixed points.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mapping
            .iter()
            .enumerate()
            .filter(|(s, &d)| *s != d)
            .map(|(s, &d)| (s, d))
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation({} nodes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validity_checks() {
        assert!(Permutation::new(vec![1, 0, 2]).is_ok());
        assert!(Permutation::new(vec![1, 1, 2]).is_err());
        assert!(Permutation::new(vec![1, 3, 2]).is_err());
    }

    #[test]
    fn identity_and_inverse() {
        let id = Permutation::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.inverse(), id);
        let p = Permutation::new(vec![2, 0, 1, 4, 3]).unwrap();
        let inv = p.inverse();
        assert_eq!(inv.mapping(), &[1, 2, 0, 4, 3]);
        assert!(p.compose(&inv).is_identity());
        assert!(inv.compose(&p).is_identity());
    }

    #[test]
    fn random_permutations_are_valid_and_seeded() {
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let p1 = Permutation::random(64, &mut rng1);
        let p2 = Permutation::random(64, &mut rng2);
        assert_eq!(p1, p2, "same seed must give the same permutation");
        // All destinations distinct.
        let mut dests: Vec<usize> = p1.mapping().to_vec();
        dests.sort_unstable();
        dests.dedup();
        assert_eq!(dests.len(), 64);
    }

    #[test]
    fn to_matrix_skips_fixed_points() {
        let p = Permutation::new(vec![0, 2, 1]).unwrap();
        let m = p.to_matrix(100);
        assert_eq!(m.num_flows(), 2);
        assert_eq!(m.bytes(1, 2), 100);
        assert_eq!(m.bytes(0, 0), 0);
        assert!(m.is_permutation());
        assert_eq!(p.pairs().count(), 2);
    }

    #[test]
    fn display_mentions_size() {
        assert_eq!(Permutation::identity(7).to_string(), "Permutation(7 nodes)");
    }
}
