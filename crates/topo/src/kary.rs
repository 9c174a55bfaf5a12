//! k-ary n-tree conveniences.
//!
//! A k-ary n-tree is the most common XGFT instantiation
//! (`XGFT(n; k,…,k; 1,k,…,k)`). This module provides a thin wrapper with the
//! familiar base-`k` arithmetic formulation of node labels and of the
//! S-mod-k / D-mod-k port formula `⌊x / k^{l-1}⌋ mod k`, which the rest of
//! the workspace uses to cross-check the general XGFT machinery.

use crate::topology::Xgft;

/// A k-ary n-tree viewed through its base-`k` arithmetic.
#[derive(Debug, Clone)]
pub struct KAryNTree {
    k: usize,
    n: usize,
    xgft: Xgft,
}

impl KAryNTree {
    /// Build a k-ary n-tree.
    ///
    /// # Panics
    /// Panics if `k == 0` or `n == 0`.
    pub fn new(k: usize, n: usize) -> Self {
        KAryNTree {
            k,
            n,
            xgft: Xgft::k_ary_n_tree(k, n),
        }
    }

    /// The radix `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of levels `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of processing nodes, `k^n`.
    pub fn num_leaves(&self) -> usize {
        self.xgft.num_leaves()
    }

    /// Number of switches, `n · k^(n-1)`.
    pub fn num_switches(&self) -> usize {
        self.xgft.num_switches()
    }

    /// The underlying general XGFT object.
    pub fn xgft(&self) -> &Xgft {
        &self.xgft
    }

    /// Consume the wrapper and return the XGFT.
    pub fn into_xgft(self) -> Xgft {
        self.xgft
    }

    /// The classic S-mod-k / D-mod-k port formula: the up-port used when
    /// moving from level `l − 1` to level `l` (1-based `l`) guided by node
    /// number `x` is `⌊x / k^(l-1)⌋ mod k`.
    pub fn mod_k_port(&self, x: usize, l: usize) -> usize {
        debug_assert!(l >= 1 && l <= self.n);
        (x / self.k.pow((l - 1) as u32)) % self.k
    }

    /// The base-`k` digit of `x` at position `pos` (1-based, least
    /// significant first). Identical to [`KAryNTree::mod_k_port`] but named
    /// for label arithmetic.
    pub fn digit(&self, x: usize, pos: usize) -> usize {
        self.mod_k_port(x, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_closed_forms() {
        let t = KAryNTree::new(4, 3);
        assert_eq!(t.num_leaves(), 64);
        assert_eq!(t.num_switches(), 3 * 16);
        assert_eq!(t.k(), 4);
        assert_eq!(t.n(), 3);
    }

    #[test]
    fn mod_k_port_equals_label_digit() {
        let t = KAryNTree::new(4, 3);
        for leaf in 0..t.num_leaves() {
            for l in 1..=3 {
                assert_eq!(
                    t.mod_k_port(leaf, l),
                    t.xgft().leaf_digit(leaf, l),
                    "leaf {leaf}, level {l}"
                );
            }
        }
    }

    #[test]
    fn digit_alias() {
        let t = KAryNTree::new(2, 4);
        assert_eq!(t.digit(0b1011, 1), 1);
        assert_eq!(t.digit(0b1011, 2), 1);
        assert_eq!(t.digit(0b1011, 3), 0);
        assert_eq!(t.digit(0b1011, 4), 1);
    }

    #[test]
    fn into_xgft_preserves_spec() {
        let t = KAryNTree::new(8, 2);
        let x = t.into_xgft();
        assert_eq!(x.spec().to_string(), "XGFT(2;8,8;1,8)");
    }
}
