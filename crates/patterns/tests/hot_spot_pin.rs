//! `hot_spot` is pinned flow by flow: for each node count, every valid
//! `(spots, skew)` pair of a fixed grid is generated and its flows are
//! folded into one FNV-1a digest. The constants are the matrices of the
//! ring walk that tests each step against the hot list, so a faster
//! membership test must produce exactly the same flows.

use xgft_patterns::generators;

const BYTES: u64 = 1000;
const SKEWS: [f64; 5] = [0.0, 0.25, 0.5, 0.9, 1.0];

/// FNV-1a over the `(src, dst, bytes)` words of every flow, for every
/// `(spots, skew)` of the grid at `n` nodes, plus the number of flows.
fn digest(n: usize) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut flows = 0;
    let mut spot_counts = vec![1, 2, 3, n / 2, n.saturating_sub(1), n];
    spot_counts.retain(|&s| (1..=n).contains(&s));
    spot_counts.dedup();
    for spots in spot_counts {
        for skew in SKEWS {
            let pattern = generators::hot_spot(n, spots, skew, BYTES).unwrap();
            for f in pattern.combined().flows() {
                for word in [f.src as u64, f.dst as u64, f.bytes] {
                    for byte in word.to_le_bytes() {
                        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                flows += 1;
            }
        }
    }
    (hash, flows)
}

#[test]
fn hot_spot_matrices_are_pinned() {
    let pinned: [(usize, u64, usize); 9] = [
        (1, 14695981039346656037, 0),
        (2, 2464515138989141229, 32),
        (3, 11670448828770151429, 136),
        (4, 3898835179606122460, 258),
        (7, 4708597226100929597, 571),
        (16, 443125102046445177, 3032),
        (33, 17946518680277640991, 11857),
        (64, 8615359398136763050, 42984),
        (200, 11293262313967312837, 406375),
    ];
    for (n, hash, flows) in pinned {
        assert_eq!(digest(n), (hash, flows), "hot_spot drifted at n = {n}");
    }
}
