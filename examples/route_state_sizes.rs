//! Measure the route state each representation holds for the same routing
//! job, at growing machine sizes — the numbers behind the size table in
//! `docs/DESIGN.md`.
//!
//! The job is the cross-switch shift permutation (leaf `s` → `s + k`) on
//! the slimmed two-level family `XGFT(2; k,k; 1,4)`: one route per leaf,
//! every route climbing to the top level. Two representations hold its
//! routes (the third, the algorithm computing each route per call, holds
//! none):
//!
//! * `CompiledRouteTable` — flat indexed channel paths (exact, via
//!   `storage_bytes`): a per-source index over the stored pairs plus the
//!   hops, `(n + 1) · 4 + routes · 8 + 4 + hops · 4` bytes, built for real
//!   at every size;
//! * `CompactRoutes` — label arithmetic (exact, via `storage_bytes`),
//!   shown both with the explicit pair domain and as the domain-free
//!   all-pairs engine.
//!
//! Run with `cargo run --release --example route_state_sizes`; pass
//! `--json` for a machine-readable record per machine size (one JSON
//! object per line, exact bytes, no humanised units) so the numbers can
//! feed the `BENCH_*.json` trajectory instead of being print-only.

use serde::Value;
use xgft::routing::{CompactRoutes, CompactScheme, CompiledRouteTable, DModK};
use xgft::topo::{Xgft, XgftSpec};

fn human(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// One measured machine size, ready for either rendering.
struct SizeRow {
    leaves: usize,
    compiled_bytes: usize,
    compact_domain_bytes: usize,
    compact_all_pairs_bytes: usize,
    compact_rnca_bytes: usize,
}

impl SizeRow {
    fn to_json(&self) -> Value {
        let field = |v: usize| Value::UInt(v as u64);
        Value::Object(vec![
            ("leaves".to_string(), field(self.leaves)),
            ("compiled_bytes".to_string(), field(self.compiled_bytes)),
            (
                "compact_domain_bytes".to_string(),
                field(self.compact_domain_bytes),
            ),
            (
                "compact_all_pairs_bytes".to_string(),
                field(self.compact_all_pairs_bytes),
            ),
            (
                "compact_rnca_bytes".to_string(),
                field(self.compact_rnca_bytes),
            ),
        ])
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if !json {
        println!(
            "| leaves | compiled (d-mod-k) | compact, pair domain (d-mod-k) | compact, all pairs (d-mod-k) | compact, all pairs (r-NCA-u) |"
        );
        println!("|---|---|---|---|---|");
    }
    for k in [32usize, 128, 1024] {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(k, 4).unwrap()).unwrap();
        let n = xgft.num_leaves();
        let pairs: Vec<(usize, usize)> = (0..n).map(|s| (s, (s + k) % n)).collect();

        let compiled = CompiledRouteTable::compile(&xgft, &DModK::new(), pairs.iter().copied());
        let domain = CompactRoutes::for_pairs(&xgft, CompactScheme::DModK, pairs.iter().copied());
        let free = CompactRoutes::all_pairs(&xgft, CompactScheme::DModK);
        let rnca = CompactRoutes::all_pairs(&xgft, CompactScheme::random_nca_up(&xgft, 1));

        let row = SizeRow {
            leaves: n,
            compiled_bytes: compiled.storage_bytes(),
            compact_domain_bytes: domain.storage_bytes(),
            compact_all_pairs_bytes: free.storage_bytes(),
            compact_rnca_bytes: rnca.storage_bytes(),
        };
        if json {
            struct Raw(Value);
            impl serde::Serialize for Raw {
                fn to_value(&self) -> Value {
                    self.0.clone()
                }
            }
            println!(
                "{}",
                serde_json::to_string(&Raw(row.to_json())).expect("serialisable row")
            );
        } else {
            println!(
                "| {} | {} | {} | {} | {} |",
                row.leaves,
                human(row.compiled_bytes),
                human(row.compact_domain_bytes),
                human(row.compact_all_pairs_bytes),
                human(row.compact_rnca_bytes),
            );
        }
    }
}
