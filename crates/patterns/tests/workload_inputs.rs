//! Every generator refuses bad spec input with a typed error: for any
//! generator name, rank count and parameter drawn from the edges of the
//! `usize`/`f64` range, `WorkloadSpec::pattern` returns `Ok` or a
//! `PatternError` and never panics.

use proptest::prelude::*;
use xgft_patterns::WorkloadSpec;

/// The parameters any generator reads; each case sets them all or leaves
/// some out.
const PARAMS: [&str; 9] = [
    "offset",
    "rows",
    "cols",
    "spots",
    "skew",
    "k",
    "shifts",
    "seed",
    "flows_per_node",
];

/// The edge values a parameter is drawn from on `n` ranks; index 10 leaves
/// the parameter out.
fn edge_value(n: usize, index: usize) -> Option<f64> {
    let n = n as f64;
    [
        0.0,
        1.0,
        n - 1.0,
        n,
        n + 1.0,
        2f64.powi(32),
        2f64.powi(53),
        1.8e19,
        18446744073709551615.0,
        0.5,
    ]
    .get(index)
    .copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spec_input_never_panics_a_generator(
        n in 2usize..=70,
        picks in prop::collection::vec(0usize..11, PARAMS.len()),
    ) {
        for generator in WorkloadSpec::GENERATORS {
            let mut spec = WorkloadSpec::new(generator, n, 1024);
            for (name, &pick) in PARAMS.iter().zip(&picks) {
                if let Some(value) = edge_value(n, pick) {
                    spec = spec.with_param(*name, value);
                }
            }
            match spec.pattern() {
                Ok(pattern) => prop_assert_eq!(pattern.num_nodes(), n),
                Err(e) => prop_assert_eq!(e.generator.as_str(), generator),
            }
        }
    }
}
