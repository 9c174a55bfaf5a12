//! The workload vocabulary: a generator named as scenario specs write it,
//! plus its parameters.
//!
//! [`WorkloadSpec::pattern`] only parses parameters and dispatches; every
//! rule on a generator's inputs lives in that generator (see
//! [`crate::generators`]), so a spec and a direct call are refused for the
//! same reasons with the same [`PatternError`].

use crate::generators::{self, PatternError};
use crate::pattern::Pattern;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A workload as a *named generator plus parameters* — every generator in
/// [`crate::generators`] is reachable by name.
///
/// `n` is the rank count, `bytes` the per-message size; generator-specific
/// extras (shift offsets, hot-spot skew, …) live in `params` as
/// `(name, value)` pairs so new generators never change the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Generator name: `wrf`, `cg`, `shift`, `transpose`, `bit_reversal`,
    /// `bit_complement`, `all_to_all`, `ring`, `hot_spot`, `tornado`,
    /// `k_shift`, `random_permutation` or `uniform_random`.
    pub generator: String,
    /// Number of communicating ranks.
    pub n: usize,
    /// Per-message byte count.
    pub bytes: u64,
    /// Generator-specific parameters (see each generator's docs).
    pub params: Vec<(String, f64)>,
}

impl WorkloadSpec {
    /// All generator names a workload may use.
    pub const GENERATORS: [&'static str; 13] = [
        "wrf",
        "cg",
        "shift",
        "transpose",
        "bit_reversal",
        "bit_complement",
        "all_to_all",
        "ring",
        "hot_spot",
        "tornado",
        "k_shift",
        "random_permutation",
        "uniform_random",
    ];

    /// A parameterless workload.
    pub fn new(generator: impl Into<String>, n: usize, bytes: u64) -> Self {
        WorkloadSpec {
            generator: generator.into(),
            n,
            bytes,
            params: Vec::new(),
        }
    }

    /// Add a named parameter (builder style).
    pub fn with_param(mut self, name: impl Into<String>, value: f64) -> Self {
        self.params.push((name.into(), value));
        self
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    fn error(&self, rule: impl Into<String>) -> PatternError {
        PatternError::new(self.generator.as_str(), rule)
    }

    fn required_param(&self, name: &str) -> Result<f64, PatternError> {
        self.param(name)
            .ok_or_else(|| self.error(format!("needs param `{name}`")))
    }

    /// A parameter that must be a whole number a `usize` holds.
    fn usize_param(&self, name: &str) -> Result<usize, PatternError> {
        let v = self.required_param(name)?;
        let limit = 2f64.powi(usize::BITS as i32);
        if !(0.0..limit).contains(&v) || v.fract() != 0.0 {
            return Err(self.error(format!(
                "needs param `{name}` to be an integer in [0, 2^{}), got {v}",
                usize::BITS
            )));
        }
        Ok(v as usize)
    }

    /// The side of the square grid of `n` ranks (transpose, and wrf
    /// without explicit `rows` and `cols`).
    fn square_side(&self) -> Result<usize, PatternError> {
        let side = self.n.isqrt();
        if side * side != self.n {
            return Err(self.error(format!("needs a square rank count, got {}", self.n)));
        }
        Ok(side)
    }

    fn rng(&self) -> Result<StdRng, PatternError> {
        Ok(StdRng::seed_from_u64(self.usize_param("seed")? as u64))
    }

    /// Instantiate the pattern this workload names.
    pub fn pattern(&self) -> Result<Pattern, PatternError> {
        let (n, bytes) = (self.n, self.bytes);
        if n < 2 {
            return Err(self.error(format!("needs at least two ranks, got {n}")));
        }
        if bytes == 0 {
            return Err(self.error("needs bytes >= 1"));
        }
        match self.generator.as_str() {
            "wrf" => {
                let (rows, cols) = match (self.param("rows"), self.param("cols")) {
                    (None, None) => {
                        let side = self.square_side()?;
                        (side, side)
                    }
                    _ => (self.usize_param("rows")?, self.usize_param("cols")?),
                };
                if rows.checked_mul(cols) != Some(n) {
                    return Err(self.error(format!(
                        "needs rows × cols = n, got {rows} × {cols} for n = {n}"
                    )));
                }
                generators::wrf_mesh_exchange(rows, cols, bytes)
            }
            "cg" => generators::cg_d(n, bytes),
            "shift" => Ok(generators::shift(n, self.usize_param("offset")?, bytes)),
            "transpose" => generators::transpose(self.square_side()?, bytes),
            "bit_reversal" => generators::bit_reversal(n, bytes),
            "bit_complement" => generators::bit_complement(n, bytes),
            "all_to_all" => Ok(generators::all_to_all(n, bytes)),
            "ring" => Ok(generators::ring_exchange(n, bytes)),
            "hot_spot" => generators::hot_spot(
                n,
                self.usize_param("spots")?,
                self.required_param("skew")?,
                bytes,
            ),
            "tornado" => generators::tornado(n, bytes),
            "k_shift" => generators::k_shift(
                n,
                self.usize_param("k")?,
                self.usize_param("shifts")?,
                bytes,
            ),
            "random_permutation" => Ok(generators::random_permutation(n, bytes, &mut self.rng()?)),
            "uniform_random" => generators::uniform_random(
                n,
                self.usize_param("flows_per_node")?,
                bytes,
                &mut self.rng()?,
            ),
            _ => Err(self.error(format!(
                "is not a generator (expected one of {:?})",
                Self::GENERATORS
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule a refused workload names, asserted to mention `needle`.
    fn refused(spec: WorkloadSpec, needle: &str) {
        let err = spec.pattern().expect_err("refused");
        let text = err.to_string();
        assert!(text.contains(&format!("`{}`", spec.generator)), "{text}");
        assert!(text.contains(needle), "{text}");
    }

    #[test]
    fn an_offset_of_two_to_the_64_is_refused() {
        refused(
            WorkloadSpec::new("shift", 15, 1024).with_param("offset", 18446744073709551615.0),
            "`offset` to be an integer",
        );
        // Any offset a usize holds is a rotation by its residue.
        let p = WorkloadSpec::new("shift", 15, 1024)
            .with_param("offset", 1.8e19)
            .pattern()
            .unwrap();
        assert!(p.phases()[0].is_permutation());
    }

    #[test]
    fn a_k_shift_stride_that_overflows_is_refused() {
        refused(
            WorkloadSpec::new("k_shift", 16, 1024)
                .with_param("k", 1e19)
                .with_param("shifts", 3.0),
            "shifts × k to fit usize",
        );
    }

    #[test]
    fn more_k_shifts_than_ranks_are_refused() {
        refused(
            WorkloadSpec::new("k_shift", 16, 1024)
                .with_param("k", 4.0)
                .with_param("shifts", 1e19),
            "1 <= shifts < n",
        );
    }

    #[test]
    fn a_wrf_mesh_whose_area_overflows_is_refused() {
        refused(
            WorkloadSpec::new("wrf", 16, 1024)
                .with_param("rows", 4294967296.0)
                .with_param("cols", 4294967296.0),
            "rows × cols = n",
        );
        refused(
            WorkloadSpec::new("wrf", 16, 1024)
                .with_param("rows", 2.0)
                .with_param("cols", 4.0),
            "rows × cols = n",
        );
    }
}
