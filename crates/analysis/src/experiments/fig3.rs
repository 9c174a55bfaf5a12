//! Fig. 3: the CG.D-128 traffic pattern (execution phases and communication
//! matrix).
//!
//! The paper's figure shows (a) the execution trace with its five exchange
//! phases and (b) the 128×128 communication matrix. This driver reports the
//! same information in text form: per-phase locality statistics and a
//! block-structure rendering of the combined matrix.

use serde::{Deserialize, Serialize};
use xgft_patterns::{generators, PatternError};

/// Statistics of one CG phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase index (0-based; phase 4 is the non-local transpose exchange).
    pub phase: usize,
    /// Number of network messages in the phase.
    pub messages: usize,
    /// Messages whose endpoints share a first-level switch (blocks of 16).
    pub switch_local: usize,
    /// Bytes per message.
    pub bytes_per_message: u64,
}

/// The Fig. 3 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Number of ranks.
    pub ranks: usize,
    /// Per-phase statistics.
    pub phases: Vec<PhaseStats>,
    /// The combined communication matrix collapsed to 16-rank blocks:
    /// `block_matrix[i][j]` is the number of messages from block i to
    /// block j.
    pub block_matrix: Vec<Vec<usize>>,
}

/// Build the Fig. 3 reproduction for the paper's CG.D-128 (or a scaled rank
/// count for quick runs). Errors if CG.D refuses `ranks`.
pub fn run(ranks: usize, bytes: u64) -> Result<Fig3Result, PatternError> {
    let pattern = generators::cg_d(ranks, bytes)?;
    let block = 16usize;
    let num_blocks = ranks.div_ceil(block);
    let mut phases = Vec::new();
    let mut block_matrix = vec![vec![0usize; num_blocks]; num_blocks];
    for (idx, phase) in pattern.phases().iter().enumerate() {
        let mut messages = 0usize;
        let mut switch_local = 0usize;
        let mut bytes_per_message = 0u64;
        for f in phase.network_flows() {
            messages += 1;
            bytes_per_message = f.bytes;
            if f.src / block == f.dst / block {
                switch_local += 1;
            }
            block_matrix[f.src / block][f.dst / block] += 1;
        }
        phases.push(PhaseStats {
            phase: idx,
            messages,
            switch_local,
            bytes_per_message,
        });
    }
    Ok(Fig3Result {
        ranks,
        phases,
        block_matrix,
    })
}

impl Fig3Result {
    /// Render the per-phase table and the block matrix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Fig. 3 — CG.D-{} traffic pattern (five exchange phases)\n",
            self.ranks
        ));
        out.push_str(&format!(
            "{:>6} {:>10} {:>14} {:>16}\n",
            "phase", "messages", "switch-local", "bytes/message"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "{:>6} {:>10} {:>14} {:>16}\n",
                p.phase, p.messages, p.switch_local, p.bytes_per_message
            ));
        }
        out.push_str("\nCommunication matrix collapsed to 16-rank blocks (messages):\n");
        for row in &self.block_matrix {
            let cells: Vec<String> = row.iter().map(|c| format!("{c:>4}")).collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_d_128_phase_structure_matches_the_paper() {
        let result = run(128, 750 * 1024).unwrap();
        assert_eq!(result.phases.len(), 5);
        // The first four phases are entirely switch-local...
        for p in &result.phases[..4] {
            assert_eq!(p.messages, 128);
            assert_eq!(p.switch_local, p.messages, "phase {} leaks", p.phase);
            assert_eq!(p.bytes_per_message, 750 * 1024);
        }
        // ...and the fifth is (almost entirely) non-local.
        let fifth = &result.phases[4];
        assert_eq!(fifth.messages, 112);
        assert!(fifth.switch_local * 10 < fifth.messages);
        // The block matrix has a strong diagonal (local phases).
        for b in 0..8 {
            assert!(result.block_matrix[b][b] >= 4 * 16);
        }
        let text = result.render();
        assert!(text.contains("phase"));
        assert!(text.contains("768000"), "750 KB = 768000 bytes per message");
    }

    #[test]
    fn scaled_down_variant_keeps_the_shape() {
        let result = run(64, 1024).unwrap();
        assert_eq!(result.phases.len(), 5);
        assert!(result.phases[..4]
            .iter()
            .all(|p| p.switch_local == p.messages));
    }
}
