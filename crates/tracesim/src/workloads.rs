//! Synthetic application traces: any pattern as a trace.
//!
//! The paper replays post-mortem MPI traces of the real applications; those
//! are proprietary, so [`trace_from_pattern`] turns the generated patterns
//! that reproduce the communication structure the paper documents into
//! rank programs (see [`xgft_patterns::generators`] for the pattern
//! definitions and their module docs for the substitution rationale), e.g.
//! `trace_from_pattern(&generators::wrf_mesh_exchange(16, 16, bytes)?, 0)`:
//!
//! * **WRF-256** — one phase of simultaneous pairwise ±16 exchanges on a
//!   16 × 16 task mesh. All messages are outstanding at once, which is what
//!   makes the endpoint contention visible to the routing scheme.
//! * **CG.D-128** — five equal-size exchange phases; the first four are
//!   local to every aligned block of 16 ranks, the fifth is the non-local
//!   transpose exchange of Eq. (2), 750 KB per message. Each rank moves to
//!   the next phase only after its receives for the current phase complete,
//!   reproducing the phase structure visible in the paper's Fig. 3 trace.

use crate::trace::{RankEvent, Trace};
use xgft_patterns::{ConnectivityMatrix, Pattern};

/// Build a trace from a multi-phase pattern: in every phase each rank posts
/// all its sends, then waits for all its receives; phases are separated by
/// these receive dependencies (no global barrier, like the real codes).
///
/// `compute_ps` inserts a fixed computation before each phase (0 for pure
/// communication benchmarks).
pub fn trace_from_pattern(pattern: &Pattern, compute_ps: u64) -> Trace {
    let n = pattern.num_nodes();
    let mut programs: Vec<Vec<RankEvent>> = vec![Vec::new(); n];
    for (phase_idx, phase) in pattern.phases().iter().enumerate() {
        let tag = phase_idx as u32;
        if compute_ps > 0 {
            for prog in programs.iter_mut() {
                prog.push(RankEvent::Compute {
                    duration_ps: compute_ps,
                });
            }
        }
        push_phase(&mut programs, phase, tag);
    }
    Trace::new(pattern.name().to_string(), programs)
}

/// Append one phase (sends first, then receives) to every rank's program.
fn push_phase(programs: &mut [Vec<RankEvent>], phase: &ConnectivityMatrix, tag: u32) {
    for flow in phase.network_flows() {
        programs[flow.src].push(RankEvent::Send {
            dst: flow.dst,
            bytes: flow.bytes,
            tag,
        });
    }
    for flow in phase.network_flows() {
        programs[flow.dst].push(RankEvent::Recv { src: flow.src, tag });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    #[test]
    fn wrf_256_trace_shape() {
        let t = trace_from_pattern(&generators::wrf_mesh_exchange(16, 16, 1024).unwrap(), 0);
        assert_eq!(t.num_ranks(), 256);
        // 480 exchanges, each a send and a recv.
        assert_eq!(t.num_sends(), 480);
        assert!(t.validate().is_ok());
        // Border ranks post one send + one recv, interior ranks two of each.
        assert_eq!(t.program(0).len(), 2);
        assert_eq!(t.program(100).len(), 4);
    }

    #[test]
    fn cg_d_128_trace_shape() {
        let t = trace_from_pattern(
            &generators::cg_d(128, generators::CG_D_PHASE_BYTES).unwrap(),
            0,
        );
        assert_eq!(t.num_ranks(), 128);
        assert!(t.validate().is_ok());
        // Four local phases send 128 messages each; the fifth phase is a
        // permutation with 16 fixed points (the ranks on the diagonal of the
        // 8x8 half-grid), so it contributes 112 network messages.
        assert_eq!(t.num_sends(), 4 * 128 + 112);
        assert_eq!(t.total_bytes() % (750 * 1024), 0);
        // Phases are ordered: every rank's program alternates sends then
        // recvs with non-decreasing tags.
        for rank in 0..128 {
            let mut last_tag = 0u32;
            for e in t.program(rank) {
                let tag = match e {
                    RankEvent::Send { tag, .. } | RankEvent::Recv { tag, .. } => *tag,
                    _ => last_tag,
                };
                assert!(tag >= last_tag, "rank {rank} has out-of-order phases");
                last_tag = tag;
            }
        }
    }

    #[test]
    fn pattern_round_trip_preserves_pairs() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 64).unwrap();
        let trace = trace_from_pattern(&pattern, 0);
        let mut expected: Vec<(usize, usize)> = pattern.phases()[0]
            .network_flows()
            .map(|f| (f.src, f.dst))
            .collect();
        expected.sort_unstable();
        assert_eq!(trace.communication_pairs(), expected);
    }

    #[test]
    fn compute_prefix_is_inserted_per_phase() {
        let pattern = generators::cg_d(32, 1024).unwrap();
        let trace = trace_from_pattern(&pattern, 777);
        let computes = trace
            .program(0)
            .iter()
            .filter(|e| matches!(e, RankEvent::Compute { duration_ps: 777 }))
            .count();
        assert_eq!(computes, 5);
    }
}
