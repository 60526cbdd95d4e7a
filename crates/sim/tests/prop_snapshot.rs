//! Property tests for the model-snapshot envelope (`VLPS`): lossless
//! round-trips for arbitrary section sets, and — under the full
//! `FaultPlan` corrupt/truncate/splice matrix — typed errors with byte
//! offsets, never a panic and never a silently different section set.

use vlpp_check::fault::{DataFault, FaultPlan};
use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig, Gen};
use vlpp_sim::serve::snapshot::{read_snapshot, write_snapshot, SnapshotSection};
use vlpp_trace::TraceIoError;

fn arb_sections(g: &mut Gen) -> Vec<SnapshotSection> {
    let count = g.below(6) as usize;
    (0..count)
        .map(|i| SnapshotSection {
            // Distinct names with varied shapes, including separators
            // the sim layer uses.
            name: format!("m:bench-{}:shard:{i}", g.below(100)),
            payload: g.vec(0, 300, |g| g.u64() as u8),
        })
        .collect()
}

/// Write → read is the identity for any section set, including empty
/// payloads and an empty envelope.
#[test]
fn snapshot_envelope_round_trips() {
    check("snapshot_envelope_round_trips", CheckConfig::default(), |g| {
        let sections = arb_sections(g);
        let mut buf = Vec::new();
        write_snapshot(&sections, &mut buf).expect("write to Vec cannot fail");
        prop_assert_eq!(read_snapshot(&buf[..]).expect("pristine envelope"), sections);
        Ok(())
    });
}

/// Cutting an envelope of at least two sections at *every* offset —
/// inside the header, a section name, a length or checksum field, a
/// chunk header or a payload — is `Truncated` at an offset that never
/// lies past the bytes that survived: a truncated snapshot never parses
/// as a different (shorter) model.
#[test]
fn snapshot_truncation_errors_carry_the_offset() {
    check("snapshot_truncation_errors_carry_the_offset", CheckConfig::default(), |g| {
        let mut sections = arb_sections(g);
        while sections.len() < 2 {
            sections.push(SnapshotSection {
                name: format!("extra:{}", sections.len()),
                payload: g.vec(0, 40, |g| g.u64() as u8),
            });
        }
        let mut buf = Vec::new();
        write_snapshot(&sections, &mut buf).expect("write to Vec cannot fail");
        for keep in 0..buf.len() {
            match read_snapshot(&DataFault::Truncate { keep }.apply(&buf)[..]) {
                Err(TraceIoError::Truncated { byte_offset, .. }) => {
                    prop_assert!(
                        byte_offset <= keep as u64,
                        "cut at {keep}: offset {byte_offset} past the surviving bytes"
                    );
                }
                other => {
                    return Err(vlpp_check::Failed::new(format!(
                        "cut at {keep} of {}: expected Truncated, got {other:?}",
                        buf.len()
                    )))
                }
            }
        }
        Ok(())
    });
}

/// Corrupting payload bytes is always *detected*: the checksum turns a
/// flipped bit into `ChecksumMismatch` naming the damaged section —
/// a damaged snapshot can never load as a silently wrong model.
#[test]
fn snapshot_payload_corruption_is_always_detected() {
    check("snapshot_payload_corruption_is_always_detected", CheckConfig::default(), |g| {
        let payload = g.vec(1, 400, |g| g.u64() as u8);
        let sections =
            vec![SnapshotSection { name: "m:bench:shard:0".into(), payload: payload.clone() }];
        let mut buf = Vec::new();
        write_snapshot(&sections, &mut buf).expect("write to Vec cannot fail");
        // Flip exactly one payload bit. The payload occupies the file
        // tail after header(12) + name(2+15) + len/checksum(16) +
        // chunk header(4).
        let payload_start = buf.len() - payload.len();
        let victim = payload_start + g.below(payload.len() as u64) as usize;
        let bit = 1u8 << g.below(8);
        buf[victim] ^= bit;
        match read_snapshot(&buf[..]) {
            Err(TraceIoError::ChecksumMismatch { section, expected, found, byte_offset }) => {
                prop_assert_eq!(section, "m:bench:shard:0");
                prop_assert!(expected != found);
                prop_assert!(byte_offset as usize <= buf.len());
            }
            other => {
                return Err(vlpp_check::Failed::new(format!(
                    "expected ChecksumMismatch, got {other:?}"
                )))
            }
        }
        Ok(())
    });
}

/// The full corrupt/truncate/splice fault matrix: the reader may
/// accept (fault hit dead bytes) or reject, but must never panic, and
/// an accepted read must equal the original sections exactly.
#[test]
fn damaged_snapshots_never_panic_and_never_lie() {
    check("damaged_snapshots_never_panic_and_never_lie", CheckConfig::default(), |g| {
        let sections = arb_sections(g);
        let mut buf = Vec::new();
        write_snapshot(&sections, &mut buf).expect("write to Vec cannot fail");
        let mut plan = FaultPlan::new(g.u64());
        for fault in plan.data_faults(buf.len().max(1), 9) {
            if let Ok(read_back) = read_snapshot(&fault.apply(&buf)[..]) {
                prop_assert_eq!(
                    read_back,
                    sections.clone(),
                    "fault {:?} silently changed the decoded sections",
                    fault
                );
            }
        }
        Ok(())
    });
}
