//! Cross-crate trace integrity: synthetic traces survive serialization,
//! and identical traces drive identical predictions (determinism of the
//! whole pipeline).

use vlpp_core::{CondKernel, HashAssignment, PathConfig};
use vlpp_predict::Gshare;
use vlpp_sim::run_conditional;
use vlpp_synth::{suite, InputSet};
use vlpp_trace::compact::{copy_to_chunked, ChunkedReader, DEFAULT_CHUNK_RECORDS};
use vlpp_trace::source::MemorySource;
use vlpp_trace::stats::TraceStats;
use vlpp_trace::{Trace, TraceSource};

/// Serializes `trace` to VLPC v3 bytes in `chunk_cap`-record chunks.
fn to_vlpc(trace: &Trace, chunk_cap: u32) -> Vec<u8> {
    let mut buffer = Vec::new();
    copy_to_chunked(&mut MemorySource::new(trace.clone()), &mut buffer, chunk_cap)
        .expect("write succeeds");
    buffer
}

#[test]
fn synthetic_traces_round_trip_through_a_vlpc_file() {
    let spec = suite::benchmark("li").unwrap();
    let trace = spec.build_program().execute(InputSet::Test, 50_000);
    let path = std::env::temp_dir().join(format!("vlpp-roundtrip-{}.vlpc", std::process::id()));
    std::fs::write(&path, to_vlpc(&trace, DEFAULT_CHUNK_RECORDS)).expect("write file");
    let file = std::fs::File::open(&path).expect("open file");
    let mut reader = ChunkedReader::new(std::io::BufReader::new(file)).expect("valid header");
    let back = reader.read_to_trace().expect("read succeeds");
    let _ = std::fs::remove_file(&path);
    assert_eq!(trace, back);
    assert_eq!(reader.records_read(), trace.len() as u64);
    assert_eq!(TraceStats::from_trace(&trace), TraceStats::from_trace(&back));
}

#[test]
fn identical_traces_drive_identical_predictions() {
    let spec = suite::benchmark("chess").unwrap();
    let program = spec.build_program();
    let trace = program.execute(InputSet::Test, 100_000);

    let run = |trace: &Trace| {
        let mut gshare = Gshare::new(12);
        let gshare_stats = run_conditional(&mut gshare, trace);
        let mut path = CondKernel::new(&PathConfig::new(12), &HashAssignment::fixed(6));
        let path_stats = run_conditional(&mut path, trace);
        (gshare_stats.mispredictions, path_stats.mispredictions)
    };

    // Same program, same input: bit-identical behavior end to end.
    let trace2 = program.execute(InputSet::Test, 100_000);
    assert_eq!(trace, trace2);
    assert_eq!(run(&trace), run(&trace2));

    // And through serialization.
    let bytes = to_vlpc(&trace, 4096);
    let back = ChunkedReader::new(&bytes[..]).unwrap().read_to_trace().unwrap();
    assert_eq!(run(&trace), run(&back));
}

#[test]
fn suite_static_counts_match_paper_table1_exactly() {
    // (benchmark, static conditional, static indirect) from the paper.
    let expected = [
        ("go", 4770usize, 11usize),
        ("m88ksim", 1095, 14),
        ("gcc", 14419, 192),
        ("compress", 371, 3),
        ("li", 517, 11),
        ("ijpeg", 1161, 134),
        ("perl", 1536, 21),
        ("vortex", 6529, 33),
        ("chess", 1736, 7),
        ("groff", 2322, 172),
        ("gs", 5476, 504),
        ("pgp", 1444, 5),
        ("plot", 1417, 43),
        ("python", 2578, 168),
        ("ss", 1997, 29),
        ("tex", 2970, 42),
    ];
    for (name, cond, ind) in expected {
        let program = suite::benchmark(name).unwrap().build_program();
        assert_eq!(program.static_conditional(), cond, "{name} conditional");
        assert_eq!(program.static_indirect(), ind, "{name} indirect");
    }
}
