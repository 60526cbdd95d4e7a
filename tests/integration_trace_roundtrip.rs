//! Cross-crate trace integrity: synthetic traces survive serialization,
//! and identical traces drive identical predictions (determinism of the
//! whole pipeline).

use vlpp_core::{CondKernel, HashAssignment, PathConfig};
use vlpp_predict::Gshare;
use vlpp_sim::run_conditional;
use vlpp_synth::{suite, InputSet};
use vlpp_trace::io as trace_io;
use vlpp_trace::stats::TraceStats;

#[test]
fn synthetic_traces_round_trip_through_binary_format() {
    let spec = suite::benchmark("li").unwrap();
    let trace = spec.build_program().execute(InputSet::Test, 50_000);
    let mut buffer = Vec::new();
    trace_io::write_binary(&trace, &mut buffer).expect("write succeeds");
    let back = trace_io::read_binary(&buffer[..]).expect("read succeeds");
    assert_eq!(trace, back);
    assert_eq!(TraceStats::from_trace(&trace), TraceStats::from_trace(&back));
}

#[test]
fn synthetic_traces_round_trip_through_text_format() {
    let spec = suite::benchmark("compress").unwrap();
    let trace = spec.build_program().execute(InputSet::Profile, 5_000);
    let text = trace_io::write_text(&trace);
    let back = trace_io::read_text(&text).expect("parse succeeds");
    assert_eq!(trace, back);
}

#[test]
fn identical_traces_drive_identical_predictions() {
    let spec = suite::benchmark("chess").unwrap();
    let program = spec.build_program();
    let trace = program.execute(InputSet::Test, 100_000);

    let run = |trace: &vlpp_trace::Trace| {
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
    let mut buffer = Vec::new();
    trace_io::write_binary(&trace, &mut buffer).unwrap();
    let back = trace_io::read_binary(&buffer[..]).unwrap();
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
