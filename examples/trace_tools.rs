//! Working with traces and profiling artifacts as files: generate a
//! workload, save its trace, reload it, and persist a profiled hash
//! assignment — the workflow a compiler toolchain using this library
//! would run (profile once, ship the assignment with the binary, §4.2).
//!
//! ```text
//! cargo run --release -p vlpp-sim --example trace_tools
//! ```

use std::error::Error;

use vlpp_core::{CondKernel, HashAssignment, PathConfig, ProfileBuilder, ProfileConfig};
use vlpp_predict::ConditionalPredictor;
use vlpp_sim::run_conditional;
use vlpp_synth::{suite, InputSet};
use vlpp_trace::compact::{copy_to_chunked, ChunkedReader, DEFAULT_CHUNK_RECORDS};
use vlpp_trace::source::MemorySource;
use vlpp_trace::stats::TraceStats;
use vlpp_trace::TraceSource;

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join("vlpp-trace-tools");
    std::fs::create_dir_all(&dir)?;

    // 1. Generate and save a trace (the "run the instrumented binary"
    //    step).
    let spec = suite::benchmark("li").expect("li is in the suite");
    let program = spec.build_program();
    let profile_trace = program.execute_conditionals(InputSet::Profile, 300_000);
    let trace_path = dir.join("li.profile.vlpc");
    let summary = copy_to_chunked(
        &mut MemorySource::new(profile_trace.clone()),
        std::io::BufWriter::new(std::fs::File::create(&trace_path)?),
        DEFAULT_CHUNK_RECORDS,
    )?;
    println!(
        "wrote {} ({} records in {} chunks, {} bytes)",
        trace_path.display(),
        summary.records,
        summary.chunks,
        summary.bytes
    );

    // 2. Reload it and confirm integrity.
    let file = std::io::BufReader::new(std::fs::File::open(&trace_path)?);
    let reloaded = ChunkedReader::new(file)?.read_to_trace()?;
    assert_eq!(reloaded, profile_trace);
    let stats = TraceStats::from_trace(&reloaded);
    println!("reloaded: {stats}");

    // 3. Profile from the file and persist the assignment (the artifact
    //    the compiler would encode into branch instructions, §4.2).
    let config = PathConfig::conditional_for_bytes(16 * 1024);
    let report =
        ProfileBuilder::new(ProfileConfig::new(config.clone())).profile_conditional(&reloaded);
    let assignment_path = dir.join("li.assignment.txt");
    std::fs::write(&assignment_path, report.assignment.to_text())?;
    println!(
        "wrote {} ({} branches, default HF_{})",
        assignment_path.display(),
        report.assignment.assigned_count(),
        report.default_hash
    );

    // 4. A "later run" loads the assignment and predicts the test input.
    let loaded = HashAssignment::from_text(&std::fs::read_to_string(&assignment_path)?)?;
    assert_eq!(loaded, report.assignment);
    let test_trace = program.execute_conditionals(InputSet::Test, 300_000);
    let mut vlp = CondKernel::new(&config, &loaded);
    let stats = run_conditional(&mut vlp, &test_trace);
    println!("{} on the test input: {:.2}% misprediction", vlp.name(), stats.miss_percent());

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
