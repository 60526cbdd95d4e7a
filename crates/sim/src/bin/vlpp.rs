//! `vlpp` — run any of the paper's experiments from the command line,
//! or one of the other verbs.
//!
//! ```text
//! vlpp <experiment> [--scale ci|N] [--json] [--metrics]
//!                   [--only LIST] [--checkpoint DIR]
//! vlpp serve | cluster | loadgen | microbench | ingest | run | profile
//!      | tournament  [flags]
//! vlpp [<verb>] --help
//!
//! experiments:
//!   table1 table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 headline hfnt
//!   analyze lengths ras frontend related-cond related-ind
//!   ablate-hashes ablate-select ablate-returns ablate-candidates
//!   ablate-interference ablate-stack
//!   all        (every table and figure, in order; --only narrows it,
//!               --checkpoint makes it resumable)
//! ```
//!
//! Every verb reads its flags through `vlpp_sim::cli::Flags` (the
//! workspace's one cursor, `vlpp_trace::flags`, plus `--scale`); the verbs
//! and their usage texts are `vlpp_sim::cli::VERBS`.

use std::process::ExitCode;

use vlpp_sim::cli::VERBS;

fn main() -> ExitCode {
    // Read the fault plan once, up front, so a malformed `VLPP_FAULT`
    // warns under every verb, not only where a hook first fires.
    vlpp_trace::fault::armed();

    let args: Vec<String> = std::env::args().skip(1).collect();
    // The first entry, `vlpp <experiment>`, takes every argv that names
    // no other verb.
    let (verb, args) =
        match VERBS[1..].iter().find(|verb| args.first().is_some_and(|first| first == verb.name)) {
            Some(verb) => (verb, &args[1..]),
            None => (&VERBS[0], &args[..]),
        };
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        print!("{}", verb.usage);
        return ExitCode::SUCCESS;
    }
    (verb.main)(args).unwrap_or_else(|error| {
        eprintln!("error ({}): {error}", error.phase());
        ExitCode::FAILURE
    })
}
