//! How every `vlpp` verb reads its arguments: through
//! [`vlpp_trace::flags::Flags`], the workspace's one flag grammar, with
//! `--scale` read by the cursor for the verbs that take it. Checks that
//! compare several flags (`--trace` with `--benchmark`, loadgen's target
//! rules, `--only` lists) stay with their verb and stay `Cli`. [`VERBS`]
//! is the table the `vlpp` binary dispatches from, answering `--help`
//! and `-h` for every verb.

use std::ops::{Deref, DerefMut};
use std::process::ExitCode;

pub(crate) use vlpp_trace::flags::cli_error;
use vlpp_trace::VlppError;

use crate::experiment::Scale;
use crate::microbench::{self, microbench_main, parse_microbench_args};
use crate::serve::{self, cluster, loadgen};
use crate::tournament::{self, parse_tournament_args, tournament_main};
use crate::{ingest, paper};

/// The flag cursor of one verb; it derefs to the core cursor for
/// `value`, `parse`, `num` and `unknown`.
#[derive(Debug)]
pub(crate) struct Flags<'a> {
    cursor: vlpp_trace::flags::Flags<'a>,
    /// `Some` when the verb takes `--scale`, which the cursor reads.
    scale: Option<Scale>,
    /// Whether `--scale` was given, not taken from `VLPP_SCALE`.
    scale_given: bool,
}

impl<'a> Flags<'a> {
    /// A cursor for a verb without `--scale`.
    pub(crate) fn new(args: &'a [String]) -> Self {
        Flags { cursor: vlpp_trace::flags::Flags::new(args), scale: None, scale_given: false }
    }

    /// A cursor for a verb that takes `--scale` (default `VLPP_SCALE`).
    pub(crate) fn with_scale(args: &'a [String]) -> Self {
        Flags { scale: Some(Scale::from_env()), ..Flags::new(args) }
    }

    /// The next word the verb must match, a flag or a positional; a
    /// `--scale` the verb takes is read here.
    pub(crate) fn next_flag(&mut self) -> Result<Option<&'a str>, VlppError> {
        while let Some(word) = self.cursor.next_flag() {
            match word {
                "--scale" if self.scale.is_some() => {
                    self.scale = Some(self.cursor.parse(Scale::parse, Scale::EXPECTED)?);
                    self.scale_given = true;
                }
                _ => return Ok(Some(word)),
            }
        }
        Ok(None)
    }

    /// The `--scale` read so far, for a cursor made by
    /// [`Flags::with_scale`].
    pub(crate) fn scale(&self) -> Scale {
        self.scale.expect("a verb reading --scale builds its cursor with Flags::with_scale")
    }

    /// Whether the arguments held a `--scale`.
    pub(crate) fn scale_given(&self) -> bool {
        self.scale_given
    }
}

impl<'a> Deref for Flags<'a> {
    type Target = vlpp_trace::flags::Flags<'a>;

    fn deref(&self) -> &Self::Target {
        &self.cursor
    }
}

impl DerefMut for Flags<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.cursor
    }
}

/// The environment variable `name` through `parse`: `None` when unset,
/// and when invalid, after a warning saying what happens `instead`.
pub(crate) fn env_knob<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Option<T>,
    expected: &str,
    instead: &str,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let value = parse(raw.trim());
    if value.is_none() {
        eprintln!("warning: ignoring invalid {name}=`{raw}` (expected {expected}); {instead}");
    }
    value
}

/// The `--index-bits` range of `run`, `profile` and `loadgen`: the
/// table widths the serve protocol's `train` verb accepts.
pub(crate) const INDEX_BITS: std::ops::RangeInclusive<u32> = 4..=24;

/// Prints the metrics table on stderr and one `METRICS {json}` line on
/// stdout, when `enabled`.
pub(crate) fn print_metrics(enabled: bool) {
    if enabled {
        // Metrics are observational, not part of a verb's output: the
        // table goes to stderr, and the machine-readable snapshot is one
        // self-delimiting stdout line consumers strip before diffing.
        let registry = vlpp_metrics::Registry::global();
        eprint!("{}", registry.render_table());
        println!("METRICS {}", registry.snapshot());
    }
}

/// One `vlpp` verb.
#[derive(Debug)]
pub struct Verb {
    /// The first argv word that selects it.
    pub name: &'static str,
    /// What `vlpp <name> --help` prints.
    pub usage: &'static str,
    /// Parses argv without acting on it.
    pub parse: fn(&[String]) -> Result<(), VlppError>,
    /// Parses argv and runs the verb.
    pub main: fn(&[String]) -> Result<ExitCode, VlppError>,
}

/// A [`Verb`] from its usage text, `parse_*_args` and `*_main`.
macro_rules! verb {
    ($name:literal, $usage:expr, $parse:expr, $main:expr) => {
        Verb {
            name: $name,
            usage: $usage,
            parse: |args| $parse(args).map(drop),
            main: |args| $main(args).map(|()| ExitCode::SUCCESS),
        }
    };
}

/// Every verb, in the order `vlpp --help` lists them. The first,
/// `vlpp <experiment>`, takes every argv that names none of the others.
pub const VERBS: [Verb; 9] = [
    Verb {
        name: "<experiment>",
        usage: paper::verb::USAGE,
        parse: |args| paper::verb::parse_experiment_args(args).map(drop),
        main: paper::verb::experiment_main,
    },
    verb!("serve", serve::SERVE_USAGE, serve::parse_serve_args, serve::serve_main),
    verb!("cluster", cluster::CLUSTER_USAGE, cluster::parse_cluster_args, cluster::cluster_main),
    verb!("loadgen", loadgen::LOADGEN_USAGE, loadgen::parse_loadgen_args, loadgen::loadgen_main),
    verb!("microbench", microbench::USAGE, parse_microbench_args, microbench_main),
    verb!("ingest", ingest::INGEST_USAGE, ingest::parse_ingest_args, ingest::ingest_main),
    verb!("run", ingest::RUN_USAGE, ingest::parse_run_args, ingest::run_main),
    verb!("profile", ingest::PROFILE_USAGE, ingest::parse_profile_args, ingest::profile_main),
    verb!("tournament", tournament::USAGE, parse_tournament_args, tournament_main),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn each_failure_has_one_shape() {
        let args = argv(&["--n", "7", "--n", "0", "--n", "x", "--xyz", "--n"]);
        let mut flags = Flags::new(&args);
        let next = |flags: &mut Flags| flags.next_flag().unwrap().unwrap().to_string();
        assert_eq!((next(&mut flags), flags.num::<u32>(1..=9).unwrap()), ("--n".into(), 7));
        for bad in ["0", "x"] {
            next(&mut flags);
            let error = flags.num::<u32>(1..=9).unwrap_err();
            let shape = format!("invalid --n=`{bad}`: expected an integer in 1..=9");
            assert_eq!((error.phase(), error.to_string()), ("config", shape));
        }
        next(&mut flags);
        assert_eq!(flags.unknown().to_string(), "unknown flag `--xyz`");
        next(&mut flags);
        let error = flags.num::<u32>(1..).unwrap_err();
        assert_eq!((error.phase(), error.to_string().as_str()), ("cli", "--n needs a value"));
        assert_eq!(flags.next_flag().unwrap(), None);
    }

    #[test]
    fn scale_is_read_by_the_cursor_only_where_the_verb_takes_it() {
        let args = argv(&["--scale", "ci", "--json"]);
        let mut flags = Flags::with_scale(&args);
        assert_eq!(flags.next_flag().unwrap(), Some("--json"));
        assert_eq!(flags.scale(), Scale::parse("1000000").unwrap());
        assert_eq!(Flags::new(&args).next_flag().unwrap(), Some("--scale"));
        let error = Flags::with_scale(&args[..1]).next_flag().unwrap_err();
        assert_eq!(error.to_string(), "--scale needs a value");
    }
}
