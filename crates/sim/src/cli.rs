//! The one flag grammar every `vlpp` verb reads its arguments through.
//!
//! A verb matches each flag `Flags` yields and asks the cursor for its
//! value, so every verb fails alike: an unknown flag or a missing value
//! is [`VlppError::Cli`] naming the flag, and a value that does not parse
//! or is out of range is [`VlppError::Config`] with the flag, the value
//! and the expected range. Checks that compare several flags (`--trace`
//! with `--benchmark`, loadgen's target rules, `--only` lists) stay with
//! their verb and stay `Cli`. [`VERBS`] is the table the `vlpp` binary
//! dispatches from, answering `--help` and `-h` for every verb.

use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::process::ExitCode;
use std::str::FromStr;

use vlpp_trace::VlppError;

use crate::experiment::Scale;
use crate::microbench::{self, microbench_main, parse_microbench_args};
use crate::serve::{self, cluster, loadgen};
use crate::tournament::{self, parse_tournament_args, tournament_main};
use crate::{ingest, paper};

/// A command-line error that names no single flag value.
pub(crate) fn cli_error(message: impl Into<String>) -> VlppError {
    VlppError::Cli { message: message.into() }
}

/// A cursor over one verb's arguments.
#[derive(Debug)]
pub(crate) struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The word [`Flags::next_flag`] returned last.
    flag: &'a str,
    /// `Some` when the verb takes `--scale`, which the cursor reads.
    scale: Option<Scale>,
}

impl<'a> Flags<'a> {
    /// A cursor for a verb without `--scale`.
    pub(crate) fn new(args: &'a [String]) -> Self {
        Flags { args: args.iter(), flag: "", scale: None }
    }

    /// A cursor for a verb that takes `--scale` (default `VLPP_SCALE`).
    pub(crate) fn with_scale(args: &'a [String]) -> Self {
        Flags { scale: Some(Scale::from_env()), ..Flags::new(args) }
    }

    /// The next word the verb must match, a flag or a positional; a
    /// `--scale` the verb takes is read here.
    pub(crate) fn next_flag(&mut self) -> Result<Option<&'a str>, VlppError> {
        while let Some(word) = self.args.next() {
            self.flag = word;
            match word.as_str() {
                "--scale" if self.scale.is_some() => {
                    self.scale = Some(self.parse(Scale::parse, Scale::EXPECTED)?);
                }
                _ => return Ok(Some(word)),
            }
        }
        Ok(None)
    }

    /// The current flag's value, taken as given.
    pub(crate) fn value(&mut self) -> Result<&'a str, VlppError> {
        let flag = self.flag;
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| cli_error(format!("{flag} needs a value")))
    }

    /// The current flag's value through `parse`, which may reject it as
    /// not the `expected` value.
    pub(crate) fn parse<T>(
        &mut self,
        parse: impl FnOnce(&str) -> Option<T>,
        expected: &str,
    ) -> Result<T, VlppError> {
        let value = self.value()?;
        parse(value).ok_or_else(|| VlppError::Config {
            name: self.flag.to_string(),
            value: value.to_string(),
            message: format!("expected {expected}"),
        })
    }

    /// The current flag's value as an integer within `range`.
    pub(crate) fn num<T>(&mut self, range: impl RangeBounds<T>) -> Result<T, VlppError>
    where
        T: FromStr + PartialOrd + Display,
    {
        let expected = match (range.start_bound(), range.end_bound()) {
            (Bound::Included(lo), Bound::Included(hi)) => format!("an integer in {lo}..={hi}"),
            (Bound::Included(lo), _) => format!("an integer >= {lo}"),
            _ => "an integer".to_string(),
        };
        self.parse(|value| value.parse().ok().filter(|n| range.contains(n)), &expected)
    }

    /// The error for a word the verb does not take.
    pub(crate) fn unknown(&self) -> VlppError {
        let what = if self.flag.starts_with('-') { "unknown flag" } else { "unexpected argument" };
        cli_error(format!("{what} `{}`", self.flag))
    }

    /// The `--scale` read so far, for a cursor made by
    /// [`Flags::with_scale`].
    pub(crate) fn scale(&self) -> Scale {
        self.scale.expect("a verb reading --scale builds its cursor with Flags::with_scale")
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
