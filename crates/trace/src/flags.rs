//! The one flag grammar every command-line tool in the workspace reads
//! its arguments through.
//!
//! A tool matches each word [`Flags`] yields and asks the cursor for its
//! value, so every tool fails alike: an unknown flag or a missing value
//! is [`VlppError::Cli`] naming the flag, and a value that does not parse
//! or is out of range is [`VlppError::Config`] with the flag, the value
//! and the expected range. Checks that compare several flags stay with
//! their tool and stay `Cli`.

use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

use crate::VlppError;

/// A command-line error that names no single flag value.
pub fn cli_error(message: impl Into<String>) -> VlppError {
    VlppError::Cli { message: message.into() }
}

/// A cursor over one tool's arguments.
#[derive(Debug)]
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The word [`Flags::next_flag`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// A cursor at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Flags { args: args.iter(), flag: "" }
    }

    /// The next word the tool must match, a flag or a positional.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value, taken as given; [`VlppError::Cli`] when
    /// the arguments end first.
    pub fn value(&mut self) -> Result<&'a str, VlppError> {
        let flag = self.flag;
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| cli_error(format!("{flag} needs a value")))
    }

    /// The current flag's value through `parse`, which may reject it as
    /// not the `expected` value ([`VlppError::Config`]).
    pub fn parse<T>(
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
    pub fn num<T>(&mut self, range: impl RangeBounds<T>) -> Result<T, VlppError>
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

    /// The error for a word the tool does not take.
    pub fn unknown(&self) -> VlppError {
        let what = if self.flag.starts_with('-') { "unknown flag" } else { "unexpected argument" };
        cli_error(format!("{what} `{}`", self.flag))
    }
}
