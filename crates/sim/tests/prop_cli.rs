//! Property tests for the one flag grammar: for every verb and every
//! flag its usage text shows, an unknown flag and a missing value are
//! `Cli` errors naming the flag, and a bad value is a `Config` error
//! carrying the flag and the value: never a panic, never a default.

use std::collections::BTreeMap;

use vlpp_check::{check, prop_assert, CheckConfig, Failed, Gen, PropResult};
use vlpp_sim::cli::{Verb, VERBS};
use vlpp_trace::VlppError;

/// Usage placeholders for numbers. Garbage for these or a `a|b` choice
/// is rejected; a string (FILE, NAME, …) is taken as given.
const NUMBERS: [&str; 5] = ["N", "MS", "K", "H", "BATCHES"];

/// The flags a usage text shows: `None` for a switch, else whether the
/// value is typed (a number or a choice).
fn usage_flags(usage: &str) -> BTreeMap<String, Option<bool>> {
    let words: Vec<&str> = usage.split_whitespace().collect();
    let mut flags = BTreeMap::new();
    for (i, word) in words.iter().enumerate() {
        for piece in word.split('/') {
            let name = piece.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-');
            if !name.starts_with("--") || name == "--help" {
                continue;
            }
            // A placeholder follows a flag that ends its word.
            let placeholder = words
                .get(i + 1)
                .filter(|_| piece.trim_start_matches(['[', '(']) == name)
                .map(|next| next.trim_end_matches([']', ')']))
                .filter(|p| {
                    p.contains('|')
                        || p.chars().all(|c| c.is_ascii_uppercase() || ":,.".contains(c))
                })
                .filter(|p| !p.is_empty());
            let value = placeholder.map(|p| p.contains('|') || NUMBERS.contains(&p));
            let known = flags.entry(name.to_string()).or_insert(None);
            *known = (*known).max(value);
        }
    }
    flags
}

/// Arguments that make the verb parse (its required target or input),
/// then `extra`.
fn base(verb: &Verb, extra: &[&str]) -> Vec<String> {
    let words: &[&str] = match verb.name {
        "<experiment>" => &["headline"],
        "loadgen" => &["--addr", "127.0.0.1:9"],
        "ingest" => &["in.csv"],
        "run" | "profile" => &["--benchmark", "gcc"],
        _ => &[],
    };
    words.iter().chain(extra).map(|w| w.to_string()).collect()
}

fn word(g: &mut Gen) -> String {
    g.vec(1, 8, |g| char::from(*g.choose(b"abcxyz0189-_"))).into_iter().collect()
}

/// Not a number, a negative number, or one above `u64::MAX`.
fn bad_value(g: &mut Gen) -> String {
    match g.below(3) {
        0 => format!("x{}", word(g)),
        1 => format!("-{}", 1 + g.below(1000)),
        _ => format!("{}{:019}", 2 + g.below(8), g.below(10_000_000_000_000_000_000)),
    }
}

/// Whether `result` is a `Cli` error whose message contains `what`.
fn names(result: &Result<(), VlppError>, what: &str) -> bool {
    matches!(result, Err(VlppError::Cli { message }) if message.contains(what))
}

fn grammar_holds(
    verb: &Verb,
    parse: &dyn Fn(&[String]) -> Result<(), VlppError>,
    g: &mut Gen,
) -> PropResult {
    let unknown = format!("--zz{}", word(g));
    let result = parse(&base(verb, &[&unknown]));
    prop_assert!(names(&result, &unknown), "{} {}: {:?}", verb.name, unknown, result);
    for (flag, value) in usage_flags(verb.usage) {
        let Some(typed) = value else { continue };
        let result = parse(&base(verb, &[&flag]));
        prop_assert!(names(&result, &format!("{flag} needs a value")), "{}: {:?}", flag, result);
        let bad = bad_value(g);
        match parse(&base(verb, &[&flag, &bad])) {
            Err(VlppError::Config { name, value, .. }) if name == flag && value == bad => {}
            // A string is taken as given; the verb's own cross-flag
            // checks (`--only` lists, target rules) may still refuse it.
            Ok(()) | Err(VlppError::Cli { .. }) if !typed => {}
            other => return Err(Failed::new(format!("{} {flag} {bad}: {other:?}", verb.name))),
        }
    }
    Ok(())
}

#[test]
fn every_verb_types_its_flag_errors() {
    for verb in &VERBS {
        let flags = usage_flags(verb.usage);
        assert!((verb.parse)(&base(verb, &[])).is_ok(), "{}: the base argv parses", verb.name);
        assert!(flags.values().any(|value| *value == Some(true)), "{}", verb.name);
        if flags.contains_key("--scale") {
            assert!((verb.parse)(&base(verb, &["--scale", "ci"])).is_ok(), "{}", verb.name);
        }
    }
    check("every_verb_types_its_flag_errors", CheckConfig::with_cases(64), |g| {
        VERBS.iter().try_for_each(|verb| grammar_holds(verb, &verb.parse, g))
    });
}

/// The property is not vacuous: a cursor that maps a bad value to the
/// flag's default fails it on every verb.
#[test]
fn a_cursor_that_defaults_bad_values_fails_the_property() {
    for verb in &VERBS {
        let defaulting = |args: &[String]| match (verb.parse)(args) {
            Err(VlppError::Config { .. }) => Ok(()),
            other => other,
        };
        let caught =
            (0..16).any(|seed| grammar_holds(verb, &defaulting, &mut Gen::new(seed)).is_err());
        assert!(caught, "{}: a defaulting cursor passed", verb.name);
    }
}
