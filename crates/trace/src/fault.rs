//! The `VLPP_FAULT` fault plan: one grammar, one parser, one renderer,
//! and the plan armed for this process, which every injection hook
//! reads.
//!
//! `VLPP_FAULT` is a comma-separated list of items:
//!
//! ```text
//! panic@N            panic inside `vlpp all` experiment N
//! stall@N:MS         sleep MS ms inside `vlpp all` experiment N
//! netdrop@N          fail frame operation N without touching the socket
//! netstall@N:MS      sleep MS ms before frame operation N proceeds
//! nettrunc@N:BYTES   emit only the first BYTES wire bytes of the frame
//!                    written at operation N, then fail
//! ```
//!
//! Experiment numbers count from 0: `N` is the experiment's position in
//! the run's experiment list (`vlpp all` order, narrowed by `--only`),
//! so resuming from a checkpoint does not renumber the plan. Frame
//! numbers count from 1, once per frame read or write in the process
//! ([`crate::frame`]), so `netdrop@0` is an error. Every item fires, each
//! at its own number.
//!
//! One malformed item makes the whole plan invalid: [`armed`] then warns
//! once on stderr and injects nothing, so a typo can never turn the
//! fault hook into a crash of its own. [`Fault`]'s `Display` renders an
//! item in exactly the grammar [`parse_plan`] reads.
//!
//! ```
//! use vlpp_trace::fault::{parse_plan, Fault};
//!
//! let plan = parse_plan("panic@2, netstall@3:50").unwrap();
//! assert_eq!(plan, vec![Fault::Panic { at: 2 }, Fault::NetStall { at: 3, ms: 50 }]);
//! assert_eq!(plan[1].to_string(), "netstall@3:50");
//! assert!(parse_plan("netdrop@0,panic@1").unwrap_err().contains("`netdrop@0`"));
//! ```

use std::fmt;
use std::sync::OnceLock;

/// One item of a `VLPP_FAULT` plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `panic@N`: panic inside `vlpp all` experiment `at`.
    Panic {
        /// 0-based position of the experiment in the run.
        at: u64,
    },
    /// `stall@N:MS`: sleep `ms` milliseconds inside experiment `at`.
    Stall {
        /// 0-based position of the experiment in the run.
        at: u64,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// `netdrop@N`: fail frame operation `at` without touching the
    /// socket, as if the connection vanished at a frame boundary.
    NetDrop {
        /// 1-based frame sequence number.
        at: u64,
    },
    /// `netstall@N:MS`: sleep `ms` milliseconds before frame operation
    /// `at` proceeds, exercising peer read deadlines.
    NetStall {
        /// 1-based frame sequence number.
        at: u64,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// `nettrunc@N:BYTES`: a write at frame operation `at` emits only
    /// its first `bytes` wire bytes and then fails, so the peer sees a
    /// mid-frame disconnect; at a read it behaves like `netdrop`.
    NetTrunc {
        /// 1-based frame sequence number.
        at: u64,
        /// Wire bytes (prefix + payload) to emit before failing.
        bytes: u64,
    },
}

impl fmt::Display for Fault {
    /// The item in `VLPP_FAULT` grammar; items joined with `,` form a
    /// plan.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::Panic { at } => write!(f, "panic@{at}"),
            Fault::Stall { at, ms } => write!(f, "stall@{at}:{ms}"),
            Fault::NetDrop { at } => write!(f, "netdrop@{at}"),
            Fault::NetStall { at, ms } => write!(f, "netstall@{at}:{ms}"),
            Fault::NetTrunc { at, bytes } => write!(f, "nettrunc@{at}:{bytes}"),
        }
    }
}

/// Parses a whole `VLPP_FAULT` value. Items are trimmed and empty items
/// skipped.
///
/// # Errors
///
/// A diagnostic that quotes the first malformed item (unknown kind,
/// missing or non-numeric field, extra field, or frame number 0).
pub fn parse_plan(value: &str) -> Result<Vec<Fault>, String> {
    let mut plan = Vec::new();
    for item in value.split(',').map(str::trim).filter(|item| !item.is_empty()) {
        let bad = |why: &str| format!("`{item}`: {why}");
        let number = |field: &str| field.parse::<u64>().ok();
        let (kind, rest) = item.split_once('@').ok_or_else(|| bad("expected KIND@N"))?;
        let mut fields = rest.split(':');
        let at = fields
            .next()
            .and_then(number)
            .ok_or_else(|| bad("N must be a non-negative integer"))?;
        let arg = fields.next();
        if fields.next().is_some() {
            return Err(bad("too many `:`-separated fields"));
        }
        if kind.starts_with("net") && at == 0 {
            return Err(bad("frame numbers count from 1"));
        }
        let fault = match (kind, arg) {
            ("panic", None) => Fault::Panic { at },
            ("netdrop", None) => Fault::NetDrop { at },
            ("panic" | "netdrop", Some(_)) => return Err(bad("takes no `:` field")),
            ("stall" | "netstall" | "nettrunc", arg) => {
                let Some(value) = arg.and_then(number) else {
                    let unit = if kind == "nettrunc" { "BYTES" } else { "MS" };
                    return Err(bad(&format!("expected `{kind}@N:{unit}`")));
                };
                match kind {
                    "stall" => Fault::Stall { at, ms: value },
                    "netstall" => Fault::NetStall { at, ms: value },
                    _ => Fault::NetTrunc { at, bytes: value },
                }
            }
            (other, _) => return Err(bad(&format!("unknown fault kind `{other}`"))),
        };
        plan.push(fault);
    }
    Ok(plan)
}

/// The plan armed for this process: `VLPP_FAULT` parsed on first use
/// and kept for the life of the process. Empty when the variable is
/// unset; an invalid plan warns once on stderr and is empty too.
pub fn armed() -> &'static [Fault] {
    static PLAN: OnceLock<Vec<Fault>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let Ok(raw) = std::env::var("VLPP_FAULT") else {
            return Vec::new();
        };
        parse_plan(&raw).unwrap_or_else(|message| {
            eprintln!("warning: ignoring invalid VLPP_FAULT: {message}");
            Vec::new()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        assert_eq!(parse_plan("panic@3"), Ok(vec![Fault::Panic { at: 3 }]));
        assert_eq!(parse_plan("panic@0"), Ok(vec![Fault::Panic { at: 0 }]));
        assert_eq!(parse_plan(" stall@7:250 "), Ok(vec![Fault::Stall { at: 7, ms: 250 }]));
        assert_eq!(parse_plan(""), Ok(vec![]));
    }

    #[test]
    fn parses_each_net_kind() {
        for (item, fault) in [
            ("netdrop@1", Fault::NetDrop { at: 1 }),
            ("netstall@5:0", Fault::NetStall { at: 5, ms: 0 }),
            ("nettrunc@7:0", Fault::NetTrunc { at: 7, bytes: 0 }),
            ("netdrop@18446744073709551615", Fault::NetDrop { at: u64::MAX }),
            ("nettrunc@2:18446744073709551615", Fault::NetTrunc { at: 2, bytes: u64::MAX }),
        ] {
            assert_eq!(parse_plan(item), Ok(vec![fault]), "{item}");
        }
    }

    #[test]
    fn parses_lists_mixing_task_and_net_kinds() {
        assert_eq!(
            parse_plan("panic@3,netdrop@2, stall@9:50 ,,nettrunc@4:1"),
            Ok(vec![
                Fault::Panic { at: 3 },
                Fault::NetDrop { at: 2 },
                Fault::Stall { at: 9, ms: 50 },
                Fault::NetTrunc { at: 4, bytes: 1 },
            ])
        );
        // Nothing is skipped or merged: repeats stay, in order.
        assert_eq!(
            parse_plan("panic@1,panic@1,netdrop@1"),
            Ok(vec![Fault::Panic { at: 1 }, Fault::Panic { at: 1 }, Fault::NetDrop { at: 1 }])
        );
    }

    #[test]
    fn network_fault_items_belong_to_the_frame_layer() {
        assert_eq!(parse_plan("netdrop@3"), Ok(vec![Fault::NetDrop { at: 3 }]));
        assert_eq!(parse_plan("netstall@5:200"), Ok(vec![Fault::NetStall { at: 5, ms: 200 }]));
        assert_eq!(parse_plan("nettrunc@7:10"), Ok(vec![Fault::NetTrunc { at: 7, bytes: 10 }]));
    }

    #[test]
    fn rejects_malformed_plans_with_diagnostics() {
        for (bad, needle) in [
            ("panic", "KIND@N"),
            ("panic@", "non-negative"),
            ("panic@x", "non-negative"),
            ("panic@3:9", "no `:` field"),
            ("stall@3", "`stall@N:MS`"),
            ("stall@3:x", "`stall@N:MS`"),
            ("stall@3:10:5", "too many"),
            ("fuzz@1", "unknown fault kind `fuzz`"),
        ] {
            let error = parse_plan(bad).unwrap_err();
            assert!(error.starts_with(&format!("`{bad}`")), "{bad}: {error}");
            assert!(error.contains(needle), "{bad}: {error}");
        }
        // One bad item invalidates the whole plan, wherever it sits.
        assert!(parse_plan("panic@1,stall@2").unwrap_err().contains("`stall@2`"));
    }

    #[test]
    fn rejects_malformed_net_items_with_diagnostics() {
        for (bad, needle) in [
            ("netdrop@0", "count from 1"),
            ("netstall@0:5", "count from 1"),
            ("nettrunc@0:5", "count from 1"),
            ("netdrop@", "non-negative"),
            ("netdrop@-1", "non-negative"),
            ("netdrop@2:9", "no `:` field"),
            ("netstall@2", "`netstall@N:MS`"),
            ("netstall@2:x", "`netstall@N:MS`"),
            ("nettrunc@2", "`nettrunc@N:BYTES`"),
            ("nettrunc@2:a", "`nettrunc@N:BYTES`"),
            ("netfuzz@1", "unknown fault kind `netfuzz`"),
            ("netdrop", "KIND@N"),
            ("netdrop@1:2:3", "too many"),
        ] {
            let error = parse_plan(bad).unwrap_err();
            assert!(error.starts_with(&format!("`{bad}`")), "{bad}: {error}");
            assert!(error.contains(needle), "{bad}: {error}");
        }
        // A bad frame item invalidates the task items beside it too.
        assert!(parse_plan("netdrop@0,panic@1").unwrap_err().contains("`netdrop@0`"));
        assert!(parse_plan("panic@1,netstall@2").unwrap_err().contains("`netstall@2`"));
    }

    #[test]
    fn exec_faults_render_the_hook_grammar() {
        assert_eq!(Fault::Panic { at: 3 }.to_string(), "panic@3");
        assert_eq!(Fault::Stall { at: 7, ms: 250 }.to_string(), "stall@7:250");
    }

    #[test]
    fn net_faults_render_the_frame_hook_grammar() {
        assert_eq!(Fault::NetDrop { at: 3 }.to_string(), "netdrop@3");
        assert_eq!(Fault::NetStall { at: 5, ms: 40 }.to_string(), "netstall@5:40");
        assert_eq!(Fault::NetTrunc { at: 7, bytes: 2 }.to_string(), "nettrunc@7:2");
    }
}
