//! Property tests for the one `VLPP_FAULT` grammar: every plan renders
//! through `Display` and parses back equal, damaged plans never panic
//! the parser, and one malformed item leaves the whole plan inert.

use vlpp_check::{check, prop_assert, prop_assert_eq, CheckConfig, Failed, Gen};
use vlpp_trace::fault::{parse_plan, Fault};

/// A number biased toward the edges: 0, 1, `u64::MAX`, or anything.
fn arb_number(g: &mut Gen) -> u64 {
    match g.below(4) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        _ => g.u64(),
    }
}

/// Any fault of the five kinds; frame numbers count from 1.
fn arb_fault(g: &mut Gen) -> Fault {
    let (at, arg) = (arb_number(g), arb_number(g));
    match g.below(5) {
        0 => Fault::Panic { at },
        1 => Fault::Stall { at, ms: arg },
        2 => Fault::NetDrop { at: at.max(1) },
        3 => Fault::NetStall { at: at.max(1), ms: arg },
        _ => Fault::NetTrunc { at: at.max(1), bytes: arg },
    }
}

fn render(plan: &[Fault]) -> String {
    plan.iter().map(Fault::to_string).collect::<Vec<_>>().join(",")
}

#[test]
fn rendered_plans_parse_back_equal() {
    check("rendered_plans_parse_back_equal", CheckConfig::default(), |g| {
        let plan = g.vec(1, 4, arb_fault);
        let text = render(&plan);
        prop_assert_eq!(parse_plan(&text), Ok(plan.clone()));
        Ok(())
    });
}

/// Truncating a valid plan at every offset, or replacing any one byte,
/// either parses or fails with a diagnostic that quotes a whole item of
/// the damaged input.
#[test]
fn damaged_plans_parse_or_quote_the_bad_item() {
    const BYTES: &[u8] = b"@:,0123456789 xpanicstallnetdroptrunc\x00\xff-+";
    check("damaged_plans_parse_or_quote_the_bad_item", CheckConfig::with_cases(64), |g| {
        let text = render(&g.vec(1, 4, arb_fault));
        let mut damaged: Vec<String> = (0..text.len()).map(|cut| text[..cut].to_string()).collect();
        for at in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = *g.choose(BYTES);
            damaged.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        for input in &damaged {
            if let Err(message) = parse_plan(input) {
                let quoted = input
                    .split(',')
                    .map(str::trim)
                    .any(|item| !item.is_empty() && message.starts_with(&format!("`{item}`: ")));
                prop_assert!(quoted, "`{}` gave a diagnostic without its item: {}", input, message);
            }
        }
        Ok(())
    });
}

/// A valid plan with one malformed item anywhere in it arms nothing.
#[test]
fn one_malformed_item_invalidates_the_whole_plan() {
    const MALFORMED: [&str; 6] =
        ["netdrop@0", "panic@1:9", "stall@3", "fuzz@1", "nettrunc@2:x", "panic"];
    check("one_malformed_item_invalidates_the_whole_plan", CheckConfig::default(), |g| {
        let mut items: Vec<String> = g.vec(0, 3, arb_fault).iter().map(Fault::to_string).collect();
        let bad = *g.choose(&MALFORMED);
        let at = g.range_usize(0, items.len());
        items.insert(at, bad.to_string());
        let text = items.join(",");
        match parse_plan(&text) {
            Ok(plan) => return Err(Failed::new(format!("`{text}` armed {plan:?}"))),
            Err(message) => prop_assert!(message.contains(bad), "`{}`: {}", text, message),
        }
        Ok(())
    });
    assert!(parse_plan("netdrop@0,panic@1").is_err(), "the documented mixed example");
}
