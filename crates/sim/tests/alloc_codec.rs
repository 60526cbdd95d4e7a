//! Allocation pin for the serve codec: decoding one 8-record `predict`
//! frame and encoding its response must stay within a fixed number of
//! heap allocations, so a later change cannot bring back the owned
//! JSON tree (one `String` per key and per string value) without
//! failing here. The same test pins `JsonValue`'s compact `Display`,
//! which every tree-built response and `METRICS`/`BENCH`/`TOURNEY` line
//! goes through.
//!
//! A counting `#[global_allocator]` tallies allocations per thread; the
//! test reads only its own thread's count, so the harness's threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vlpp_sim::serve::protocol::{
    ok_response, parse_request, predict_response, predictions_to_json, record_to_json, Verb,
};
use vlpp_sim::serve::Prediction;
use vlpp_trace::json::JsonValue;
use vlpp_trace::{Addr, BranchRecord};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each keeps `System`'s layout and pointer guarantees; the counter
// is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Allocations to decode an 8-record `predict` frame: the borrowed
/// tree (the top object, the records array growing 4 → 8, one field
/// list per record), then the `Request`'s model name and record vector.
/// The owned-tree decoder this replaced took 65.
const MAX_PARSE_ALLOCATIONS: usize = 13;

/// Allocations to encode the 8-slot response: the one output buffer.
/// `ok_response(..).to_string()` took 35.
const MAX_ENCODE_ALLOCATIONS: usize = 1;

/// Allocations for `to_string()` of the same response as a prebuilt
/// tree (~330 bytes): only the doubling growth of the output `String`
/// (8 → 512 bytes), since `Display` streams into it. Rendering into a
/// temporary `String` and copying that over took 8.
const MAX_TO_STRING_ALLOCATIONS: usize = 7;

#[test]
fn predict_codec_allocations_stay_pinned() {
    let records: Vec<BranchRecord> = (0..8u64)
        .map(|i| {
            let (pc, target) = (Addr::new(0x40_1000 + 8 * i), Addr::new(0x40_2000 + 16 * i));
            match i % 4 {
                0 | 1 => BranchRecord::conditional(pc, target, i % 3 == 0),
                2 => BranchRecord::indirect(pc, target),
                _ => BranchRecord::call(pc, target),
            }
        })
        .collect();
    let frame = JsonValue::Object(vec![
        ("verb".to_string(), JsonValue::Str("predict".to_string())),
        ("id".to_string(), JsonValue::UInt(12_345)),
        ("model".to_string(), JsonValue::Str("gcc-cond".to_string())),
        ("records".to_string(), JsonValue::Array(records.iter().map(record_to_json).collect())),
    ])
    .to_string()
    .into_bytes();
    let slots: Vec<Option<Prediction>> = records
        .iter()
        .map(|record| match record.kind() {
            vlpp_trace::BranchKind::Conditional => {
                Some(Prediction::Taken { taken: record.taken(), correct: true })
            }
            vlpp_trace::BranchKind::Indirect => {
                Some(Prediction::Target { target: record.target(), correct: false })
            }
            _ => None,
        })
        .collect();

    let (parse, request) = allocations(|| parse_request(&frame).unwrap());
    let Verb::Predict { records: decoded, .. } = &request.verb else {
        panic!("decoded {:?}", request.verb)
    };
    assert_eq!(decoded, &records);
    let (encode, response) = allocations(|| predict_response(request.id, &slots));
    assert!(response.starts_with(br#"{"ok":true,"verb":"predict","id":12345,"predictions":["#));

    let tree = ok_response(
        "predict",
        request.id,
        vec![("predictions".to_string(), predictions_to_json(&slots))],
    );
    let (to_string, text) = allocations(|| tree.to_string());
    assert_eq!(text.as_bytes(), response, "the tree renders the same bytes");

    println!(
        "parse_request: {parse} allocations; predict_response: {encode}; \
         to_string: {to_string}"
    );
    assert!(
        parse <= MAX_PARSE_ALLOCATIONS,
        "parse_request made {parse} allocations, pinned at {MAX_PARSE_ALLOCATIONS}"
    );
    assert!(
        encode <= MAX_ENCODE_ALLOCATIONS,
        "predict_response made {encode} allocations, pinned at {MAX_ENCODE_ALLOCATIONS}"
    );
    assert!(
        to_string <= MAX_TO_STRING_ALLOCATIONS,
        "to_string made {to_string} allocations, pinned at {MAX_TO_STRING_ALLOCATIONS}"
    );
}
