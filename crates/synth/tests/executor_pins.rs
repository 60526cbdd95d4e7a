//! Pins the executor's output, record for record, for every workload the
//! harness runs: the 16 suite benchmarks and the 6 hard workloads, on
//! both input sets, through both collection paths
//! (`execute_conditionals_with_loads` and `Executor` as an iterator).
//!
//! Each case folds FNV-1a over `(pc, target, kind, taken, load)` of every
//! record. Any change to the executor's decisions, its RNG draws, its
//! shadow-path or loop-counter bookkeeping, or the load channel moves a
//! hash; an optimisation of the executor must leave them all unchanged.

use vlpp_synth::{hard, suite, ExecutionLimits, Executor, InputSet, Program};
use vlpp_trace::BranchRecord;

/// Conditionals collected per case on the `execute_conditionals_with_loads`
/// path.
const CONDITIONALS: u64 = 20_000;

/// Records taken per case on the iterator path.
const RECORDS: usize = 20_000;

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over each record's `(pc, target, kind, taken, load)`.
fn fold(records: &[BranchRecord], loads: &[u64]) -> u64 {
    assert_eq!(records.len(), loads.len());
    records.iter().zip(loads).fold(0xcbf2_9ce4_8422_2325, |h, (r, &load)| {
        let h = fnv(h, r.pc().raw());
        let h = fnv(h, r.target().raw());
        let h = fnv(h, r.kind() as u64);
        let h = fnv(h, u64::from(r.taken()));
        fnv(h, load)
    })
}

/// `[test, profile]` by conditional count, then `[test, profile]` by
/// record count (the iterator, with each record's load read from
/// `Executor::load_value` as it retires).
fn hashes(program: &Program) -> [u64; 4] {
    let by_conditionals = |input| {
        let (trace, loads) = program.execute_conditionals_with_loads(input, CONDITIONALS);
        assert_eq!(trace.conditionals().count() as u64, CONDITIONALS);
        fold(trace.records(), &loads)
    };
    let by_take = |input| {
        let mut exec = Executor::new(program, input, ExecutionLimits::default());
        let (records, loads): (Vec<BranchRecord>, Vec<u64>) = (0..RECORDS)
            .map(|_| {
                let record = exec.next().expect("executor is infinite");
                (record, exec.load_value())
            })
            .unzip();
        fold(&records, &loads)
    };
    [
        by_conditionals(InputSet::Test),
        by_conditionals(InputSet::Profile),
        by_take(InputSet::Test),
        by_take(InputSet::Profile),
    ]
}

/// Expected hashes, in `workloads()` order, captured from the executor
/// that cloned each block, collected the shadow path into a `Vec` and
/// kept loop counters in a map: the reference the allocation-free
/// executor must reproduce.
const PINS: &[(&str, [u64; 4])] = &[
    ("compress", [0xae9a56fc7670def0, 0x3d7a38e36f13d099, 0x8aee4b01c6cbe21c, 0xd84cb86bfadb9df1]),
    ("gcc", [0x1c2fe6c3a1741b43, 0xd1b66e93ea8c334d, 0xa516def00a13eb9b, 0x0f9b2dc2ac508b3d]),
    ("go", [0xc804e58601291de4, 0xbc509a0241f217f3, 0x53e5da28f02a1fc5, 0x7d1f5d36dda28f0f]),
    ("ijpeg", [0xf752e37b36b1546d, 0xa83879593ba41a1c, 0xb3ce81c395105c1e, 0xfb96f8ac07767c65]),
    ("li", [0x0435fe0b203df3fe, 0x3174fdf66d2d0964, 0xde92bb55b8512202, 0xc5c438c280d9a016]),
    ("m88ksim", [0x065a3bafb4972afc, 0x17e63dc0374e17ce, 0x0e7cd1d3fabb8cfe, 0x290979e65f9d02d0]),
    ("perl", [0xc5cf2cdeb3537ab0, 0x96def84b7b94febb, 0xf6a420fcd6b43b6a, 0x673e5e8d21686f70]),
    ("vortex", [0x6a9913e24080351d, 0xb481a0152181ac3c, 0x5802f3d14f587979, 0x41c58a902cd7ca39]),
    ("chess", [0x7b83d4ab1b8f5cae, 0x582568c9c3d20182, 0x9abdc9959f1975c6, 0x5e593f75f3f072ca]),
    ("groff", [0xa5988dda5c1a0c8b, 0xd3182a74f0231676, 0x4c7796f8901962fc, 0x2201fa78f65beb4d]),
    ("gs", [0x439f8ce27a2f4f0b, 0x3e5adb5ac1160de5, 0x79ac5c14991264ab, 0xedba231eb3473b07]),
    ("pgp", [0xdbb3d7c3eece685e, 0xedc2ecbd5f2fd1ea, 0x992aea63601de3c6, 0x3995111fc1107ee5]),
    ("plot", [0xa9d540cae22d6684, 0xeef24e3534702885, 0xebf72bbdf11dcecb, 0xd04a3b65f013fc88]),
    ("python", [0xfabde317c692eeef, 0x6f64168ad770a3ec, 0xc2373c8ae4f04946, 0xff8beb887f5def4c]),
    ("ss", [0x7d9f471f726702f2, 0x4364198c6d5b33f7, 0x269d1d2fc5c1567b, 0xfe2e6dcefb0ea01a]),
    ("tex", [0x90c37072936e635b, 0x1a5f150d855c9db2, 0x55eb4f71c308c879, 0x141060ea8c304ce5]),
    (
        "hard-noise",
        [0x76ac44d3abf2352f, 0x49cf16f173d68da5, 0x8d68207fd53f9e9d, 0x82b3280fe3c193a7],
    ),
    (
        "hard-noise-long",
        [0x20a9222fd1eb372e, 0x06e1d500ec05c614, 0xc917131a7030ff49, 0xb60c3975bac61a55],
    ),
    ("hard-data", [0x662e4f690d573b17, 0xcb27af7bdd8f78ab, 0x8d28e2324c8cfeb6, 0x6455b1d7803888e2]),
    (
        "hard-load-path",
        [0xcda2acdc5f83ae66, 0xabbad090bcfc2c0d, 0x769f17b8bb18dc0c, 0x7349db21fdb05bb7],
    ),
    (
        "hard-phase",
        [0x5a3e3ac355a70f29, 0x94708a50ee44fc45, 0xb388898517857104, 0x8d96af3756ce7502],
    ),
    (
        "hard-phase-fast",
        [0xe6189bd56034d6e2, 0xed6952f7337d9898, 0x0dbb673b8fdff380, 0xee016bb3277037f7],
    ),
];

/// Every workload the harness runs: the suite, then the hard family.
fn workloads() -> impl Iterator<Item = (String, Program)> {
    suite::all_benchmarks()
        .into_iter()
        .map(|spec| (spec.name.clone(), spec.build_program()))
        .chain(hard::all().into_iter().map(|w| (w.name.to_string(), w.build_program())))
}

/// The executor keys loop counters by block where it once keyed them by
/// branch pc; that is the same thing only while no two blocks share a
/// pc, which `validate` checks.
#[test]
fn every_workload_program_validates() {
    for (name, program) in workloads() {
        assert_eq!(program.validate(), Ok(()), "{name}");
    }
}

#[test]
fn every_workload_trace_is_pinned() {
    let mut got = Vec::new();
    for (name, program) in workloads() {
        got.push((name, hashes(&program)));
    }
    let listing: String = got
        .iter()
        .map(|(n, h)| {
            format!(
                "    (\"{n}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                h[0], h[1], h[2], h[3]
            )
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "workload set changed:\n{listing}");
    for ((name, hashes), &(pin_name, pin)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name, "workload order changed:\n{listing}");
        assert_eq!(hashes, &pin, "{name}: trace moved:\n{listing}");
    }
}
