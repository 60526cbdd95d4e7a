//! Branch records: one executed control transfer.

use std::fmt;

use crate::json::{JsonValue, ToJson};
use crate::Addr;

/// The kind of a control-transfer instruction.
///
/// The distinction matters to the predictors in two ways:
///
/// * only **conditional** branches are predicted by conditional-direction
///   predictors, and only **indirect** branches by indirect-target
///   predictors (returns are excluded, as in the paper: they are handled
///   by a return address stack and "are not predicted by the indirect
///   branch predictors considered in this paper");
/// * the Target History Buffer (§3.2) records the targets of conditional
///   and indirect branches but *not* unconditional branches, calls, or
///   returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// A conditional direct branch (taken or not taken).
    Conditional,
    /// An indirect (computed) jump, excluding returns. Switch statements,
    /// virtual calls through function pointers, etc.
    Indirect,
    /// An unconditional direct jump.
    Unconditional,
    /// A direct subroutine call.
    Call,
    /// A subroutine return (an indirect jump through the return address).
    Return,
}

impl BranchKind {
    /// All kinds, in a stable order (used by serialization and stats).
    pub const ALL: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::Indirect,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
    ];

    /// Compact integer code for binary serialization.
    pub(crate) fn code(self) -> u8 {
        match self {
            BranchKind::Conditional => 0,
            BranchKind::Indirect => 1,
            BranchKind::Unconditional => 2,
            BranchKind::Call => 3,
            BranchKind::Return => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => BranchKind::Conditional,
            1 => BranchKind::Indirect,
            2 => BranchKind::Unconditional,
            3 => BranchKind::Call,
            4 => BranchKind::Return,
            _ => return None,
        })
    }

    /// Short lowercase name, used by the CSV and JSONL trace formats.
    pub fn name(self) -> &'static str {
        match self {
            BranchKind::Conditional => "cond",
            BranchKind::Indirect => "ind",
            BranchKind::Unconditional => "jmp",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
        }
    }

    /// Parses the short name produced by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "cond" => BranchKind::Conditional,
            "ind" => BranchKind::Indirect,
            "jmp" => BranchKind::Unconditional,
            "call" => BranchKind::Call,
            "ret" => BranchKind::Return,
            _ => return None,
        })
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for BranchKind {
    /// Kinds serialize as their short text-format name (`"cond"`, …).
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.name().to_string())
    }
}

/// One executed control-transfer instruction.
///
/// A record carries the branch PC, its kind, whether it was taken, and the
/// address control actually transferred to. For a not-taken conditional
/// branch, `target` is the fall-through address.
///
/// # Example
///
/// ```
/// use vlpp_trace::{Addr, BranchKind, BranchRecord};
///
/// let r = BranchRecord::conditional(Addr::new(0x4000), Addr::new(0x4100), true);
/// assert_eq!(r.kind(), BranchKind::Conditional);
/// assert!(r.taken());
/// assert_eq!(r.target(), Addr::new(0x4100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    pc: Addr,
    target: Addr,
    kind: BranchKind,
    taken: bool,
}

impl ToJson for BranchRecord {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("pc".to_string(), self.pc.to_json()),
            ("target".to_string(), self.target.to_json()),
            ("kind".to_string(), self.kind.to_json()),
            ("taken".to_string(), JsonValue::Bool(self.taken)),
        ])
    }
}

impl BranchRecord {
    /// Creates a record from all four fields.
    ///
    /// Prefer the kind-specific constructors ([`conditional`],
    /// [`indirect`], …) which enforce the per-kind invariants; `new` is
    /// for deserializers and generic code.
    ///
    /// [`conditional`]: Self::conditional
    /// [`indirect`]: Self::indirect
    pub fn new(pc: Addr, target: Addr, kind: BranchKind, taken: bool) -> Self {
        BranchRecord { pc, target, kind, taken }
    }

    /// A conditional branch at `pc`. If `taken`, control went to `target`;
    /// otherwise `target` must be the fall-through address.
    pub fn conditional(pc: Addr, target: Addr, taken: bool) -> Self {
        BranchRecord { pc, target, kind: BranchKind::Conditional, taken }
    }

    /// An indirect jump at `pc` that transferred to `target`.
    /// Indirect jumps are always taken.
    pub fn indirect(pc: Addr, target: Addr) -> Self {
        BranchRecord { pc, target, kind: BranchKind::Indirect, taken: true }
    }

    /// An unconditional direct jump.
    pub fn unconditional(pc: Addr, target: Addr) -> Self {
        BranchRecord { pc, target, kind: BranchKind::Unconditional, taken: true }
    }

    /// A direct call.
    pub fn call(pc: Addr, target: Addr) -> Self {
        BranchRecord { pc, target, kind: BranchKind::Call, taken: true }
    }

    /// A return to `target`.
    pub fn ret(pc: Addr, target: Addr) -> Self {
        BranchRecord { pc, target, kind: BranchKind::Return, taken: true }
    }

    /// The address of the branch instruction.
    #[inline]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// The address control transferred to (fall-through for a not-taken
    /// conditional branch).
    #[inline]
    pub fn target(&self) -> Addr {
        self.target
    }

    /// The kind of branch.
    #[inline]
    pub fn kind(&self) -> BranchKind {
        self.kind
    }

    /// Whether the branch was taken. Always `true` for non-conditional
    /// kinds.
    #[inline]
    pub fn taken(&self) -> bool {
        self.taken
    }

    /// Whether this record is a conditional branch.
    #[inline]
    pub fn is_conditional(&self) -> bool {
        self.kind == BranchKind::Conditional
    }

    /// Whether this record is an indirect branch (excluding returns).
    #[inline]
    pub fn is_indirect(&self) -> bool {
        self.kind == BranchKind::Indirect
    }

    /// Whether this record's target should be recorded in a Target
    /// History Buffer under the paper's §3.2 policy: conditional and
    /// indirect branches only (no unconditional jumps, calls, or returns).
    #[inline]
    pub fn enters_thb(&self) -> bool {
        matches!(self.kind, BranchKind::Conditional | BranchKind::Indirect)
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:#x} -> {:#x} ({})",
            self.kind,
            self.pc,
            self.target,
            if self.taken { "taken" } else { "not-taken" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for kind in BranchKind::ALL {
            assert_eq!(BranchKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(BranchKind::from_code(200), None);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in BranchKind::ALL {
            assert_eq!(BranchKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BranchKind::from_name("bogus"), None);
    }

    #[test]
    fn constructors_set_taken_correctly() {
        let pc = Addr::new(0x100);
        let t = Addr::new(0x200);
        assert!(!BranchRecord::conditional(pc, t, false).taken());
        assert!(BranchRecord::conditional(pc, t, true).taken());
        assert!(BranchRecord::indirect(pc, t).taken());
        assert!(BranchRecord::unconditional(pc, t).taken());
        assert!(BranchRecord::call(pc, t).taken());
        assert!(BranchRecord::ret(pc, t).taken());
    }

    #[test]
    fn thb_policy_matches_paper() {
        let pc = Addr::new(0x100);
        let t = Addr::new(0x200);
        assert!(BranchRecord::conditional(pc, t, true).enters_thb());
        assert!(BranchRecord::conditional(pc, t, false).enters_thb());
        assert!(BranchRecord::indirect(pc, t).enters_thb());
        assert!(!BranchRecord::unconditional(pc, t).enters_thb());
        assert!(!BranchRecord::call(pc, t).enters_thb());
        assert!(!BranchRecord::ret(pc, t).enters_thb());
    }

    #[test]
    fn display_is_informative() {
        let r = BranchRecord::conditional(Addr::new(0x10), Addr::new(0x20), false);
        let s = r.to_string();
        assert!(s.contains("cond"));
        assert!(s.contains("0x10"));
        assert!(s.contains("not-taken"));
    }
}
