//! Per-instruction trace records — the "local execution traces" of paper §3.
//!
//! During replay of a region pinball, the slicer's collector stores one
//! [`TraceRecord`] per retired instruction: "the memory addresses and
//! registers defined (written) and used (read) by each instruction"
//! (paper §3 step i), plus the dynamic control parent (computed online,
//! §5.1) and bookkeeping for the save/restore analysis (§5.2).

use serde::{Deserialize, Serialize};

use minivm::{Addr, Instr, Loc, LocVals, Pc, Reg, Tid};

/// A record id: the collection sequence number (== replay retire order).
pub type RecordId = u64;

/// A thread-qualified storage location — the key dependences are tracked on.
///
/// Registers are private per thread, so the global trace distinguishes
/// `r3` of thread 0 from `r3` of thread 2; memory is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LocKey {
    /// Register `reg` of thread `tid`.
    Reg(Tid, Reg),
    /// Shared memory word.
    Mem(Addr),
}

impl std::fmt::Display for LocKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocKey::Reg(tid, r) => write!(f, "t{tid}:{r}"),
            LocKey::Mem(a) => write!(f, "[{a:#x}]"),
        }
    }
}

/// One executed instruction, as stored in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Collection order (== region-relative retire sequence).
    pub id: RecordId,
    /// Executing thread.
    pub tid: Tid,
    /// Program point.
    pub pc: Pc,
    /// Region-relative, 1-based execution count of `pc` by `tid`.
    pub instance: u64,
    /// The instruction.
    pub instr: Instr,
    /// The control successor actually taken (`next_pc == pc` marks a spin
    /// retry of `lock`/`join`).
    pub next_pc: Pc,
    /// Locations read, with values.
    pub uses: LocVals,
    /// Locations written, with values.
    pub defs: LocVals,
    /// For `spawn`: child tid and the argument value placed in its `r0`.
    pub spawned: Option<(Tid, i64)>,
    /// Record id of the branch this instruction is dynamically control
    /// dependent on (paper §5.1), if any within the region.
    pub cd_parent: Option<RecordId>,
    /// Source line (for listings and the slice browser).
    pub line: u32,
}

impl TraceRecord {
    /// Whether this record is a spin retry (contended `lock` / waiting
    /// `join`): it performed no state change and merely retried.
    pub fn is_spin(&self) -> bool {
        self.next_pc == self.pc && !matches!(self.instr, Instr::Halt)
    }

    /// Thread-qualified keys of the locations this record *uses*.
    ///
    /// When `track_sp` is false, stack-pointer registers are omitted: sp is
    /// control scaffolding whose dataflow chains every stack operation to
    /// every earlier one and carries no program-value information.
    pub fn use_keys(&self, track_sp: bool) -> impl Iterator<Item = (LocKey, i64)> + '_ {
        qualify(self.tid, self.uses, track_sp)
    }

    /// Thread-qualified keys of the locations this record *defines*,
    /// including the cross-thread definition of a spawned child's `r0`.
    pub fn def_keys(&self, track_sp: bool) -> impl Iterator<Item = (LocKey, i64)> + '_ {
        let spawn_def = self
            .spawned
            .map(|(child, v)| (LocKey::Reg(child, Reg(0)), v));
        qualify(self.tid, self.defs, track_sp).chain(spawn_def)
    }

    /// A compact human-readable rendering, used by the slice browser.
    pub fn describe(&self) -> String {
        format!(
            "[t{} {}#{} seq={}] {}",
            self.tid, self.pc, self.instance, self.id, self.instr
        )
    }
}

/// Record id → trace position, as a flat array indexed by id.
///
/// Record ids are a region's retire sequence `0..n`, so the map is dense;
/// for a trace kept in retire order it is the identity. Lookups are
/// bounds-checked: an id the trace never held (say `u64::MAX` from a
/// client) maps to `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IdPositions(Vec<u32>);

/// Slot value of an id with no position.
const ABSENT: u32 = u32::MAX;

impl IdPositions {
    /// Reserves room for ids below `n`.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.0.reserve(n.saturating_sub(self.0.len()));
    }

    /// Maps `id` to `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` does not fit the u32 packing.
    pub(crate) fn insert(&mut self, id: RecordId, pos: usize) {
        let slot = usize::try_from(id).expect("record id fits usize");
        if slot >= self.0.len() {
            self.0.resize(slot + 1, ABSENT);
        }
        debug_assert_eq!(self.0[slot], ABSENT, "record id {id} mapped twice");
        self.0[slot] = u32::try_from(pos)
            .ok()
            .filter(|&p| p != ABSENT)
            .expect("trace position fits u32");
    }

    /// The position of `id`, or `None` when the trace has no such record.
    pub(crate) fn get(&self, id: RecordId) -> Option<usize> {
        let &pos = self.0.get(usize::try_from(id).ok()?)?;
        (pos != ABSENT).then_some(pos as usize)
    }

    /// Slots held (the largest mapped id plus one).
    pub(crate) fn slots(&self) -> usize {
        self.0.len()
    }
}

fn qualify(tid: Tid, locs: LocVals, track_sp: bool) -> impl Iterator<Item = (LocKey, i64)> {
    locs.into_iter().filter_map(move |(loc, v)| match loc {
        Loc::Reg(r) if r == Reg::SP && !track_sp => None,
        Loc::Reg(r) => Some((LocKey::Reg(tid, r), v)),
        Loc::Mem(a) => Some((LocKey::Mem(a), v)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(tid: Tid, uses: &[(Loc, i64)], defs: &[(Loc, i64)]) -> TraceRecord {
        TraceRecord {
            id: 1,
            tid,
            pc: 0,
            instance: 1,
            instr: Instr::Nop,
            next_pc: 1,
            uses: uses.iter().copied().collect(),
            defs: defs.iter().copied().collect(),
            spawned: None,
            cd_parent: None,
            line: 0,
        }
    }

    #[test]
    fn keys_are_thread_qualified() {
        let r = record_with(3, &[(Loc::Reg(Reg(1)), 5)], &[(Loc::Mem(0x1000), 7)]);
        let uses: Vec<_> = r.use_keys(false).collect();
        assert_eq!(uses, vec![(LocKey::Reg(3, Reg(1)), 5)]);
        let defs: Vec<_> = r.def_keys(false).collect();
        assert_eq!(defs, vec![(LocKey::Mem(0x1000), 7)]);
    }

    #[test]
    fn sp_is_filtered_unless_tracked() {
        let r = record_with(0, &[(Loc::Reg(Reg::SP), 100)], &[(Loc::Reg(Reg::SP), 99)]);
        assert_eq!(r.use_keys(false).count(), 0);
        assert_eq!(r.use_keys(true).count(), 1);
        assert_eq!(r.def_keys(true).count(), 1);
    }

    #[test]
    fn spawn_defines_child_r0() {
        let mut r = record_with(0, &[], &[(Loc::Reg(Reg(2)), 1)]);
        r.spawned = Some((4, 42));
        let defs: Vec<_> = r.def_keys(false).collect();
        assert!(defs.contains(&(LocKey::Reg(4, Reg(0)), 42)));
        assert!(defs.contains(&(LocKey::Reg(0, Reg(2)), 1)));
    }

    #[test]
    fn id_positions_are_bounds_checked() {
        let mut map = IdPositions::default();
        map.insert(0, 2);
        map.insert(2, 0);
        assert_eq!(map.get(0), Some(2));
        assert_eq!(map.get(1), None, "gap between mapped ids");
        assert_eq!(map.get(2), Some(0));
        assert_eq!(map.get(3), None);
        assert_eq!(map.get(u64::MAX), None);
        assert_eq!(map.slots(), 3);
    }

    #[test]
    fn lockey_display() {
        assert_eq!(LocKey::Reg(2, Reg(3)).to_string(), "t2:r3");
        assert_eq!(LocKey::Mem(0x1000).to_string(), "[0x1000]");
    }
}
