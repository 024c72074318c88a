//! The full machine: per-processor two-level caches, a directory-based
//! invalidation protocol, and first-touch NUMA page placement — the
//! measurable effects the paper's evaluation depends on (true/false
//! sharing, conflict misses, local/remote latency).
//!
//! The machine models *timing only*: program values live in the SPMD
//! interpreter. Every `access` returns its cost in cycles; the caller
//! accumulates per-processor clocks.

use crate::cache::{Cache, LineState};
use crate::classify::{Classifier, MissClasses};
use crate::config::MachineConfig;
use crate::probe::{AccessLevel, MemProbe};

/// Directory entry for one cache line.
#[derive(Clone, Copy, Default, Debug)]
struct DirEntry {
    /// Bitmask of processors holding the line (any state).
    sharers: u64,
    /// Processor holding the line Modified, if any.
    dirty: Option<u8>,
}

/// No-owner sentinel in [`DirTable::dirty`] (processor ids are < 64).
const NO_OWNER: u8 = u8::MAX;

/// Directory keyed by line number, stored as two flat growable arrays
/// (sharer bitmask and dirty-owner byte). Line numbers are dense small
/// integers — the program's address space is packed from page 1 upward —
/// so flat indexing beats both the hash map and a paged table this
/// replaces: one load per operation, contiguous memory that the host
/// TLB and prefetchers handle well, and 9 bytes per line instead of 16.
/// Lines beyond the grown region read as default (no sharers, clean),
/// matching the old `get(..).unwrap_or_default()` semantics.
struct DirTable {
    sharers: Vec<u64>,
    dirty: Vec<u8>,
}

impl DirTable {
    fn new() -> DirTable {
        DirTable { sharers: Vec::new(), dirty: Vec::new() }
    }

    #[inline]
    fn get(&self, line: u64) -> DirEntry {
        let l = line as usize;
        match self.sharers.get(l) {
            Some(&s) => {
                let d = self.dirty[l];
                DirEntry { sharers: s, dirty: (d != NO_OWNER).then_some(d) }
            }
            None => DirEntry::default(),
        }
    }

    /// Amortised growth to cover `line` (doubles; floor 64K lines = 1 MB
    /// of simulated address space).
    #[cold]
    fn grow(&mut self, l: usize) {
        let n = (l + 1).next_power_of_two().max(1 << 16);
        self.sharers.resize(n, 0);
        self.dirty.resize(n, NO_OWNER);
    }

    #[inline]
    fn set(&mut self, line: u64, sharers: u64, dirty: Option<usize>) {
        let l = line as usize;
        if l >= self.sharers.len() {
            self.grow(l);
        }
        self.sharers[l] = sharers;
        self.dirty[l] = dirty.map_or(NO_OWNER, |p| p as u8);
    }

    /// Clear `proc`'s sharer bit (and dirty ownership) for an evicted
    /// line. Untouched lines (beyond the grown region) have no bits to
    /// clear.
    #[inline]
    fn drop_sharer(&mut self, proc: usize, line: u64) {
        let l = line as usize;
        if let Some(s) = self.sharers.get_mut(l) {
            *s &= !(1u64 << proc);
            if self.dirty[l] == proc as u8 {
                self.dirty[l] = NO_OWNER;
            }
        }
    }

}

/// First-touch page homes as a growable flat array keyed by page number
/// (`u32::MAX` = unassigned). Page numbers are small dense integers, so
/// direct indexing beats hashing for the same reason as [`DirTable`].
struct PageHomes {
    homes: Vec<u32>,
}

const HOME_NONE: u32 = u32::MAX;

impl PageHomes {
    fn new() -> PageHomes {
        PageHomes { homes: Vec::new() }
    }

    /// Home of `page`, assigning `cluster` on first touch.
    #[inline]
    fn get_or_assign(&mut self, page: u64, cluster: u32) -> u32 {
        let p = page as usize;
        if p >= self.homes.len() {
            self.homes.resize(p + 1, HOME_NONE);
        }
        if self.homes[p] == HOME_NONE {
            self.homes[p] = cluster;
        }
        self.homes[p]
    }
}

/// Per-processor event counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ProcStats {
    pub accesses: u64,
    pub l1_hits: u64,
    /// Subset of `l1_hits` resolved by the one-entry last-line cache
    /// without a full L1 probe. Deterministic for a given access stream,
    /// so it stays identical across executor modes.
    pub l1_fast_hits: u64,
    pub l2_hits: u64,
    pub local_mem: u64,
    pub remote_mem: u64,
    pub remote_dirty: u64,
    pub upgrades: u64,
    pub invalidations_received: u64,
    pub mem_cycles: u64,
}

/// Synchronization events routed through [`Machine::sync`]. These count
/// *schedule structure* (how many barriers and handoffs the generated
/// code executed), so they are identical across executor modes for a
/// given schedule, like the access stream itself.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SyncStats {
    /// Global barrier joins.
    pub barriers: u64,
    /// Whole-nest producer/consumer lock handoffs (`SyncKind::ProducerWait`).
    pub lock_handoffs: u64,
    /// Per-tile doacross pipeline handoffs (`PipelineSpec` chains).
    pub pipeline_handoffs: u64,
}

impl SyncStats {
    pub fn total(&self) -> u64 {
        self.barriers + self.lock_handoffs + self.pipeline_handoffs
    }
}

/// A synchronization event the executor reports to the machine model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncOp {
    /// Global barrier among `active` processors.
    Barrier { active: usize },
    /// Whole-nest lock handoff (producer signals, consumers wait).
    LockHandoff,
    /// One per-tile handoff along a doacross pipeline chain.
    PipelineHandoff,
}

/// Aggregated machine statistics.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Stats {
    pub per_proc: Vec<ProcStats>,
    /// Synchronization events (see [`SyncStats`]).
    pub sync: SyncStats,
}

impl Stats {
    pub fn total(&self) -> ProcStats {
        let mut t = ProcStats::default();
        for p in &self.per_proc {
            t.accesses += p.accesses;
            t.l1_hits += p.l1_hits;
            t.l1_fast_hits += p.l1_fast_hits;
            t.l2_hits += p.l2_hits;
            t.local_mem += p.local_mem;
            t.remote_mem += p.remote_mem;
            t.remote_dirty += p.remote_dirty;
            t.upgrades += p.upgrades;
            t.invalidations_received += p.invalidations_received;
            t.mem_cycles += p.mem_cycles;
        }
        t
    }

    /// Fraction of accesses that miss both cache levels.
    pub fn memory_miss_rate(&self) -> f64 {
        let t = self.total();
        if t.accesses == 0 {
            return 0.0;
        }
        (t.local_mem + t.remote_mem + t.remote_dirty) as f64 / t.accesses as f64
    }
}

/// One-entry record of the line a processor touched last. When the next
/// access lands on the same line, the full L1 probe (hash of the set, tag
/// compare, LRU touch) can be skipped: the line is by construction the
/// most-recently-used entry of its set, so re-touching it cannot change
/// any later eviction decision and relative LRU order is preserved.
#[derive(Clone, Copy)]
struct LastLine {
    /// `u64::MAX` = invalid (no line can reach that number: addresses are
    /// divided by the line size).
    line: u64,
    state: LineState,
}

impl LastLine {
    const NONE: LastLine = LastLine { line: u64::MAX, state: LineState::Shared };
}

/// The simulated machine.
pub struct Machine {
    pub cfg: MachineConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    dir: DirTable,
    /// First-touch page homes (page number -> cluster).
    page_home: PageHomes,
    /// Per-processor last-touched-line record (see [`LastLine`]).
    last_line: Vec<LastLine>,
    /// Per-processor `(page, home)` memo for the page-home lookup. Safe
    /// because first-touch homes are immutable once assigned.
    last_page: Vec<(u64, u32)>,
    /// `log2(line_bytes)`: the line number of every access is computed with
    /// a shift instead of a 64-bit divide (the divide sat at the head of
    /// the dependency chain of every simulated access).
    line_shift: u32,
    /// `log2(page_bytes)` when the page size is a power of two (both
    /// presets); `None` falls back to division.
    page_shift: Option<u32>,
    /// Memoised `cfg.cluster_of(proc)` (a divide by `procs_per_cluster`).
    cluster: Vec<u32>,
    pub stats: Stats,
    /// Optional 4-C miss classifiers (one per processor).
    classifiers: Option<Vec<Classifier>>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate();
        assert!(cfg.nprocs <= 64, "directory bitmask supports up to 64 processors");
        let l1 = (0..cfg.nprocs)
            .map(|_| Cache::new(cfg.l1_bytes, cfg.line_bytes, cfg.l1_assoc))
            .collect();
        let l2 = (0..cfg.nprocs)
            .map(|_| Cache::new(cfg.l2_bytes, cfg.line_bytes, cfg.l2_assoc))
            .collect();
        let classifiers = cfg.classify_misses.then(|| {
            let lines = cfg.l1_bytes / cfg.line_bytes;
            (0..cfg.nprocs).map(|_| Classifier::new(lines)).collect()
        });
        Machine {
            stats: Stats {
                per_proc: vec![ProcStats::default(); cfg.nprocs],
                sync: SyncStats::default(),
            },
            last_line: vec![LastLine::NONE; cfg.nprocs],
            last_page: vec![(u64::MAX, 0); cfg.nprocs],
            line_shift: cfg.line_bytes.trailing_zeros(),
            page_shift: cfg.page_bytes.is_power_of_two().then(|| cfg.page_bytes.trailing_zeros()),
            cluster: (0..cfg.nprocs).map(|p| cfg.cluster_of(p) as u32).collect(),
            cfg,
            l1,
            l2,
            dir: DirTable::new(),
            page_home: PageHomes::new(),
            classifiers,
        }
    }

    #[inline]
    fn page_of(&self, byte_addr: u64) -> u64 {
        match self.page_shift {
            Some(s) => byte_addr >> s,
            None => byte_addr / self.cfg.page_bytes as u64,
        }
    }

    /// Per-processor miss-class counters (when classification is enabled).
    pub fn miss_classes(&self) -> Option<Vec<MissClasses>> {
        self.classifiers
            .as_ref()
            .map(|cs| cs.iter().map(|c| c.classes).collect())
    }

    /// Pre-assign the home cluster of the page containing `byte_addr`
    /// (models explicit placement; normally first touch does this).
    pub fn place_page(&mut self, byte_addr: u64, cluster: usize) {
        let page = self.page_of(byte_addr);
        self.page_home.get_or_assign(page, cluster as u32);
    }

    /// Home cluster of an address, assigning by first touch from `proc`.
    /// A one-entry per-processor memo short-circuits the hash lookup on
    /// the common same-page streak; first-touch homes never change once
    /// assigned, so the memo cannot go stale.
    fn home_of(&mut self, byte_addr: u64, proc: usize) -> usize {
        let page = self.page_of(byte_addr);
        let (cached_page, cached_home) = self.last_page[proc];
        if cached_page == page {
            return cached_home as usize;
        }
        let cluster = self.cluster[proc];
        let home = self.page_home.get_or_assign(page, cluster);
        self.last_page[proc] = (page, home);
        home as usize
    }

    /// Perform one memory access; returns its latency in cycles.
    #[inline]
    pub fn access(&mut self, proc: usize, byte_addr: u64, write: bool) -> u64 {
        self.access_probed(proc, byte_addr, write, None)
    }

    /// [`Machine::access`] with an optional [`MemProbe`] observing the
    /// outcome. The probe sees which level resolved the access, the exact
    /// cost charged, and every invalidation the access caused; it can
    /// never alter timing, so probed and unprobed runs are cycle-identical.
    pub fn access_probed(
        &mut self,
        proc: usize,
        byte_addr: u64,
        write: bool,
        mut probe: Option<&mut dyn MemProbe>,
    ) -> u64 {
        debug_assert!(proc < self.cfg.nprocs);
        let line = byte_addr >> self.line_shift;
        // Byte offset within the line: the word identity that separates
        // true from false sharing. Only computed into probe calls.
        let word = (byte_addr & (self.cfg.line_bytes as u64 - 1)) as u32;

        // Same-line fast path: a repeat touch of the processor's most
        // recent line is a guaranteed L1 hit on an already-MRU entry, so
        // the probe's LRU bookkeeping can be skipped without altering any
        // later eviction. A write needs the line Modified — a write to a
        // Shared line must take the upgrade path below.
        let ll = self.last_line[proc];
        if ll.line == line && (!write || ll.state == LineState::Modified) {
            if let Some(cs) = &mut self.classifiers {
                cs[proc].note_hit(line);
            }
            if let Some(p) = probe.as_deref_mut() {
                p.access(proc, line, word, write, AccessLevel::L1, self.cfg.lat_l1);
            }
            let st = &mut self.stats.per_proc[proc];
            st.accesses += 1;
            st.l1_hits += 1;
            st.l1_fast_hits += 1;
            st.mem_cycles += self.cfg.lat_l1;
            return self.cfg.lat_l1;
        }

        self.stats.per_proc[proc].accesses += 1;

        // L1.
        if let Some(state) = self.l1[proc].probe(line) {
            if let Some(cs) = &mut self.classifiers {
                cs[proc].note_hit(line);
            }
            self.stats.per_proc[proc].l1_hits += 1;
            let mut cost = self.cfg.lat_l1;
            if write && state == LineState::Shared {
                cost += self.upgrade(proc, line, word, &mut probe);
            }
            let new_state = if write { LineState::Modified } else { state };
            self.last_line[proc] = LastLine { line, state: new_state };
            self.stats.per_proc[proc].mem_cycles += cost;
            if let Some(p) = probe {
                p.access(proc, line, word, write, AccessLevel::L1, cost);
            }
            return cost;
        }

        // L2.
        if let Some(state) = self.l2[proc].probe(line) {
            if let Some(cs) = &mut self.classifiers {
                cs[proc].note_hit(line);
            }
            self.stats.per_proc[proc].l2_hits += 1;
            let mut cost = self.cfg.lat_l2;
            if write && state == LineState::Shared {
                cost += self.upgrade(proc, line, word, &mut probe);
            }
            // Fill L1 with the (possibly upgraded) state.
            let new_state = if write { LineState::Modified } else { state };
            self.fill_l1(proc, line, new_state);
            self.last_line[proc] = LastLine { line, state: new_state };
            self.stats.per_proc[proc].mem_cycles += cost;
            if let Some(p) = probe {
                p.access(proc, line, word, write, AccessLevel::L2, cost);
            }
            return cost;
        }

        // Memory (through the directory).
        if let Some(cs) = &mut self.classifiers {
            cs[proc].classify_miss(line);
        }
        let mut cost;
        let level;
        let entry = self.dir.get(line);
        if let Some(owner) = entry.dirty {
            let owner = owner as usize;
            if owner != proc {
                // Dirty in another cache: 3-hop intervention.
                cost = self.cfg.lat_remote_dirty;
                level = AccessLevel::RemoteDirty;
                self.stats.per_proc[proc].remote_dirty += 1;
                if write {
                    // Transfer ownership: invalidate the previous owner.
                    self.l1[owner].invalidate(line);
                    self.l2[owner].invalidate(line);
                    if self.last_line[owner].line == line {
                        self.last_line[owner] = LastLine::NONE;
                    }
                    if let Some(cs) = &mut self.classifiers {
                        cs[owner].note_invalidation(line);
                    }
                    if let Some(p) = probe.as_deref_mut() {
                        p.invalidated(owner, line, proc, word);
                    }
                    self.stats.per_proc[owner].invalidations_received += 1;
                    self.set_dir(line, 1u64 << proc, Some(proc));
                } else {
                    // Downgrade the owner to Shared.
                    self.l1[owner].set_state(line, LineState::Shared);
                    self.l2[owner].set_state(line, LineState::Shared);
                    if self.last_line[owner].line == line {
                        self.last_line[owner].state = LineState::Shared;
                    }
                    let sharers = entry.sharers | (1 << proc);
                    self.set_dir(line, sharers, None);
                }
            } else {
                // We are the dirty owner but the line fell out of our
                // caches (silent eviction bookkeeping miss): local refill.
                let home = self.home_of(byte_addr, proc);
                if home == self.cluster[proc] as usize {
                    cost = self.cfg.lat_local;
                    level = AccessLevel::LocalMem;
                } else {
                    cost = self.cfg.lat_remote;
                    level = AccessLevel::RemoteMem;
                }
                self.count_mem(proc, home);
            }
        } else {
            let home = self.home_of(byte_addr, proc);
            if home == self.cluster[proc] as usize {
                cost = self.cfg.lat_local;
                level = AccessLevel::LocalMem;
            } else {
                cost = self.cfg.lat_remote;
                level = AccessLevel::RemoteMem;
            }
            self.count_mem(proc, home);
            if write {
                cost += self.invalidate_sharers(proc, line, entry.sharers, word, &mut probe);
                self.set_dir(line, 1u64 << proc, Some(proc));
            } else {
                self.set_dir(line, entry.sharers | (1 << proc), entry.dirty.map(|p| p as usize));
            }
        }

        let state = if write { LineState::Modified } else { LineState::Shared };
        self.fill_l2(proc, line, state);
        self.fill_l1(proc, line, state);
        self.last_line[proc] = LastLine { line, state };
        self.stats.per_proc[proc].mem_cycles += cost;
        if let Some(p) = probe {
            p.access(proc, line, word, write, level, cost);
        }
        cost
    }

    fn count_mem(&mut self, proc: usize, home: usize) {
        if home == self.cluster[proc] as usize {
            self.stats.per_proc[proc].local_mem += 1;
        } else {
            self.stats.per_proc[proc].remote_mem += 1;
        }
    }

    fn set_dir(&mut self, line: u64, sharers: u64, dirty: Option<usize>) {
        self.dir.set(line, sharers, dirty);
    }

    /// Write to a Shared line: invalidate all other sharers and take
    /// ownership. Returns the extra cycles.
    fn upgrade(
        &mut self,
        proc: usize,
        line: u64,
        word: u32,
        probe: &mut Option<&mut dyn MemProbe>,
    ) -> u64 {
        self.stats.per_proc[proc].upgrades += 1;
        let entry = self.dir.get(line);
        let others = entry.sharers & !(1u64 << proc);
        let cost = self.invalidate_sharers(proc, line, others, word, probe);
        self.l1[proc].set_state(line, LineState::Modified);
        self.l2[proc].set_state(line, LineState::Modified);
        if self.last_line[proc].line == line {
            self.last_line[proc].state = LineState::Modified;
        }
        self.set_dir(line, 1u64 << proc, Some(proc));
        cost
    }

    fn invalidate_sharers(
        &mut self,
        proc: usize,
        line: u64,
        sharers: u64,
        word: u32,
        probe: &mut Option<&mut dyn MemProbe>,
    ) -> u64 {
        let others = sharers & !(1u64 << proc);
        if others == 0 {
            return 0;
        }
        let mut n = 0;
        for q in 0..self.cfg.nprocs {
            if others & (1 << q) != 0 {
                self.l1[q].invalidate(line);
                self.l2[q].invalidate(line);
                if self.last_line[q].line == line {
                    self.last_line[q] = LastLine::NONE;
                }
                if let Some(cs) = &mut self.classifiers {
                    cs[q].note_invalidation(line);
                }
                if let Some(p) = probe.as_deref_mut() {
                    p.invalidated(q, line, proc, word);
                }
                self.stats.per_proc[q].invalidations_received += 1;
                n += 1;
            }
        }
        // Invalidations overlap; charge a base plus a small per-sharer term.
        self.cfg.lat_invalidate + 2 * n
    }

    /// Fill L1, maintaining directory bits on eviction (inclusion is kept
    /// loose: an L1 eviction leaves the L2 copy in place).
    fn fill_l1(&mut self, proc: usize, line: u64, state: LineState) {
        if let Some((old, _)) = self.l1[proc].insert(line, state) {
            if self.last_line[proc].line == old {
                self.last_line[proc] = LastLine::NONE;
            }
            // Old line may still live in L2: sharer bit stays unless gone
            // from both.
            if !self.l2[proc].contains(old) {
                self.drop_sharer(proc, old);
            }
        }
    }

    /// Fill L2; enforce inclusion by invalidating L1 on L2 eviction.
    fn fill_l2(&mut self, proc: usize, line: u64, state: LineState) {
        if let Some((old, _old_state)) = self.l2[proc].insert(line, state) {
            self.l1[proc].invalidate(old);
            if self.last_line[proc].line == old {
                self.last_line[proc] = LastLine::NONE;
            }
            self.drop_sharer(proc, old);
        }
    }

    fn drop_sharer(&mut self, proc: usize, line: u64) {
        self.dir.drop_sharer(proc, line);
    }

    /// Cost of a barrier among `active` processors (the executor applies it
    /// to the clocks).
    pub fn barrier_cost(&self, active: usize) -> u64 {
        self.cfg.barrier_cost(active)
    }

    /// Record a synchronization event and return its cycle cost (the
    /// executor applies the cost to the clocks). This is the hook the
    /// race detector's happens-before edges are anchored to: every edge
    /// the detector installs corresponds to exactly one `sync` event.
    pub fn sync(&mut self, op: SyncOp) -> u64 {
        match op {
            SyncOp::Barrier { active } => {
                self.stats.sync.barriers += 1;
                self.cfg.barrier_cost(active)
            }
            SyncOp::LockHandoff => {
                self.stats.sync.lock_handoffs += 1;
                self.cfg.lock_cost
            }
            SyncOp::PipelineHandoff => {
                self.stats.sync.pipeline_handoffs += 1;
                self.cfg.lock_cost
            }
        }
    }
}

/// One slot of a strided access vector executed by [`Machine::access_seg`]:
/// a starting byte address, its per-round delta, and the access kind.
/// The executor resolves each statement reference of a segment into one
/// slot (reads in evaluation order, then the write, per statement).
#[derive(Clone, Copy, Debug)]
pub struct SegAccess {
    /// Byte address of the current round; advanced in place by `dbyte`
    /// per round.
    pub byte: u64,
    /// Per-round address delta in bytes (constant within a segment).
    pub dbyte: i64,
    pub write: bool,
}

/// Widest access vector the batched segment path handles; longer vectors
/// take the exact per-element loop (they would overflow the fixed
/// per-slot state buffer).
pub const MAX_SEG_SLOTS: usize = 32;

/// Rounds (including the current one) for which `byte + t*dbyte` stays on
/// the same cache line. `dbyte == 0` never leaves the line.
#[inline]
fn line_run(byte: u64, dbyte: i64, shift: u32) -> u64 {
    if dbyte == 0 {
        return u64::MAX;
    }
    let line = byte >> shift;
    if dbyte > 0 {
        let last = ((line + 1) << shift) - 1;
        (last - byte) / dbyte as u64 + 1
    } else {
        (byte - (line << shift)) / dbyte.unsigned_abs() + 1
    }
}

impl Machine {
    /// Execute `rounds` rounds of the access vector `accs` in round-major
    /// order (slot 0, slot 1, ..., then advance every slot by its delta
    /// and repeat). Bit-identical to issuing the same accesses one by one
    /// through [`Machine::access_probed`]; the returned cost is the sum
    /// of the per-access costs.
    ///
    /// The speedup comes from line batching: after the first round of a
    /// line-stable run every slot's line is L1-resident (writes in
    /// Modified state), so the remaining rounds are guaranteed L1 hits
    /// whose only machine effects are counter increments and the
    /// last-line memo chain — both replayed in bulk without touching the
    /// caches. Runs end at the first line-boundary crossing of any slot.
    /// Anything the bulk replay cannot prove exact — an attached probe,
    /// miss classifiers, an associative L1 (whose probes bump LRU ticks),
    /// an oversized vector, or a slot whose line is not steady after the
    /// first round (set conflicts inside the vector) — falls back to the
    /// per-element path, so exactness never rests on the fast case.
    pub fn access_seg(
        &mut self,
        proc: usize,
        accs: &mut [SegAccess],
        rounds: u64,
        mut probe: Option<&mut dyn MemProbe>,
    ) -> u64 {
        if rounds == 0 || accs.is_empty() {
            return 0;
        }
        // A slot that moves a full line (or more) per round crosses a
        // line boundary every round, so no run can ever exceed 1 and the
        // batch machinery below is pure overhead (one integer division
        // per slot per round in `line_run` alone). Column sweeps of
        // row-major arrays are exactly this shape; hand them straight to
        // the per-access loop.
        let line_bytes = 1u64 << self.line_shift;
        let unbatchable = accs
            .iter()
            .any(|a| a.dbyte != 0 && a.dbyte.unsigned_abs() >= line_bytes);
        if probe.is_some()
            || self.classifiers.is_some()
            || !self.l1[proc].is_direct()
            || accs.len() > MAX_SEG_SLOTS
            || unbatchable
        {
            let mut busy = 0u64;
            for _ in 0..rounds {
                for a in accs.iter_mut() {
                    let p = probe.as_mut().map(|p| &mut **p as &mut dyn MemProbe);
                    busy += self.access_probed(proc, a.byte, a.write, p);
                    a.byte = (a.byte as i64).wrapping_add(a.dbyte) as u64;
                }
            }
            return busy;
        }

        let shift = self.line_shift;
        let lat_l1 = self.cfg.lat_l1;
        let mut busy = 0u64;
        let mut remaining = rounds;
        let mut states = [LineState::Shared; MAX_SEG_SLOTS];
        // Rounds until each slot leaves its current line, maintained
        // decrementally so the `line_run` division runs once per actual
        // crossing (~1/8th of rounds at unit stride), not once per slot
        // per chunk.
        let mut cross = [0u64; MAX_SEG_SLOTS];
        for (j, a) in accs.iter().enumerate() {
            cross[j] = line_run(a.byte, a.dbyte, shift);
        }
        // Consecutive steadiness failures. A vector whose slots fight
        // over one direct-mapped set (the conflict-miss pathology the
        // paper's data transformations exist to remove) re-fails every
        // chunk; after a few strikes hand the rest of the segment to the
        // plain per-access loop instead of re-probing forever.
        let mut strikes = 0u32;
        while remaining > 0 {
            if strikes >= 4 {
                for _ in 0..remaining {
                    for a in accs.iter_mut() {
                        busy += self.access_probed(proc, a.byte, a.write, None);
                        a.byte = (a.byte as i64).wrapping_add(a.dbyte) as u64;
                    }
                }
                return busy;
            }
            // Rounds every slot stays on its current line (>= 1).
            let mut run = remaining;
            for &c in cross.iter().take(accs.len()) {
                run = run.min(c);
            }
            // First round of the run: the real machine path (misses,
            // fills, upgrades, directory traffic all happen here).
            for a in accs.iter() {
                busy += self.access_probed(proc, a.byte, a.write, None);
            }
            let mut advanced = 1u64;
            if run > 1 {
                // Steady iff every slot's line is L1-resident with a
                // sufficient state (Modified for writes: a Shared write
                // would take the upgrade path). A conflicting vector —
                // two slots fighting over one direct-mapped set — fails
                // here and re-runs the real path round by round.
                let mut steady = true;
                for (j, a) in accs.iter().enumerate() {
                    match self.l1[proc].occupant(a.byte >> shift) {
                        Some((tag, st))
                            if tag == a.byte >> shift
                                && (!a.write || st == LineState::Modified) =>
                        {
                            states[j] = st;
                        }
                        _ => {
                            steady = false;
                            break;
                        }
                    }
                }
                if !steady {
                    strikes += 1;
                } else {
                    strikes = 0;
                    // Rounds 2..run are all L1 hits: cost and hit counts
                    // are uniform; only the fast-hit split needs the
                    // last-line memo chain, replayed per round until it
                    // reaches its fixed point (in practice: immediately).
                    let mut memo = self.last_line[proc];
                    let mut fast_total = 0u64;
                    let mut left = run - 1;
                    while left > 0 {
                        let start = memo;
                        let mut f = 0u64;
                        for (a, &st) in accs.iter().zip(states.iter()) {
                            let line = a.byte >> shift;
                            if memo.line == line
                                && (!a.write || memo.state == LineState::Modified)
                            {
                                f += 1;
                            } else {
                                let state =
                                    if a.write { LineState::Modified } else { st };
                                memo = LastLine { line, state };
                            }
                        }
                        if memo.line == start.line && memo.state == start.state {
                            fast_total += f * left;
                            left = 0;
                        } else {
                            fast_total += f;
                            left -= 1;
                        }
                    }
                    let n = run - 1;
                    let k = accs.len() as u64;
                    let st = &mut self.stats.per_proc[proc];
                    st.accesses += n * k;
                    st.l1_hits += n * k;
                    st.l1_fast_hits += fast_total;
                    st.mem_cycles += n * k * lat_l1;
                    busy += n * k * lat_l1;
                    self.last_line[proc] = memo;
                    advanced = run;
                }
            }
            for (j, a) in accs.iter_mut().enumerate() {
                a.byte =
                    (a.byte as i64).wrapping_add(a.dbyte.wrapping_mul(advanced as i64)) as u64;
                cross[j] -= advanced;
                if cross[j] == 0 {
                    cross[j] = line_run(a.byte, a.dbyte, shift);
                }
            }
            remaining -= advanced;
        }
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(nprocs: usize) -> Machine {
        Machine::new(MachineConfig::tiny(nprocs))
    }

    #[test]
    fn cold_then_hot() {
        let mut mach = m(2);
        let c0 = mach.access(0, 0, false);
        assert_eq!(c0, mach.cfg.lat_local, "cold miss goes to local memory (first touch)");
        let c1 = mach.access(0, 0, false);
        assert_eq!(c1, mach.cfg.lat_l1, "second access hits L1");
        assert_eq!(mach.stats.per_proc[0].l1_hits, 1);
    }

    #[test]
    fn first_touch_placement() {
        let mut mach = m(4); // clusters of 2
        // Proc 3 (cluster 1) touches page 0 first: home = cluster 1.
        mach.access(3, 0, false);
        // Proc 0 (cluster 0) then misses remotely.
        let c = mach.access(0, 1, false);
        assert_eq!(c, mach.cfg.lat_remote);
        assert_eq!(mach.stats.per_proc[0].remote_mem, 1);
    }

    #[test]
    fn true_sharing_invalidation() {
        let mut mach = m(2);
        mach.access(0, 0, false); // P0 caches the line Shared
        mach.access(1, 0, false); // P1 too
        mach.access(1, 0, true); // P1 writes: upgrade, invalidate P0
        assert_eq!(mach.stats.per_proc[1].upgrades, 1);
        assert_eq!(mach.stats.per_proc[0].invalidations_received, 1);
        // P0's next read must fetch the dirty line from P1.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
        assert_eq!(mach.stats.per_proc[0].remote_dirty, 1);
    }

    #[test]
    fn false_sharing_same_line() {
        let mut mach = m(2);
        // P0 writes byte 0, P1 writes byte 8: same 16-byte line.
        mach.access(0, 0, true);
        let c = mach.access(1, 8, true);
        // P1 must steal the dirty line from P0.
        assert_eq!(c, mach.cfg.lat_remote_dirty);
        assert_eq!(mach.stats.per_proc[0].invalidations_received, 1);
        // Ping-pong: P0 writes again, stealing back.
        let c = mach.access(0, 0, true);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
    }

    #[test]
    fn distinct_lines_no_interference() {
        let mut mach = m(2);
        mach.access(0, 0, true);
        mach.access(1, 16, true); // next line
        assert_eq!(mach.stats.per_proc[0].invalidations_received, 0);
        assert_eq!(mach.stats.per_proc[1].invalidations_received, 0);
        assert_eq!(mach.access(0, 0, true), mach.cfg.lat_l1);
        assert_eq!(mach.access(1, 16, true), mach.cfg.lat_l1);
    }

    #[test]
    fn conflict_misses_direct_mapped() {
        let mut mach = m(1);
        // tiny: L1 256B/16B = 16 sets, L2 1024B/16B = 64 sets.
        // Lines 0 and 64 collide in both L1 (64 % 16 == 0) and L2.
        mach.access(0, 0, false);
        mach.access(0, 64 * 16, false);
        // Line 0 was evicted from both: next access misses to memory.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_local);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        let mut mach = m(1);
        // Lines 0 and 16 collide in L1 (16 sets) but not L2 (64 sets).
        mach.access(0, 0, false);
        mach.access(0, 16 * 16, false);
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_l2);
        assert_eq!(mach.stats.per_proc[0].l2_hits, 1);
    }

    #[test]
    fn write_read_same_proc_stays_cheap() {
        let mut mach = m(2);
        mach.access(0, 0, true);
        assert_eq!(mach.access(0, 0, false), mach.cfg.lat_l1);
        assert_eq!(mach.access(0, 0, true), mach.cfg.lat_l1);
        assert_eq!(mach.stats.per_proc[0].upgrades, 0, "modified line needs no upgrade");
    }

    #[test]
    fn read_after_remote_write_downgrades() {
        let mut mach = m(2);
        mach.access(1, 0, true);
        mach.access(0, 0, false); // 3-hop, downgrades P1 to Shared
        // P1 can still read its (now Shared) line at L1 cost.
        assert_eq!(mach.access(1, 0, false), mach.cfg.lat_l1);
        // But writing again requires an upgrade.
        mach.access(1, 0, true);
        assert_eq!(mach.stats.per_proc[1].upgrades, 1);
    }

    #[test]
    fn stats_aggregate() {
        let mut mach = m(2);
        mach.access(0, 0, false);
        mach.access(1, 64, true);
        let t = mach.stats.total();
        assert_eq!(t.accesses, 2);
        assert!(mach.stats.memory_miss_rate() > 0.99);
    }

    #[test]
    fn explicit_page_placement() {
        let mut mach = m(4);
        mach.place_page(0, 1);
        // Proc 0 (cluster 0) touches it: remote despite first touch.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_remote);
    }

    #[test]
    fn write_after_silent_eviction_reestablishes_ownership() {
        let mut mach = m(2);
        // P0 takes line 0 Modified.
        mach.access(0, 0, true);
        // A conflicting line (same set in both levels under the tiny
        // config) evicts line 0; the eviction writes back and clears the
        // directory's dirty owner.
        mach.access(0, 64 * 16, false);
        // Rewriting refills from local memory (P0 first-touched the page).
        let c = mach.access(0, 0, true);
        assert_eq!(c, mach.cfg.lat_local);
        assert_eq!(mach.stats.per_proc[0].local_mem, 3, "both lines plus the refill are local");
        // The directory again records P0 as dirty owner: a remote read
        // pays the 3-hop intervention.
        let c = mach.access(1, 0, false);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
        assert_eq!(mach.stats.per_proc[1].remote_dirty, 1);
    }

    #[test]
    fn last_line_fast_path_counts_and_costs() {
        let mut mach = m(2);
        mach.access(0, 0, true); // line 0 Modified, becomes the last line
        for _ in 0..5 {
            assert_eq!(mach.access(0, 4, true), mach.cfg.lat_l1);
            assert_eq!(mach.access(0, 8, false), mach.cfg.lat_l1);
        }
        assert_eq!(mach.stats.per_proc[0].l1_hits, 10);
        assert_eq!(mach.stats.per_proc[0].l1_fast_hits, 10);
        // A write to a Shared line must still take the upgrade path even
        // when it is the processor's last-touched line.
        mach.access(1, 0, false); // downgrades P0 to Shared
        assert_eq!(mach.stats.per_proc[0].upgrades, 0);
        mach.access(0, 0, true);
        assert_eq!(mach.stats.per_proc[0].upgrades, 1);
        assert_eq!(mach.stats.per_proc[1].invalidations_received, 1);
    }

    /// Reference for `access_seg`: the same stream, one access at a time.
    fn seg_reference(m: &mut Machine, proc: usize, accs: &[SegAccess], rounds: u64) -> u64 {
        let mut accs = accs.to_vec();
        let mut busy = 0;
        for _ in 0..rounds {
            for a in accs.iter_mut() {
                busy += m.access(proc, a.byte, a.write);
                a.byte = (a.byte as i64 + a.dbyte) as u64;
            }
        }
        busy
    }

    fn assert_seg_matches(accs: &[SegAccess], rounds: u64, nprocs: usize, warm: &[(usize, u64, bool)]) {
        let mut a = m(nprocs);
        let mut b = m(nprocs);
        for &(p, addr, w) in warm {
            a.access(p, addr, w);
            b.access(p, addr, w);
        }
        let ca = seg_reference(&mut a, 0, accs, rounds);
        let mut accs_b = accs.to_vec();
        let cb = b.access_seg(0, &mut accs_b, rounds, None);
        assert_eq!(ca, cb, "total cost");
        assert_eq!(a.stats, b.stats, "counters");
        assert_eq!(a.last_line[0].line, b.last_line[0].line, "memo line");
        assert_eq!(a.last_line[0].state, b.last_line[0].state, "memo state");
        // Post-segment accesses behave identically (cache + dir state).
        for addr in (0..2048u64).step_by(48) {
            assert_eq!(a.access(0, addr, addr % 96 == 0), b.access(0, addr, addr % 96 == 0));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn access_seg_unit_stride_matches_reference() {
        // Two 4-byte read streams + one write stream, unit stride: the
        // shape of a transformed-layout segment (tiny config: 64B pages,
        // 16B lines, so plenty of boundary crossings in 200 rounds).
        let accs = [
            SegAccess { byte: 4096, dbyte: 4, write: false },
            SegAccess { byte: 8192, dbyte: 4, write: false },
            SegAccess { byte: 0, dbyte: 4, write: true },
        ];
        assert_seg_matches(&accs, 200, 2, &[]);
    }

    #[test]
    fn access_seg_mixed_strides_and_broadcast() {
        // 8-byte elements, a negative stride, and a dbyte==0 broadcast
        // slot (the LU divisor pattern).
        let accs = [
            SegAccess { byte: 2048, dbyte: 0, write: false },
            SegAccess { byte: 4000, dbyte: -8, write: false },
            SegAccess { byte: 256, dbyte: 8, write: true },
        ];
        assert_seg_matches(&accs, 120, 2, &[]);
    }

    #[test]
    fn access_seg_conflicting_slots_fall_back_exactly() {
        // tiny L1 = 16 sets: lines 0 and 16 collide, so the two streams
        // evict each other every round and the steady check must fail —
        // the per-round path has to stay bit-exact.
        let accs = [
            SegAccess { byte: 0, dbyte: 4, write: false },
            SegAccess { byte: 16 * 16, dbyte: 4, write: true },
        ];
        assert_seg_matches(&accs, 64, 1, &[]);
    }

    #[test]
    fn access_seg_after_remote_sharing() {
        // Warm the line Shared at another processor: the first write
        // round takes the upgrade path, steady rounds stay Modified.
        let accs = [
            SegAccess { byte: 0, dbyte: 4, write: false },
            SegAccess { byte: 0, dbyte: 4, write: true },
        ];
        assert_seg_matches(&accs, 40, 2, &[(1, 0, false), (1, 64, false), (0, 0, false)]);
    }

    #[test]
    fn access_seg_single_read_slot_all_fast_hits() {
        let accs = [SegAccess { byte: 0, dbyte: 4, write: false }];
        assert_seg_matches(&accs, 16, 1, &[]);
        // Same line throughout (4 rounds x 4 bytes inside a 16B line):
        // rounds 2..4 must be memo fast hits, like the reference.
        let mut mach = m(1);
        let mut accs = [SegAccess { byte: 0, dbyte: 4, write: false }];
        mach.access_seg(0, &mut accs, 4, None);
        assert_eq!(mach.stats.per_proc[0].l1_fast_hits, 3);
        assert_eq!(mach.stats.per_proc[0].l1_hits, 3);
        assert_eq!(mach.stats.per_proc[0].accesses, 4);
    }

    #[test]
    fn fast_path_invalidation_coherence() {
        let mut mach = m(2);
        mach.access(0, 0, false); // P0 Shared, last line
        mach.access(1, 0, true); // P1 writes: upgrade invalidates P0
        // P0's repeat read must NOT fast-hit the stale record: the line is
        // dirty at P1 now.
        let c = mach.access(0, 0, false);
        assert_eq!(c, mach.cfg.lat_remote_dirty);
    }
}
