//! Deterministic SPMD execution over the machine simulator.
//!
//! Each processor has its own cycle clock. A nest is executed by running
//! every participating processor's iteration subset against the shared
//! cache/directory state and accumulating per-processor busy cycles;
//! barriers join the clocks (plus barrier cost), pipelined nests advance
//! tile-by-tile behind their predecessor processor. Program values are
//! f64 arenas indexed by the transformed layouts, so numeric results are
//! identical across strategies and processor counts — which the tests
//! verify.
//!
//! ## Strided fast path
//!
//! The hot loop of the simulator is the innermost nest level: every
//! iteration recomputes each reference's transformed address from scratch
//! (affine access evaluation, strip-mine div/mod, permutation,
//! linearization). But within a strip of a strip-mined layout the address
//! moves by a *constant* delta per iteration, so the executor resolves
//! each statement reference once per segment into a
//! [`RefCursor`]`{byte, slot, dbyte, dslot}` via
//! [`dct_layout::DataLayout::affine_probe`] and then iterates with
//! integer adds, re-probing only at strip boundaries. The machine access
//! stream — every `(proc, addr, is_write)` in order — is exactly the one
//! the general walk produces, so cycles, statistics and checksums are
//! bit-identical between the two modes (the differential property tests
//! pin this). The fast path bails to the general walk for block-cyclic
//! distributed innermost levels, whose owned iterations are not an
//! arithmetic progression.

use crate::codegen::{LevelSched, SpmdNest, SpmdProgram, SyncKind};
use crate::cost::CostModel;
use crate::kernel::{self, KernelPlan, RdStream, WrStream};
use crate::race::Detector;
use dct_ir::{ArrayRef, BinOp, Expr, MemProfile, RaceReport};
use dct_machine::{Machine, MachineConfig, MemProbe, MissClasses, SegAccess, Stats, SyncOp};
use dct_profile::{LineRange, Profiler};

/// Executor-level fast-path counters (observability only; never feeds
/// back into cycles or statistics).
#[derive(Clone, Copy, Default, Debug)]
pub struct FastPathStats {
    /// Innermost iterations executed through segment cursors.
    pub fast_iters: u64,
    /// Innermost iterations executed through the general walk.
    pub slow_iters: u64,
    /// Segments entered (cursor re-probes, i.e. strip-boundary crossings
    /// plus one per innermost loop entry).
    pub segments: u64,
    /// Innermost iterations executed through fused segment kernels (a
    /// subset of `fast_iters`; the rest of the strided iterations ran the
    /// postfix interpreter).
    pub kernel_iters: u64,
    /// Kernel-shape histogram, indexed like
    /// [`crate::kernel::SHAPE_NAMES`]: iterations executed per shape.
    pub kernel_shapes: [u64; 6],
}

impl FastPathStats {
    /// Fraction of innermost iterations that took the strided path.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.fast_iters + self.slow_iters;
        if total == 0 {
            0.0
        } else {
            self.fast_iters as f64 / total as f64
        }
    }

    /// Fraction of innermost iterations executed through fused segment
    /// kernels (0 for runs that never entered a loop).
    pub fn kernelized_ratio(&self) -> f64 {
        let total = self.fast_iters + self.slow_iters;
        if total == 0 {
            0.0
        } else {
            self.kernel_iters as f64 / total as f64
        }
    }

    /// Fold a lane's counters in (plain integer sums).
    fn accumulate(&mut self, o: &FastPathStats) {
        self.fast_iters += o.fast_iters;
        self.slow_iters += o.slow_iters;
        self.segments += o.segments;
        self.kernel_iters += o.kernel_iters;
        for (a, b) in self.kernel_shapes.iter_mut().zip(&o.kernel_shapes) {
            *a += b;
        }
    }
}

/// Result of one simulated execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock cycles (max over processors at program end).
    pub cycles: u64,
    /// Final per-processor clocks.
    pub clocks: Vec<u64>,
    /// Machine statistics (misses, invalidations, ...).
    pub stats: Stats,
    /// Sum of all array elements (cheap numeric fingerprint).
    pub checksum: f64,
    /// Barriers executed.
    pub barriers: u64,
    /// 4-C miss classification per processor, when the machine was
    /// configured with `classify_misses`.
    pub miss_classes: Option<Vec<MissClasses>>,
    /// Total busy cycles per compute nest (summed over processors and time
    /// steps) — which nest dominates the execution.
    pub nest_cycles: Vec<u64>,
    /// Total busy cycles of the initialization nests.
    pub init_cycles: u64,
    /// Strided fast-path counters.
    pub fast: FastPathStats,
    /// The run hit its cycle or wall-clock budget and was aborted; the
    /// result is partial (the repro harness records it as a Timeout cell).
    pub timed_out: bool,
    /// The run was aborted by its cooperative [`dct_ir::CancelToken`] at a
    /// sync-point boundary; the result is partial and must be discarded
    /// (the supervisor retries or quarantines the cell).
    pub cancelled: bool,
    /// Happens-before race report, when the run was executed with
    /// `race_detect` enabled (`None` = detection was off).
    pub race: Option<RaceReport>,
    /// Memory-behavior profile — per-(nest, array, processor) attribution
    /// with 4-C miss classification and the true/false sharing split —
    /// when the run was executed with `profile` enabled (`None` =
    /// profiling was off).
    pub mem_profile: Option<MemProfile>,
    /// Always 0: there is no intra-cell parallel engine. Kept for
    /// callers that still read it.
    pub par_regions: u64,
    /// Nest executions (init and compute, every time step), all on the
    /// one sequential walk.
    pub seq_regions: u64,
}

/// A resolved reference inside a strided segment: current byte address and
/// arena slot plus their per-iteration deltas.
#[derive(Clone, Copy, Default)]
struct RefCursor {
    byte: u64,
    slot: usize,
    dbyte: i64,
    dslot: i64,
}

/// One postfix instruction of a flattened statement body (see
/// [`WalkCtx`]). Postfix order is exactly [`Expr`]'s DFS evaluation
/// order, so executing the ops performs the same machine accesses in the
/// same order as the recursive `eval`.
#[derive(Clone, Copy)]
pub(crate) enum BodyOp {
    /// Push a constant.
    Const(f64),
    /// Push loop index `ivec[l]`.
    Index(usize),
    /// Read the next cursor's element of array `x` and push it. `extra`
    /// is the statement's per-read cost adjustment, baked in at flatten
    /// time (postfix order equals the `read_extras` index order).
    Read { x: usize, extra: u64 },
    /// Pop two, push the combination.
    Bin(BinOp),
}

/// Maximum operand-stack depth of a flattened body (compiler-generated
/// expressions are shallow; codegen rejects deeper bodies with a
/// [`dct_ir::DctError`] before an executor is ever built).
pub(crate) const MAX_EVAL_STACK: usize = 32;

/// Operand-stack depth needed to evaluate `e` (postfix order): used by
/// codegen to reject too-deep statement bodies up front.
pub(crate) fn expr_stack_depth(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Index(_) | Expr::Ref(_) => 1,
        Expr::Bin(_, a, b) => expr_stack_depth(a).max(1 + expr_stack_depth(b)),
    }
}

fn flatten_expr(e: &Expr, extras: &[u64], ri: &mut usize, out: &mut Vec<BodyOp>) {
    match e {
        Expr::Const(c) => out.push(BodyOp::Const(*c)),
        Expr::Index(l) => out.push(BodyOp::Index(*l)),
        Expr::Ref(r) => {
            let extra = extras.get(*ri).copied().unwrap_or(0);
            *ri += 1;
            out.push(BodyOp::Read { x: r.array.0, extra });
        }
        Expr::Bin(op, a, b) => {
            flatten_expr(a, extras, ri, out);
            flatten_expr(b, extras, ri, out);
            out.push(BodyOp::Bin(*op));
        }
    }
}

/// Stack depth needed to execute `ops`.
fn stack_depth(ops: &[BodyOp]) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for op in ops {
        match op {
            BodyOp::Bin(_) => depth -= 1,
            _ => {
                depth += 1;
                max = max.max(depth);
            }
        }
    }
    max
}

/// Per-nest walk context, built once per nest execution instead of per
/// iteration: each statement's read references in evaluation (DFS) order,
/// and its right-hand side flattened to postfix [`BodyOp`]s so the hot
/// loop runs a linear instruction array instead of recursing through the
/// boxed expression tree.
struct WalkCtx<'n> {
    nest: &'n SpmdNest,
    /// `reads[s]` = read refs of statement `s` in `Expr::collect_refs`
    /// order (which matches `eval`'s recursion order).
    reads: Vec<Vec<&'n ArrayRef>>,
    /// `ops[s]` = postfix code of statement `s`'s right-hand side.
    ops: Vec<Vec<BodyOp>>,
    /// `(array, is_write)` of every segment cursor in `setup_cursors`
    /// order (per statement: the write first, then its reads) — the race
    /// detector's view of the cursor table.
    ref_info: Vec<(usize, bool)>,
    /// Fused segment-kernel plan for this nest's body, compiled once here
    /// (`None` = the body is outside the kernel envelope and every
    /// segment runs the postfix interpreter).
    plan: Option<KernelPlan>,
}

impl<'n> WalkCtx<'n> {
    fn new(nest: &'n SpmdNest) -> WalkCtx<'n> {
        let reads: Vec<Vec<&'n ArrayRef>> = nest
            .source
            .body
            .iter()
            .map(|s| {
                let mut v = Vec::new();
                s.rhs.collect_refs(&mut v);
                v
            })
            .collect();
        let mut ref_info = Vec::new();
        for (s, rds) in nest.source.body.iter().zip(&reads) {
            ref_info.push((s.lhs.array.0, true));
            for r in rds.iter() {
                ref_info.push((r.array.0, false));
            }
        }
        let ops: Vec<Vec<BodyOp>> = nest
            .source
            .body
            .iter()
            .zip(&nest.stmt_costs)
            .map(|(s, sc)| {
                let mut v = Vec::new();
                let mut ri = 0usize;
                flatten_expr(&s.rhs, &sc.read_extras, &mut ri, &mut v);
                assert!(stack_depth(&v) <= MAX_EVAL_STACK, "statement body too deep");
                v
            })
            .collect();
        let plan = kernel::build_plan(nest, &ops);
        WalkCtx { nest, reads, ops, ref_info, plan }
    }
}

/// The interpreter.
pub struct Executor<'a> {
    sp: &'a SpmdProgram,
    machine: Machine,
    arenas: Vec<Vec<f64>>,
    clocks: Vec<u64>,
    cost: CostModel,
    barriers: u64,
    /// Execute innermost levels through the strided segment engine
    /// (default). Disable to force the general walk everywhere — used by
    /// the differential tests that pin bit-exactness between both modes.
    pub fast_path: bool,
    /// Execute strided segments through fused segment kernels with
    /// line-batched machine accounting (default). Disable (or set the
    /// `DCT_SEG_KERNELS=0` env override) to force the postfix interpreter
    /// for every segment — bit-identical by contract, so this flag only
    /// trades speed; the differential tests pin the equality.
    pub seg_kernels: bool,
    /// Run the happens-before race detector alongside execution. A pure
    /// observer: cycles, statistics and results are unchanged; the run
    /// result gains a [`RaceReport`].
    pub race_detect: bool,
    /// Run the memory-behavior profiler alongside execution. Like the
    /// race detector a pure observer: it receives each access's
    /// already-decided outcome and cost, so cycles, statistics and
    /// results are unchanged; the run result gains a [`MemProfile`].
    pub profile: bool,
    /// Ignored: a simulation always runs on the calling thread (host
    /// parallelism comes from running several cells at once). Kept only
    /// so callers that still assign it build.
    pub threads: usize,
    /// Abort the run once the slowest processor clock exceeds this many
    /// simulated cycles (checked at nest boundaries).
    pub max_cycles: Option<u64>,
    /// Abort the run after this much host wall-clock time (checked at nest
    /// boundaries).
    pub max_wall: Option<std::time::Duration>,
    /// Cooperative cancellation flag, polled at sync-point boundaries
    /// (nest ends, lane switches, pipeline-chain members). `None` = never cancelled; polling costs one atomic load
    /// per boundary, nothing on the innermost path.
    pub cancel: Option<dct_ir::CancelToken>,
    /// Per-processor grid coordinates, precomputed.
    coords: Vec<Vec<usize>>,
    /// Reusable iteration vector (hoisted out of the per-processor and
    /// per-tile loops; the walk leaves it zeroed on exit).
    scratch_ivec: Vec<i64>,
    /// Scratch buffers for allocation-free address computation (shared by
    /// every lane).
    scratch: Scratch,
    fast: FastPathStats,
    /// Per-compute-nest busy-cycle accumulators.
    nest_cycles: Vec<u64>,
    init_cycles: u64,
    /// Accumulator target for the nest currently executing.
    current_acc: Option<usize>,
    /// The happens-before detector, created at `run()` when
    /// `race_detect` is set (boxed: the executor hot state stays small).
    race: Option<Box<Detector>>,
    /// The memory profiler, created at `run()` when `profile` is set.
    profiler: Option<Box<Profiler>>,
    /// Nest executions so far (reported as `RunResult::seq_regions`).
    regions: u64,
}

impl<'a> Executor<'a> {
    pub fn new(sp: &'a SpmdProgram, machine_cfg: MachineConfig, cost: CostModel) -> Executor<'a> {
        assert_eq!(machine_cfg.nprocs, sp.nprocs);
        let arenas = sp.layouts.iter().map(|l| vec![0.0f64; l.layout.size() as usize]).collect();
        let coords = (0..sp.nprocs).map(|p| sp.coords_of(p)).collect();
        Executor {
            sp,
            machine: Machine::new(machine_cfg),
            arenas,
            clocks: vec![0; sp.nprocs],
            cost,
            barriers: 0,
            fast_path: true,
            seg_kernels: env_seg_kernels(),
            race_detect: false,
            profile: false,
            threads: 1,
            max_cycles: None,
            max_wall: None,
            cancel: None,
            coords,
            scratch_ivec: Vec::with_capacity(8),
            scratch: Scratch::default(),
            fast: FastPathStats::default(),
            nest_cycles: vec![0; sp.nests.len()],
            init_cycles: 0,
            current_acc: None,
            race: None,
            profiler: None,
            regions: 0,
        }
    }

    /// Construct the memory profiler for this program: attribution sites
    /// are init nests followed by compute nests; array identity is
    /// recovered from line numbers via the allocation ranges (a
    /// replicated array's range spans all per-processor replicas).
    fn build_profiler(&self) -> Profiler {
        let sp = self.sp;
        let cfg = &self.machine.cfg;
        let line = cfg.line_bytes.max(1) as u64;
        let l1_lines = cfg.l1_bytes / cfg.line_bytes.max(1);
        let ranges = (0..sp.layouts.len())
            .map(|x| {
                let bytes = if sp.repl_stride[x] > 0 {
                    sp.repl_stride[x] * sp.nprocs as u64
                } else {
                    sp.layouts[x].layout.size() as u64 * sp.elem_bytes[x]
                };
                LineRange {
                    start: sp.bases[x] / line,
                    end: (sp.bases[x] + bytes).div_ceil(line),
                    array: x,
                }
            })
            .collect();
        let nsites = sp.init.len() + sp.nests.len();
        Profiler::new(sp.nprocs, nsites, sp.layouts.len(), l1_lines, ranges)
    }

    /// Run the whole program: init nests, then the (possibly time-stepped)
    /// compute schedule. A configured cycle or wall-clock budget is
    /// checked at nest boundaries; a runaway simulation returns a partial
    /// result flagged `timed_out` instead of hanging its sweep.
    pub fn run(&mut self) -> RunResult {
        if self.race_detect && self.race.is_none() {
            self.race = Some(Box::new(Detector::new(self.sp)));
        }
        if self.profile && self.profiler.is_none() {
            self.profiler = Some(Box::new(self.build_profiler()));
        }
        let started = std::time::Instant::now();
        let mut timed_out = false;
        let mut cancelled = false;
        let mut params = self.sp.params.clone();
        if let Some(tp) = self.sp.time_param {
            params[tp] = 0;
        }
        'run: {
            for k in 0..self.sp.init.len() {
                self.exec_nest_idx(true, k, &params);
                self.barrier();
                if self.cancel_requested() {
                    cancelled = true;
                    break 'run;
                }
                if self.over_budget(started) {
                    timed_out = true;
                    break 'run;
                }
            }
            for t in 0..self.sp.time_steps {
                if let Some(tp) = self.sp.time_param {
                    params[tp] = t;
                }
                for j in 0..self.sp.nests.len() {
                    self.exec_nest_idx(false, j, &params);
                    // Skip the trailing sync of the very last nest execution;
                    // the final max() below plays that role.
                    let last = t == self.sp.time_steps - 1 && j == self.sp.nests.len() - 1;
                    if !last {
                        match self.sp.nests[j].sync_after {
                            SyncKind::Barrier => self.barrier(),
                            SyncKind::ProducerWait => self.producer_wait(),
                            SyncKind::None => {}
                        }
                    }
                    if self.cancel_requested() {
                        cancelled = true;
                        break 'run;
                    }
                    if self.over_budget(started) {
                        timed_out = true;
                        break 'run;
                    }
                }
            }
        }
        let cycles = self.clocks.iter().copied().max().unwrap_or(0);
        RunResult {
            cycles,
            clocks: self.clocks.clone(),
            stats: self.machine.stats.clone(),
            checksum: self.checksum(),
            barriers: self.barriers,
            miss_classes: self.machine.miss_classes(),
            nest_cycles: self.nest_cycles.clone(),
            init_cycles: self.init_cycles,
            fast: self.fast,
            timed_out,
            cancelled,
            race: self.race.as_ref().map(|d| d.report_snapshot()),
            mem_profile: self.profiler.as_ref().map(|p| {
                let sites = self
                    .sp
                    .init
                    .iter()
                    .chain(self.sp.nests.iter())
                    .map(|n| n.source.name.clone())
                    .collect();
                p.snapshot(sites, self.sp.init.len(), self.sp.array_names.clone())
            }),
            par_regions: 0,
            seq_regions: self.regions,
        }
    }

    /// Has the cooperative cancellation token been set? Polled at every
    /// sync-point boundary; a cancelled run aborts with a partial result
    /// flagged `cancelled` that the supervisor discards.
    fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    fn over_budget(&self, started: std::time::Instant) -> bool {
        if let Some(mc) = self.max_cycles {
            if self.clocks.iter().copied().max().unwrap_or(0) > mc {
                return true;
            }
        }
        if let Some(mw) = self.max_wall {
            if started.elapsed() > mw {
                return true;
            }
        }
        false
    }

    /// Read an array's values in original index order (for verification).
    pub fn values(&self, x: usize) -> Vec<f64> {
        let lay = &self.sp.layouts[x];
        let dims = lay.layout.orig_dims().to_vec();
        let mut out = Vec::with_capacity(dims.iter().product::<i64>() as usize);
        let mut idx = vec![0i64; dims.len()];
        loop {
            out.push(self.arenas[x][lay.layout.address_of(&idx) as usize]);
            // Odometer increment (first dim fastest = column-major order).
            let mut d = 0;
            loop {
                if d == dims.len() {
                    return out;
                }
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
                d += 1;
            }
        }
    }

    pub fn checksum(&self) -> f64 {
        checksum_arenas(&self.arenas)
    }

    fn barrier(&mut self) {
        self.barriers += 1;
        let m = self.clocks.iter().copied().max().unwrap_or(0);
        let c = m + self.machine.sync(SyncOp::Barrier { active: self.sp.nprocs });
        for x in &mut self.clocks {
            *x = c;
        }
        if let Some(d) = self.race.as_deref_mut() {
            d.global_sync();
        }
    }

    fn producer_wait(&mut self) {
        let m = self.clocks.iter().copied().max().unwrap_or(0);
        let c = m + self.machine.sync(SyncOp::LockHandoff);
        for x in &mut self.clocks {
            *x = c;
        }
        // The executor's producer-wait joins every cycle clock, so the
        // matching happens-before edge is barrier-strength too.
        if let Some(d) = self.race.as_deref_mut() {
            d.global_sync();
        }
    }

    fn exec_nest_idx(&mut self, init: bool, idx: usize, params: &[i64]) {
        // Reborrowing through the shared program reference detaches the
        // nest's lifetime from `self`, so no clone of the scheduling
        // metadata is needed during execution.
        let sp = self.sp;
        let nest: &'a SpmdNest = if init { &sp.init[idx] } else { &sp.nests[idx] };
        self.current_acc = if init { None } else { Some(idx) };
        if let Some(d) = self.race.as_deref_mut() {
            d.set_site(init, idx, sp.init.len());
        }
        if let Some(pf) = self.profiler.as_deref_mut() {
            pf.set_site(if init { idx } else { sp.init.len() + idx });
        }
        self.regions += 1;
        if nest.pipeline.is_some() {
            self.exec_pipelined(nest, params);
        } else {
            self.exec_doall(nest, params);
        }
        self.current_acc = None;
    }

    /// Record busy cycles against the executing nest's accumulator.
    fn account(&mut self, busy: u64) {
        match self.current_acc {
            Some(j) => self.nest_cycles[j] += busy,
            None => self.init_cycles += busy,
        }
    }

    /// Which processors participate, given the gates at this time step.
    fn participants(&self, nest: &SpmdNest, params: &[i64]) -> Vec<usize> {
        (0..self.sp.nprocs)
            .filter(|&p| {
                nest.gates.iter().all(|g| {
                    let v = g.aff.eval(&[], params);
                    let procs = self.sp.grid.get(g.proc_dim).copied().unwrap_or(1) as i64;
                    let owner = if g.extent >= i64::MAX / 2 {
                        v.rem_euclid(procs.max(1))
                    } else {
                        g.folding.owner(v, g.extent, procs.max(1))
                    };
                    self.coords[p].get(g.proc_dim).map_or(0, |&c| c as i64) == owner
                })
            })
            .collect()
    }

    fn exec_doall(&mut self, nest: &SpmdNest, params: &[i64]) {
        let ctx = WalkCtx::new(nest);
        let mut ivec = std::mem::take(&mut self.scratch_ivec);
        ivec.clear();
        ivec.resize(nest.source.depth, 0);
        // Replicated writes run on every processor (each initializes its
        // own replica); otherwise only the gate-selected participants.
        let procs: Vec<usize> = if nest.replicated_write {
            (0..self.sp.nprocs).collect()
        } else {
            self.participants(nest, params)
        };
        let mut total = 0u64;
        let token = self.cancel.clone();
        // Built from individual fields (not a helper method) so the
        // borrow checker lets the loop update `self.clocks` alongside.
        let mut lane = Lane {
            sp: self.sp,
            cost: &self.cost,
            coords: &self.coords,
            machine: &mut self.machine,
            arenas: &mut self.arenas,
            profiler: self.profiler.as_deref_mut(),
            race: self.race.as_deref_mut(),
            fast_path: self.fast_path,
            kernels: self.seg_kernels,
            scratch: &mut self.scratch,
            fast: FastPathStats::default(),
        };
        for p in procs {
            // Lane switches are sync-point boundaries: a cancelled run
            // stops issuing lanes and aborts at the enclosing nest end.
            if token.as_ref().is_some_and(|t| t.is_cancelled()) {
                break;
            }
            let busy = lane.walk(&ctx, p, 0, &mut ivec, params, None);
            total += busy;
            self.clocks[p] += busy;
        }
        let fast = lane.fast;
        self.fast.accumulate(&fast);
        self.account(total);
        self.scratch_ivec = ivec;
    }

    /// Doacross pipeline: processors along the pipeline grid dimension
    /// proceed tile-by-tile behind their predecessor.
    fn exec_pipelined(&mut self, nest: &SpmdNest, params: &[i64]) {
        let spec = nest.pipeline.unwrap();
        let parts = self.participants(nest, params);
        let pipe_dim = match nest.sched[spec.seq_level] {
            LevelSched::Dist { proc_dim, .. } => proc_dim,
            _ => 0,
        };
        // Tile ranges along tile_level (bounds must be outer-invariant).
        let zeros = vec![0i64; nest.source.depth];
        let tlo = nest.source.bounds[spec.tile_level].eval_lo(&zeros, params);
        let thi = nest.source.bounds[spec.tile_level].eval_hi(&zeros, params);
        let span = (thi - tlo + 1).max(0);
        if span == 0 {
            return;
        }
        let ntiles = spec.tiles.min(span).max(1);
        let tile = (span + ntiles - 1) / ntiles;

        // Group participants into chains: same coords on every dim except
        // the pipeline dim, ordered by pipeline coordinate.
        let mut chains: std::collections::BTreeMap<Vec<usize>, Vec<usize>> = Default::default();
        for &p in &parts {
            let mut key = self.coords[p].clone();
            if pipe_dim < key.len() {
                key[pipe_dim] = 0;
            }
            chains.entry(key).or_default().push(p);
        }
        let ctx = WalkCtx::new(nest);
        let mut ivec = std::mem::take(&mut self.scratch_ivec);
        ivec.clear();
        ivec.resize(nest.source.depth, 0);
        let lock = self.machine.cfg.lock_cost;
        let mut total = 0u64;
        let token = self.cancel.clone();
        let mut lane = Lane {
            sp: self.sp,
            cost: &self.cost,
            coords: &self.coords,
            machine: &mut self.machine,
            arenas: &mut self.arenas,
            profiler: self.profiler.as_deref_mut(),
            race: self.race.as_deref_mut(),
            fast_path: self.fast_path,
            kernels: self.seg_kernels,
            scratch: &mut self.scratch,
            fast: FastPathStats::default(),
        };
        for (_, mut chain) in chains {
            chain.sort_by_key(|&p| self.coords[p].get(pipe_dim).copied().unwrap_or(0));
            let mut prev_done: Vec<u64> = vec![0; ntiles as usize];
            // Predecessor's released detector clocks, one per tile (empty
            // when detection is off or for the chain head).
            let mut prev_rel: Vec<Vec<u64>> = Vec::new();
            let mut head = true;
            for &p in &chain {
                // Chain-member handoffs are sync-point boundaries too.
                if token.as_ref().is_some_and(|t| t.is_cancelled()) {
                    break;
                }
                let mut clock = self.clocks[p];
                let mut done = Vec::with_capacity(ntiles as usize);
                let mut rel: Vec<Vec<u64>> = Vec::new();
                for r in 0..ntiles {
                    let rlo = tlo + r * tile;
                    let rhi = (rlo + tile - 1).min(thi);
                    // Chain members behind a predecessor acquire its
                    // per-tile handoff (same lock cost the clock model
                    // already charges).
                    let lk = if head {
                        lock
                    } else {
                        let c = lane.machine.sync(SyncOp::PipelineHandoff);
                        lane.race_acquire(p, r as usize, &prev_rel);
                        c
                    };
                    let start = clock.max(prev_done[r as usize].saturating_add(lk));
                    let busy =
                        lane.walk(&ctx, p, 0, &mut ivec, params, Some((spec.tile_level, rlo, rhi)));
                    total += busy;
                    clock = start + busy;
                    done.push(clock);
                    // Release after each tile: later tiles open a new
                    // epoch the successor's acquire does not cover.
                    rel.push(lane.race_release(p));
                }
                self.clocks[p] = clock;
                prev_done = done;
                prev_rel = rel;
                head = false;
            }
        }
        let fast = lane.fast;
        self.fast.accumulate(&fast);
        self.account(total);
        self.scratch_ivec = ivec;
    }
}

/// `DCT_SEG_KERNELS` env override for the fused-kernel default: `0`,
/// `off`, or `false` disables kernels; anything else (or unset) keeps
/// them on.
fn env_seg_kernels() -> bool {
    match std::env::var("DCT_SEG_KERNELS") {
        Ok(v) => !matches!(v.as_str(), "0" | "off" | "false"),
        Err(_) => true,
    }
}

/// Reusable buffers for allocation-free address computation, one set per
/// executor.
#[derive(Default)]
struct Scratch {
    /// Evaluated index vector of the reference being resolved.
    idx: Vec<i64>,
    /// Layout address-computation scratch.
    lay: Vec<i64>,
    /// Per-dimension index slopes for `affine_probe`.
    didx: Vec<i64>,
    /// `affine_probe` slope tracking.
    probe: Vec<(i64, i64)>,
    /// Segment cursors, one per statement reference of the current nest.
    cursors: Vec<RefCursor>,
    /// Kernel-path machine access vector (per statement: reads in postfix
    /// order, then the write — the interpreter's access order).
    seg_accs: Vec<SegAccess>,
    /// Kernel-path resolved read streams, in the same order as the plan's
    /// per-statement reads.
    rd_streams: Vec<RdStream>,
    /// Kernel-path resolved write streams, one per statement.
    wr_streams: Vec<WrStream>,
}

/// The walk engine over the executor's machine and arenas. A lane
/// executes one processor at a time, with the race detector and the
/// profiler (when attached) observing every access inline.
struct Lane<'e> {
    sp: &'e SpmdProgram,
    cost: &'e CostModel,
    coords: &'e [Vec<usize>],
    machine: &'e mut Machine,
    arenas: &'e mut [Vec<f64>],
    profiler: Option<&'e mut Profiler>,
    race: Option<&'e mut Detector>,
    fast_path: bool,
    /// Dispatch strided segments to fused kernels when the nest has a
    /// plan (false = postfix interpreter for every segment).
    kernels: bool,
    scratch: &'e mut Scratch,
    fast: FastPathStats,
}

impl Lane<'_> {
    /// One machine access, observed by the profiler when attached.
    #[inline]
    fn access(&mut self, proc: usize, byte_addr: u64, write: bool) -> u64 {
        match self.profiler.as_deref_mut() {
            Some(p) => {
                self.machine.access_probed(proc, byte_addr, write, Some(p as &mut dyn MemProbe))
            }
            None => self.machine.access(proc, byte_addr, write),
        }
    }

    /// Report one element access to the race detector, when attached.
    #[inline]
    fn race_access(&mut self, proc: usize, x: usize, slot: usize, write: bool) {
        if let Some(d) = self.race.as_deref_mut() {
            d.access(proc, x, slot, write);
        }
    }

    /// Recursive loop walk; returns busy cycles for this processor.
    fn walk(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        tile: Option<(usize, i64, i64)>,
    ) -> u64 {
        let nest = ctx.nest;
        if level == nest.source.depth {
            return self.exec_body(nest, proc, ivec, params);
        }
        let mut lo = nest.source.bounds[level].eval_lo(ivec, params);
        let mut hi = nest.source.bounds[level].eval_hi(ivec, params);
        if let Some((tl, rlo, rhi)) = tile {
            if tl == level {
                lo = lo.max(rlo);
                hi = hi.min(rhi);
            }
        }
        let innermost = level + 1 == nest.source.depth;
        let mut busy = 0u64;
        match &nest.sched[level] {
            LevelSched::Seq => {
                if self.fast_path && innermost {
                    let count = (hi - lo + 1).max(0);
                    if count > 0 {
                        busy += self.walk_innermost_strided(ctx, proc, level, ivec, params, lo, 1, count);
                    }
                } else {
                    for v in lo..=hi {
                        ivec[level] = v;
                        busy += self.cost.loop_iter + self.walk(ctx, proc, level + 1, ivec, params, tile);
                    }
                }
            }
            LevelSched::Dist { proc_dim, folding, extent, offset } => {
                let q = self.coords[proc].get(*proc_dim).copied().unwrap_or(0) as i64;
                let procs = self.sp.grid.get(*proc_dim).copied().unwrap_or(1) as i64;
                let off = offset.eval(&[], params);
                let it = owned_iter(lo, hi, off, *extent, procs, q, *folding);
                match it.progression() {
                    // Owned iterations form an arithmetic progression
                    // (block or cyclic folding): strided execution.
                    Some((start, step, count)) if self.fast_path && innermost => {
                        if count > 0 {
                            busy += self
                                .walk_innermost_strided(ctx, proc, level, ivec, params, start, step, count);
                        }
                    }
                    _ => {
                        for v in it {
                            ivec[level] = v;
                            busy +=
                                self.cost.loop_iter + self.walk(ctx, proc, level + 1, ivec, params, tile);
                        }
                    }
                }
            }
        }
        ivec[level] = 0;
        busy
    }

    /// Strided innermost execution: iterate `v = start + t*step` for
    /// `count` iterations, re-resolving reference cursors only at layout
    /// segment boundaries. Produces exactly the machine access stream of
    /// the general walk.
    fn walk_innermost_strided(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        level: usize,
        ivec: &mut Vec<i64>,
        params: &[i64],
        start: i64,
        step: i64,
        count: i64,
    ) -> u64 {
        let mut busy = 0u64;
        let mut v = start;
        let mut remaining = count;
        while remaining > 0 {
            ivec[level] = v;
            let seg = self.setup_cursors(ctx, proc, ivec, params, level, step).min(remaining);
            self.fast.segments += 1;
            self.fast.fast_iters += seg as u64;
            if self.race.is_some() {
                self.race_segment(ctx, proc, seg);
            }
            let kern = if self.kernels {
                self.exec_segment_kernel(ctx, proc, ivec, level, v, step, seg)
            } else {
                None
            };
            match kern {
                Some(b) => {
                    busy += b;
                    self.fast.kernel_iters += seg as u64;
                    if let Some(p) = &ctx.plan {
                        self.fast.kernel_shapes[p.shape as usize] += seg as u64;
                    }
                    v += step * seg;
                }
                None => {
                    for _ in 0..seg {
                        ivec[level] = v;
                        busy += self.cost.loop_iter + self.exec_body_fast(ctx, proc, ivec);
                        self.advance_cursors();
                        v += step;
                    }
                }
            }
            remaining -= seg;
        }
        ivec[level] = 0;
        busy
    }

    /// Execute one whole strided segment through the fused kernel layer:
    /// one line-batched [`Machine::access_seg`] call for the machine
    /// accounting plus a shape-specialized value sweep over raw arena
    /// slices ([`kernel::exec_values`]). Returns `None` — with no machine,
    /// arena, or cursor state touched — when the segment must take the
    /// interpreter path instead (no plan, too short, or a sweep would
    /// leave its arena bounds).
    fn exec_segment_kernel(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        ivec: &[i64],
        level: usize,
        v0: i64,
        step: i64,
        seg: i64,
    ) -> Option<u64> {
        let plan = ctx.plan.as_ref()?;
        if seg < kernel::MIN_KERNEL_SEG {
            return None;
        }
        let sc = &mut *self.scratch;
        sc.seg_accs.clear();
        sc.rd_streams.clear();
        sc.wr_streams.clear();
        // Resolve every cursor into a raw stream, bounds-checking the full
        // sweep (`slot + t*dslot`, `t in 0..seg`) against its arena — a
        // kernel must never touch memory the interpreter would not.
        for (&(x, is_write), c) in ctx.ref_info.iter().zip(&sc.cursors) {
            let arena = &mut self.arenas[x];
            let (ptr, len) = (arena.as_mut_ptr(), arena.len());
            let first = c.slot as i64;
            let last = first + (seg - 1) * c.dslot;
            let (lo, hi) = (first.min(last), first.max(last));
            if lo < 0 || hi >= len as i64 {
                return None;
            }
            if is_write {
                sc.wr_streams.push(WrStream { ptr, slot: first, dslot: c.dslot });
            } else {
                sc.rd_streams.push(RdStream { ptr, slot: first, dslot: c.dslot });
            }
        }
        // Machine access vector: per statement, reads in postfix order
        // then the write — exactly the interpreter's access order.
        let mut k = 0usize;
        for sp in &plan.stmts {
            let w = sc.cursors[k];
            for c in &sc.cursors[k + 1..k + 1 + sp.nreads] {
                sc.seg_accs.push(SegAccess { byte: c.byte, dbyte: c.dbyte, write: false });
            }
            sc.seg_accs.push(SegAccess { byte: w.byte, dbyte: w.dbyte, write: true });
            k += 1 + sp.nreads;
        }
        // Unrolled sweeps require the write stream to alias no read
        // stream (single-statement bodies only; multi-statement bodies
        // take the ordered element-major path regardless).
        let mut unroll_safe = plan.stmts.len() == 1;
        if unroll_safe {
            let (wx, _) = ctx.ref_info[0];
            let w = &sc.cursors[0];
            let (wfirst, wlast) = (w.slot as i64, w.slot as i64 + (seg - 1) * w.dslot);
            let (wlo, whi) = (wfirst.min(wlast), wfirst.max(wlast));
            for (&(x, _), c) in ctx.ref_info[1..].iter().zip(&sc.cursors[1..]) {
                if x != wx {
                    continue;
                }
                let (rfirst, rlast) = (c.slot as i64, c.slot as i64 + (seg - 1) * c.dslot);
                let (rlo, rhi) = (rfirst.min(rlast), rfirst.max(rlast));
                if rlo <= whi && wlo <= rhi {
                    unroll_safe = false;
                    break;
                }
            }
        }
        let probe = self.profiler.as_deref_mut().map(|p| p as &mut dyn MemProbe);
        let busy = seg as u64 * (self.cost.loop_iter + plan.extra_cycles)
            + self.machine.access_seg(proc, &mut sc.seg_accs, seg as u64, probe);
        // SAFETY: every stream's sweep was bounds-checked against its
        // arena above, and the arena pointers outlive this call (the lane
        // holds the arenas mutably borrowed).
        unsafe {
            kernel::exec_values(
                plan,
                &sc.wr_streams,
                &sc.rd_streams,
                seg,
                ivec,
                level,
                v0,
                step,
                unroll_safe,
            );
        }
        Some(busy)
    }

    /// Resolve every reference of the nest body at the current iteration
    /// point into a [`RefCursor`], returning the number of iterations the
    /// cursors stay exact (>= 1, the minimum segment length over all
    /// references).
    fn setup_cursors(
        &mut self,
        ctx: &WalkCtx,
        proc: usize,
        ivec: &[i64],
        params: &[i64],
        level: usize,
        step: i64,
    ) -> i64 {
        let sp = self.sp;
        let sc = &mut *self.scratch;
        sc.cursors.clear();
        let mut seg = i64::MAX;
        for (s, reads) in ctx.nest.source.body.iter().zip(&ctx.reads) {
            for r in std::iter::once(&s.lhs).chain(reads.iter().copied()) {
                let x = r.array.0;
                r.access.eval_into(ivec, params, &mut sc.idx);
                sc.didx.clear();
                for d in 0..sc.idx.len() {
                    sc.didx.push(r.access.mat.row(d)[level] * step);
                }
                let lay = &sp.layouts[x].layout;
                let (elem, slope, steps) = lay.affine_probe(&sc.idx, &sc.didx, &mut sc.probe);
                debug_assert!(
                    elem >= 0 && elem < lay.size(),
                    "array {x} index {:?} out of bounds",
                    sc.idx
                );
                seg = seg.min(steps);
                sc.cursors.push(RefCursor {
                    byte: sp.bases[x] + sp.repl_stride[x] * proc as u64 + elem as u64 * sp.elem_bytes[x],
                    slot: elem as usize,
                    dbyte: slope * sp.elem_bytes[x] as i64,
                    dslot: slope,
                });
            }
        }
        seg
    }

    /// Advance every cursor by its per-iteration delta. Split into
    /// fixed-width groups of four so the adds form independent chains the
    /// host can vectorize; this runs once per innermost iteration.
    #[inline]
    fn advance_cursors(&mut self) {
        let mut chunks = self.scratch.cursors.chunks_exact_mut(4);
        for ch in &mut chunks {
            for c in ch {
                c.byte = (c.byte as i64 + c.dbyte) as u64;
                c.slot = (c.slot as i64 + c.dslot) as usize;
            }
        }
        for c in chunks.into_remainder() {
            c.byte = (c.byte as i64 + c.dbyte) as u64;
            c.slot = (c.slot as i64 + c.dslot) as usize;
        }
    }

    /// Report a whole strided segment to the race detector: one interval
    /// per reference cursor. Exact, not an approximation — no sync can
    /// occur inside a segment and the simulator runs one processor at a
    /// time, so every element access in the segment carries the same
    /// `proc:epoch` and per-reference batching observes the same
    /// happens-before facts as the per-iteration general walk.
    fn race_segment(&mut self, ctx: &WalkCtx, proc: usize, seg: i64) {
        if let Some(d) = self.race.as_deref_mut() {
            for (c, &(x, is_write)) in self.scratch.cursors.iter().zip(&ctx.ref_info) {
                d.range_access(proc, x, c.slot, c.dslot, seg, is_write);
            }
        }
    }

    /// Statement body through segment cursors and flattened postfix code;
    /// mirrors [`Self::exec_body`] exactly (same access order, same cost
    /// accounting).
    fn exec_body_fast(&mut self, ctx: &WalkCtx, proc: usize, ivec: &[i64]) -> u64 {
        let mut busy = 0u64;
        let mut k = 0usize;
        for ((s, sc), ops) in ctx.nest.source.body.iter().zip(&ctx.nest.stmt_costs).zip(&ctx.ops) {
            let wcur = self.scratch.cursors[k];
            let mut cur = k + 1;
            let mut stack = [0f64; MAX_EVAL_STACK];
            let mut top = 0usize;
            for op in ops {
                match *op {
                    BodyOp::Const(c) => {
                        stack[top] = c;
                        top += 1;
                    }
                    BodyOp::Index(l) => {
                        stack[top] = ivec[l] as f64;
                        top += 1;
                    }
                    BodyOp::Read { x, extra } => {
                        let c0 = self.scratch.cursors[cur];
                        cur += 1;
                        busy += self.access(proc, c0.byte, false) + extra;
                        stack[top] = self.arenas[x][c0.slot];
                        top += 1;
                    }
                    BodyOp::Bin(op) => {
                        top -= 1;
                        let b = stack[top];
                        let a = stack[top - 1];
                        stack[top - 1] = match op {
                            BinOp::Add => a + b,
                            BinOp::Sub => a - b,
                            BinOp::Mul => a * b,
                            BinOp::Div => a / b,
                        };
                    }
                }
            }
            let val = stack[top - 1];
            busy += sc.flop_cycles;
            busy += self.access(proc, wcur.byte, true) + sc.write_extra;
            self.arenas[s.lhs.array.0][wcur.slot] = val;
            k = cur;
        }
        busy
    }

    fn exec_body(&mut self, nest: &SpmdNest, proc: usize, ivec: &[i64], params: &[i64]) -> u64 {
        self.fast.slow_iters += 1;
        let mut busy = 0u64;
        for (s, sc) in nest.source.body.iter().zip(&nest.stmt_costs) {
            let mut read_idx = 0;
            let (val, c) = self.eval(proc, &s.rhs, ivec, params, &sc.read_extras, &mut read_idx);
            busy += c + sc.flop_cycles;
            // Write.
            let x = s.lhs.array.0;
            let (addr, slot) = self.addr_of_ref(proc, x, &s.lhs.access, ivec, params);
            self.race_access(proc, x, slot, true);
            busy += self.access(proc, addr, true) + sc.write_extra;
            self.arenas[x][slot] = val;
        }
        busy
    }

    #[allow(clippy::only_used_in_recursion)]
    fn eval(
        &mut self,
        proc: usize,
        e: &Expr,
        ivec: &[i64],
        params: &[i64],
        read_extras: &[u64],
        read_idx: &mut usize,
    ) -> (f64, u64) {
        match e {
            Expr::Const(c) => (*c, 0),
            Expr::Index(l) => (ivec[*l] as f64, 0),
            Expr::Ref(r) => {
                let x = r.array.0;
                let (addr, slot) = self.addr_of_ref(proc, x, &r.access, ivec, params);
                self.race_access(proc, x, slot, false);
                let extra = read_extras.get(*read_idx).copied().unwrap_or(0);
                *read_idx += 1;
                let c = self.access(proc, addr, false) + extra;
                (self.arenas[x][slot], c)
            }
            Expr::Bin(op, a, b) => {
                let (va, ca) = self.eval(proc, a, ivec, params, read_extras, read_idx);
                let (vb, cb) = self.eval(proc, b, ivec, params, read_extras, read_idx);
                let v = match op {
                    BinOp::Add => va + vb,
                    BinOp::Sub => va - vb,
                    BinOp::Mul => va * vb,
                    BinOp::Div => va / vb,
                };
                (v, ca + cb)
            }
        }
    }

    /// Byte address and arena slot of a reference at an iteration point,
    /// applying the per-processor replica stride when the array is
    /// replicated. Allocation-free (reuses executor scratch).
    fn addr_of_ref(
        &mut self,
        proc: usize,
        x: usize,
        access: &dct_ir::AffineAccess,
        ivec: &[i64],
        params: &[i64],
    ) -> (u64, usize) {
        let sc = &mut *self.scratch;
        access.eval_into(ivec, params, &mut sc.idx);
        let lay = &self.sp.layouts[x];
        let elem = lay.layout.address_of_buf(&sc.idx, &mut sc.lay);
        debug_assert!(
            elem >= 0 && elem < lay.layout.size(),
            "array {x} index {:?} out of bounds",
            sc.idx
        );
        let byte = self.sp.bases[x]
            + self.sp.repl_stride[x] * proc as u64
            + elem as u64 * self.sp.elem_bytes[x];
        (byte, elem as usize)
    }

    /// Pipeline-handoff acquire edge: the live detector consumes the
    /// predecessor's released clocks for tile `r`.
    fn race_acquire(&mut self, proc: usize, r: usize, prev_rel: &[Vec<u64>]) {
        if let (Some(d), Some(snap)) = (self.race.as_deref_mut(), prev_rel.get(r)) {
            d.acquire(proc, snap);
        }
    }

    /// Release edge after a pipeline tile; returns the released clocks
    /// (empty when detection is off).
    fn race_release(&mut self, proc: usize) -> Vec<u64> {
        match self.race.as_deref_mut() {
            Some(d) => d.release(proc),
            None => Vec::new(),
        }
    }
}

// The checksum-bits format lives in dct-ir so the native backend folds
// final values through the exact same function (see `dct_ir::checksum`).
use dct_ir::checksum_arenas;

/// Iteration subset of `[lo, hi]` owned by grid coordinate `q`: a concrete
/// enum iterator (no per-loop-entry allocation). Block and cyclic foldings
/// yield arithmetic progressions the strided executor can consume
/// directly; block-cyclic owners are scattered and fall back to a filter.
pub enum OwnedIter {
    /// Contiguous `next..=hi`.
    Range { next: i64, hi: i64 },
    /// `next, next+step, ...` up to `hi`.
    Stepped { next: i64, hi: i64, step: i64 },
    /// Membership-filtered scan (block-cyclic folding).
    Filtered { next: i64, hi: i64, off: i64, extent: i64, procs: i64, q: i64, folding: dct_decomp::Folding },
}

impl OwnedIter {
    /// `(start, step, count)` when the owned set is an arithmetic
    /// progression; `None` for block-cyclic foldings.
    pub fn progression(&self) -> Option<(i64, i64, i64)> {
        match *self {
            OwnedIter::Range { next, hi } => Some((next, 1, (hi - next + 1).max(0))),
            OwnedIter::Stepped { next, hi, step } => {
                let count = if next > hi { 0 } else { (hi - next) / step + 1 };
                Some((next, step, count))
            }
            OwnedIter::Filtered { .. } => None,
        }
    }
}

impl Iterator for OwnedIter {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        match self {
            OwnedIter::Range { next, hi } => {
                if *next > *hi {
                    return None;
                }
                let v = *next;
                *next += 1;
                Some(v)
            }
            OwnedIter::Stepped { next, hi, step } => {
                if *next > *hi {
                    return None;
                }
                let v = *next;
                *next += *step;
                Some(v)
            }
            OwnedIter::Filtered { next, hi, off, extent, procs, q, folding } => {
                while *next <= *hi {
                    let v = *next;
                    *next += 1;
                    if folding.owner(v + *off, *extent, *procs) == *q {
                        return Some(v);
                    }
                }
                None
            }
        }
    }
}

/// Iterate the values `v` in `[lo, hi]` owned by grid coordinate `q`.
pub fn owned_iter(
    lo: i64,
    hi: i64,
    off: i64,
    extent: i64,
    procs: i64,
    q: i64,
    folding: dct_decomp::Folding,
) -> OwnedIter {
    use dct_decomp::Folding;
    if procs <= 1 {
        return OwnedIter::Range { next: lo, hi };
    }
    match folding {
        Folding::Block => {
            let b = (extent + procs - 1) / procs;
            let start = (q * b - off).max(lo);
            let end = ((q + 1) * b - 1 - off).min(hi);
            OwnedIter::Range { next: start, hi: end }
        }
        Folding::Cyclic => {
            // First v >= lo with (v + off) mod procs == q.
            let r = (q - lo - off).rem_euclid(procs);
            let start = lo + r;
            OwnedIter::Stepped { next: start, hi, step: procs }
        }
        Folding::BlockCyclic { .. } => {
            OwnedIter::Filtered { next: lo, hi, off, extent, procs, q, folding }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dct_decomp::Folding;

    #[test]
    fn owned_iter_block() {
        // extent 16, 4 procs: blocks of 4.
        let v: Vec<i64> = owned_iter(0, 15, 0, 16, 4, 1, Folding::Block).collect();
        assert_eq!(v, vec![4, 5, 6, 7]);
        // Clamped by loop bounds.
        let v: Vec<i64> = owned_iter(5, 9, 0, 16, 4, 1, Folding::Block).collect();
        assert_eq!(v, vec![5, 6, 7]);
        // Offset shifts ownership.
        let v: Vec<i64> = owned_iter(0, 15, 4, 16, 4, 1, Folding::Block).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn owned_iter_cyclic() {
        let v: Vec<i64> = owned_iter(0, 10, 0, 16, 4, 1, Folding::Cyclic).collect();
        assert_eq!(v, vec![1, 5, 9]);
        let v: Vec<i64> = owned_iter(3, 10, 0, 16, 4, 1, Folding::Cyclic).collect();
        assert_eq!(v, vec![5, 9]);
    }

    #[test]
    fn owned_iter_block_cyclic() {
        let f = Folding::BlockCyclic { block: 2 };
        let v: Vec<i64> = owned_iter(0, 11, 0, 12, 3, 0, f).collect();
        assert_eq!(v, vec![0, 1, 6, 7]);
    }

    #[test]
    fn owned_iter_partition() {
        // Every folding partitions [lo,hi] exactly across q values.
        for folding in [Folding::Block, Folding::Cyclic, Folding::BlockCyclic { block: 3 }] {
            for procs in [1i64, 2, 3, 5] {
                let mut all: Vec<i64> = Vec::new();
                for q in 0..procs {
                    all.extend(owned_iter(2, 20, 1, 24, procs, q, folding));
                }
                all.sort();
                assert_eq!(all, (2..=20).collect::<Vec<i64>>(), "{folding:?} procs={procs}");
            }
        }
    }

    #[test]
    fn owned_iter_single_proc() {
        let v: Vec<i64> = owned_iter(3, 7, 0, 100, 1, 0, Folding::Cyclic).collect();
        assert_eq!(v, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn progression_matches_iteration() {
        // For block and cyclic foldings, the progression must enumerate
        // exactly the iterator's values.
        for folding in [Folding::Block, Folding::Cyclic] {
            for procs in [1i64, 2, 3, 5] {
                for q in 0..procs {
                    let vals: Vec<i64> = owned_iter(2, 20, 1, 24, procs, q, folding).collect();
                    let (start, step, count) =
                        owned_iter(2, 20, 1, 24, procs, q, folding).progression().unwrap();
                    let gen: Vec<i64> = (0..count).map(|t| start + t * step).collect();
                    assert_eq!(vals, gen, "{folding:?} procs={procs} q={q}");
                }
            }
        }
        // Block-cyclic has no progression.
        assert!(owned_iter(0, 11, 0, 12, 3, 0, Folding::BlockCyclic { block: 2 })
            .progression()
            .is_none());
    }
}
