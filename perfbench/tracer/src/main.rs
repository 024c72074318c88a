//! Traced in-process replay of the perfbench workloads.
//!
//! ```text
//! perfbench-tracer cells --scale S [--reference] [--spans FILE]
//! perfbench-tracer store --requests FILE --dir DIR [--spans FILE]
//! ```
//!
//! `cells` replays every cell of `repro table1 --procs 32` the way
//! `Compiler::try_rung` and `Compiler::simulate` do, but through the
//! public phase functions, so each layer gets its own span. Like `repro`,
//! it runs one cell per available core at 1 intra-cell thread. `--reference`
//! runs the reference walk (`fast_path = false`) and also renders the
//! stdout the `repro` command must print; the pinned expected files are
//! made that way.
//!
//! `store` replays the cells of served requests against a fresh store:
//! key derivation, lookup, supervised execution and insert, plus direct
//! executor runs with and without the race detector and the profiler, at
//! `repro serve`'s default thread budget. The store must miss before the
//! insert and return the inserted cell after it.
//!
//! Both print one JSON object on stdout and write their spans, one JSON
//! object per line, to `--spans` once the run has ended.

mod spans;

use dct_bench::harness::{render_table1, Table1Row};
use dct_bench::sweep::{run_cell_supervised, CellOutcome, SweepConfig, KINDS};
use dct_bench::{cell_cache_key, programs, ResultStore};
use dct_core::{rung_sim_options, Compiler, Rung, Strategy};
use dct_decomp::{base_decomposition, decompose, Decomposition};
use dct_dep::{analyze_nest, DepConfig};
use dct_ir::Program;
use dct_machine::MachineConfig;
use dct_spmd::{
    codegen, default_threads, CostModel, Executor, RunResult, SimOptions, SpmdOptions, SpmdProgram,
};
use dct_transform::{expose_parallelism, improve_inner_locality};
use spans::{Recorder, Span};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Processor count of the `table1` cells, as the workload runs it.
const PROCS: usize = 32;

fn die(msg: &str) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    std::process::exit(2);
}

struct Args {
    mode: String,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse() -> Args {
        let mut it = std::env::args().skip(1);
        let mode = it
            .next()
            .unwrap_or_else(|| die("missing mode (cells | store)"));
        let (mut opts, mut flags) = (BTreeMap::new(), Vec::new());
        while let Some(a) = it.next() {
            match a.as_str() {
                "--reference" => flags.push(a),
                _ if a.starts_with("--") => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| die(&format!("{a} needs a value")));
                    opts.insert(a[2..].to_string(), v);
                }
                _ => die(&format!("unexpected argument {a}")),
            }
        }
        Args { mode, opts, flags }
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        match self.opts.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("--{key}: bad value {v}"))),
            None => die(&format!("--{key} is required")),
        }
    }
}

fn main() {
    let args = Args::parse();
    match args.mode.as_str() {
        "cells" => cells_mode(&args),
        "store" => store_mode(&args),
        m => die(&format!("unknown mode {m}")),
    }
}

// ------------------------------------------------------- traced phases --

/// A cell's program after the compile phases.
struct Built {
    program: Program,
    dec: Decomposition,
    rung: Rung,
    degradations: u64,
}

/// `Compiler::compile`'s degradation ladder, each phase in its own span.
fn compile_traced(rec: &mut Recorder, prog: &Program, strategy: Strategy) -> Result<Built, String> {
    rec.span("core.compile", |rec| {
        let mut rung = Rung::of(strategy);
        let mut degradations = 0;
        loop {
            if rung == Rung::Sequential {
                // The sequential floor's decomposition is private to the
                // compiler driver, so that rung is taken from it whole.
                let c = Compiler::new(strategy)
                    .compile(prog)
                    .map_err(|e| e.to_string())?;
                return Ok(Built {
                    program: c.program,
                    dec: c.decomposition,
                    rung: c.rung,
                    degradations,
                });
            }
            match try_rung_traced(rec, prog, rung) {
                Ok((program, dec)) => {
                    return Ok(Built {
                        program,
                        dec,
                        rung,
                        degradations,
                    })
                }
                Err(_) => {
                    degradations += 1;
                    rung = rung.next().unwrap_or(Rung::Sequential);
                }
            }
        }
    })
}

/// One rung of `Compiler::try_rung`. The dependence analysis runs once
/// more on its own, ahead of the restructuring that repeats it inside.
fn try_rung_traced(
    rec: &mut Recorder,
    prog: &Program,
    rung: Rung,
) -> dct_ir::DctResult<(Program, Decomposition)> {
    let cfg = DepConfig {
        nparams: prog.params.len(),
        param_min: Compiler::new(Strategy::Base).param_min,
    };
    let mut program = prog.clone();
    let mut deps = Vec::with_capacity(prog.nests.len());
    for (j, nest) in prog.nests.iter().enumerate() {
        rec.span("dep.analyze", |_| black_box(analyze_nest(nest, cfg)));
        let exp = rec.span("transform.restructure", |_| {
            improve_inner_locality(&expose_parallelism(nest, cfg), cfg)
        });
        deps.push(exp.deps);
        program.nests[j] = exp.nest;
    }
    program.try_validate()?;
    let dec = rec.span("decomp.decompose", |_| match rung {
        Rung::Full | Rung::CompDecomp => decompose(&program, &deps),
        _ => Ok(base_decomposition(&program, &deps)),
    })?;
    rec.span("spmd.codegen", |_| {
        codegen(
            &program,
            &dec,
            &spmd_options(&SimOptions::new(2, program.default_params()), rung_of(rung)),
        )
    })?;
    Ok((program, dec))
}

/// Transform/elision switches of a rung, as `rung_sim_options` sets them.
fn rung_of(rung: Rung) -> SimOptions {
    rung_sim_options(rung, 1, Vec::new())
}

fn spmd_options(opts: &SimOptions, rung_opts: SimOptions) -> SpmdOptions {
    SpmdOptions {
        procs: opts.procs,
        params: opts.params.clone(),
        transform_data: rung_opts.transform_data,
        barrier_elision: rung_opts.barrier_elision,
        cost: CostModel {
            addr_opt: opts.addr_opt,
            ..CostModel::default()
        },
    }
}

/// Code generation at the cell's processor count, as `simulate` does.
/// The span includes building the cell's `SimOptions`: each
/// `SimOptions::new` queries `available_parallelism`, tens of µs, a few
/// percent of a small cell.
fn codegen_traced(
    rec: &mut Recorder,
    b: &Built,
    procs: usize,
) -> Result<(SpmdProgram, SimOptions), String> {
    rec.span("spmd.codegen", |_| {
        let opts = rung_sim_options(b.rung, procs, b.program.default_params());
        let sp = codegen(&b.program, &b.dec, &spmd_options(&opts, rung_of(b.rung)))
            .map_err(|e| e.to_string())?;
        Ok((sp, opts))
    })
}

/// Which executor variant to run.
#[derive(Clone, Copy)]
struct Exec {
    threads: usize,
    fast_path: bool,
    race: bool,
    profile: bool,
}

/// `Executor::run` as `simulate` sets it up, in a span named `name`.
/// Returns the result and the span's duration in ns.
fn run_traced(
    rec: &mut Recorder,
    name: &'static str,
    sp: &SpmdProgram,
    opts: &SimOptions,
    x: Exec,
) -> Result<(RunResult, u64), String> {
    let t = Instant::now();
    let r = rec.span(name, |_| {
        let machine = opts
            .machine
            .clone()
            .unwrap_or_else(|| MachineConfig::dash(opts.procs));
        let mut ex = Executor::new(
            sp,
            machine,
            CostModel {
                addr_opt: opts.addr_opt,
                ..CostModel::default()
            },
        );
        ex.fast_path = x.fast_path;
        ex.seg_kernels &= opts.seg_kernels;
        ex.race_detect = x.race;
        ex.profile = x.profile;
        ex.threads = x.threads.max(1);
        ex.run()
    });
    let ns = t.elapsed().as_nanos() as u64;
    if r.cancelled || r.timed_out {
        return Err("run did not complete".to_string());
    }
    if r.race.as_ref().is_some_and(|rep| !rep.is_race_free()) {
        return Err("schedule races".to_string());
    }
    Ok((r, ns))
}

// ----------------------------------------------------------- counters --

/// Work counters summed over the runs of a workload.
#[derive(Default)]
struct Counters {
    runs: u64,
    run_ns: u64,
    run_ns_max: u64,
    fast_iters: u64,
    slow_iters: u64,
    kernel_iters: u64,
    segments: u64,
    par_regions: u64,
    seq_regions: u64,
    m: dct_machine::ProcStats,
    barriers: u64,
    lock_handoffs: u64,
    pipeline_handoffs: u64,
    sim_cycles: u64,
}

impl Counters {
    fn add(&mut self, r: &RunResult, run_ns: u64) {
        self.runs += 1;
        self.run_ns += run_ns;
        self.run_ns_max = self.run_ns_max.max(run_ns);
        self.fast_iters += r.fast.fast_iters;
        self.slow_iters += r.fast.slow_iters;
        self.kernel_iters += r.fast.kernel_iters;
        self.segments += r.fast.segments;
        self.par_regions += r.par_regions;
        self.seq_regions += r.seq_regions;
        let t = r.stats.total();
        self.m.accesses += t.accesses;
        self.m.l1_hits += t.l1_hits;
        self.m.l1_fast_hits += t.l1_fast_hits;
        self.m.l2_hits += t.l2_hits;
        self.m.local_mem += t.local_mem;
        self.m.remote_mem += t.remote_mem;
        self.m.remote_dirty += t.remote_dirty;
        self.m.upgrades += t.upgrades;
        self.m.invalidations_received += t.invalidations_received;
        self.barriers += r.stats.sync.barriers;
        self.lock_handoffs += r.stats.sync.lock_handoffs;
        self.pipeline_handoffs += r.stats.sync.pipeline_handoffs;
        self.sim_cycles += r.cycles;
    }

    fn emit(&self, out: &mut BTreeMap<String, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut put = |k: &str, v: f64| {
            out.insert(k.to_string(), v);
        };
        put("spmd.run_s", self.run_ns as f64 / 1e9);
        put("spmd.cell_run_s_max", self.run_ns_max as f64 / 1e9);
        put("spmd.ns_per_access", ratio(self.run_ns, self.m.accesses));
        put("spmd.fast_iters", self.fast_iters as f64);
        put("spmd.slow_iters", self.slow_iters as f64);
        put("spmd.kernel_iters", self.kernel_iters as f64);
        put(
            "spmd.interp_iters",
            self.fast_iters.saturating_sub(self.kernel_iters) as f64,
        );
        put("spmd.segments", self.segments as f64);
        put(
            "spmd.avg_segment_len",
            ratio(self.fast_iters, self.segments),
        );
        put(
            "spmd.kernelized_ratio",
            ratio(self.kernel_iters, self.fast_iters + self.slow_iters),
        );
        put("spmd.par_regions", self.par_regions as f64);
        put("spmd.seq_regions", self.seq_regions as f64);
        put("machine.accesses", self.m.accesses as f64);
        put("machine.l1_hits", self.m.l1_hits as f64);
        put("machine.l1_fast_hits", self.m.l1_fast_hits as f64);
        put(
            "machine.l1_fast_hit_ratio",
            ratio(self.m.l1_fast_hits, self.m.accesses),
        );
        put("machine.l2_hits", self.m.l2_hits as f64);
        put("machine.local_mem", self.m.local_mem as f64);
        put("machine.remote_mem", self.m.remote_mem as f64);
        put("machine.remote_dirty", self.m.remote_dirty as f64);
        put("machine.upgrades", self.m.upgrades as f64);
        put(
            "machine.invalidations",
            self.m.invalidations_received as f64,
        );
        put("machine.barriers", self.barriers as f64);
        put("machine.lock_handoffs", self.lock_handoffs as f64);
        put("machine.pipeline_handoffs", self.pipeline_handoffs as f64);
        put("machine.sim_cycles", self.sim_cycles as f64);
    }
}

/// Compile-phase times (ms) and span coverage from the recorded spans.
fn emit_span_layers(all: &[Span], out: &mut BTreeMap<String, f64>) {
    let t = spans::totals(all);
    let ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6);
    for (metric, span) in [
        ("core.compile_ms", "core.compile"),
        ("dep.analyze_ms", "dep.analyze"),
        ("transform.restructure_ms", "transform.restructure"),
        ("decomp.decompose_ms", "decomp.decompose"),
        ("spmd.codegen_ms", "spmd.codegen"),
    ] {
        out.insert(metric.to_string(), ms(span));
    }
    let cov = spans::root_coverage(all);
    let min = cov.values().copied().fold(f64::INFINITY, f64::min);
    out.insert(
        "trace.span_coverage_min".to_string(),
        if min.is_finite() { min } else { 0.0 },
    );
}

// ------------------------------------------------------------- output --

fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

fn layers_json(layers: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = layers.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Self time per span name, in ms: where the traced wall time went.
fn self_ms_json(all: &[Span]) -> String {
    let body: Vec<String> = spans::totals(all)
        .iter()
        .map(|(name, t)| format!("\"{name}\":{}", t.self_ns as f64 / 1e6))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn write_spans_or_die(args: &Args, all: &[Span]) {
    if let Some(path) = args.opts.get("spans") {
        if let Err(e) = spans::write_spans(path, all) {
            die(&format!("cannot write spans to {path}: {e}"));
        }
    }
}

// -------------------------------------------------------------- cells --

/// One cell of table1: the sequential reference
/// (`seq`, base-compiled at one processor) or a strategy at `procs`.
struct CellSpec {
    bench: &'static str,
    prog_idx: usize,
    kind: &'static str,
    strategy: Strategy,
    procs: usize,
}

struct CellOut {
    cycles: u64,
    checksum_bits: u64,
    wall_ns: u64,
    degradations: u64,
    run: RunResult,
    run_ns: u64,
}

fn cells_mode(args: &Args) {
    let scale: f64 = args.get("scale");
    let procs = PROCS;
    let reference = args.flags.iter().any(|f| f == "--reference");

    let progs: Vec<(&'static str, Program)> = programs::suite(scale)
        .into_iter()
        .map(|b| (b.name, b.program))
        .collect();
    let mut cells = Vec::new();
    for (i, (name, _)) in progs.iter().enumerate() {
        cells.push(CellSpec {
            bench: name,
            prog_idx: i,
            kind: "seq",
            strategy: Strategy::Base,
            procs: 1,
        });
        for (kind, s) in ["base", "comp", "full"].into_iter().zip(Strategy::ALL) {
            cells.push(CellSpec {
                bench: name,
                prog_idx: i,
                kind,
                strategy: s,
                procs,
            });
        }
    }

    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<CellOut, String>>>> =
        Mutex::new((0..cells.len()).map(|_| None).collect());
    let all_spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    let exec = Exec {
        threads: 1,
        fast_path: !reference,
        race: false,
        profile: false,
    };
    std::thread::scope(|s| {
        for _ in 0..default_threads() {
            s.spawn(|| {
                let mut rec = Recorder::new(epoch);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let c = &cells[i];
                    rec.set_request(i as u64 + 1);
                    let prog = &progs[c.prog_idx].1;
                    let t0 = Instant::now();
                    let out = rec.span("cell", |rec| -> Result<CellOut, String> {
                        let b = compile_traced(rec, prog, c.strategy)?;
                        let (sp, opts) = codegen_traced(rec, &b, c.procs)?;
                        let (run, run_ns) = run_traced(rec, "spmd.run", &sp, &opts, exec)?;
                        Ok(CellOut {
                            cycles: run.cycles,
                            checksum_bits: run.checksum.to_bits(),
                            wall_ns: 0,
                            degradations: b.degradations,
                            run,
                            run_ns,
                        })
                    });
                    let out = out.map(|mut o| {
                        o.wall_ns = t0.elapsed().as_nanos() as u64;
                        o
                    });
                    results
                        .lock()
                        .expect("results lock poisoned by a panicking worker")[i] = Some(out);
                }
                all_spans
                    .lock()
                    .expect("span lock poisoned by a panicking worker")
                    .append(&mut rec.spans);
            });
        }
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let results = results.into_inner().expect("results lock poisoned");
    let all_spans = all_spans.into_inner().expect("span lock poisoned");
    let coverage = spans::root_coverage(&all_spans);

    let mut counters = Counters::default();
    let mut degradations = 0;
    let mut cell_json = Vec::new();
    let mut cycles: Vec<Result<u64, String>> = Vec::new();
    for (i, (c, r)) in cells.iter().zip(&results).enumerate() {
        match r {
            Some(Ok(o)) => {
                counters.add(&o.run, o.run_ns);
                degradations += o.degradations;
                cycles.push(Ok(o.cycles));
                cell_json.push(format!(
                    "{{\"bench\":\"{}\",\"kind\":\"{}\",\"procs\":{},\"cycles\":{},\"checksum_bits\":\"{:016x}\",\"wall_s\":{},\"coverage\":{}}}",
                    c.bench,
                    c.kind,
                    c.procs,
                    o.cycles,
                    o.checksum_bits,
                    o.wall_ns as f64 / 1e9,
                    coverage.get(&(i as u64 + 1)).copied().unwrap_or(0.0)
                ));
            }
            other => {
                let e = match other {
                    Some(Err(e)) => e.clone(),
                    _ => "never ran".to_string(),
                };
                cycles.push(Err(e.clone()));
                cell_json.push(format!(
                    "{{\"bench\":\"{}\",\"kind\":\"{}\",\"procs\":{},\"error\":\"{}\"}}",
                    c.bench,
                    c.kind,
                    c.procs,
                    esc(&e)
                ));
            }
        }
    }
    let mut layers = BTreeMap::new();
    counters.emit(&mut layers);
    emit_span_layers(&all_spans, &mut layers);
    layers.insert("core.degradations".to_string(), degradations as f64);

    let stdout = if reference {
        format!(
            ",\"stdout\":\"{}\"",
            esc(&render_table(&progs, procs, &cycles))
        )
    } else {
        String::new()
    };
    println!(
        "{{\"wall_s\":{wall_s},\"cells\":[{}],\"layers\":{},\"self_ms\":{}{stdout}}}",
        cell_json.join(","),
        layers_json(&layers),
        self_ms_json(&all_spans)
    );
    write_spans_or_die(args, &all_spans);
}

/// What `repro table1` prints for these cell results (the harness's
/// row assembly, reproduced over externally computed cycles).
fn render_table(
    progs: &[(&'static str, Program)],
    procs: usize,
    cycles: &[Result<u64, String>],
) -> String {
    const LABELS: [&str; 4] = ["sequential", "base", "comp-decomp", "full"];
    let rows: Vec<Table1Row> = progs
        .iter()
        .zip(cycles.chunks(4))
        .map(|((name, prog), cy)| {
            let mut notes: Vec<String> = Vec::new();
            for (k, c) in cy.iter().enumerate() {
                if let Err(e) = c {
                    notes.push(format!("{}: {e}", LABELS[k]));
                }
            }
            let speed = |k: usize| match (&cy[0], &cy[k]) {
                (Ok(seq), Ok(c)) => Some(*seq as f64 / *c as f64),
                _ => None,
            };
            let (base, comp, full) = (speed(1), speed(2), speed(3));
            let (comp_critical, data_critical) = match (base, comp, full) {
                (Some(b), Some(c), Some(f)) => {
                    (c > b * 1.15 || f > b * 1.15 && c * 1.15 < f, f > c * 1.15)
                }
                _ => (false, false),
            };
            let decompositions = match Compiler::new(Strategy::Full).compile(prog) {
                Ok(c) => {
                    if !c.degradations.is_empty() {
                        notes.push(format!("full: degraded to {}", c.rung.label()));
                    }
                    c.decomposition
                        .hpf_all(&c.program)
                        .into_iter()
                        .filter(|d| {
                            !d.contains("(*") || d.contains("BLOCK") || d.contains("CYCLIC")
                        })
                        .collect()
                }
                Err(e) => {
                    notes.push(format!("decompositions unavailable: {e}"));
                    Vec::new()
                }
            };
            Table1Row {
                program: name.to_string(),
                base_speedup: base,
                full_speedup: full,
                comp_decomp_critical: comp_critical,
                data_transform_critical: data_critical,
                decompositions,
                notes,
            }
        })
        .collect();
    format!("{}\n", render_table1(&rows, procs))
}

// -------------------------------------------------------------- store --

/// `store` mode: the served requests' cells, replayed against a temp store.
/// Request lines: `sweep <bench> <scale_milli> <procs> <race 0|1>` and
/// `explain <bench> <scale_milli> <procs>`.
fn store_mode(args: &Args) {
    let path: String = args.get("requests");
    let dir: String = args.get("dir");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let store = ResultStore::open(format!("{dir}/cache"), None)
        .unwrap_or_else(|e| die(&format!("cannot open store under {dir}: {e}")));

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let mut counters = Counters::default();
    let (mut retries, mut quarantined, mut degradations) = (0u64, 0u64, 0u64);
    // Executor time with an observer on, and plain on the same cells.
    let (mut race_ns, mut race_plain_ns, mut prof_ns, mut prof_plain_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let mut req = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let w: Vec<&str> = line.split_whitespace().collect();
        let (what, bench, milli, procs) = match w.as_slice() {
            [what, bench, milli, procs, ..] => (
                *what,
                *bench,
                milli
                    .parse::<i64>()
                    .unwrap_or_else(|_| die(&format!("bad request line: {line}"))),
                procs
                    .parse::<usize>()
                    .unwrap_or_else(|_| die(&format!("bad request line: {line}"))),
            ),
            _ => die(&format!("bad request line: {line}")),
        };
        let race = what == "sweep" && w.get(4) == Some(&"1");
        let scale = milli as f64 / 1000.0;
        let Some(b) = programs::suite(scale).into_iter().find(|b| b.name == bench) else {
            die(&format!("unknown benchmark {bench}"))
        };
        let mut cfg = SweepConfig::new(procs, scale, format!("{dir}/ckpt"));
        cfg.race_check = race;
        let kinds: Vec<&str> = if what == "sweep" {
            KINDS.to_vec()
        } else {
            vec!["base", "comp", "full"]
        };
        for kind in kinds {
            req += 1;
            rec.set_request(req);
            let (strategy, cell_procs) = dct_bench::cache::kind_strategy(kind, procs);
            let res = rec.span("cell", |rec| -> Result<(), String> {
                let mut supervised = None;
                if what == "sweep" {
                    let key = rec.span("cache.key", |_| {
                        cell_cache_key(bench, &cfg.key_inputs(&b.program, kind, cell_procs))
                    })?;
                    if rec
                        .span("cache.lookup", |_| store.lookup_cell(&key))
                        .is_some()
                    {
                        return Err("fresh store hit before the insert".to_string());
                    }
                    let run = rec.span("sweep.cell", |_| {
                        run_cell_supervised(&b.program, &cfg, bench, kind, cell_procs)
                    });
                    retries += run.retries;
                    quarantined += run.quarantined;
                    let CellOutcome::Cycles(cycles) = run.cell.outcome else {
                        return Err(format!(
                            "supervised cell did not complete: {:?}",
                            run.cell.outcome
                        ));
                    };
                    rec.span("cache.insert", |_| store.insert_cell(&key, &run.cell, None))
                        .map_err(|e| e.to_string())?;
                    match rec.span("cache.lookup", |_| store.lookup_cell(&key)) {
                        Some(c)
                            if c.outcome == run.cell.outcome
                                && c.checksum_bits == run.cell.checksum_bits => {}
                        Some(c) => return Err(format!("store returned {c:?} for {:?}", run.cell)),
                        None => return Err("store missed after the insert".to_string()),
                    }
                    supervised = Some((cycles, run.cell.checksum_bits));
                }
                let built = compile_traced(rec, &b.program, strategy)?;
                degradations += built.degradations;
                let (sp, opts) = codegen_traced(rec, &built, cell_procs)?;
                let plain = Exec {
                    threads: default_threads(),
                    fast_path: true,
                    race: false,
                    profile: false,
                };
                let (r, plain_ns) = run_traced(rec, "spmd.run", &sp, &opts, plain)?;
                // The bit-identity contract: the direct run equals the
                // supervised one, whatever the thread count.
                if let Some(want) = supervised {
                    if (r.cycles, Some(r.checksum.to_bits())) != want {
                        return Err(format!(
                            "direct run gave {} cycles, supervised {want:?}",
                            r.cycles
                        ));
                    }
                }
                counters.add(&r, plain_ns);
                if race {
                    race_ns += run_traced(
                        rec,
                        "race.run",
                        &sp,
                        &opts,
                        Exec {
                            race: true,
                            ..plain
                        },
                    )?
                    .1;
                    race_plain_ns += plain_ns;
                }
                if what == "explain" {
                    prof_ns += run_traced(
                        rec,
                        "profile.run",
                        &sp,
                        &opts,
                        Exec {
                            profile: true,
                            ..plain
                        },
                    )?
                    .1;
                    prof_plain_ns += plain_ns;
                }
                Ok(())
            });
            if let Err(e) = res {
                errors.push(format!("{line} {kind}: {e}"));
            }
        }
    }
    let mut layers = BTreeMap::new();
    counters.emit(&mut layers);
    emit_span_layers(&rec.spans, &mut layers);
    let totals = spans::totals(&rec.spans);
    let mean = |name: &str, unit: f64| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / unit)
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    for (k, v) in [
        ("core.degradations", degradations as f64),
        ("cache.key_us", mean("cache.key", 1e3)),
        ("cache.lookup_us", mean("cache.lookup", 1e3)),
        ("cache.insert_us", mean("cache.insert", 1e3)),
        ("sweep.cell_ms", mean("sweep.cell", 1e6)),
        ("sweep.retries", retries as f64),
        ("sweep.quarantined", quarantined as f64),
        ("race.run_s", race_ns as f64 / 1e9),
        ("race.overhead_x", ratio(race_ns, race_plain_ns)),
        ("profile.run_s", prof_ns as f64 / 1e9),
        ("profile.overhead_x", ratio(prof_ns, prof_plain_ns)),
    ] {
        layers.insert(k.to_string(), v);
    }
    let errs: Vec<String> = errors.iter().map(|e| format!("\"{}\"", esc(e))).collect();
    println!(
        "{{\"wall_s\":{},\"errors\":[{}],\"layers\":{},\"self_ms\":{}}}",
        epoch.elapsed().as_secs_f64(),
        errs.join(","),
        layers_json(&layers),
        self_ms_json(&rec.spans)
    );
    write_spans_or_die(args, &rec.spans);
}
