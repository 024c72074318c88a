//! Differential property test for the fused segment-kernel layer: for
//! randomized bodies covering every kernel shape (copy, scale, axpy,
//! mul-add, k-ary sum, resolved tape, multi-statement fusion, aliased
//! scans), executing with kernels enabled must be *bit-identical* to the
//! postfix interpreter and to the general reference walk — cycles,
//! clocks, machine statistics, checksum bits, race report, and memory
//! profile — under every folding and processor count. A second suite
//! forces each kernel fallback reason (body outside the plan envelope,
//! segments shorter than the dispatch minimum, kernels disabled) and
//! checks both the fallback observability (`kernel_iters == 0`) and the
//! unchanged results.

use dct_decomp::{decompose, Folding};
use dct_dep::{analyze_nest, DepConfig};
use dct_ir::{Aff, Expr, Program, ProgramBuilder};
use dct_spmd::{simulate, SimOptions};
use proptest::prelude::*;

/// Build a 2-array time-stepped program whose compute nest's body is
/// chosen by `shape` (0..=7), exercising every statement kernel plus the
/// fused multi-statement and aliased-scan paths. `scale2` strides the
/// inner read index by 2 on some shapes to vary the access slope.
fn program_for(n: i64, shape: u8, dj: i64, scale2: bool) -> Program {
    let mut pb = ProgramBuilder::new("kern-rand");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
    let _t = pb.time_loop(Aff::konst(1));

    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let v = Expr::Index(i) * Expr::Const(0.5) + Expr::Index(j) + Expr::Const(1.0);
    nb.assign(b, &[Aff::var(i), Aff::var(j)], v);
    pb.init_nest(nb.build());

    // Compute nest: outer i in [1, (N-2)/2] (so scaled reads stay in
    // bounds), inner j in [1, N-2] (long enough for kernel dispatch).
    let mut nb = pb.nest_builder("compute");
    let hi = (n - 2) / 2;
    let i = nb.loop_var(Aff::konst(1), Aff::konst(hi));
    let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let col = if scale2 { Aff::var(j) } else { Aff::var(j) + dj };
    let row = if scale2 { Aff::var(i) * 2 } else { Aff::var(i) };
    let r0 = nb.read(b, &[row, col]);
    let r1 = nb.read(b, &[Aff::var(i), Aff::var(j)]);
    match shape {
        // Copy.
        0 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0);
        }
        // Scale, constant on the right.
        1 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 * Expr::Const(0.5));
        }
        // Scale, constant on the left.
        2 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Const(-1.5) * r0);
        }
        // Axpy: r0 + c*r1.
        3 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 + Expr::Const(0.25) * r1);
        }
        // Mul-add: r0 - r1*r2 (the LU update).
        4 => {
            let r2 = nb.read(b, &[Aff::var(i), Aff::var(j) + 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 - r1 * r2);
        }
        // k-ary sum with trailing scale (stencil).
        5 => {
            let r2 = nb.read(b, &[Aff::var(i), Aff::var(j) - 1]);
            let r3 = nb.read(b, &[Aff::var(i), Aff::var(j) + 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], (r0 + r1 + r2 - r3) * Expr::Const(0.2));
        }
        // Resolved tape: the body mixes in a loop index, which no
        // closed-form shape carries.
        6 => {
            nb.assign(a, &[Aff::var(i), Aff::var(j)], r0 * Expr::Const(0.5) + Expr::Index(j));
        }
        // Aliased scan: reads the element the previous iteration wrote,
        // forcing the ordered element-major value path.
        _ => {
            let prev = nb.read(a, &[Aff::var(i), Aff::var(j) - 1]);
            nb.assign(a, &[Aff::var(i), Aff::var(j)], prev + r1 * Expr::Const(0.125));
        }
    }
    // A second statement in a separate nest keeps data flowing so every
    // strategy has work after the compute nest.
    let mut nb2 = pb.nest_builder("copyback");
    let i = nb2.loop_var(Aff::konst(1), Aff::konst(hi));
    let j = nb2.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let rhs = nb2.read(a, &[Aff::var(i), Aff::var(j)]);
    nb2.assign(b, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb2.build());
    pb.build()
}

/// Assert two runs are bit-identical in every determinism-relevant
/// field, including the race report and memory profile when present.
fn assert_same(l: &dct_spmd::RunResult, r: &dct_spmd::RunResult, what: &str) {
    assert_eq!(l.cycles, r.cycles, "{what}: cycles differ");
    assert_eq!(&l.clocks, &r.clocks, "{what}: clocks differ");
    assert_eq!(&l.stats, &r.stats, "{what}: stats differ");
    assert_eq!(l.barriers, r.barriers, "{what}: barriers differ");
    assert_eq!(
        l.checksum.to_bits(),
        r.checksum.to_bits(),
        "{what}: checksum bits differ ({} vs {})",
        l.checksum,
        r.checksum
    );
    assert_eq!(&l.race, &r.race, "{what}: race reports differ");
    assert_eq!(&l.mem_profile, &r.mem_profile, "{what}: memory profiles differ");
}

fn run(prog: &Program, dec: &dct_decomp::Decomposition, opts: &SimOptions) -> dct_spmd::RunResult {
    simulate(prog, dec, opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kernel path vs postfix interpreter vs reference walk: identical
    /// cycles, clocks, stats, checksums, race reports, and memory
    /// profiles for every folding x processor count. Observers on for
    /// one pair (probed accounting), off for another (batched
    /// accounting) so both `access_seg` regimes are pinned.
    #[test]
    fn kernels_match_interpreter_and_reference(
        n in 10i64..=14,
        shape in 0u8..=7,
        dj in -1i64..=1,
        scale2 in any::<bool>(),
        transform in any::<bool>(),
    ) {
        let prog = program_for(n, shape, dj, scale2);
        let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
        let deps: Vec<_> = prog.nests.iter().map(|nst| analyze_nest(nst, cfg)).collect();
        let params = prog.default_params();

        for folding in [Folding::Block, Folding::Cyclic, Folding::BlockCyclic { block: 2 }] {
            let mut dec = decompose(&prog, &deps).unwrap();
            for f in dec.foldings.iter_mut() {
                *f = folding;
            }
            let mut any_kernel = false;
            for procs in [1usize, 2, 4] {
                let mut kern = SimOptions::new(procs, params.clone());
                kern.transform_data = transform;
                let mut interp = kern.clone();
                interp.seg_kernels = false;
                let mut reference = kern.clone();
                reference.fast_path = false;

                // Plain runs: batched machine accounting (no probe).
                let rk = run(&prog, &dec, &kern);
                let ri = run(&prog, &dec, &interp);
                let rr = run(&prog, &dec, &reference);
                any_kernel |= rk.fast.kernel_iters > 0;
                prop_assert_eq!(ri.fast.kernel_iters, 0, "interpreter run used kernels");
                assert_same(&rk, &ri, "kernel vs interpreter (plain)");
                assert_same(&rk, &rr, "kernel vs reference (plain)");

                // Observed runs: race detection + profiling attached, so
                // the machine layer takes its exact probed path while the
                // kernel value sweeps and race batching stay engaged.
                let mut kern_obs = kern.clone();
                kern_obs.race_detect = true;
                kern_obs.profile = true;
                let mut interp_obs = interp.clone();
                interp_obs.race_detect = true;
                interp_obs.profile = true;
                let ok = run(&prog, &dec, &kern_obs);
                let oi = run(&prog, &dec, &interp_obs);
                prop_assert!(ok.race.is_some() && ok.mem_profile.is_some());
                assert_same(&ok, &oi, "kernel vs interpreter (observed)");
                prop_assert_eq!(ok.cycles, rk.cycles, "observers perturbed cycles");
            }
            if matches!(folding, Folding::Block) {
                // P=1 block folding always yields segments >= the
                // dispatch minimum, so kernels must have engaged.
                prop_assert!(any_kernel, "kernels never engaged ({folding:?})");
            }
        }
    }
}

/// A statement with more references than `MAX_KERNEL_ACCS` gets no plan:
/// every segment falls back to the interpreter, results unchanged. The
/// init nest's inner extent sits below the dispatch minimum so the whole
/// run stays kernel-free and `kernel_iters == 0` is assertable.
#[test]
fn fallback_too_many_refs() {
    let n = 40i64;
    let mut pb = ProgramBuilder::new("kern-wide");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
    let _t = pb.time_loop(Aff::konst(1));
    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let j = nb.loop_var(Aff::konst(0), Aff::konst(2)); // 3 iters: short segments
    nb.assign(b, &[Aff::var(i), Aff::var(j)], Expr::Index(i) + Expr::Index(j) * Expr::Const(2.0));
    pb.init_nest(nb.build());
    // 25 reads + 1 write = 26 cursors > MAX_KERNEL_ACCS (24).
    let mut nb = pb.nest_builder("wide");
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 27);
    let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 27);
    let mut rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]);
    for k in 1..25 {
        rhs = rhs + nb.read(b, &[Aff::var(i), Aff::var(j) + k]);
    }
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    let prog = pb.build();
    assert_fallback_exact(&prog, |o| o, "too-many-refs");
}

/// Innermost extent below `MIN_KERNEL_SEG`: every segment is too short
/// to dispatch, results unchanged.
#[test]
fn fallback_short_segments() {
    let prog = short_inner_program();
    assert_fallback_exact(&prog, |o| o, "short-segment");
}

/// `SimOptions::seg_kernels = false` forces the interpreter outright.
#[test]
fn fallback_kernels_disabled() {
    let prog = program_for(12, 3, 0, false);
    assert_fallback_exact(
        &prog,
        |mut o| {
            o.seg_kernels = false;
            o
        },
        "kernels-disabled",
    );
}

/// Build a program whose innermost loop runs 3 iterations (< the
/// dispatch minimum of 4).
fn short_inner_program() -> Program {
    let n = 16i64;
    let mut pb = ProgramBuilder::new("kern-short");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
    let _t = pb.time_loop(Aff::konst(1));
    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let j = nb.loop_var(Aff::konst(0), Aff::konst(2)); // 3 iters: short segments
    nb.assign(b, &[Aff::var(i), Aff::var(j)], Expr::Index(i) - Expr::Index(j) * Expr::Const(0.5));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("short");
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let j = nb.loop_var(Aff::konst(1), Aff::konst(3)); // 3 iterations
    let rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]) * Expr::Const(0.75);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    pb.build()
}

/// Run `prog` with kernels requested (plus `tweak`) and with the
/// reference walk; require that no iteration was kernelized while the
/// strided path still ran, and that results are bit-identical.
fn assert_fallback_exact(
    prog: &Program,
    tweak: fn(SimOptions) -> SimOptions,
    what: &str,
) {
    let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
    let deps: Vec<_> = prog.nests.iter().map(|nst| analyze_nest(nst, cfg)).collect();
    let dec = decompose(prog, &deps).unwrap();
    let params = prog.default_params();
    for procs in [1usize, 4] {
        let mut opts = SimOptions::new(procs, params.clone());
        opts.race_detect = true;
        opts.profile = true;
        let opts = tweak(opts);
        let mut reference = opts.clone();
        reference.fast_path = false;
        let rk = run(prog, &dec, &opts);
        let rr = run(prog, &dec, &reference);
        assert_eq!(rk.fast.kernel_iters, 0, "{what}: kernels unexpectedly engaged (P={procs})");
        assert!(rk.fast.fast_iters > 0, "{what}: strided path never ran (P={procs})");
        assert_eq!(
            rk.fast.kernel_shapes.iter().sum::<u64>(),
            0,
            "{what}: histogram counted fallback iterations"
        );
        assert_same(&rk, &rr, what);
    }
}
