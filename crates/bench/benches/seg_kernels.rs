//! Fused segment-kernel throughput: each paper benchmark (they cover
//! the recognized kernel shapes — stencil's k-ary sum, lu's mul-add,
//! adi's fused multi-statement body, tomcatv/swm256 tapes, vpenta
//! axpy/copy) simulated with kernels on vs the postfix interpreter, at
//! one thread so the comparison isolates the single-lane hot loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dct_core::{Compiler, Strategy};

/// (label, program, shape the nest body stresses).
fn cases() -> Vec<(&'static str, dct_ir::Program)> {
    vec![
        ("copy_axpy_vpenta", dct_bench::programs::vpenta(64, 3)),
        ("muladd_lu", dct_bench::programs::lu(96)),
        ("sumk_stencil", dct_bench::programs::stencil(192, 2)),
        ("fused_adi", dct_bench::programs::adi(96, 2)),
        ("tape_tomcatv", dct_bench::programs::tomcatv(96, 2)),
    ]
}

fn seg_kernels(c: &mut Criterion) {
    for (label, prog) in cases() {
        let params = prog.default_params();
        let comp = Compiler::new(Strategy::Full);
        let compiled = comp.compile(&prog).unwrap();
        let mut opts = comp.sim_options(32, params.clone());
        for (mode, kernels) in [("kernel", true), ("interp", false)] {
            opts.seg_kernels = kernels;
            let opts = opts.clone();
            let compiled = &compiled;
            c.bench_function(&format!("{label}_{mode}"), |b| {
                b.iter(|| {
                    let r = dct_spmd::simulate(
                        &compiled.program,
                        &compiled.decomposition,
                        &opts,
                    )
                    .expect("simulate");
                    black_box(r.cycles)
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = seg_kernels
}
criterion_main!(benches);
