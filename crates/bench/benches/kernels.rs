//! Criterion benches over the offloaded kernels: one benchmark per
//! (architecture × variant), executing the full seven-timer hydro kernel
//! sequence on the standard workload. Before timing, each group prints
//! the simulated-device seconds — the quantity the paper's Figures 9–11
//! plot — so `cargo bench` regenerates the per-variant data alongside
//! the host-speed measurements.

use criterion::{criterion_group, criterion_main, Criterion};
use hacc_bench::experiments::{
    kernel_seconds, total_seconds, variants_for, workload, VariantChoice,
};
use sycl_sim::GpuArch;

fn bench_variants(c: &mut Criterion) {
    let problem = workload(6, 7);
    let mut g = c.benchmark_group("variants");
    g.sample_size(10);
    for arch in GpuArch::all() {
        for variant in variants_for(&arch) {
            let tc = variant.toolchain();
            let choice = VariantChoice::paper_default(&arch, variant);
            // Print the simulated seconds once (the figure datum).
            let secs = kernel_seconds(&arch, tc, choice, &problem);
            println!(
                "[simulated] {:<9} {:<16} total = {:.4e} s",
                arch.system,
                variant.label(),
                total_seconds(&secs)
            );
            g.bench_function(
                format!("{}_{}", arch.id, variant.label().replace([',', ' '], "")),
                |b| b.iter(|| kernel_seconds(&arch, tc, choice, &problem)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
