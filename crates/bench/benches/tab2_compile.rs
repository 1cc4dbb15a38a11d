//! Tab. 2 bench: compilation time at 16× and 64× (the table's
//! `Compile time` columns) across the one-liner suite.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pash_bench::suites::oneliners;
use pash_core::compile::{compile, PashConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("tab2_compile");
    g.sample_size(20);
    for width in [16usize, 64] {
        g.bench_function(format!("suite_width_{width}"), |b| {
            let cfg = PashConfig {
                width,
                ..Default::default()
            };
            let suite = oneliners::all();
            b.iter(|| {
                for bench in &suite {
                    black_box(compile(black_box(&bench.script), &cfg).expect("compile"));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
