//! The line kernels in isolation: `cut`, `tr`, `uniq`, `wc` and the
//! regex stages `grep -E`, `grep -v -E`, `sed -E` over 16 MiB of
//! `text_corpus`, each reading its stdin in place as one block reader
//! would hand it out. These are the class-S stages the `light-stream`
//! and `regex-filter` workloads are made of; their rate bounds what a
//! pipeline of them can do at any width.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use pash_coreutils::fs::MemFs;
use pash_coreutils::{run_command, Registry};
use pash_workloads::text_corpus;

const BYTES: usize = 16 * 1024 * 1024;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_kernels");
    g.sample_size(10)
        .throughput(Throughput::Bytes(BYTES as u64));
    let reg = Registry::standard();
    let fs = Arc::new(MemFs::new());
    let corpus = text_corpus(17, BYTES);
    let kernels: [(&str, &[&str]); 9] = [
        ("cut_f1-4", &["cut", "-d", " ", "-f", "1-4"]),
        ("tr_translate", &["tr", "A-Z", "a-z"]),
        ("tr_delete", &["tr", "-d", ",."]),
        ("tr_squeeze", &["tr", "-s", " "]),
        ("uniq_c", &["uniq", "-c"]),
        ("wc_l", &["wc", "-l"]),
        (
            "grep_E_alternation",
            &[
                "grep",
                "-E",
                "(river|mountain|signal|compiler) [a-z]+ (of|the|and)",
            ],
        ),
        ("grep_vE_anchored", &["grep", "-v", "-E", "^[a-m]"]),
        ("sed_E_captures", &["sed", "-E", "s/([a-z]+)ing/\\1ed/g"]),
    ];
    for (name, argv) in kernels {
        g.bench_function(name, |b| {
            b.iter(|| black_box(run_command(&reg, fs.clone(), argv, &corpus).expect("run")))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
