//! Light-touch extensibility (§3.2): make a brand-new command
//! parallelizable by writing a single annotation record in the
//! Appendix-A description language — PaSh's core promise to command
//! developers.
//!
//! ```text
//! cargo run --example annotate
//! ```

use std::sync::Arc;

use pash::core::annot::stdlib::AnnotationLibrary;
use pash::core::compile::{compile_with_library, PashConfig};
use pash::coreutils::{fs::MemFs, Registry};
use pash::runtime::exec::{run_program, ExecConfig};
use pash::workloads::text_corpus;

fn main() {
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", text_corpus(5, 100_000));
    let registry = Registry::standard();
    // `word-stem` models a user's own command (the paper's Python
    // stemmer). Without a record PaSh must leave it sequential.
    let script = "cat in.txt | tr -cs A-Za-z '\\n' | word-stem | sort -u > out.txt";

    let mut without = AnnotationLibrary::standard().clone();
    without.remove("word-stem");
    // The `tr -cs … '\n'` in front stays sequential (its squeeze spans
    // line ends), so `word-stem` reads a pipe: only a split can feed
    // its copies.
    let cfg = PashConfig::best(8);
    let conservative = compile_with_library(script, &cfg, &without).expect("compile");
    println!(
        "without annotation: {} command copies (word-stem is opaque, pipeline blocked at it)",
        conservative.stats.nodes.commands
    );

    // One record — the entire developer effort.
    let mut with = without.clone();
    with.register_source("word-stem { | _ => (S, [stdin], [stdout]) }")
        .expect("record parses");
    let parallel = compile_with_library(script, &cfg, &with).expect("compile");
    println!(
        "with annotation:    {} command copies",
        parallel.stats.nodes.commands
    );
    assert!(parallel.stats.nodes.commands > conservative.stats.nodes.commands);

    // Outputs agree regardless.
    let mut outputs = Vec::new();
    for compiled in [&conservative, &parallel] {
        run_program(
            &compiled.plan,
            None,
            &registry,
            fs.clone(),
            &[],
            &ExecConfig::default(),
        )
        .expect("run");
        outputs.push(fs.read("out.txt").expect("output"));
    }
    assert_eq!(outputs[0], outputs[1]);
    println!("outputs are byte-identical with and without the annotation");
}
