//! The §6.4 web-indexing use case: fetch pages from a generated wiki
//! mirror, strip HTML, stem words, and build a term-frequency index.
//! The `html-to-text` and `word-stem` stages are not POSIX commands —
//! each becomes parallelizable through a one-line annotation (already
//! in the standard library; this example also shows registering one
//! from scratch).
//!
//! ```text
//! cargo run --example webindex
//! ```

use std::sync::Arc;

use pash::core::annot::stdlib::AnnotationLibrary;
use pash::core::compile::{compile_with_library, PashConfig};
use pash::coreutils::{fs::MemFs, Registry};
use pash::runtime::exec::{run_program, ExecConfig};
use pash::workloads::{generate_wiki, WikiSpec};

fn main() {
    let fs = Arc::new(MemFs::new());
    generate_wiki(
        &fs,
        "wiki",
        &WikiSpec {
            pages: 30,
            bytes_per_page: 3000,
            seed: 7,
        },
    );
    let script = "cat wiki/urls.txt | xargs -n 1 fetch | html-to-text | tr -cs A-Za-z '\\n' | tr A-Z a-z | word-stem | sort | uniq -c | sort -rn > index.txt";
    println!("indexing script:\n  {script}\n");

    // Demonstrate the light-touch extension path: a custom library
    // with the two non-POSIX stages annotated explicitly (these
    // records are what §6.4 counts as the entire annotation effort).
    let mut lib = AnnotationLibrary::standard().clone();
    lib.register_source("html-to-text { | _ => (S, [stdin], [stdout]) }")
        .expect("annotation parses");
    lib.register_source("word-stem { | _ => (S, [stdin], [stdout]) }")
        .expect("annotation parses");

    let registry = Registry::standard();
    let mut reference: Option<Vec<u8>> = None;
    for width in [1usize, 8] {
        let cfg = PashConfig {
            width,
            split: pash::core::dfg::SplitPolicy::Sized,
            ..Default::default()
        };
        let compiled = compile_with_library(script, &cfg, &lib).expect("compile");
        println!(
            "width {width}: {} DFG nodes ({} command copies)",
            compiled.stats.nodes.total(),
            compiled.stats.nodes.commands
        );
        run_program(
            &compiled.plan,
            None,
            &registry,
            fs.clone(),
            &[],
            &ExecConfig::default(),
        )
        .expect("run");
        let index = fs.read("index.txt").expect("index file");
        match &reference {
            None => reference = Some(index),
            Some(r) => assert_eq!(r, &index, "parallel index differs"),
        }
    }
    let index = reference.expect("index built");
    println!("\ntop stemmed terms:");
    for line in String::from_utf8_lossy(&index).lines().take(8) {
        println!("  {line}");
    }
}
