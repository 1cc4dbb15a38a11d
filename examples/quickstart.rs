//! Quickstart: compile a classic pipeline, inspect the parallel
//! script PaSh emits, and verify that parallel execution produces
//! byte-identical output to sequential execution.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::path::Path;
use std::sync::Arc;

use pash::core::backend::{emit_program, EmitConfig};
use pash::core::compile::PashConfig;
use pash::coreutils::{fs::MemFs, Registry};
use pash::runtime::exec::{run_script, ExecConfig};
use pash::runtime::proc::ProcessRunner;
use pash::runtime::remote::{serve_worker, shutdown_worker};
use pash::runtime::service::bind;
use pash::workloads::text_corpus;

fn main() {
    let script = "cat in.txt | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 5";
    println!("input script:\n  {script}\n");

    // 1. Compile at 4× parallelism and show the emitted POSIX script.
    let cfg = PashConfig {
        width: 4,
        ..Default::default()
    };
    let compiled = pash::compile(script, &cfg).expect("compile");
    println!(
        "compiled: {} region(s), {} DFG nodes, {:?} compile time",
        compiled.stats.regions,
        compiled.stats.nodes.total(),
        compiled.stats.compile_time
    );
    println!(
        "\nemitted parallel script:\n{}",
        emit_program(&compiled.plan, &EmitConfig)
    );

    // 2. Execute hermetically: sequential vs parallel must agree.
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", text_corpus(1, 200_000));
    let registry = Registry::standard();
    let seq = run_script(
        script,
        &PashConfig {
            width: 1,
            ..Default::default()
        },
        &registry,
        fs.clone(),
        Vec::new(),
        &ExecConfig::default(),
    )
    .expect("sequential run");
    let par = run_script(
        script,
        &cfg,
        &registry,
        fs,
        Vec::new(),
        &ExecConfig::default(),
    )
    .expect("parallel run");
    assert_eq!(seq.stdout, par.stdout, "parallel must match sequential");
    println!(
        "five most frequent words (parallel output, identical to sequential):\n{}",
        String::from_utf8_lossy(&par.stdout)
    );

    // 3. The same compiled plan drives every backend: select one by
    //    name through the facade. The `remote` backend ships regions
    //    to `pash-worker` daemons; one runs in-process here.
    let socket =
        std::env::temp_dir().join(format!("pash-quickstart-worker-{}", std::process::id()));
    let listener = bind(&socket).expect("bind worker");
    let worker = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_worker(listener, &socket))
    };
    let env = pash::RunEnv {
        workers: vec![socket.clone()],
        ..Default::default()
    };
    env.fs_mem().add("in.txt", text_corpus(1, 200_000));
    for &backend in pash::BACKENDS {
        if backend == "processes" && ProcessRunner::new(&env.proc, Path::new(".")).is_err() {
            println!("[{backend}] skipped: build `pashc` and `pash-rt` first");
            continue;
        }
        match pash::run(script, &cfg, backend, &env).expect("backend runs") {
            pash::BackendOutput::Script(s) => {
                println!("[{backend}] emitted {} script lines", s.lines().count())
            }
            pash::BackendOutput::Execution(out) => {
                assert_eq!(out.stdout, par.stdout, "{backend} output");
                println!("[{backend}] run matches");
            }
        }
    }
    shutdown_worker(&socket);
    worker.join().expect("worker thread").expect("serve worker");
}
